"""write_csv against the per-cell rule it replaces: every cell (Python float
or np.float64) at 17 significant digits."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eitcool.csvio import BLOCK_ROWS, write_csv

SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None)

# 0, 1, either side of a block boundary, and several blocks
ROW_COUNTS = st.sampled_from([0, 1, 2, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1,
                              3 * BLOCK_ROWS + 5])
SPECIAL_BITS = [0x7FF0000000000000, 0xFFF0000000000000,    # +inf, -inf
                0x7FF8000000000000, 0xFFF8000000000001,    # NaNs, one signed
                0x8000000000000000, 0x0000000000000001,    # -0.0, smallest subnormal
                0x800FFFFFFFFFFFFF, 0x7FEFFFFFFFFFFFFF]    # largest subnormal, max


def reference_csv(path, header, rows):
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


def assert_same_bytes(tmp_path, header, rows):
    write_csv(tmp_path / "new.csv", header, rows)
    reference_csv(tmp_path / "old.csv", header, rows)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


@SETTINGS
@given(n_rows=ROW_COUNTS, n_cols=st.integers(1, 5), seed=st.integers(0, 2**32 - 1),
       specials=st.lists(st.tuples(st.integers(0), st.sampled_from(SPECIAL_BITS)),
                         max_size=12))
def test_float64_tables_from_raw_bits(tmp_path_factory, n_rows, n_cols, seed, specials):
    bits = np.random.default_rng(seed).integers(0, 2**64, size=n_rows * n_cols,
                                                dtype=np.uint64, endpoint=False)
    for position, pattern in specials:
        if bits.size:
            bits[position % bits.size] = pattern
    table = bits.view(np.float64).reshape(n_rows, n_cols)
    header = [f"c{k}" for k in range(n_cols)]
    assert_same_bytes(tmp_path_factory.mktemp("table"), header, table)


FLOATS = st.floats(allow_nan=True, allow_infinity=True)
CELLS = st.one_of(FLOATS, FLOATS.map(np.float64))


@SETTINGS
@given(sample=st.integers(1, 5).flatmap(lambda n_cols: st.lists(
           st.lists(CELLS, min_size=n_cols, max_size=n_cols), min_size=1, max_size=6)),
       n_rows=ROW_COUNTS)
# a Python float and an np.float64 in one column
@example(sample=[[0.1, np.float64(-0.0)], [np.float64(2.5), -math.inf]], n_rows=3)
def test_float_row_lists(tmp_path_factory, sample, n_rows):
    rows = [sample[k % len(sample)] for k in range(n_rows)]
    header = [f"c{k}" for k in range(len(sample[0]))]
    assert_same_bytes(tmp_path_factory.mktemp("rows"), header, rows)


def test_string_cell_is_rejected(tmp_path):
    with pytest.raises(ValueError, match="could not convert string to float"):
        write_csv(tmp_path / "s.csv", ["a", "b"], [[1.0, "x"]])
    assert not (tmp_path / "s.csv").exists()
