"""write_csv against the per-cell rule it replaces: every cell (Python float
or np.float64) at 17 significant digits."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eitcool.csvio import BLOCK_ROWS, _round17, write_csv

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


# Edge cases of the numpy kernel: its fallbacks, its range and the '%g' switches.

def around(values, count):
    """Each positive double and the `count` doubles either side of it."""
    bits = np.asarray(values, np.float64).view(np.int64)[:, None] + np.arange(-count, count + 1)
    return bits.view(np.float64).ravel()


def signed_table(values):
    values = np.asarray(values, np.float64)
    return np.column_stack([values, -values])


def test_exact_decimal_ties(tmp_path):
    # m/4 for odd m has 16 integer digits and a fraction .25 or .75: its
    # 17-digit rounding is an exact half, which '%.17g' rounds to even
    m = np.random.default_rng(5).integers(2 * 10**15, 9 * 10**15 // 2, 4000) * 2 + 1
    m = np.concatenate([[4 * 10**15 + 1, 9 * 10**15 - 1], m])
    x = m / 4
    assert (x * 4 == m).all() and (m % 2 == 1).all()
    assert_same_bytes(tmp_path, ["x", "minus_x"], signed_table(x))


def test_powers_of_ten_and_their_neighbours(tmp_path):
    powers = [float(f"1e{k}") for k in range(-323, 309)]
    assert_same_bytes(tmp_path, ["x", "minus_x"], signed_table(around(powers, 1)))


@pytest.mark.parametrize("switch", [1e-5, 1e-4, 1e16, 1e17])
def test_either_side_of_a_layout_switch(tmp_path, switch):
    assert_same_bytes(tmp_path, ["x", "minus_x"], signed_table(around([switch], 64)))


@pytest.mark.parametrize("edge", [1e-280, 1e280])
def test_either_side_of_the_kernel_range(tmp_path, edge):
    assert_same_bytes(tmp_path, ["x", "minus_x"], signed_table(around([edge], 64)))


def test_special_cells_in_the_middle_of_a_block(tmp_path):
    table = np.random.default_rng(6).standard_normal((BLOCK_ROWS + 3, 4))
    middle = BLOCK_ROWS // 2
    table[middle] = [0.0, -0.0, math.nan, math.inf]
    table[middle + 1, 1:3] = [-math.inf, -math.nan]
    assert_same_bytes(tmp_path, ["a", "b", "c", "d"], table)


def test_ordinary_cells_take_the_kernel():
    # Python formats only the fallback classes.  An exact tie needs a double
    # whose decimal expansion has 18 significant digits: a short dyadic
    # fraction, or, with a full significand, one between about 1e13 and 2**53.
    # The grid and the random doubles here meet no fallback class.
    rng = np.random.default_rng(7)
    cells = np.concatenate([np.linspace(-40, 10, 5001), rng.standard_normal(5000),
                            10 ** rng.uniform(-200, 12, 5000)])
    _, _, fallback = _round17(cells[cells != 0])
    assert not fallback.any()
