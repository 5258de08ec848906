"""Deterministic CSV emission: comma-separated, '.' decimal, LF endings,
mandatory header, floats at 17 significant digits."""

from __future__ import annotations

import functools
import hashlib
import itertools
import types

import numpy as np

# Rows per block.  One closed-form bench round peaked at 2.1, 2.7 and 6.4 MB
# (tracemalloc) with 512, 1,024 and 4,096 rows, against 1.7 MB for the '%'
# writer, and its five tables formatted in 28.8, 25.6 and 25.4 ms.
BLOCK_ROWS = 512

# A cell's 32 source bytes: NUL '-' '0' '.', the first digit, three spare, the
# other 16 digits, 'e', the exponent's sign and three digits, and the cell's
# separator.  A '%g' pattern picks up to 25 of them by index, NUL for none.
_MINUS, _ZERO, _POINT, _LEAD, _DIGITS, _E, _SEP, _WIDTH = 1, 2, 3, 4, 8, 24, 29, 32
_CASES = 23   # fixed point for X = -4..16 (cases 0..20), then e±dd (21) and e±ddd (22)
_RAW = 2 * _CASES * 17   # the pattern of a cell that Python formatted
_LOW, _HIGH = 1e-280, 1e280   # 10**(16 - X) and its Veltkamp split stay finite
_X_MIN, _X_MAX = -281, 280    # floor(log10|x|) on [_LOW, _HIGH), one to spare
_SPLIT = 134217729.0   # 2**27 + 1


def _pattern(neg, case, n):
    """Source indices of one '%.17g' cell with n significant digits."""
    digits = [_LEAD, *range(_DIGITS, _DIGITS + 16)]
    if case < 4:                          # 0.000ddd
        body = [_ZERO, _POINT] + [_ZERO] * (3 - case) + digits[:n]
    elif case < 21:                       # X + 1 integer digits, then the rest
        whole = case - 3
        body = digits[:whole] + ([_POINT] + digits[whole:n] if n > whole else [])
    else:                                 # d.ddde±dd or d.ddde±ddd
        body = (digits[:1] + ([_POINT] + digits[1:n] if n > 1 else [])
                + [_E, _E + 1] + list(range(_E + 2 + (case == 21), _E + 5)))
    return [_MINUS] * neg + body + [_SEP]


def _split(x):
    """Veltkamp's split of x into two halves whose products are exact."""
    big = x * _SPLIT
    high = big - (big - x)
    return high, x - high


@functools.cache
def _tables():
    """Per X in [_X_MIN, _X_MAX]: 10**(16 - X) as hi + lo, each correctly
    rounded from Python ints, with hi's split; 'e±ddd'; 17 times the layout
    case.  Per 0..9999: its four digits and their trailing zeros.  The
    patterns by key (sign, case, significant digits - 1)."""
    hi, lo = [], []
    for x in range(_X_MIN, _X_MAX + 1):
        num, den = (10 ** (16 - x), 1) if x <= 16 else (1, 10 ** (x - 16))
        h = num / den
        n, d = h.as_integer_ratio()
        hi.append(h)
        lo.append((num * d - n * den) / (den * d))
    x = np.arange(_X_MIN, _X_MAX + 1)
    case = np.where((x < -4) | (x > 16), 21 + (np.abs(x) >= 100), x + 4)
    digits = np.arange(10000, dtype=np.int16)[:, None] // np.array([1000, 100, 10, 1],
                                                                  np.int16) % 10
    four = np.zeros((10000, 8), np.uint8)
    four[:, :4] = digits + ord("0")
    four[:, 4] = np.argmax(digits[:, ::-1] != 0, axis=1)
    four[0, 4] = 4                      # 0000: argmax found no nonzero digit
    exponent = np.zeros((x.size, 8), np.uint8)
    exponent[:, 0] = ord("e")
    exponent[:, 1] = np.where(x < 0, ord("-"), ord("+"))
    exponent[:, 2:5] = four[np.abs(x), 1:4]
    patterns = np.zeros((_RAW + 1, 25), np.int8)
    for key, (neg, layout, n) in enumerate(itertools.product((0, 1), range(_CASES),
                                                             range(1, 18))):
        cell = _pattern(neg, layout, n)
        patterns[key, :len(cell)] = cell
    patterns[_RAW] = [*range(24), _SEP]
    return types.SimpleNamespace(
        powers=np.array([hi, *_split(np.array(hi)), lo]), exponent=exponent.view("<u8").ravel(),
        four=four.view("<u4"), case17=case * 17, patterns=patterns)


def _round17(flat):
    """For each cell, the row X - _X_MIN of the per-exponent tables, where
    X = floor(log10|x|); N = round(|x| 10**(16 - X)); and whether Python must
    format the cell instead.

    For 1e-280 <= |x| < 1e280, N comes from Dekker's exact product p + e of |x|
    with hi and the rounded product with lo, whose error is below 1e-13.  The
    rest goes to Python: zeros, nan, inf, |x| outside that range, a fraction
    within 1e-9 of one half, and X off by one next to a power of ten (N >= 1e17,
    or |x| 10**(16 - X) below 1e16 - 0.01; above that, '%.17g' also rounds up
    to 10**X)."""
    powers = _tables().powers
    mag = np.abs(flat)
    kernel = (mag >= _LOW) & (mag < _HIGH)
    mag[~kernel] = 1.0
    x = np.floor(np.log10(mag)).astype(np.intp) - _X_MIN
    t_hi, t1, t2, t_lo = powers.take(x, axis=1)
    p = mag * t_hi
    m1, m2 = _split(mag)
    r = (((m1 * t1 - p) + m1 * t2 + m2 * t1) + m2 * t2) + mag * t_lo
    whole = np.floor(r)
    up = r - whole
    n = p.astype(np.int64) + (whole + (up > 0.5)).astype(np.int64)
    fallback = ~kernel | (np.abs(up - 0.5) < 1e-9) | ((p - 1e16) + r < -0.01) | (n >= 10 ** 17)
    return x, n, fallback


def _sources(x, n, cols):
    """Each cell's 32 source bytes, and the trailing zeros of its 17 digits."""
    tables = _tables()
    top, low8 = np.divmod(n, 10 ** 8)
    lead, mid8 = np.divmod(top, 10 ** 8)
    groups = np.empty((n.size, 4), np.int64)
    np.divmod(mid8, 10 ** 4, out=(groups[:, 0], groups[:, 1]))
    np.divmod(low8, 10 ** 4, out=(groups[:, 2], groups[:, 3]))
    packed = tables.four.take(groups, axis=0)          # (cells, 4, 2): digits, zeros
    src = np.empty((n.size, _WIDTH), np.uint8)
    words = src.view("<u8")
    words[:, 0] = ((lead + ord("0")) << 32) + int.from_bytes(b"\0-0.", "little")
    src.view("<u4")[:, _DIGITS // 4:_E // 4] = packed[:, :, 0]
    sep = np.full(cols, ord(",") << 40, "<u8")
    sep[-1] = ord("\n") << 40
    words.reshape(-1, cols, 4)[:, :, 3] = tables.exponent.take(x).reshape(-1, cols) | sep
    zeros = packed[:, :, 1]
    trailing, full = zeros[:, 3].astype(np.intp), zeros[:, 3] == 4
    for k in (2, 1, 0):
        trailing += zeros[:, k] * full
        full &= zeros[:, k] == 4
    return src, trailing


def _format_block(block):
    """'%.17g' of every cell of a 2-d block as bytes, ',' between the cells of
    a row and LF after it: N's digits laid out by the pattern of the cell's
    sign, layout case and number of significant digits."""
    tables = _tables()
    flat = block.ravel()
    x, n, fallback = _round17(flat)
    src, trailing = _sources(x, n, block.shape[1])
    key = tables.case17.take(x) + 16 - trailing + np.signbit(flat) * (_CASES * 17)
    if fallback.any():
        key[fallback] = _RAW
        text = ["%.17g" % v for v in flat[fallback].tolist()]
        src[fallback, :24] = np.array(text, dtype="S24").view(np.uint8).reshape(-1, 24)
    out = src.ravel().take(tables.patterns.take(key, axis=0)
                           + np.arange(0, flat.size * _WIDTH, _WIDTH)[:, None])
    return out[out != 0].tobytes()


def write_csv(path, header, rows):
    """Write a 2-d float table under a header list, '%.17g' per cell, one
    block of rows at a time."""
    rows = np.asarray(rows, dtype=np.float64)
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        for start in range(0, len(rows), BLOCK_ROWS):
            fh.write(_format_block(rows[start:start + BLOCK_ROWS]))


def sha256_of(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()
