"""The EIT dark dip and dressed-state resonances in the sideband absorption.

The spectrum is the real part of the dark-state force correlation transform,
computed point by point from the Bloch equations (a linear solve per
frequency), normalized to a unit peak.  At two-photon resonance (omega = 0)
the dark state decouples exactly; the maxima sit exactly at the dressed
energies E+- because the transform's denominator loses its real part there.
"""

import numpy as np

from eitcool import ModelParams, absorption_spectrum, dressed_states
from eitcool.csvio import write_csv

params = ModelParams()
rep = dressed_states(params)

grid = np.linspace(-40.0, 10.0, 2001)
series = absorption_spectrum(params, grid)
v = series.values

k0 = int(np.argmin(np.abs(grid)))
peaks = [k for k in range(1, len(grid) - 1) if v[k] > v[k - 1] and v[k] > v[k + 1]]

print(f"grid: {len(grid)} points over [{grid[0]}, {grid[-1]}] omega_m")
print(f"absorption at the two-photon-resonant point: {v[k0]:.3e}")
print(f"maxima at omega = {[round(grid[k], 3) for k in peaks]}")
print(f"dressed energies: E- = {rep.e_minus}, E+ = {rep.e_plus}")
print(f"peak values: {[round(v[k], 4) for k in peaks]} (unit-normalized)")

# the three phonon transitions seen by the sideband:
for name, w in (("carrier (n -> n)", 0.0), ("red sideband (n -> n-1)", 1.0),
                ("blue sideband (n -> n+1)", -1.0)):
    k = int(np.argmin(np.abs(grid - w)))
    print(f"{name:26s} absorption {v[k]:.5f}")

write_csv("absorption_demo.csv", ["omega", "absorption"], np.column_stack([grid, v]))
print("wrote absorption_demo.csv")
