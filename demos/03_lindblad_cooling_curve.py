"""Full master-equation cooling run versus the closed-form rate model.

A three-level Lindblad model (36-dimensional: three internal levels times a
12-level phonon ladder) is integrated from the dark state with three phonons.
The rate model predicts exponential relaxation at W = A- - A+; the full
numerics cool somewhat slower in this non-resolved regime (Gamma = 15
omega_m) and settle at a higher bare-basis phonon number, part of which is
a bare-basis offset of order eta^2 (see README's caveats) rather than real
heating.
"""

import numpy as np

from eitcool import (ModelParams, analytic_trajectory, build_three_level_model,
                     evolve, extract_cooling_rate, product_state, rates,
                     steady_state, expectation)
from eitcool.nvmodel import dark_state_vector

params = ModelParams(bath="thermal")
fock = 12
model = build_three_level_model(params, fock)

pops = np.zeros(fock)
pops[3] = 1.0
rho0 = product_state(model.space, dark_state_vector(model.space), pops)

series = evolve(model, rho0, t_final=160.0, sample_count=161, abs_tol=1e-10)
report = rates(params)

print("t [1/omega_m]   <n> numeric   rate model (from N)")
for k in range(0, 161, 20):
    t = series.times[k]
    print(f"{t:10.1f}   {series.column('n')[k]:11.4f}"
          f"   {analytic_trajectory(report, params.gamma_mech, 3.0, t):11.4f}")

fit = extract_cooling_rate(series, "n", transient_time=5.0 / params.gamma_total)
print(f"\nfitted decay rate  : {fit.w_fit:.5f} omega_m over window {fit.fit_window}")
print(f"rate-model W       : {report.w:.5f} omega_m")
print(f"fitted tail <n>    : {fit.n_ss_fit:.4f}")

rho_ss = steady_state(model)
n_ss_full = expectation(rho_ss, model.observables["n"]).real
print(f"Liouvillian steady <n>: {n_ss_full:.4f} "
      f"(rate model: {report.n_ss:.4f}; the gap is "
      f"{(n_ss_full - report.n_ss) / params.eta**2:.2f} eta^2)")
print(f"trace drift {np.abs(series.column('trace') - 1).max():.1e}, "
      f"max ladder-top population {series.leakage.max():.1e}")
