"""Closed-form tour of the cooling scheme at the reference operating point.

The NV Lambda system is driven at two-photon resonance with Rabi frequency
Omega_0 = 8 omega_m and common detuning Delta = 31 omega_m, chosen so the
red-sideband transition into the upper dressed state is resonant
(Delta = (m_R^2 - 2)/2 with m_R = 8).  Everything below is plain arithmetic:
no density matrices are harmed.
"""

import numpy as np

from eitcool import (ModelParams, dressed_states, fluctuation_spectrum,
                     rate_in_khz, rates, rates_at_optimum, steady_phonon_terms,
                     thermal_occupation)

params = ModelParams(bath="thermal")  # omega_m/2pi = 1 MHz, Q = 1e5, T = 20 mK

print("== operating point ==")
print(f"Omega_0 = {params.rabi_omega0} omega_m, Delta = {params.detuning} omega_m,"
      f" Gamma = {params.gamma_total} omega_m, eta = {params.eta}")

rep = dressed_states(params)
print("\n== dressed states of the bright/excited pair ==")
print(f"E+ = {rep.e_plus:+.4f} omega_m  (red sideband resonant when E+ = 1)")
print(f"E- = {rep.e_minus:+.4f} omega_m")
print(f"linewidths: {rep.linewidth_plus:.4f} / {rep.linewidth_minus:.4f} omega_m")

report = rates(params)
print("\n== cooling and heating coefficients ==")
print(f"A- = {report.a_minus:.6f} omega_m = {rate_in_khz(report.a_minus, params.omega_m):.1f} kHz")
print(f"A+ = {report.a_plus:.6f} omega_m = {rate_in_khz(report.a_plus, params.omega_m):.2f} kHz")
print(f"net rate W = {report.w:.6f} omega_m; A-/A+ = {report.a_minus / report.a_plus:.1f}")

# the same numbers through the fluctuation spectrum of the dark-state force
s_red = 2 * fluctuation_spectrum(params, +1.0).real
s_blue = 2 * fluctuation_spectrum(params, -1.0).real
print(f"2 Re S(+omega_m) = {s_red:.6f} (equals A-)")
print(f"2 Re S(-omega_m) = {s_blue:.6f} (equals A+)")

n_bath = thermal_occupation(params.omega_m, params.temperature)
terms = steady_phonon_terms(params, report)
print("\n== steady phonon number (rate model) ==")
print(f"bath occupation N = {n_bath:.1f} at T = {params.temperature * 1e3:.0f} mK")
print(f"n_ss = {report.n_ss:.4f}  (back-action {terms['backaction']:.4f}"
      f" + thermal {terms['thermal']:.4f})")

print("\n== sweep of the drive strength at the per-point optimal detuning ==")
print("m_R    A+            A-          A-/A+")
for m_r in (2, 4, 6, 8, 10, 12):
    opt = rates_at_optimum(m_r, params.gamma_total, params.eta)
    print(f"{m_r:3d}  {opt.a_plus:.6f}  {opt.a_minus:.6f}  {opt.a_minus / opt.a_plus:8.1f}")
