"""Three model fidelities of the same cooling run.

The three-level model folds the recycling pump into renormalized decays; the
four-level model keeps |0> with a direct leak and effective repump channels;
the seven-level model keeps the pump drive and both auxiliary levels
explicitly.  Starting from <n> = 3 with the NV in |-1>, the three- and
seven-level curves track each other to ~2%.  The four-level curve runs hotter
here because the published leak rate gamma_0 = 0.1 Gamma is thirteen times
the metastable bottleneck Gamma_dark used by the seven-level chain; set
gamma_0 = Gamma_dark to watch the gap collapse.
"""

import numpy as np

import eitcool.operators as ops
from eitcool import (ModelParams, build_four_level_model,
                     build_seven_level_model, build_three_level_model, evolve)

gamma = 15.0
gamma_ren = gamma / 2 + (gamma / 150) * gamma**2 / ((gamma + 2 * gamma / 150) ** 2)
params = ModelParams(
    rabi_omega0=6.0, detuning=10.0,
    gamma_total=2 * gamma_ren, gamma_plus=gamma_ren, gamma_minus=gamma_ren,
    gamma_p1=gamma / 2, gamma_m1=gamma / 2, gamma_0=0.1 * gamma,
    gamma_dark=gamma / 130, gamma_s=gamma / 33,
    Gamma_0=gamma, Gamma_p1=gamma / 150, Gamma_m1=gamma / 150,
    rabi_pump=gamma, eta=0.115, bath="zero")

fock, t_final, samples = 12, 120.0, 61
curves = {}
for name, builder in (("3-level", build_three_level_model),
                      ("4-level", build_four_level_model),
                      ("7-level", build_seven_level_model)):
    model = builder(params, fock)
    rho0 = ops.basis_state(model.space, "-1", 3)
    series = evolve(model, rho0, t_final, samples, abs_tol=1e-9)
    curves[name] = series.column("n")
    times = series.times
    print(f"{name}: dim {model.space.dim}, {len(model.channels)} channels, "
          f"{series.meta['nfev']} function evaluations")

print("\nt [1/omega_m]   3-level   4-level   7-level")
for k in range(0, samples, 6):
    print(f"{times[k]:10.0f}     {curves['3-level'][k]:7.4f}   "
          f"{curves['4-level'][k]:7.4f}   {curves['7-level'][k]:7.4f}")

print()
for a, b in (("3-level", "7-level"), ("3-level", "4-level")):
    dev = np.abs(curves[a] - curves[b]) / np.maximum(curves[a], curves[b])
    print(f"max pointwise relative deviation {a} vs {b}: {dev.max():.3f}")
