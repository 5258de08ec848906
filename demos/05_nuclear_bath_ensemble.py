"""Cooling degradation under a quasi-static nuclear-spin bath.

Each realization shifts the |-1> level by a random detuning drawn uniformly
from [-delta_max, delta_max], breaking the two-photon resonance and letting
the carrier leak through the dark state.  Draws share one seed across
delta_max values, so the curves are directly comparable; bigger spreads cool
slower and settle higher.
"""

from eitcool import ModelParams, monte_carlo_detuning

params = ModelParams(bath="zero")  # Omega_0 = 8, Delta = 31, Gamma = 15

print("delta_max [omega_m]   tail <n>   cooling time [1/omega_m]")
for delta_max in (0.0, 0.2, 0.5):
    out = monte_carlo_detuning(params, delta_max, samples=4, seed=42,
                               fock_dim=14, t_final=150.0, sample_count=61)
    cool = f"{out.cooling_time:.0f}" if out.cooling_time != float("inf") else ">t_final"
    print(f"{delta_max:18.2f}   {out.n_ss_mean:8.4f}   {cool:>12s}"
          f"   draws: {[round(float(d), 3) for d in out.deltas]}")
print("\n(the tail rises and the cooling time stretches as the spread grows;")
print(" run the nuclear-bath scenario config for the averaged curves)")
