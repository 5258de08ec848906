"""Effective decay and dephasing rates of the recycling pump.

The pump drives |0> -> |E_y>; adiabatic elimination of the broad excited state
turns the round trip |0> -> |E_y> -> |+-1> into effective decay channels on |0>
and the |E_y> -> |0> branch into pure dephasing of |0>, all sharing a common
Lorentzian factor Omega_p^2 / (4 Delta_e^2 + Gamma_t^2) with
Gamma_t = Gamma_0 + Gamma_m1 + Gamma_p1.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass


@dataclass
class EffectiveRates:
    gamma_op_p1: float                      # effective |0> -> |+1> repump rate
    gamma_op_m1: float                      # effective |0> -> |-1> repump rate
    gamma_op_0: float                       # effective dephasing of |0>
    stark_shift_0: float                    # light shift of |0>

    def __post_init__(self):
        for name in ("gamma_op_p1", "gamma_op_m1", "gamma_op_0"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")


def _lorentzian_factor(rabi_pump, pump_detuning, total_linewidth):
    denom = 4.0 * pump_detuning**2 + total_linewidth**2
    if denom == 0.0:
        raise ZeroDivisionError(
            "degenerate pump system: zero detuning and zero excited linewidth")
    return rabi_pump**2 / denom


def outside_perturbative_regime(rabi_pump, Gamma_0, Gamma_p1, Gamma_m1) -> bool:
    """Omega_p > Gamma_t / 2: too strong a pump for the second-order rates."""
    return rabi_pump > (Gamma_0 + Gamma_p1 + Gamma_m1) / 2


def effective_pump_rates(rabi_pump, pump_detuning, Gamma_0, Gamma_p1, Gamma_m1,
                         stacklevel=2) -> EffectiveRates:
    """Second-order repump/dephasing rates; outside the perturbative regime it
    warns, naming the line `stacklevel` frames up (2: the caller's)."""
    for name, v in (("rabi_pump", rabi_pump), ("Gamma_0", Gamma_0),
                    ("Gamma_p1", Gamma_p1), ("Gamma_m1", Gamma_m1)):
        if v < 0:
            raise ValueError(f"{name} must be >= 0")
    total = Gamma_0 + Gamma_m1 + Gamma_p1
    if rabi_pump == 0.0:
        factor = 0.0
    else:
        factor = _lorentzian_factor(rabi_pump, pump_detuning, total)
        if outside_perturbative_regime(rabi_pump, Gamma_0, Gamma_p1, Gamma_m1):
            warnings.warn(
                f"pump Rabi frequency {rabi_pump} is outside the perturbative "
                f"regime (> half the excited linewidth {total}); the "
                "second-order rates are informational only", stacklevel=stacklevel)
    return EffectiveRates(
        gamma_op_p1=Gamma_p1 * factor,
        gamma_op_m1=Gamma_m1 * factor,
        gamma_op_0=Gamma_0 * factor,
        stark_shift_0=stark_shift(rabi_pump, pump_detuning, Gamma_0, Gamma_p1, Gamma_m1),
    )


def stark_shift(rabi_pump, pump_detuning, Gamma_0, Gamma_p1, Gamma_m1) -> float:
    """Light shift of |0>: -Delta_e Omega_p^2 / (4 Delta_e^2 + Gamma_t^2)."""
    if rabi_pump == 0.0:
        return 0.0
    total = Gamma_0 + Gamma_m1 + Gamma_p1
    return -pump_detuning * _lorentzian_factor(rabi_pump, pump_detuning, total)


def renormalized_decays(gamma_p1, gamma_m1, rates: EffectiveRates):
    """gamma_+- = gamma_{+-1} + Gamma_op^{+-1}; returns (gamma_plus, gamma_minus, total)."""
    if gamma_p1 < 0 or gamma_m1 < 0:
        raise ValueError("direct decays must be >= 0")
    gamma_plus = gamma_p1 + rates.gamma_op_p1
    gamma_minus = gamma_m1 + rates.gamma_op_m1
    return gamma_plus, gamma_minus, gamma_plus + gamma_minus
