"""Model parameter set for the coupled NV-cantilever system.

Every rate and energy is expressed in units of the cantilever frequency
omega_m; the omega_m field itself carries the SI anchor (rad/s) and is used
only for thermal occupation and for reporting rates in laboratory units.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

from .constants import TWO_PI


@dataclass
class ModelParams:
    omega_m: float = TWO_PI * 1e6      # SI anchor, rad/s

    # Lambda-system drive (units of omega_m)
    rabi_omega0: float = 8.0           # Omega_0
    detuning: float = 31.0             # Delta, common two-photon-resonant detuning

    # renormalized decays of |A2> -> |+-1> used by the three-level model
    gamma_total: float = 15.0          # Gamma = gamma_plus + gamma_minus
    gamma_plus: float | None = None    # defaults to Gamma/2
    gamma_minus: float | None = None

    # microscopic decays for the four- and seven-level models
    gamma_p1: float = 7.5              # |A2> -> |+1>
    gamma_m1: float = 7.5              # |A2> -> |-1>
    gamma_0: float = 0.0               # |A2> -> |0> (four-level shortcut)
    gamma_dark: float = 0.0            # |A2> -> |1A1>
    gamma_s: float = 0.0               # |1A1> -> |0>
    Gamma_0: float = 0.0               # |E_y> -> |0>
    Gamma_p1: float = 0.0              # |E_y> -> |+1>
    Gamma_m1: float = 0.0              # |E_y> -> |-1>

    # recycling pump
    rabi_pump: float = 0.0             # Omega_p
    pump_detuning: float = 0.0         # Delta_e = omega_e - omega_p

    # magnetic-gradient coupling; in omega_m units these are the same number,
    # so setting either fixes both (setting both to different values is an error)
    eta: float | None = None           # Lamb-Dicke parameter lambda/omega_m
    lambda_coupling: float | None = None

    # mechanical bath
    quality_q: float = 1e5
    temperature: float = 0.020         # K
    gamma_mech: float | None = None    # defaults to 1/Q (units of omega_m)
    bath: str = "zero"                 # "zero" | "thermal"

    # quasi-static nuclear-bath shift applied to the |-1> level
    nuclear_shift: float = 0.0

    def __post_init__(self):
        if self.gamma_plus is None:
            self.gamma_plus = self.gamma_total / 2
        if self.gamma_minus is None:
            self.gamma_minus = self.gamma_total / 2
        if self.eta is None and self.lambda_coupling is None:
            self.eta = 0.115
        if self.eta is None:
            # checked under the name it was given, before eta takes its value
            if not 0 <= self.lambda_coupling < math.inf:
                raise ValueError(f"lambda_coupling must be finite and >= 0, "
                                 f"got {self.lambda_coupling}")
            self.eta = self.lambda_coupling
        if self.lambda_coupling is None:
            self.lambda_coupling = self.eta
        if abs(self.lambda_coupling - self.eta) > 1e-12 * max(1.0, self.eta):
            raise ValueError(
                f"eta ({self.eta}) and lambda_coupling ({self.lambda_coupling}) "
                "disagree; in omega_m units they are the same quantity")
        if self.gamma_mech is None:
            self.gamma_mech = 1.0 / self.quality_q
        self.validate()

    def validate(self):
        # every bound is written so that NaN fails it as well as +-inf
        inf = math.inf
        for name, value in (("quality_q", self.quality_q), ("omega_m", self.omega_m)):
            if not 0 < value < inf:
                raise ValueError(f"{name} must be finite and > 0, got {value}")
        bounded_below = {
            "gamma_total": self.gamma_total, "gamma_plus": self.gamma_plus,
            "gamma_minus": self.gamma_minus, "gamma_p1": self.gamma_p1,
            "gamma_m1": self.gamma_m1, "gamma_0": self.gamma_0,
            "gamma_dark": self.gamma_dark, "gamma_s": self.gamma_s,
            "Gamma_0": self.Gamma_0, "Gamma_p1": self.Gamma_p1,
            "Gamma_m1": self.Gamma_m1, "rabi_pump": self.rabi_pump,
            "gamma_mech": self.gamma_mech, "eta": self.eta,
            "temperature": self.temperature,
        }
        for name, value in bounded_below.items():
            if not 0 <= value < inf:
                raise ValueError(f"{name} must be finite and >= 0, got {value}")
        signed = {"rabi_omega0": self.rabi_omega0, "detuning": self.detuning,
                  "pump_detuning": self.pump_detuning,
                  "nuclear_shift": self.nuclear_shift}
        for name, value in signed.items():
            if not -inf < value < inf:
                raise ValueError(f"{name} must be finite, got {value}")
        if self.gamma_plus + self.gamma_minus > self.gamma_total * (1 + 1e-9):
            raise ValueError("gamma_plus + gamma_minus exceeds gamma_total")
        if self.bath not in ("zero", "thermal"):
            raise ValueError(f"bath must be 'zero' or 'thermal', got {self.bath!r}")
        return self

    def replace(self, **changes) -> "ModelParams":
        return dataclasses.replace(self, **changes)
