"""Closed-form layer: fluctuation spectrum, cooling/heating coefficients,
steady phonon number, and the absorption spectrum from the closed-form
correlation transform.

Everything is expressed in units of omega_m = 1; only thermal_occupation and
the kHz reporting helpers touch SI quantities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import HBAR, K_B, TWO_PI
from .nvmodel import optimal_detuning
from .params import ModelParams


@dataclass
class RateReport:
    a_plus: float       # heating coefficient (units omega_m); each field a float or a grid
    a_minus: float      # cooling coefficient
    w: float            # net cooling rate a_minus - a_plus
    n_ss: float         # (a_plus + N gamma_m) / (w + gamma_m)
    thermal_n: float    # bath occupation N(omega_m) used for n_ss

    def __post_init__(self):
        if np.any(self.a_plus < 0) or np.any(self.a_minus < 0):
            raise ValueError("heating/cooling coefficients must be >= 0")


@dataclass
class SpectrumSeries:
    omegas: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.omegas = np.asarray(self.omegas, dtype=float)
        self.values = np.asarray(self.values)
        if self.omegas.ndim != 1 or len(self.omegas) != len(self.values):
            raise ValueError("omegas and values must be 1-d and equally long")
        if len(self.omegas) > 1 and not np.all(np.diff(self.omegas) > 0):
            raise ValueError("omegas must be strictly increasing")


# ---------------------------------------------------------------------------
# closed forms

def thermal_occupation(omega_m, temperature):
    """Bose occupation 1/(exp(hbar omega_m / k_B T) - 1); zero at T = 0; T may be a grid."""
    temperature = np.asarray(temperature, dtype=float)
    if np.any(temperature < 0):
        raise ValueError("temperature must be >= 0")
    with np.errstate(divide="ignore", over="ignore"):
        x = HBAR * omega_m / (K_B * temperature)
        n = np.where(x > 700.0, 0.0, 1.0 / np.expm1(x))
    return float(n) if n.ndim == 0 else n


def fluctuation_spectrum(params: ModelParams, omega):
    """S(omega) = eta^2 (Omega_0^2/2) times the closed-form correlation transform;
    omega may be a grid, and a float gives a complex."""
    return (params.eta**2 * (params.rabi_omega0**2 / 2.0)
            * correlation_transform_closed_form(params, omega))


def _bath_occupation(params: ModelParams) -> float:
    if params.bath == "thermal":
        return thermal_occupation(params.omega_m, params.temperature)
    return 0.0


def rates(params: ModelParams) -> RateReport:
    """Heating/cooling coefficients of the optically pumped NV on the phonon.

    A_+- = 2 Gamma eta^2 Omega_0^2 / (Gamma^2 + 4 (Omega_0^2/2 +- Delta - 1)^2),
    equal to 2 Re S(-+ omega_m) of the fluctuation spectrum.  Fields holding
    grids broadcast, so a whole sweep is one call.
    """
    gamma, delta, omega0 = params.gamma_total, params.detuning, params.rabi_omega0
    if gamma <= 0:
        raise ValueError("gamma_total must be > 0")
    # np.square, not **: a float's ** is libm pow, and a grid must round as its points do
    num = 2.0 * gamma * params.eta**2 * np.square(omega0)
    a_plus = num / (gamma**2 + 4.0 * np.square(np.square(omega0) / 2.0 + delta - 1.0))
    a_minus = num / (gamma**2 + 4.0 * np.square(np.square(omega0) / 2.0 - delta - 1.0))
    w = a_minus - a_plus
    n_th = _bath_occupation(params)
    return RateReport(a_plus=a_plus, a_minus=a_minus, w=w,
                      n_ss=steady_occupation(a_plus, w, n_th, params.gamma_mech),
                      thermal_n=n_th)


def steady_occupation(a_plus, w, thermal_n, gamma_m):
    """(A_+ + N gamma_m) / (W + gamma_m), elementwise on grids; infinite under net
    heating (W + gamma_m <= 0)."""
    denom = np.asarray(w + gamma_m)
    with np.errstate(divide="ignore", invalid="ignore"):
        n = np.where(denom > 0, (a_plus + thermal_n * gamma_m) / denom, math.inf)
    return float(n) if n.ndim == 0 else n


def rates_at_optimum(m_ratio, gamma_total, eta) -> RateReport:
    """Coefficients at the red-sideband-resonant detuning Delta = (m_R^2 - 2)/2.

    Same code path as rates(); the bath does not enter (gamma_mech = 0), so
    n_ss here is the pure back-action limit a_plus / w.
    """
    if m_ratio <= 0:
        raise ValueError("m_ratio must be > 0")
    params = ModelParams(rabi_omega0=m_ratio, detuning=optimal_detuning(m_ratio),
                         gamma_total=gamma_total, eta=eta,
                         gamma_mech=0.0, bath="zero")
    return rates(params)


def rate_in_khz(value, omega_m) -> float:
    """Convert a rate in omega_m units to laboratory kHz (as omega/2pi)."""
    return value * (omega_m / TWO_PI) / 1e3


def steady_phonon_terms(params: ModelParams, report: RateReport) -> dict:
    """Back-action + thermal split of the optimal-detuning closed form.

    (Gamma / 4 Delta)^2 + N gamma_m / W; a diagnostic that assumes W >> gamma_m
    and Delta at the red-sideband optimum.
    """
    delta = params.detuning
    backaction = (params.gamma_total / (4.0 * delta)) ** 2 if delta != 0 else math.inf
    thermal = report.thermal_n * params.gamma_mech / report.w if report.w > 0 else math.inf
    optimum = optimal_detuning(params.rabi_omega0)
    return {
        "backaction": backaction,
        "thermal": thermal,
        "total": backaction + thermal,
        "at_optimal_detuning": abs(delta - optimum) <= 1e-12 * max(1.0, abs(optimum)),
    }


def analytic_trajectory(report: RateReport, gamma_m, thermal_n, t):
    """<n(t)> = n_ss + exp(-(W + gamma_m) t) (N - n_ss), starting from N."""
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("t must be >= 0")
    denom = report.w + gamma_m
    if denom <= 0:
        raise ValueError("W + gamma_m must be > 0 for a decaying trajectory")
    n_ss = steady_occupation(report.a_plus, report.w, thermal_n, gamma_m)
    out = n_ss + np.exp(-denom * t) * (thermal_n - n_ss)
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# correlation transform and the absorption spectrum

def correlation_transform_closed_form(params: ModelParams, omega):
    """2 i w / (i Gamma w + 2 Delta w + 2 w^2 - Omega_0^2), the one-sided
    transform of the excited-dark correlation <sigma_y^{A2,d}(t) sigma_y^{A2,d}(0)>_ss.

    omega (and the parameters) may be grids, which broadcast; a float omega
    with scalar parameters gives a complex.
    """
    gamma, delta, omega0 = params.gamma_total, params.detuning, params.rabi_omega0
    omega = np.asarray(omega, dtype=float)
    # np.square, not **: a float's ** is libm pow, and a grid must round as its points do
    denom = (1j * gamma * omega + 2.0 * delta * omega + 2.0 * np.square(omega)
             - np.square(omega0))
    at_pole = np.abs(denom) < 1e-14
    if np.any(at_pole):
        raise ZeroDivisionError(
            f"transform pole at omega = {np.broadcast_to(omega, at_pole.shape)[at_pole][0]}")
    out = 2j * omega / denom
    return complex(out) if out.ndim == 0 else out


def absorption_spectrum(params: ModelParams, probe_detuning_grid) -> SpectrumSeries:
    """Sideband absorption of the driven NV versus probe frequency offset.

    (Gamma/2) Re of the correlation transform, 2 Gamma w^2 / |denominator|^2,
    over the whole grid in one call: the dressed-state resonances, where the
    denominator loses its real part, peak at exactly 1.  The two-photon-resonant
    point omega = 0 is an exact dark dip, and values are non-negative.
    """
    grid = np.asarray(probe_detuning_grid, dtype=float)
    if grid.size == 0:
        raise ValueError("probe detuning grid is empty")
    if params.gamma_total <= 0 or params.rabi_omega0 <= 0:
        raise ValueError("correlation transform needs Gamma > 0 and Omega_0 > 0")
    transform = correlation_transform_closed_form(params, grid)
    # + 0.0 turns the dip's -0.0 into 0.0, which the CSV writes as 0, not -0
    values = (params.gamma_total / 2.0) * transform.real + 0.0
    return SpectrumSeries(omegas=grid, values=values)
