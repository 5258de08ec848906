"""Closed-form layer: fluctuation spectrum, cooling/heating coefficients,
phonon rate equation, Bloch steady state and the regression-theorem oracle.

Everything is expressed in units of omega_m = 1; only thermal_occupation and
the kHz reporting helpers touch SI quantities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import operators as ops
from .constants import HBAR, K_B, TWO_PI
from .nvmodel import optimal_detuning
from .operators import DensityMatrix
from .params import ModelParams


@dataclass
class RateReport:
    a_plus: float       # heating coefficient (units omega_m)
    a_minus: float      # cooling coefficient
    w: float            # net cooling rate a_minus - a_plus
    n_ss: float         # (a_plus + N gamma_m) / (w + gamma_m)
    thermal_n: float    # bath occupation N(omega_m) used for n_ss

    def __post_init__(self):
        if self.a_plus < 0 or self.a_minus < 0:
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

def thermal_occupation(omega_m, temperature) -> float:
    """Bose occupation 1/(exp(hbar omega_m / k_B T) - 1); zero at T = 0."""
    if temperature < 0:
        raise ValueError("temperature must be >= 0")
    if temperature == 0.0:
        return 0.0
    x = HBAR * omega_m / (K_B * temperature)
    if x > 700.0:
        return 0.0
    return 1.0 / math.expm1(x)


def fluctuation_spectrum(params: ModelParams, omega) -> complex:
    """S(omega) = eta^2 (Omega_0^2/2) times the closed-form correlation transform."""
    return (params.eta**2 * (params.rabi_omega0**2 / 2.0)
            * correlation_transform_closed_form(params, omega))


def _bath_occupation(params: ModelParams) -> float:
    if params.bath == "thermal":
        return thermal_occupation(params.omega_m, params.temperature)
    return 0.0


def rates(params: ModelParams) -> RateReport:
    """Heating/cooling coefficients of the optically pumped NV on the phonon.

    A_+- = 2 Gamma eta^2 Omega_0^2 / (Gamma^2 + 4 (Omega_0^2/2 +- Delta - 1)^2),
    equal to 2 Re S(-+ omega_m) of the fluctuation spectrum.
    """
    gamma, delta, omega0 = params.gamma_total, params.detuning, params.rabi_omega0
    if gamma <= 0:
        raise ValueError("gamma_total must be > 0")
    num = 2.0 * gamma * params.eta**2 * omega0**2
    a_plus = num / (gamma**2 + 4.0 * (omega0**2 / 2.0 + delta - 1.0) ** 2)
    a_minus = num / (gamma**2 + 4.0 * (omega0**2 / 2.0 - delta - 1.0) ** 2)
    w = a_minus - a_plus
    n_th = _bath_occupation(params)
    return RateReport(a_plus=a_plus, a_minus=a_minus, w=w,
                      n_ss=steady_occupation(a_plus, w, n_th, params.gamma_mech),
                      thermal_n=n_th)


def steady_occupation(a_plus, w, thermal_n, gamma_m) -> float:
    """(A_+ + N gamma_m) / (W + gamma_m); infinite under net heating (W + gamma_m <= 0)."""
    denom = w + gamma_m
    return (a_plus + thermal_n * gamma_m) / denom if denom > 0 else math.inf


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


def steady_phonon(params: ModelParams, report: RateReport) -> float:
    """Exact steady phonon number (A_+ + N gamma_m) / (W + gamma_m)."""
    gm = params.gamma_mech
    if report.w + gm <= 0:
        raise ValueError(f"net heating: W + gamma_m = {report.w + gm} <= 0")
    return steady_occupation(report.a_plus, report.w, report.thermal_n, gm)


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
# phonon-ladder rate equation (independent oracle; no density matrices)

@dataclass
class RateEquationResult:
    times: np.ndarray
    probabilities: np.ndarray   # shape (len(times), n_max + 1)
    mean_n: np.ndarray
    max_top_population: float
    max_leakage: float          # 1 - min_t sum_n P(n, t)


def rate_equation_evolve(a_plus, a_minus, gamma_m, thermal_n, p0, t_grid,
                         n_max) -> RateEquationResult:
    """Integrate the birth-death chain for the Fock occupation probabilities.

    dP(n)/dt = D[(n+1)P(n+1) - nP(n)] + U[nP(n-1) - (n+1)P(n)] with
    D = A_- + (N+1) gamma_m and U = A_+ + N gamma_m, truncated at n_max with
    the top-level outflow monitored as leakage.
    """
    if min(a_plus, a_minus, gamma_m, thermal_n) < 0:
        raise ValueError("rates and thermal occupation must be >= 0")
    p0 = np.asarray(p0, dtype=float)
    if p0.ndim != 1 or len(p0) > n_max + 1:
        raise ValueError("p0 must be a 1-d distribution over at most n_max + 1 levels")
    if abs(p0.sum() - 1.0) > 1e-9 or p0.min() < -0.0:
        raise ValueError("p0 must be a normalized distribution")
    t_grid = np.asarray(t_grid, dtype=float)

    down = a_minus + (thermal_n + 1.0) * gamma_m
    up = a_plus + thermal_n * gamma_m
    size = n_max + 1
    gen = np.zeros((size, size))
    n = np.arange(size)
    gen[n, n] = -(down * n + up * (n + 1))
    gen[n[:-1], n[:-1] + 1] = down * (n[:-1] + 1)
    gen[n[1:], n[1:] - 1] = up * n[1:]

    y0 = np.zeros(size)
    y0[: len(p0)] = p0
    from scipy.integrate import solve_ivp
    sol = solve_ivp(lambda t, p: gen @ p, (t_grid[0], t_grid[-1]), y0,
                    t_eval=t_grid, rtol=1e-11, atol=1e-14, method="DOP853")
    if not sol.success:
        raise RuntimeError(f"rate-equation integration failed: {sol.message}")
    probs = sol.y.T
    totals = probs.sum(axis=1)
    max_leak = float(1.0 - totals.min())
    max_top = float(probs[:, -1].max())
    if max_leak > 1e-6 or max_top > 1e-6:
        raise ValueError(
            f"probability leakage at n_max: top population {max_top:.3e}, "
            f"lost probability {max_leak:.3e}; increase n_max")
    mean = probs @ n
    return RateEquationResult(times=t_grid, probabilities=probs, mean_n=mean,
                              max_top_population=max_top, max_leakage=max_leak)


# ---------------------------------------------------------------------------
# internal-state Bloch system (bright/dark basis) and the regression oracle

_BLOCH_VARS = ("rho_bb", "rho_dd", "sx_bd", "sy_bd",
               "sx_A2b", "sy_A2b", "sx_A2d", "sy_A2d")


def bloch_system(params: ModelParams):
    """Affine generator (M, c) for d<v>/dt = M <v> + c over the 8 Bloch variables.

    Variables: populations of bright/dark states and the x/y quadratures of the
    bright-dark and excited-state coherences; the excited population is
    eliminated through the trace.  Decay feeds bright and dark equally at
    Gamma/2.  The excited-coherence drive term enters with the sign that makes
    the generator the projection of the master equation (contractive); see the
    regression tests for the superoperator cross-check.
    """
    omega0, delta, gamma = params.rabi_omega0, params.detuning, params.gamma_total
    q = math.sqrt(2) * omega0 / 2.0
    gb = gd = gamma / 2.0
    M = np.zeros((8, 8))
    c = np.zeros(8)
    # populations
    M[0, 5] = -q; M[0, 0] = -gb; M[0, 1] = -gb; c[0] = gb
    M[1, 0] = -gd; M[1, 1] = -gd; c[1] = gd
    # ground-state coherence
    M[2, 7] = -q
    M[3, 6] = q
    # excited coherence to the bright state
    M[4, 4] = -gamma / 2; M[4, 5] = delta
    M[5, 5] = -gamma / 2; M[5, 4] = -delta
    M[5, 0] = 2.0 * 2.0 * q; M[5, 1] = 2.0 * q; c[5] = -2.0 * q
    # excited coherence to the dark state
    M[6, 6] = -gamma / 2; M[6, 3] = -q; M[6, 7] = delta
    M[7, 7] = -gamma / 2; M[7, 2] = q; M[7, 6] = -delta
    return M, c


def bloch_steady_state(params: ModelParams) -> DensityMatrix:
    """Steady internal state from the Bloch fixed point (expected: pure dark state)."""
    if params.gamma_total <= 0 or params.rabi_omega0 <= 0:
        raise ValueError("Bloch steady state needs Gamma > 0 and Omega_0 > 0")
    M, c = bloch_system(params)
    try:
        v = np.linalg.solve(M, -c)
    except np.linalg.LinAlgError as err:
        raise ValueError(f"singular Bloch system: {err}") from None
    rho_bb, rho_dd = v[0], v[1]
    rho_aa = 1.0 - rho_bb - rho_dd
    # rho_mn = (<sx^{mn}> - i <sy^{mn}>)/2 for m != n
    rho = np.zeros((3, 3), dtype=complex)   # basis (b, d, A2)
    rho[0, 0], rho[1, 1], rho[2, 2] = rho_bb, rho_dd, rho_aa
    rho[0, 1] = (v[2] - 1j * v[3]) / 2.0; rho[1, 0] = rho[0, 1].conjugate()
    rho[2, 0] = (v[4] - 1j * v[5]) / 2.0; rho[0, 2] = rho[2, 0].conjugate()
    rho[2, 1] = (v[6] - 1j * v[7]) / 2.0; rho[1, 2] = rho[2, 1].conjugate()
    # rotate (b, d, A2) -> (+1, -1, A2)
    s = 1 / math.sqrt(2)
    T = np.array([[s, s, 0.0], [s, -s, 0.0], [0.0, 0.0, 1.0]], dtype=complex)
    space = ops.internal_space(("+1", "-1", "A2"))
    return DensityMatrix(space, T @ rho @ T.conj().T)


def _correlation_block(params: ModelParams):
    """Propagating 4-variable block (sx_bd, sy_bd, sx_A2d, sy_A2d) and its IC.

    Initial values are <v sigma_y^{A2,d}>_ss in the dark state: (0, 0, -i, 1).
    """
    M, _ = bloch_system(params)
    idx = [2, 3, 6, 7]
    block = M[np.ix_(idx, idx)]
    g0 = np.array([0.0, 0.0, -1j, 1.0], dtype=complex)
    return block, g0


def correlation_transform_numeric(params: ModelParams, omega,
                                  method="resolvent") -> complex:
    """One-sided transform of <sigma_y^{A2,d}(t) sigma_y^{A2,d}(0)>_ss.

    "resolvent" solves (-i omega I - M) x = g(0); "quadrature" integrates the
    correlation ODE and applies Simpson's rule with an exponential tail bound.
    Both must match the closed form 2 i w / (i Gamma w + 2 Delta w + 2 w^2 - Omega_0^2).
    """
    if params.gamma_total <= 0 or params.rabi_omega0 <= 0:
        raise ValueError("correlation transform needs Gamma > 0 and Omega_0 > 0")
    block, g0 = _correlation_block(params)
    eigs = np.linalg.eigvals(block)
    abscissa = float(eigs.real.max())
    if abscissa >= 0:
        raise ValueError(
            f"non-decaying correlation (spectral abscissa {abscissa:.3e} >= 0)")
    if method == "resolvent":
        A = -1j * omega * np.eye(4) - block
        try:
            x = np.linalg.solve(A, g0)
        except np.linalg.LinAlgError as err:
            raise ValueError(f"singular resolvent at omega={omega}: {err}") from None
        return complex(x[3])
    if method == "quadrature":
        return _correlation_quadrature(block, g0, omega, abscissa, eigs)
    raise ValueError(f"unknown method {method!r}")


def _correlation_quadrature(block, g0, omega, abscissa, eigs, tail_tol=1e-9):
    # horizon where |g| e^{alpha t} / |alpha| bounds the dropped tail below tail_tol
    t_end = math.log(max(np.linalg.norm(g0), 1.0) / (tail_tol * abs(abscissa))) / abs(abscissa)
    freq_max = max(float(np.abs(eigs.imag).max()), abs(omega), 1.0)
    n_steps = int(max(2000, 40 * freq_max * t_end))
    if n_steps % 2:
        n_steps += 1
    ts = np.linspace(0.0, t_end, n_steps + 1)
    from scipy.integrate import solve_ivp
    sol = solve_ivp(lambda t, g: block @ g, (0.0, t_end), g0, t_eval=ts,
                    rtol=1e-10, atol=1e-13, method="DOP853")
    if not sol.success:
        raise RuntimeError(f"correlation integration failed: {sol.message}")
    integrand = np.exp(1j * omega * ts) * sol.y[3]
    from scipy.integrate import simpson
    return complex(simpson(integrand, x=ts))


def correlation_transform_closed_form(params: ModelParams, omega) -> complex:
    """2 i w / (i Gamma w + 2 Delta w + 2 w^2 - Omega_0^2)."""
    gamma, delta, omega0 = params.gamma_total, params.detuning, params.rabi_omega0
    denom = 1j * gamma * omega + 2.0 * delta * omega + 2.0 * omega**2 - omega0**2
    if abs(denom) < 1e-14:
        raise ZeroDivisionError(f"transform pole at omega = {omega}")
    return 2j * omega / denom


def absorption_spectrum(params: ModelParams, probe_detuning_grid) -> SpectrumSeries:
    """Sideband absorption of the driven NV versus probe frequency offset.

    Each point is a steady-state linear-response solve of the Bloch system
    (resolvent of the correlation block); the result is normalized so the
    dressed-state resonances peak at 1.  The two-photon-resonant point
    omega = 0 is an exact dark dip, and values are non-negative.
    """
    grid = np.asarray(probe_detuning_grid, dtype=float)
    if grid.size == 0:
        raise ValueError("probe detuning grid is empty")
    gamma = params.gamma_total
    values = np.empty(grid.shape, dtype=float)
    for k, w in enumerate(grid):
        values[k] = (gamma / 2.0) * correlation_transform_numeric(params, w).real
    return SpectrumSeries(omegas=grid, values=values)
