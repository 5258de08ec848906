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
# phonon-ladder rate equation (independent oracle; no density matrices)

@dataclass
class RateEquationResult:
    times: np.ndarray
    probabilities: np.ndarray   # shape (len(times), n_max + 1)
    mean_n: np.ndarray
    max_top_population: float
    max_leakage: float          # 1 - min_t sum_n P(n, t)


def rate_equation_evolve(a_plus, a_minus, gamma_m, thermal_n, p0, t_final,
                         sample_count, n_max) -> RateEquationResult:
    """Propagate the birth-death chain for the Fock occupation probabilities.

    dP(n)/dt = D[(n+1)P(n+1) - nP(n)] + U[nP(n-1) - (n+1)P(n)] with
    D = A_- + (N+1) gamma_m and U = A_+ + N gamma_m, truncated at n_max with
    the top-level outflow monitored as leakage, sampled on
    np.linspace(0, t_final, sample_count) as in `dynamics.evolve`.

    Each substep is exactly exp(hG) = sum_j Pois(j; qh) P^j (uniformization:
    Jensen, Skand. Aktuarietidskr. 36, 87 (1953)) with q = max |G_nn| and
    P = I + G/q >= 0, so no term cancels another.  The sum is formed once, by
    elementwise updates of P's three diagonals, until j >= qh and a Poisson
    weight is below 1e-18.  A term costs several dense passes and a substep one
    mat-vec, so qh <= 20, far below the 700 where e^(-qh) leaves the normal range.
    """
    if min(a_plus, a_minus, gamma_m, thermal_n) < 0:
        raise ValueError("rates and thermal occupation must be >= 0")
    if not t_final > 0 or sample_count < 2:
        raise ValueError("need t_final > 0 and at least two samples")
    p0 = np.asarray(p0, dtype=float)
    if p0.ndim != 1 or len(p0) > n_max + 1:
        raise ValueError("p0 must be a 1-d distribution over at most n_max + 1 levels")
    if abs(p0.sum() - 1.0) > 1e-9 or p0.min() < -0.0:
        raise ValueError("p0 must be a normalized distribution")
    times = np.linspace(0.0, float(t_final), int(sample_count))

    down = a_minus + (thermal_n + 1.0) * gamma_m
    up = a_plus + thermal_n * gamma_m
    n = np.arange(n_max + 1)
    outflow = down * n + up * (n + 1)        # -G_nn, largest at the top level
    q = outflow[-1] or 1.0
    substeps = math.ceil(q * times[1] / 20.0)
    lam = q * times[1] / substeps
    # row n of P X is stay[n] X[n] + rise[n] X[n-1] + fall[n] X[n+1]
    stay, rise, fall = 1.0 - outflow / q, up * n[1:] / q, down * n[1:] / q
    power, weight, j = np.eye(n_max + 1), math.exp(-lam), 0
    step = weight * power
    while j < lam or weight >= 1e-18:
        j += 1
        product = stay[:, None] * power
        product[1:] += rise[:, None] * power[:-1]
        product[:-1] += fall[:, None] * power[1:]
        power, weight = product, weight * lam / j
        step += weight * power

    probs = np.zeros((len(times), n_max + 1))
    probs[0, : len(p0)] = p0
    for k in range(1, len(times)):
        probs[k] = probs[k - 1]
        for _ in range(substeps):
            probs[k] = step @ probs[k]
    max_leak = float(1.0 - probs.sum(axis=1).min())
    max_top = float(probs[:, -1].max())
    if max_leak > 1e-6 or max_top > 1e-6:
        raise ValueError(
            f"probability leakage at n_max: top population {max_top:.3e}, "
            f"lost probability {max_leak:.3e}; increase n_max")
    return RateEquationResult(times=times, probabilities=probs, mean_n=probs @ n,
                              max_top_population=max_top, max_leakage=max_leak)


# ---------------------------------------------------------------------------
# internal-state Bloch system (bright/dark basis) and the regression oracle

def bloch_system(params: ModelParams):
    """Affine generator (M, c) for d<v>/dt = M <v> + c over the 8 Bloch variables.

    Variables, in order: rho_bb, rho_dd, sx_bd, sy_bd, sx_A2b, sy_A2b, sx_A2d,
    sy_A2d, the populations of bright/dark states and the x/y quadratures of the
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
    """Propagating 4-variable block (sx_bd, sy_bd, sx_A2d, sy_A2d) and its IC;
    raises unless the correlation decays.

    Initial values are <v sigma_y^{A2,d}>_ss in the dark state: (0, 0, -i, 1).
    """
    if params.gamma_total <= 0 or params.rabi_omega0 <= 0:
        raise ValueError("correlation transform needs Gamma > 0 and Omega_0 > 0")
    M, _ = bloch_system(params)
    idx = [2, 3, 6, 7]
    block = M[np.ix_(idx, idx)]
    eigs = np.linalg.eigvals(block)
    abscissa = float(eigs.real.max())
    if abscissa >= 0:
        raise ValueError(
            f"non-decaying correlation (spectral abscissa {abscissa:.3e} >= 0)")
    g0 = np.array([0.0, 0.0, -1j, 1.0], dtype=complex)
    return block, g0


def _resolvent(block, g0, omegas):
    """sy_A2d of (-i omega I - M)^-1 g(0); a grid of omegas is one batched solve."""
    # nonsingular for real omega: every eigenvalue of M has Re < 0
    A = -1j * np.asarray(omegas)[..., None, None] * np.eye(4)
    A -= block   # in place, so a grid of n omegas holds one (n, 4, 4) array
    return np.linalg.solve(A, g0[:, None])[..., 3, 0]


def correlation_transform_numeric(params: ModelParams, omega,
                                  method="resolvent") -> complex:
    """One-sided transform of <sigma_y^{A2,d}(t) sigma_y^{A2,d}(0)>_ss.

    "resolvent" solves (-i omega I - M) x = g(0); "quadrature" evaluates the
    correlation g(t) = exp(M t) g(0) from the eigendecomposition of M and
    applies Simpson's rule with an exponential tail bound.
    Both must match the closed form 2 i w / (i Gamma w + 2 Delta w + 2 w^2 - Omega_0^2).
    """
    block, g0 = _correlation_block(params)
    if method == "resolvent":
        return complex(_resolvent(block, g0, omega))
    if method == "quadrature":
        return _correlation_quadrature(block, g0, omega)
    raise ValueError(f"unknown method {method!r}")


def _correlation_quadrature(block, g0, omega):
    eigs, vecs = np.linalg.eig(block)
    abscissa = float(eigs.real.max())
    # horizon where |g| e^{alpha t} / |alpha| bounds the dropped tail below 1e-9
    t_end = math.log(max(np.linalg.norm(g0), 1.0) / (1e-9 * abs(abscissa))) / abs(abscissa)
    freq_max = max(float(np.abs(eigs.imag).max()), abs(omega), 1.0)
    n_steps = int(max(2000, 40 * freq_max * t_end))
    if n_steps % 2:
        n_steps += 1
    ts = np.linspace(0.0, t_end, n_steps + 1)
    # sy_A2d of g(t) = V exp(Lambda t) V^-1 g(0), exact at every node
    weights = vecs[3] * np.linalg.solve(vecs, g0)
    f = np.exp(1j * omega * ts) * (np.exp(np.outer(ts, eigs)) @ weights)
    # composite Simpson's rule over the even number of intervals
    return complex((f[0] + f[-1] + 4 * f[1::2].sum() + 2 * f[2:-1:2].sum()) * ts[1] / 3)


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
    (resolvent of the correlation block, all points in one batched solve); the
    result is normalized so the dressed-state resonances peak at 1.  The
    two-photon-resonant point omega = 0 is an exact dark dip, and values are
    non-negative.
    """
    grid = np.asarray(probe_detuning_grid, dtype=float)
    if grid.size == 0:
        raise ValueError("probe detuning grid is empty")
    block, g0 = _correlation_block(params)
    values = (params.gamma_total / 2.0) * _resolvent(block, g0, grid).real
    return SpectrumSeries(omegas=grid, values=values)
