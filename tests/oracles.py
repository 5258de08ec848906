"""Reference implementations that only the tests call.

Each one computes a quantity the package also computes, by another route, so a
test can compare the two:

- `rate_equation_evolve`: the birth-death chain of the Fock populations with
  the closed-form rates A+- of `analytics.rates`, propagated by uniformization
  without density matrices.  It checks the stationary mean of the closed forms
  and, in the Lamb-Dicke, weak-coupling limit, the whole <n(t)> of `evolve`.
- `bloch_system`: the affine Bloch system of the internal levels, which a
  test checks against the projection of the master equation.
- `bloch_steady_state`: the internal steady state from its fixed point, which
  `dynamics.steady_state` must reproduce on the internal Lindblad model (the
  pure dark state).
- `correlation_transform_numeric`: the one-sided transform of the excited-dark
  correlation from its correlation block, by a resolvent solve or by
  quadrature of its eigendecomposition, against
  `analytics.correlation_transform_closed_form` and so against
  `analytics.absorption_spectrum`, which is (Gamma/2) Re of it.
- `effective_hamiltonian`, `polaron_generator` and `bright_state_vector`: the
  polaron-frame split H0 + V of `nvmodel.rotating_hamiltonian`, which maps the
  scheme onto standard EIT cooling.

They load numpy only, as the closed forms do.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from eitcool import operators as ops
from eitcool.nvmodel import (LAMBDA_LEVELS, _require_levels, _zeeman,
                             dark_state_vector)
from eitcool.operators import DensityMatrix, HilbertSpace, Operator
from eitcool.params import ModelParams


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
# internal-state Bloch system (bright/dark basis): its fixed point and the
# resolvent of its correlation block

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
    space = HilbertSpace(("+1", "-1", "A2"), 1)
    return DensityMatrix(space, T @ rho @ T.conj().T)


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


# ---------------------------------------------------------------------------
# polaron frame

def bright_state_vector(space) -> np.ndarray:
    """Internal amplitude vector of |B> = (|+1> + |-1>)/sqrt(2)."""
    v = np.zeros(space.n_internal, dtype=complex)
    v[space.internal_index("+1")] = 1 / math.sqrt(2)
    v[space.internal_index("-1")] = 1 / math.sqrt(2)
    return v


def effective_hamiltonian(params: ModelParams, space: HilbertSpace):
    """Polaron-frame split (H0, V) of the rotating Hamiltonian, first order in eta.

    H0 couples only the bright combination to |A2> (strength sqrt(2)/2 Omega_0);
    V = eta (b - b^dag)((Omega_0/sqrt(2)) |A2><d| - h.c.) carries all phonon
    sidebands of the dark state.
    """
    _require_levels(space, LAMBDA_LEVELS)
    nI = space.n_internal
    H0 = ops.number_operator(space).matrix
    H0 = H0 - params.detuning * ops.transition(space, "A2", "A2").matrix
    bright = bright_state_vector(space)
    a2 = np.zeros(nI, dtype=complex)
    a2[space.internal_index("A2")] = 1.0
    a2_bright = np.outer(a2, bright.conj())
    H0 = H0 + (math.sqrt(2) / 2) * params.rabi_omega0 * np.kron(
        a2_bright + a2_bright.conj().T, np.eye(space.fock_dim))

    dark = dark_state_vector(space)
    a2_dark = np.outer(a2, dark.conj())
    ladder = ops.fock_ladder(space.fock_dim)
    V = params.eta * np.kron(
        (params.rabi_omega0 / math.sqrt(2)) * (a2_dark - a2_dark.conj().T),
        ladder - ladder.T)
    return Operator(space, H0), Operator(space, V)


def polaron_generator(params: ModelParams, space: HilbertSpace) -> Operator:
    """Hermitian S with e^{-iS} H^rot e^{iS} = H0 + V + O(eta^2)."""
    _require_levels(space, LAMBDA_LEVELS)
    ladder = ops.fock_ladder(space.fock_dim)
    return Operator(space, -1j * params.eta * np.kron(_zeeman(space), ladder - ladder.T))
