"""Time integration, steady states, cooling-rate fits and detuning ensembles."""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.sparse._sparsetools import csr_matvec    # y += A @ x, in place
# scipy.sparse.linalg loads scipy.linalg and with it scipy's OpenBLAS, which
# starts a worker thread that busy-waits for about 0.1 s before it first sleeps.
# Imported here, that spin ends inside `import eitcool.dynamics` instead of
# running on a second core through the caller's first solve.
from scipy.sparse.linalg import LinearOperator, onenormest, splu
# scipy.optimize is imported where used: it adds megabytes and tenths of a second
# to this import, which only the cooling-rate fit needs

from . import operators as ops
from .nvmodel import LAMBDA_LEVELS, build_three_level_model, parity
from .operators import DensityMatrix, LeakageError, LindbladModel, SolverError
from .params import ModelParams

LEAKAGE_LIMIT = 1e-4
TRACE_LIMIT = 1e-6
# 1-norm condition estimate of the trace-constrained Liouvillian: the shipped models
# read 2e4-3e4, a model with two steady states about 1e19 (exactly 4e18)
DEGENERACY_COND = 1e12
# A Chebyshev substep h spans at most SUBSTEP_SIZE = h(a + b)/2 of its
# ellipse, where the series needs fewer than SERIES_TERMS terms even on the
# ellipse's edge (at most 452 measured, CHANGES.md)
SUBSTEP_SIZE = 160.0
SERIES_TERMS = 512


@dataclass
class TimeSeries:
    times: np.ndarray
    records: dict                      # observable name -> array over times ("trace" included)
    leakage: np.ndarray                # top-two Fock-level population per sample
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        if len(self.times) > 1 and not np.all(np.diff(self.times) > 0):
            raise ValueError("times must be strictly increasing")
        if "trace" not in self.records:
            raise ValueError("records must include 'trace'")
        # written so that a NaN trace fails too
        if not np.all(np.abs(np.asarray(self.records["trace"]) - 1.0) <= TRACE_LIMIT):
            raise ValueError("trace deviates from 1 beyond 1e-6")

    def column(self, name):
        return np.asarray(self.records[name])


@dataclass
class CoolingFit:
    w_fit: float
    n_ss_fit: float
    n0_fit: float
    fit_window: tuple
    residual_rms: float

    def __post_init__(self):
        if self.w_fit < 0:
            raise ValueError("fitted rate must be >= 0")


def reachable_coordinates(L, x0) -> np.ndarray:
    """Sorted indices of the coordinates reachable from the nonzeros of x0 along
    the sparsity graph of L, where an edge runs from j to i wherever L[i, j] != 0.

    L has no entry from this set to outside it, so under dx/dt = L x every other
    coordinate of x0 stays exactly 0.0.
    """
    from scipy.sparse.csgraph import breadth_first_order
    graph = L.T.tocsr()              # row j lists the i with L[i, j] != 0
    reach = np.zeros(L.shape[0], dtype=bool)
    for j in np.flatnonzero(x0):
        if not reach[j]:
            reach[breadth_first_order(graph, j, return_predecessors=False)] = True
    return np.flatnonzero(reach)


def _bessel_series(x, count):
    """J_k(x) for k < count and x > 0 by Miller's backward recurrence, normalized
    with J_0 + 2 sum J_2k = 1: exact to rounding relative to the largest value.
    It imports nothing: scipy.special costs 0.07 s on first use."""
    top = count + int(x) + 32
    values = [0.0] * (top + 1)
    above, value = 0.0, 1e-300
    for k in range(top, 0, -1):
        above, value = value, 2 * k / x * value - above
        if abs(value) > 1e250:
            above, value = above * 1e-250, value * 1e-250
            values = [v * 1e-250 for v in values]
        values[k - 1] = value
    values = np.array(values[:count])
    return values / (values[0] + 2 * values[2::2].sum())


class _Chebyshev:
    """exp(h L) x as a Chebyshev series on an ellipse that holds the spectrum
    of L (Tal-Ezer & Kosloff, J. Chem. Phys. 81, 3967 (1984); Huisinga, Pesce,
    Kosloff & Saalfrank, J. Chem. Phys. 110, 5538 (1999)).

    The spectrum lies in Re z <= 0 (a Lindblad generator, or its restriction
    to an invariant subspace), at Re z >= the lowest Gershgorin bound of
    (L + L^T)/2 and |Im z| <= the largest Gershgorin radius of (L - L^T)/2.
    The ellipse runs through the corners of that rectangle, with centre c and
    semi-axes a, b (along Re, Im) sqrt2 times its half-widths, b raised to at
    least 2a/sqrt3.  Its foci are c +- i f, f = sqrt(b^2 - a^2), and exp(h z) =
    e^(hc) [J_0(hf) + 2 sum J_k(hf) i^k T_k(-i w)] for w = (z - c)/f, whose
    recurrence is real: u_k+1 = M u_k + u_k-1 with M = 2(L - c)/f.

    A step of `span` is cut into `substeps` equal ones of length h.  The terms
    of the series reach max |exp(h z)| on the ellipse, e^(h(c + a)), and so
    does its rounding error relative to eps; h keeps that under abs_tol.
    Each substep stops once k >= hf and the last two terms are below abs_tol,
    and is divided by the same truncated series at z = 0, a scalar run of the
    recurrence: the polynomial is then exact on the eigenvalue 0, whose left
    eigenvector is the trace, so the trace is conserved to rounding.
    """

    def __init__(self, L, span, abs_tol):
        self.abs_tol = abs_tol
        # (L +- L^T)/2 are new matrices, so abs() may sort their indices in place
        sym, skew = (L + L.T) * 0.5, (L - L.T) * 0.5
        diag = sym.diagonal()
        low = float((diag + np.abs(diag) - abs(sym).sum(axis=1)).min(initial=0.0))
        height = float(abs(skew).sum(axis=1).max(initial=0.0))
        if not math.isfinite(low + height):
            raise SolverError("the generator has non-finite entries")
        c, a, b = low / 2, -low / math.sqrt(2), height * math.sqrt(2)
        # foci at least b/2 from the centre, so that the series converges quickly
        b = max(b, 2 * a / math.sqrt(3))
        f = math.sqrt(b * b - a * a)
        self.ellipse = (c, a, b)
        growth = max(1.0, math.log(abs_tol / np.finfo(float).eps))
        self.substeps = max(1, math.ceil(span * (a + b) / 2 / SUBSTEP_SIZE),
                            math.ceil(span * (c + a) / growth))
        self.h = h = span / self.substeps
        self.focus = h * f
        if f == 0.0:             # L = 0: the ellipse is the point 0
            self.coef = None
            return
        coef = 2 * math.exp(h * c) * _bessel_series(h * f, SERIES_TERMS)
        coef[0] /= 2
        self.coef = coef
        self.M = ((L - sparse.diags_array(np.full(L.shape[0], c))) * (2 / f)).tocsr()
        # the same series at z = 0, one partial sum per truncation
        scalar = -2 * c / f
        values = np.empty(SERIES_TERMS)
        values[0], values[1] = 1.0, scalar / 2
        for k in range(2, SERIES_TERMS):
            values[k] = scalar * values[k - 1] + values[k - 2]
        self.at_zero = np.cumsum(coef * values)

    def advance(self, x):
        """(exp(span L) x, generator applications).

        Each term is one pass of the CSR kernel, which adds M u_k into the
        buffer holding u_k-1, and one scaled add into the sum; x is copied
        once per substep and never written.  L and x are finite, and a
        non-finite term fails the stopping test: the series does not converge.
        """
        if self.coef is None:
            return x, 0
        coef, focus, tol = self.coef, self.focus, self.abs_tol
        n = self.M.shape[0]
        indptr, indices, data = self.M.indptr, self.M.indices, self.M.data
        prev, cur, scratch, out = (np.empty(n) for _ in range(4))
        applied = 0
        for _ in range(self.substeps):
            np.copyto(prev, x)
            cur.fill(0.0)
            csr_matvec(n, n, indptr, indices, data, prev, cur)
            cur *= 0.5
            np.multiply(prev, coef[0], out=out)
            out += np.multiply(cur, coef[1], out=scratch)
            for k in range(2, len(coef)):
                csr_matvec(n, n, indptr, indices, data, cur, prev)
                prev, cur = cur, prev
                out += np.multiply(cur, coef[k], out=scratch)
                if k % 4 == 0 and k >= focus \
                        and abs(coef[k]) * np.abs(cur, out=scratch).max() < tol \
                        and abs(coef[k - 1]) * np.abs(prev, out=scratch).max() < tol:
                    break
            else:
                raise SolverError(
                    f"Chebyshev series did not converge within {len(coef)} terms")
            applied += k
            x = np.divide(out, self.at_zero[k], out=out)
        return x, applied


def evolve(model: LindbladModel, rho0: DensityMatrix, t_final, sample_count,
           abs_tol=1e-10) -> TimeSeries:
    """Integration of the master equation by a Chebyshev series of exp(dt L).

    The state is carried as the real coordinates x = T vec(rho) of
    `operators.hermitian_coordinates` and stepped with the real generator L of
    `operators.real_liouvillian`, so it stays Hermitian by construction.

    When the parity Pi of `nvmodel.parity` is a symmetry of the model, every
    observable, the trace and the ladder-top population read only the even part
    (rho + Pi rho Pi^dag)/2, which L keeps even.  Then only that part is stepped,
    as z with x = V z on the even basis V of `operators.even_basis`, under the
    rows of L V at V's coordinates (W V^T L V with W = (V^T V)^-1, since L V is
    even).  Otherwise all of x is stepped.  Of either, only the coordinates the
    initial state reaches (`reachable_coordinates`) are stepped: the others stay
    exactly 0.0, so this is the same ODE, not a truncation.

    The samples lie on a uniform grid, so one propagator (`_Chebyshev`) carries
    the state from each sample to the next.  Each of its substeps truncates the
    series once a term falls below abs_tol.  One sparse map, carried into the
    stepped coordinates like L, reads every observable, the trace and the
    top-of-ladder population at each sample: exceeding the leakage threshold or
    losing the trace is an error, not a warning.

    meta["hermiticity_max"] is the largest imaginary entry dropped from the
    generator in those coordinates: zero up to rounding when the generator maps
    Hermitian matrices to Hermitian ones, which the real stepping relies on.
    meta["sector"] is "even" or "full"; meta["coordinates"] and
    meta["generator_nnz"] size the stepped generator.  meta["nfev"] counts its
    applications, meta["steps"] the substeps over all sample intervals and
    meta["min_step"] is their length h; meta["ellipse"] is the series' (c, a, b).
    meta["max_leakage"] and meta["trace_drift"] are the largest top-of-ladder
    population and |trace - 1| over the samples.  meta["propagate_s"] is the
    time spent in the propagator, meta["generator_build_s"] in building L.
    """
    if not 0.0 < abs_tol <= 1e-2:
        raise ValueError(f"abs_tol must lie in (0, 1e-2], got {abs_tol}")
    if rho0.space.dim != model.space.dim:
        raise ops.DimensionError("initial state does not match the model space")
    if sample_count < 2:
        raise ValueError("need at least two samples")
    if not t_final > 0:
        raise ValueError(f"t_final must be > 0, got {t_final}")
    residual, trace = rho0.hermiticity_residual(), rho0.trace()
    # written so that NaN fails: a NaN or inf entry makes the residual NaN
    if not (residual <= 1e-10 and abs(trace - 1.0) <= TRACE_LIMIT):
        raise ValueError("initial state must be Hermitian with unit trace: "
                         f"residual {residual:.3e}, trace {trace}")

    d = model.space.dim
    start = time.perf_counter()
    L, dropped = ops.real_liouvillian(model)
    build_s = time.perf_counter() - start
    T = ops.hermitian_coordinates(d)

    times = np.linspace(0.0, float(t_final), int(sample_count))
    # Tr(op rho) = vec(op^T) . vec(rho) = vec(op^T) T^dag x: one real row per
    # observable, then one for the identity (the trace) and one for the top two
    # Fock levels (a zero row when there is no ladder above them)
    top = np.zeros((model.space.n_internal, model.space.fock_dim))
    if model.space.fock_dim >= 3:
        top[:, -2:] = 1.0
    rows = [op.matrix.T.ravel() for op in model.observables.values()]
    rows += [np.eye(d).ravel(), np.diag(top.ravel()).ravel()]
    readout = (sparse.csr_array(np.array(rows)) @ T.conj().T).real
    y = (T @ rho0.matrix.ravel()).real
    symmetry = parity(model)
    if symmetry is not None:
        basis, reps = ops.even_basis(*symmetry)
        # z = W V^T x: the even part of x0 in V's columns, each of one or two coordinates
        y = (basis.T @ y) / np.bincount(basis.indices, minlength=len(reps))
        L, readout = L[reps] @ basis, readout @ basis
    kept = reachable_coordinates(L, y)
    if kept.size < L.shape[0]:
        L, y, readout = L[kept][:, kept], y[kept], readout[:, kept]
    # a CSR mat-vec sums each row by itself, so no reading depends on the others
    readings = np.empty((readout.shape[0], len(times)))
    nfev, propagate_s = 0, 0.0
    propagator = _Chebyshev(L, float(t_final) / (len(times) - 1), abs_tol)

    for k, t in enumerate(times):
        if k > 0:
            tick = time.perf_counter()
            y, applied = propagator.advance(y)
            propagate_s += time.perf_counter() - tick
            nfev += applied
        readings[:, k] = readout @ y
        tr, leak = readings[-2:, k]
        if abs(tr - 1.0) > TRACE_LIMIT:
            raise SolverError(
                f"trace drifted to {tr} at t = {t:g}; rescale tolerances")
        if leak > LEAKAGE_LIMIT:
            raise LeakageError(
                f"top-of-ladder population {leak:.3e} at t = {t:g} exceeds "
                f"{LEAKAGE_LIMIT}; increase fock_dim")
    records = dict(zip([*model.observables, "trace"], readings[:-1]))
    leakage = readings[-1]

    meta = {"abs_tol": abs_tol, "nfev": nfev,
            "steps": propagator.substeps * (len(times) - 1),
            "min_step": propagator.h, "ellipse": propagator.ellipse,
            "max_leakage": float(leakage.max()),
            "trace_drift": float(np.abs(records["trace"] - 1.0).max()),
            "hermiticity_max": dropped, "solver": "chebyshev",
            "fock_dim": model.space.fock_dim,
            "sector": "full" if symmetry is None else "even",
            "coordinates": int(kept.size), "generator_nnz": int(L.nnz),
            "generator_build_s": build_s, "propagate_s": propagate_s}
    return TimeSeries(times=times, records=records, leakage=leakage, meta=meta)


def steady_state(model: LindbladModel) -> DensityMatrix:
    """Unit-trace null vector of the real generator, from a sparse LU solve.

    In the coordinates of `operators.hermitian_coordinates` the redundant
    equation for d(rho_00)/dt (the diagonal ones sum to zero) is replaced by
    Tr rho = 1, the sum of the d diagonal coordinates.  A second steady state
    makes that system singular: an exactly singular factor or a 1-norm
    condition estimate above DEGENERACY_COND is an error.
    """
    d = model.space.dim
    L, _ = ops.real_liouvillian(model)
    trace_row = sparse.csr_array(
        (np.ones(d), (np.zeros(d, dtype=int), np.arange(d))), shape=(1, d * d))
    system = sparse.vstack([trace_row, L[1:]], format="csc")
    try:
        lu = splu(system)
    except RuntimeError as err:
        raise ValueError(f"degenerate steady state: singular factor ({err})") from err
    inverse = LinearOperator(system.shape, dtype=float, matvec=lu.solve,
                             rmatvec=lambda v: lu.solve(v, trans="T"))
    # t = 1 draws no random columns, so the estimate is deterministic and
    # numpy's global random stream is left alone
    cond = sparse.linalg.norm(system, 1) * onenormest(inverse, t=1)
    if cond > DEGENERACY_COND:
        raise ValueError(
            f"degenerate steady state: condition estimate {cond:.3e} of the "
            f"trace-constrained Liouvillian exceeds {DEGENERACY_COND:.0e}")
    b = np.zeros(d * d)
    b[0] = 1.0
    x = lu.solve(b)
    x = x / x[:d].sum()
    residual = float(np.max(np.abs(L @ x)))
    if residual > 1e-10:
        raise ValueError(f"steady-state residual {residual:.3e} exceeds 1e-10")
    rho = ops.hermitian_coordinates(d).conj().T @ x
    return DensityMatrix(model.space, rho.reshape(d, d))


# ---------------------------------------------------------------------------
# cooling-rate extraction

def extract_cooling_rate(series: TimeSeries, observable, transient_time=0.0,
                         start_fraction=0.2, end_fraction=0.008,
                         min_efolds=3.0) -> CoolingFit:
    """Single-exponential fit n(t) = a + c exp(-w t) of the asymptotic decay.

    The fit window drops the initial transient twice over: everything before
    `transient_time` (internal-state relaxation), and everything above
    `start_fraction` of the initial excursion from the tail value, where the
    early dynamics are not single-rate.  The window ends once the excursion
    falls below `end_fraction` of its initial value.  Residuals are weighted
    by the local excursion so every e-fold counts equally.
    """
    t = series.times
    n = series.column(observable)
    if len(t) < 8:
        raise ValueError("series too short to fit")

    # tail estimate via Aitken extrapolation on three late samples
    k3 = len(n) - 1
    k2 = k3 - max(1, len(n) // 10)
    k1 = k2 - max(1, len(n) // 10)
    denom = n[k1] + n[k3] - 2 * n[k2]
    a0 = (n[k1] * n[k3] - n[k2] ** 2) / denom if abs(denom) > 1e-30 else n[k3]
    if not np.isfinite(a0):
        a0 = n[k3]

    excursion0 = abs(n[0] - a0)
    if excursion0 <= 0:
        raise ValueError("series shows no decay toward a tail value")
    exc = np.abs(n - a0)
    inside = (t >= transient_time) & (exc <= start_fraction * excursion0) \
        & (exc >= end_fraction * excursion0)
    if inside.sum() < 8:
        raise ValueError("fit window too small; series may not span enough decay")
    idx = np.where(inside)[0]
    lo, hi = idx[0], idx[-1]
    t_w, n_w = t[lo:hi + 1], n[lo:hi + 1]

    efolds = math.log(max(exc[lo], 1e-300) / max(exc[hi], 1e-300))
    if efolds < min_efolds:
        raise ValueError(
            f"series spans only {efolds:.2f} e-folds of decay in the fit window; "
            f"need >= {min_efolds}")

    rises = np.diff(n_w) if n_w[0] > n_w[-1] else -np.diff(n_w)
    window_range = abs(n_w[0] - n_w[-1])
    if rises.max(initial=0.0) > 0.02 * window_range:
        raise ValueError("non-monotone tail in the fit window; "
                         "oscillatory residual would corrupt the single-rate fit")

    w0 = efolds / max(t_w[-1] - t_w[0], 1e-30)
    sigma = np.maximum(np.abs(n_w - a0), 1e-3 * excursion0)
    from scipy.optimize import OptimizeWarning, curve_fit
    with warnings.catch_warnings():
        # near-exact fits make the covariance singular; we never use it
        warnings.simplefilter("ignore", category=OptimizeWarning)
        popt, _ = curve_fit(lambda tt, a, c, w: a + c * np.exp(-w * tt),
                            t_w, n_w, p0=[a0, n_w[0] - a0, w0],
                            sigma=sigma, absolute_sigma=False, maxfev=20000)
    a_fit, c_fit, w_fit = popt
    model_vals = a_fit + c_fit * np.exp(-w_fit * t_w)
    residual_rms = float(np.sqrt(np.mean(((n_w - model_vals) / sigma) ** 2)))
    return CoolingFit(w_fit=float(w_fit), n_ss_fit=float(a_fit),
                      n0_fit=float(a_fit + c_fit),
                      fit_window=(float(t_w[0]), float(t_w[-1])),
                      residual_rms=residual_rms)


# ---------------------------------------------------------------------------
# nuclear-bath ensemble

@dataclass
class MonteCarloResult:
    times: np.ndarray
    mean_n: np.ndarray
    n_ss_mean: float
    cooling_time: float      # first time mean <n> <= 1.1 n_ss_mean (inf if never)
    deltas: np.ndarray       # drawn |-1> shifts, one per realization
    meta: dict


def monte_carlo_detuning(base: ModelParams, delta_max, samples, seed, fock_dim,
                         t_final, sample_count=201, abs_tol=1e-10) -> MonteCarloResult:
    """Average cooling curves over quasi-static nuclear-bath detunings.

    Each realization draws delta = delta_max * u with u ~ uniform[-1, 1)
    (fixed seed, so ensembles at different delta_max share draws), shifts the
    |-1> level by delta, and integrates the three-level model.  Realizations
    with equal shifts are one model, so each distinct shift is integrated once
    (meta["nfev_total"] counts those solves, meta["propagate_s_total"] their
    seconds in the propagator, meta["max_leakage"] their largest top-of-ladder
    population).  The kept curve is the pointwise
    mean of <n>(t); n_ss_mean is the mean tail value.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = np.random.default_rng(seed)
    units = rng.uniform(-1.0, 1.0, size=samples)
    deltas = delta_max * units + 0.0    # delta_max = 0 draws +0.0, never -0.0

    rho0 = ops.basis_state(ops.compose_space(LAMBDA_LEVELS, fock_dim), "-1",
                           min(3, fock_dim - 2))

    def one(idx):
        params_i = base.replace(nuclear_shift=base.nuclear_shift + deltas[idx])
        model = build_three_level_model(params_i, fock_dim)
        try:
            return evolve(model, rho0, t_final, sample_count, abs_tol=abs_tol)
        except SolverError as err:
            raise SolverError(f"realization {idx} failed: {err}") from err

    # in realization order, so a failure names the first realization at its shift
    _, first, which = np.unique(deltas, return_index=True, return_inverse=True)
    solved = {idx: one(idx) for idx in sorted(first)}
    series = [solved[first[k]] for k in which]

    curves = np.stack([s.column("n") for s in series])
    mean_n = curves.mean(axis=0)
    times = series[0].times
    tail = max(3, sample_count // 20)
    n_ss_mean = float(np.mean(curves[:, -tail:]))
    below = np.where(mean_n <= 1.1 * n_ss_mean)[0]
    cooling_time = float(times[below[0]]) if below.size else math.inf
    meta = {"samples": samples, "seed": seed, "delta_max": delta_max,
            "fock_dim": fock_dim, "distribution": "uniform[-delta_max, delta_max]",
            "shift_target": "-1 level, static per realization",
            "nfev_total": int(sum(s.meta["nfev"] for s in solved.values())),
            "max_leakage": max(s.meta["max_leakage"] for s in solved.values()),
            "propagate_s_total": sum(s.meta["propagate_s"] for s in solved.values())}
    return MonteCarloResult(times=times, mean_n=mean_n, n_ss_mean=n_ss_mean,
                            cooling_time=cooling_time, deltas=deltas, meta=meta)
