"""Time integration, steady states, cooling-rate fits and detuning ensembles."""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import LinearOperator, onenormest, splu
# scipy.integrate and scipy.optimize are imported where used: they add about 20 MB
# and 0.2 s to `import eitcool`, which steady states and closed forms do not need

from . import operators as ops
from .nvmodel import LAMBDA_LEVELS, build_three_level_model
from .operators import DensityMatrix, LindbladModel
from .params import ModelParams

LEAKAGE_LIMIT = 1e-4
TRACE_LIMIT = 1e-6
# 1-norm condition estimate of the trace-constrained Liouvillian: the shipped models
# read 2e4-3e4, a model with two steady states about 1e19 (exactly 4e18)
DEGENERACY_COND = 1e12


class SolverError(RuntimeError):
    """Integration failed or produced an untrustworthy state."""


class LeakageError(SolverError):
    """Population reached the top of the Fock ladder; the truncation is inadequate."""


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
        if np.max(np.abs(np.asarray(self.records["trace"]) - 1.0)) > TRACE_LIMIT:
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


def _top_level_population(diag, space):
    """Population of the top two Fock levels (zero when there is no ladder)."""
    if space.fock_dim < 3:
        return 0.0
    return float(diag.reshape(space.n_internal, space.fock_dim)[:, -2:].sum())


def evolve(model: LindbladModel, rho0: DensityMatrix, t_final, sample_count,
           rel_tol=1e-8, abs_tol=1e-10, checkpoint_every=None) -> TimeSeries:
    """Adaptive Runge-Kutta integration of the master equation.

    The state is carried as the real coordinates x = T vec(rho) of
    `operators.hermitian_coordinates` and stepped with the real generator of
    `operators.real_liouvillian`, so it stays Hermitian by construction.
    Samples on a uniform grid and monitors the trace (the sum of the diagonal
    coordinates) and the top-of-ladder population.  Exceeding the leakage
    threshold or losing the trace is an error, not a warning.

    meta["hermiticity_max"] is the largest imaginary entry dropped from the
    generator in those coordinates: zero up to rounding when the generator maps
    Hermitian matrices to Hermitian ones, which the real stepping relies on.
    meta["steps"] and meta["min_step"] count the accepted RK45 steps over all
    sample intervals and give the smallest of them.
    """
    for tol in (rel_tol, abs_tol):
        if not 0.0 < tol <= 1e-2:
            raise ValueError(f"tolerances must lie in (0, 1e-2], got {tol}")
    if rho0.space.dim != model.space.dim:
        raise ops.DimensionError("initial state does not match the model space")
    if sample_count < 2:
        raise ValueError("need at least two samples")

    from scipy.integrate import RK45
    d = model.space.dim
    start = time.perf_counter()
    L, dropped = ops.real_liouvillian(model)
    build_s = time.perf_counter() - start
    T = ops.hermitian_coordinates(d)
    T_dag = T.conj().T

    times = np.linspace(0.0, float(t_final), int(sample_count))
    # Tr(op rho) = vec(op^T) . vec(rho) = vec(op^T) T^dag x: one real row per observable
    obs_rows = np.array([(T_dag.T @ op.matrix.T.ravel()).real
                         for op in model.observables.values()]).reshape(-1, d * d)
    records = {name: np.empty(len(times)) for name in model.observables}
    records["trace"] = np.empty(len(times))
    leakage = np.empty(len(times))
    min_eig = math.inf
    nfev = steps = 0
    min_step = math.inf

    y = (T @ rho0.matrix.ravel()).real
    for k, t in enumerate(times):
        if k > 0:
            # stepping RK45 directly keeps only the current state, not every step's
            solver = RK45(lambda _, v: L @ v, times[k - 1], y, t, rtol=rel_tol, atol=abs_tol)
            while solver.status == "running":
                message = solver.step()
                if solver.status != "failed":
                    steps += 1
                    min_step = min(min_step, float(solver.step_size))
            nfev += solver.nfev
            if solver.status == "failed":
                raise SolverError(
                    f"integrator failed near t = {t:g}: {message}; "
                    "consider rescaling rel_tol/abs_tol")
            y = solver.y
        tr = float(y[:d].sum())
        if abs(tr - 1.0) > TRACE_LIMIT:
            raise SolverError(
                f"trace drifted to {tr} at t = {t:g}; rescale tolerances")
        leak = _top_level_population(y[:d], model.space)
        if leak > LEAKAGE_LIMIT:
            raise LeakageError(
                f"top-of-ladder population {leak:.3e} at t = {t:g} exceeds "
                f"{LEAKAGE_LIMIT}; increase fock_dim")
        leakage[k] = leak
        records["trace"][k] = tr
        for name, value in zip(model.observables, obs_rows @ y):
            records[name][k] = value
        if checkpoint_every and k % checkpoint_every == 0:
            rho = (T_dag @ y).reshape(d, d)
            min_eig = min(min_eig, float(np.linalg.eigvalsh(rho)[0]))

    meta = {"rel_tol": rel_tol, "abs_tol": abs_tol, "nfev": nfev, "steps": steps,
            "min_step": min_step, "hermiticity_max": dropped, "solver": "RK45",
            "fock_dim": model.space.fock_dim, "generator_nnz": int(L.nnz),
            "generator_build_s": build_s}
    if checkpoint_every:
        meta["min_eigenvalue"] = min_eig
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
    cond = sparse.linalg.norm(system, 1) * onenormest(inverse)
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
                         t_final, sample_count=201,
                         rel_tol=1e-7, abs_tol=1e-10) -> MonteCarloResult:
    """Average cooling curves over quasi-static nuclear-bath detunings.

    Each realization draws delta = delta_max * u with u ~ uniform[-1, 1)
    (fixed seed, so ensembles at different delta_max share draws), shifts the
    |-1> level by delta, and integrates the three-level model.  The kept
    curve is the pointwise mean of <n>(t); n_ss_mean is the mean tail value.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = np.random.default_rng(seed)
    units = rng.uniform(-1.0, 1.0, size=samples)
    deltas = delta_max * units

    rho0 = ops.basis_state(ops.compose_space(LAMBDA_LEVELS, fock_dim), "-1",
                           min(3, fock_dim - 2))

    def one(idx):
        params_i = base.replace(nuclear_shift=base.nuclear_shift + deltas[idx])
        model = build_three_level_model(params_i, fock_dim)
        try:
            return evolve(model, rho0, t_final, sample_count,
                          rel_tol=rel_tol, abs_tol=abs_tol)
        except SolverError as err:
            raise SolverError(f"realization {idx} failed: {err}") from err

    series = [one(i) for i in range(samples)]

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
            "nfev_total": int(sum(s.meta["nfev"] for s in series))}
    return MonteCarloResult(times=times, mean_n=mean_n, n_ss_mean=n_ss_mean,
                            cooling_time=cooling_time, deltas=deltas, meta=meta)
