import math
import os
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

import eitcool.dynamics as dynamics
import eitcool.operators as ops
from eitcool.analytics import (analytic_trajectory, bloch_steady_state, rates,
                               thermal_occupation)
from eitcool.dynamics import (LEAKAGE_LIMIT, CoolingFit, LeakageError, SolverError,
                              TimeSeries, evolve, extract_cooling_rate, monte_carlo_detuning,
                              reachable_coordinates, steady_state)
from eitcool.nvmodel import (build_four_level_model, build_seven_level_model,
                             build_three_level_model, parity)
from eitcool.params import ModelParams
from eitcool.scenarios import load_config
from test_operators import (LEVELS3, LEVELS6, random_density, random_model,
                            sandwich_rhs, thermal_random_model)

FIG2A = ModelParams()
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def damping_model(gamma=0.8, fock=6):
    space = ops.compose_space(("g",), fock)
    return ops.LindbladModel(space, ops.identity(space) * 0.0,
                             [(gamma, ops.annihilation(space))],
                             {"n": ops.number_operator(space)})


RECYCLING = load_config(CONFIGS / "recycling_check.cfg").params


def initial_coordinates(rho0):
    return (ops.hermitian_coordinates(rho0.space.dim) @ rho0.matrix.ravel()).real


def min_eigenvalue_along(model, rho0, t_final, sample_count, abs_tol, every=5):
    """Smallest eigenvalue of rho at every `every`-th sample of evolve's grid:
    the full real generator stepped by evolve's propagator at evolve's spacing
    and abs_tol, with rho = T^dag x rebuilt at each checkpoint."""
    d = model.space.dim
    L = ops.real_liouvillian(model)[0]
    T_dag = ops.hermitian_coordinates(d).conj().T
    propagator = dynamics._Chebyshev(L, t_final / (sample_count - 1), abs_tol)
    x = initial_coordinates(rho0)
    lowest = math.inf
    for k in range(sample_count):
        if k > 0:
            x = propagator.advance(x)[0]
        if k % every == 0:
            lowest = min(lowest, np.linalg.eigvalsh((T_dag @ x).reshape(d, d))[0])
    return lowest


def with_odd_observable(model):
    """The model plus p_plus, which the parity maps to p_minus: evolve then
    steps the full state."""
    observables = dict(model.observables, p_plus=ops.transition(model.space, "+1", "+1"))
    return ops.LindbladModel(model.space, model.hamiltonian, model.channels, observables)


def evolve_against_complex_reference(model, rho0):
    """evolve at abs_tol 1e-11 against the complex d x d master equation
    integrated 1e3 times tighter; evolve's global error stays well below 1e-6."""
    from scipy.integrate import solve_ivp
    d = model.space.dim
    series = evolve(model, rho0, 5.0, 11, abs_tol=1e-11)
    ref = solve_ivp(lambda _, y: sandwich_rhs(model, y.reshape(d, d)).ravel(),
                    (0.0, 5.0), rho0.matrix.ravel(), t_eval=series.times,
                    rtol=1e-11, atol=1e-14)
    n_op = model.observables["n"].matrix
    want = [np.trace(n_op @ y.reshape(d, d)).real for y in ref.y.T]
    assert np.abs(series.column("n") - want).max() < 1e-6
    space = model.space
    top = [np.diagonal(y.reshape(d, d)).real.reshape(space.n_internal, space.fock_dim)
           [:, -2:].sum() for y in ref.y.T]
    assert np.abs(series.leakage - top).max() < 1e-6
    return series


class TestReachableCoordinates:
    @staticmethod
    def check_closed(L, x0):
        """No entry of L leads out of the reachable set, which holds the start
        and equals a breadth-first search of L's graph from the start."""
        from scipy.sparse.csgraph import breadth_first_order
        kept = reachable_coordinates(L, x0)
        outside = np.setdiff1d(np.arange(L.shape[0]), kept)
        assert L[outside][:, kept].nnz == 0
        assert np.isin(np.flatnonzero(x0), kept).all()
        graph = L.T.tocsr()          # row j of L^T lists the i with L[i, j] != 0
        want = np.unique(np.concatenate([
            breadth_first_order(graph, j, return_predecessors=False)
            for j in np.flatnonzero(x0)]))
        assert np.array_equal(kept, want)
        return kept

    @pytest.mark.filterwarnings("ignore:pump Rabi frequency")
    @pytest.mark.parametrize("builder", [build_three_level_model, build_four_level_model,
                                         build_seven_level_model])
    def test_closed_under_the_builders(self, builder):
        model = builder(RECYCLING, 6)
        L = ops.real_liouvillian(model)[0]
        for n in range(6):
            kept = self.check_closed(L, initial_coordinates(ops.basis_state(model.space, "-1", n)))
            if builder is build_three_level_model:
                assert kept.size == model.space.dim ** 2

    def test_closed_under_random_models(self):
        rng = np.random.default_rng(12)
        for make, labels, fock in ((random_model, LEVELS3, 4), (thermal_random_model, LEVELS6, 2),
                                   (thermal_random_model, ("g",), 9)):
            for _ in range(5):
                model = make(rng, labels, fock)
                L = ops.real_liouvillian(model)[0]
                label = model.space.internal_labels[-1]
                self.check_closed(L, initial_coordinates(ops.basis_state(model.space, label, 1)))

    def test_pure_damping_keeps_the_ladder_diagonal(self):
        model = damping_model(fock=6)
        L = ops.real_liouvillian(model)[0]
        kept = self.check_closed(L, initial_coordinates(ops.basis_state(model.space, "g", 4)))
        assert kept.tolist() == [0, 1, 2, 3, 4]


class TestEvolve:
    def test_pure_damping_analytic(self):
        gamma = 0.8
        model = damping_model(gamma)
        series = evolve(model, ops.basis_state(model.space, "g", 1),
                        8.0, 81, abs_tol=1e-12)
        want = np.exp(-gamma * series.times)
        assert np.abs(series.column("n") - want).max() < 1e-6 * want.max()

    def test_zero_generator_returns_the_initial_state(self):
        # no Hamiltonian and no channels: the ellipse is the point 0
        space = ops.internal_space(("g", "e", "f"))
        observables = {"p_e": ops.transition(space, "e", "e"),
                       "coherence": ops.transition(space, "e", "g") + ops.transition(space, "g", "e")}
        model = ops.LindbladModel(space, ops.identity(space) * 0.0, [], observables)
        rho0 = random_density(np.random.default_rng(5), space)
        series = evolve(model, rho0, 3.0, 4)
        for name in series.records:
            column = series.column(name)
            assert np.array_equal(column, np.full_like(column, column[0]))
        assert series.column("p_e")[0] == rho0.matrix[1, 1].real
        assert series.meta["nfev"] == 0
        assert series.meta["ellipse"] == (0.0, 0.0, 0.0)

    def test_non_hermitian_initial_state_is_an_error(self):
        # the real coordinates would evolve only the Hermitian part
        model = build_three_level_model(FIG2A, 6)
        matrix = ops.basis_state(model.space, "-1", 1).matrix
        matrix[0, 1] = 0.4j
        with pytest.raises(ValueError, match="Hermitian with unit trace: residual 4"):
            evolve(model, ops.DensityMatrix(model.space, matrix), 1.0, 3)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_initial_state_is_an_error(self, bad):
        # a NaN or inf pair makes the Hermiticity residual NaN, which must fail
        model = damping_model(fock=6)
        matrix = ops.basis_state(model.space, "g", 0).matrix
        matrix[0, 1] = matrix[1, 0] = bad
        with pytest.raises(ValueError, match="Hermitian with unit trace: residual nan"), \
                np.errstate(invalid="ignore"):
            evolve(model, ops.DensityMatrix(model.space, matrix), 1.0, 3)

    def test_initial_trace_must_be_one(self):
        model = build_three_level_model(FIG2A, 6)
        rho0 = ops.basis_state(model.space, "-1", 1)
        with pytest.raises(ValueError, match=r"unit trace: .* trace \(2\+0j\)"):
            evolve(model, ops.DensityMatrix(model.space, 2 * rho0.matrix), 1.0, 3)

    def test_series_out_of_terms_is_an_error(self, monkeypatch):
        monkeypatch.setattr(dynamics, "SERIES_TERMS", 8)
        model = build_three_level_model(FIG2A, 8)
        with pytest.raises(SolverError, match="did not converge within 8 terms"):
            evolve(model, ops.basis_state(model.space, "-1", 1), 5.0, 11)

    def test_non_finite_generator_is_an_error(self):
        # every entry is finite; the generator's products overflow
        space = ops.compose_space(("g",), 6)
        model = ops.LindbladModel(space, ops.identity(space) * 0.0,
                                  [(0.8, ops.annihilation(space) * 1e200)])
        with pytest.raises(SolverError, match="non-finite"), \
                np.errstate(over="ignore", invalid="ignore"):
            evolve(model, ops.basis_state(space, "g", 1), 1.0, 3)

    def test_rabi_oscillation(self):
        omega, delta = 1.3, 0.7
        space = ops.internal_space(("g", "e"))
        H = (-delta * ops.transition(space, "e", "e")
             + omega / 2 * (ops.transition(space, "e", "g")
                            + ops.transition(space, "g", "e")))
        model = ops.LindbladModel(space, H, [],
                                  {"p_e": ops.transition(space, "e", "e")})
        series = evolve(model, ops.basis_state(space, "g", 0), 12.0, 241,
                        abs_tol=1e-13)
        omega_r = math.hypot(omega, delta)
        want = (omega / omega_r) ** 2 * np.sin(omega_r * series.times / 2) ** 2
        assert np.abs(series.column("p_e") - want).max() < 1e-6

    def test_trace_and_hermiticity_along_trajectory(self):
        model = build_three_level_model(FIG2A, 10)
        rho0 = ops.basis_state(model.space, "-1", 2)
        series = evolve(model, rho0, 20.0, 41, abs_tol=1e-11)
        assert np.abs(series.column("trace") - 1.0).max() < 1e-6
        assert series.meta["hermiticity_max"] < 1e-9

    def test_positivity_at_checkpoints(self):
        model = build_three_level_model(FIG2A, 10)
        rho0 = ops.basis_state(model.space, "-1", 2)
        assert min_eigenvalue_along(model, rho0, 20.0, 41, 1e-11) >= -1e-6

    def test_leakage_is_an_error(self):
        model = build_three_level_model(FIG2A, 5)
        rho0 = ops.basis_state(model.space, "-1", 2)
        with pytest.raises(LeakageError):
            evolve(model, rho0, 20.0, 41)

    def test_two_level_ladder_has_no_top_to_leak_into(self):
        # below fock_dim 3 the ladder-top row is zero: a full top level is no leak
        model = damping_model(fock=2)
        series = evolve(model, ops.basis_state(model.space, "g", 1), 1.0, 5)
        assert series.column("n")[0] == 1.0
        assert np.array_equal(series.leakage, np.zeros(5))

    def test_three_level_ladder_reads_levels_one_and_two(self):
        # a diagonal state under no dynamics: the top two levels of every
        # internal level count, the ground level does not
        space = ops.compose_space(("g", "e"), 3)
        populations = np.array([[0.5 - 3e-5, 1e-5, 2e-5], [0.5 - 1e-5, 1e-5, 0.0]])
        rho0 = ops.DensityMatrix(space, np.diag(populations.ravel()).astype(complex))
        model = ops.LindbladModel(space, ops.identity(space) * 0.0, [])
        series = evolve(model, rho0, 1.0, 3)
        assert series.leakage == pytest.approx(np.full(3, 4e-5), rel=1e-12)

    def test_tolerance_domain(self):
        model = damping_model()
        rho0 = ops.basis_state(model.space, "g", 0)
        with pytest.raises(ValueError):
            evolve(model, rho0, 1.0, 11, abs_tol=0.5)
        with pytest.raises(TypeError, match="rel_tol"):
            evolve(model, rho0, 1.0, 11, rel_tol=1e-8)
        with pytest.raises(ValueError, match="t_final"):
            evolve(model, rho0, 0.0, 11)

    def test_sample_count_and_state_space_are_checked(self):
        model = damping_model(fock=6)
        with pytest.raises(ValueError, match="need at least two samples"):
            evolve(model, ops.basis_state(model.space, "g", 0), 1.0, 1)
        other = ops.basis_state(damping_model(fock=5).space, "g", 0)
        with pytest.raises(ops.DimensionError,
                           match="initial state does not match the model space"):
            evolve(model, other, 1.0, 11)

    @pytest.mark.filterwarnings("ignore:pump Rabi frequency")
    @pytest.mark.parametrize("builder, change, odd, sector", [
        (build_three_level_model, {}, False, "even"),
        (build_four_level_model, {}, False, "even"),
        (build_seven_level_model, {}, False, "even"),
        (build_three_level_model, dict(nuclear_shift=0.3), False, "full"),
        (build_three_level_model, {}, True, "full")],
        ids=["n3", "n4", "n7", "nuclear-shift", "odd-observable"])
    def test_matches_tight_reference(self, builder, change, odd, sector):
        # bound fixed beforehand: 1e-8 absolute on every observable, the trace
        # and the ladder top at the default tolerances, against DOP853 at rtol
        # 1e-13 on the full real generator
        from scipy.integrate import solve_ivp
        model = builder(RECYCLING.replace(**change), 8)
        if odd:
            model = with_odd_observable(model)
        rho0 = ops.basis_state(model.space, "-1", 1)
        series = evolve(model, rho0, 5.0, 11)
        assert series.meta["sector"] == sector
        d = model.space.dim
        L = ops.real_liouvillian(model)[0]
        ref = solve_ivp(lambda _, x: L @ x, (0.0, 5.0), initial_coordinates(rho0),
                        method="DOP853", t_eval=series.times, rtol=1e-13, atol=1e-16)
        T_dag = ops.hermitian_coordinates(d).conj().T
        rhos = [(T_dag @ x).reshape(d, d) for x in ref.y.T]
        for name, op in model.observables.items():
            want = [np.trace(op.matrix @ rho).real for rho in rhos]
            assert np.abs(series.column(name) - want).max() < 1e-8
        assert np.abs(series.column("trace") - [np.trace(rho).real for rho in rhos]).max() < 1e-8
        top = [np.diagonal(rho).real.reshape(model.space.n_internal, model.space.fock_dim)
               [:, -2:].sum() for rho in rhos]
        assert np.abs(series.leakage - top).max() < 1e-8

    def test_meta_reports_generator(self):
        model = damping_model(fock=6)
        rho0 = ops.basis_state(model.space, "g", 1)
        start = time.perf_counter()
        series = evolve(model, rho0, 1.0, 3)
        wall = time.perf_counter() - start
        assert 0.0 < series.meta["propagate_s"] < wall
        # the generator evolve steps: the full one restricted to what rho0 reaches
        L = ops.real_liouvillian(model)[0]
        kept = reachable_coordinates(L, initial_coordinates(rho0))
        assert series.meta["coordinates"] == kept.size == 2
        assert series.meta["generator_nnz"] == L[kept][:, kept].nnz
        assert series.meta["generator_build_s"] > 0.0
        assert series.meta["nfev"] > 0
        assert 0 < series.meta["steps"] <= series.meta["nfev"]
        assert series.meta["min_step"] > 0.0

    def test_matches_complex_reference_integration(self):
        model = build_three_level_model(FIG2A, 8)
        series = evolve_against_complex_reference(model, ops.basis_state(model.space, "-1", 1))
        # every even coordinate is coherently coupled in the Lambda system; at an
        # even fock_dim Pi has trace 0 on the coordinates, so they are half of them
        assert series.meta["sector"] == "even"
        assert series.meta["coordinates"] == model.space.dim ** 2 // 2
        basis, reps = ops.even_basis(*parity(model))
        L = ops.real_liouvillian(model)[0]
        assert series.meta["generator_nnz"] == (L[reps] @ basis).nnz

    @pytest.mark.filterwarnings("ignore:pump Rabi frequency")
    @pytest.mark.parametrize("builder, kept", [
        (build_four_level_model, 24 ** 2 // 2 + 8 ** 2 // 2),
        (build_seven_level_model, 24 ** 2 // 2 + 16 ** 2 // 2 + 8 ** 2 // 2 - 8)])
    def test_recycling_models_match_complex_reference(self, builder, kept):
        # |0>, |E_y> and |1A1> reach the Lambda block only through jumps, so from
        # |-1, 1> no coherence between the blocks ever arises.  The even half of
        # each block is reached in full, except Re <0, n|rho|E_y, n> (even under
        # Pi): the resonant real pump drive feeds only the imaginary part of
        # those coherences
        model = builder(RECYCLING, 8)
        series = evolve_against_complex_reference(model, ops.basis_state(model.space, "-1", 1))
        assert series.meta["sector"] == "even"
        assert series.meta["coordinates"] == kept < model.space.dim ** 2 // 2

    @pytest.mark.filterwarnings("ignore:pump Rabi frequency")
    def test_block_coherence_reaches_more_coordinates(self):
        model = build_four_level_model(RECYCLING, 8)
        amplitudes = [0.0, 0.8, 0.0, 0.6]          # on ("+1", "-1", "A2", "0")
        rho0 = ops.product_state(model.space, amplitudes, np.eye(8)[1])
        series = evolve_against_complex_reference(model, rho0)
        assert 320 < series.meta["coordinates"] <= model.space.dim ** 2 // 2

    @pytest.mark.filterwarnings("ignore:pump Rabi frequency")
    @pytest.mark.parametrize("builder", [build_three_level_model, build_four_level_model,
                                         build_seven_level_model])
    def test_counters_on_the_recycling_models(self, builder):
        # bounds fixed beforehand: the substeps cut each of the five sample
        # intervals into equal parts, of length min_step
        model = builder(RECYCLING, 12)
        series = evolve(model, ops.basis_state(model.space, "-1", 3), 10.0, 6,
                        abs_tol=1e-9)
        meta = series.meta
        assert meta["steps"] % 5 == 0 and meta["min_step"] == 10.0 / meta["steps"]
        assert meta["max_leakage"] == series.leakage.max()
        assert 0.0 < meta["max_leakage"] <= LEAKAGE_LIMIT
        assert meta["trace_drift"] == np.abs(series.column("trace") - 1.0).max()
        assert meta["trace_drift"] < 1e-12

    def test_records_include_trace(self):
        with pytest.raises(ValueError, match="trace"):
            TimeSeries(times=np.array([0.0, 1.0]),
                       records={"n": np.array([1.0, 0.5])},
                       leakage=np.zeros(2))

    @pytest.mark.parametrize("times", [[0.0, 1.0, 1.0], [0.0, 2.0, 1.0]],
                             ids=["repeated", "decreasing"])
    def test_times_must_increase(self, times):
        with pytest.raises(ValueError, match="times must be strictly increasing"):
            TimeSeries(times=np.array(times), records={"trace": np.ones(3)},
                       leakage=np.zeros(3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_trace_must_be_finite(self, bad):
        # NaN compares False against any limit, so the check must not be `> limit`
        with pytest.raises(ValueError, match="trace"):
            TimeSeries(times=np.array([0.0, 1.0]),
                       records={"trace": np.array([1.0, bad]), "n": np.array([bad, bad])},
                       leakage=np.zeros(2))


def reference_advance(propagator, x):
    """_Chebyshev.advance written plainly: u_k+1 = M @ u_k + u_k-1 in new arrays."""
    M, coef, tol = propagator.M, propagator.coef, propagator.abs_tol
    applied = 0
    for _ in range(propagator.substeps):
        prev, cur = x, 0.5 * (M @ x)
        out = coef[0] * prev + coef[1] * cur
        for k in range(2, len(coef)):
            prev, cur = cur, M @ cur + prev
            out = out + coef[k] * cur
            if k % 4 == 0 and k >= propagator.focus \
                    and abs(coef[k]) * np.abs(cur).max() < tol \
                    and abs(coef[k - 1]) * np.abs(prev).max() < tol:
                break
        applied += k
        x = out / propagator.at_zero[k]
    return x, applied


def propagator_and_states(monkeypatch, model, rho0):
    """evolve's series for `model`, its propagator and the states it advances."""
    calls = []

    class Recording(dynamics._Chebyshev):
        def advance(self, x):
            calls.append((self, x.copy()))
            return super().advance(x)

    monkeypatch.setattr(dynamics, "_Chebyshev", Recording)
    series = evolve(model, rho0, 5.0, 3)
    monkeypatch.undo()
    return series, calls[0][0], [x for _, x in calls]


class TestChebyshevStep:
    """The fused step of _Chebyshev.advance against the plain recurrence."""

    @pytest.mark.filterwarnings("ignore:pump Rabi frequency")
    @pytest.mark.parametrize("builder, change, sector", [
        (build_three_level_model, {}, "even"),
        (build_four_level_model, {}, "even"),
        (build_seven_level_model, {}, "even"),
        (build_three_level_model, dict(nuclear_shift=0.3), "full"),
        (None, {}, "even")],
        ids=["n3", "n4", "n7", "nuclear-shift", "pure-damping"])
    def test_matches_plain_recurrence(self, monkeypatch, builder, change, sector):
        # bound fixed beforehand: the fused step only reorders the sum of each term
        if builder is None:
            model = damping_model()
            rho0 = ops.basis_state(model.space, "g", 2)
        else:
            model = builder(RECYCLING.replace(**change), 8)
            rho0 = ops.basis_state(model.space, "-1", 1)
        series, propagator, states = propagator_and_states(monkeypatch, model, rho0)
        assert series.meta["sector"] == sector
        for x in states:
            before = x.copy()
            got, applied = propagator.advance(x)
            want, want_applied = reference_advance(propagator, x)
            assert applied == want_applied
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
            assert np.array_equal(x, before)

    def test_makes_no_sparse_products(self, monkeypatch):
        model = build_three_level_model(RECYCLING, 8)
        _, propagator, states = propagator_and_states(
            monkeypatch, model, ops.basis_state(model.space, "-1", 1))
        calls = []
        matmul = sparse.csr_array.__matmul__

        def counting(self, other):
            calls.append(other)
            return matmul(self, other)

        monkeypatch.setattr(sparse.csr_array, "__matmul__", counting)
        assert isinstance(propagator.M, sparse.csr_array)
        propagator.M @ states[0]
        assert len(calls) == 1
        assert propagator.advance(states[0])[1] > 0
        assert len(calls) == 1

    @pytest.mark.parametrize("index_dtype", [np.int32, np.int64])
    def test_csr_kernel_contract(self, index_dtype):
        # advance calls scipy's private kernel directly; a change to its
        # signature or meaning must fail here, not move the physics
        from scipy.sparse._sparsetools import csr_matvec
        rng = np.random.default_rng(7)
        A = sparse.random_array((40, 30), density=0.3, format="csr", rng=rng)
        indptr, indices = A.indptr.astype(index_dtype), A.indices.astype(index_dtype)
        x = rng.standard_normal(30)
        y = np.zeros(40)
        csr_matvec(40, 30, indptr, indices, A.data, x, y)
        assert np.array_equal(y, A @ x)
        # integer-valued entries, so that the sum is exact in any order
        data, x = np.round(8 * A.data), np.round(8 * x)
        y0 = np.round(8 * rng.standard_normal(40))
        y = y0.copy()
        csr_matvec(40, 30, indptr, indices, data, x, y)
        assert np.array_equal(y, y0 + sparse.csr_array((data, A.indices, A.indptr)) @ x)


def coordinate_parity(space, states, signs):
    """rho -> Pi rho Pi^dag on the Hermitian coordinates, as T kron(Pi, Pi) T^dag
    with its entries rounded to the +-1 and 0 they are up to rounding."""
    from scipy import sparse
    d = space.dim
    pi = sparse.csr_array((signs.astype(float), (states, np.arange(d))), shape=(d, d))
    T = ops.hermitian_coordinates(d)
    P = (T @ sparse.kron(pi, pi) @ T.conj().T).toarray()
    assert np.abs(P.imag).max() < 1e-12
    return sparse.csr_array(np.rint(P.real))


def symmetrized(model):
    """The model with H averaged with its Pi image and each channel's Pi image
    added at the same rate."""
    states, signs = parity_map(model.space)
    outer = np.outer(signs[states], signs[states])

    def image(op):
        return ops.Operator(model.space, op.matrix[np.ix_(states, states)] * outer)

    H = (model.hamiltonian + image(model.hamiltonian)) * 0.5
    channels = [pair for rate, jump in model.channels
                for pair in ((rate, jump), (rate, image(jump)))]
    return ops.LindbladModel(model.space, H, channels, model.observables)


def parity_map(space):
    """Pi of nvmodel.parity on a space with |+1> and |-1>, written out directly."""
    swap = {"+1": "-1", "-1": "+1"}
    states = np.array([space.index(swap.get(label, label), n)
                       for label in space.internal_labels for n in range(space.fock_dim)])
    signs = np.array([(-1) ** n for _ in space.internal_labels
                      for n in range(space.fock_dim)])
    return states, signs


def with_parity_observables(model):
    from eitcool.nvmodel import dark_state_vector
    space = model.space
    observables = {"n": ops.number_operator(space),
                   "p_dark": ops.internal_projector(space, dark_state_vector(space))}
    return ops.LindbladModel(space, model.hamiltonian, model.channels, observables)


class TestParitySector:
    @pytest.mark.filterwarnings("ignore:pump Rabi frequency")
    @pytest.mark.parametrize("builder", [build_three_level_model, build_four_level_model,
                                         build_seven_level_model])
    @pytest.mark.parametrize("bath", ["zero", "thermal"])
    def test_builders_commute_exactly(self, builder, bath):
        model = builder(RECYCLING.replace(bath=bath), 5)
        symmetry = parity(model)
        assert symmetry is not None
        assert all(np.array_equal(a, b) for a, b in zip(symmetry, parity_map(model.space)))
        P = coordinate_parity(model.space, *symmetry)
        L = ops.real_liouvillian(model)[0]
        assert (P @ L @ P != L).nnz == 0
        # V spans the even subspace: its columns are even, orthogonal, and as
        # many as the +1 eigenvalues of P
        basis, reps = ops.even_basis(*symmetry)
        assert (P @ basis != basis).nnz == 0
        gram = (basis.T @ basis).toarray()
        assert np.array_equal(gram, np.diag(np.diag(gram)))
        assert basis.shape[1] == (L.shape[0] + P.diagonal().sum()) / 2
        # the stepped rows of L V are W V^T L V, exactly where P L P = L
        w = 1.0 / np.diag(gram)
        assert ((basis.T @ L @ basis) * w[:, None] != L[reps] @ basis).nnz == 0

    @pytest.mark.parametrize("change", [dict(nuclear_shift=0.3),
                                        dict(gamma_plus=7.0, gamma_minus=8.0)])
    def test_asymmetric_models_take_the_full_path(self, change):
        model = build_three_level_model(FIG2A.replace(**change), 8)
        P = coordinate_parity(model.space, *parity_map(model.space))
        L = ops.real_liouvillian(model)[0]
        assert abs(P @ L @ P - L).max() > 1e-3
        self.check_full_path(model)

    def test_an_odd_observable_takes_the_full_path(self):
        self.check_full_path(with_odd_observable(build_three_level_model(FIG2A, 8)))

    @staticmethod
    def check_full_path(model):
        assert parity(model) is None
        rho0 = ops.basis_state(model.space, "-1", 2)
        series = evolve(model, rho0, 5.0, 11)
        checked = evolve(with_odd_observable(model), rho0, 5.0, 11)
        assert series.meta["sector"] == checked.meta["sector"] == "full"
        assert series.meta["coordinates"] == model.space.dim ** 2
        # one more observable leaves the stepped state and every other reading
        # alone, bit for bit: each reading is one CSR row, summed by itself
        assert np.array_equal(series.leakage, checked.leakage)
        for name in series.records:
            assert np.array_equal(series.column(name), checked.column(name)), name

    def test_the_full_path_matches_the_even_sector(self):
        model = build_three_level_model(FIG2A, 8)
        rho0 = ops.basis_state(model.space, "-1", 2)
        series = evolve(model, rho0, 5.0, 11, abs_tol=1e-13)
        checked = evolve(with_odd_observable(model), rho0, 5.0, 11, abs_tol=1e-13)
        assert (series.meta["sector"], checked.meta["sector"]) == ("even", "full")
        assert checked.meta["coordinates"] == 2 * series.meta["coordinates"]
        for name in series.records:
            assert np.abs(series.column(name) - checked.column(name)).max() < 1e-8

    @pytest.mark.filterwarnings("ignore:pump Rabi frequency")
    def test_shipped_models_are_accepted(self):
        # the models of every simulated config, at a small fock_dim: a config
        # change that breaks the symmetry would silently double the work
        from eitcool.scenarios import SCENARIOS
        bench = CONFIGS.parent / "bench" / "configs"
        recycling = [load_config(path).params
                     for path in (CONFIGS / "recycling_check.cfg", bench / "recycling.cfg")]
        models = [builder(p, 4) for p in recycling for builder in (
            build_three_level_model, build_four_level_model, build_seven_level_model)]
        compare = load_config(CONFIGS / "cooling_rate_compare.cfg")
        m_r = SCENARIOS["cooling-rate-compare"].grid(compare.params, compare.sweep)[0]
        models += [build_three_level_model(compare.params.replace(
            rabi_omega0=m, detuning=(m ** 2 - 2) / 2), 4) for m in m_r]
        bath = load_config(CONFIGS / "nuclear_bath.cfg").params
        models.append(build_three_level_model(bath, 4))
        assert len(models) == 9
        assert all(parity(model) is not None for model in models)
        # a nuclear-bath realization shifts |-1> alone, and is rejected
        ensemble = load_config(bench / "nuclear_bath.cfg")
        u = np.random.default_rng(ensemble.seed).uniform(-1.0, 1.0, size=ensemble.mc_samples)
        shift = ensemble.sweep["delta_max"].grid()[0] * u[0]
        assert shift != 0.0
        model = build_three_level_model(ensemble.params.replace(nuclear_shift=shift), 4)
        assert parity(model) is None

    @settings(max_examples=20, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), labels=st.sampled_from([LEVELS3, LEVELS6]),
           symmetric=st.booleans())
    def test_random_models(self, seed, labels, symmetric):
        # fock_dim 2 keeps the ladder-top monitor out of random dynamics
        rng = np.random.default_rng(seed)
        model = with_parity_observables(thermal_random_model(rng, labels, 2))
        if symmetric:
            model = symmetrized(model)
        d = model.space.dim
        L, dropped = ops.real_liouvillian(model)
        assert np.abs(L[:d].sum(axis=0)).max() <= 1e-12
        assert dropped <= 1e-12
        rho0 = random_density(rng, model.space)
        series = evolve(model, rho0, 1.0, 5, abs_tol=1e-12)
        if not symmetric:
            assert parity(model) is None and series.meta["sector"] == "full"
            return
        symmetry = parity(model)
        assert symmetry is not None and series.meta["sector"] == "even"
        P = coordinate_parity(model.space, *symmetry)
        assert abs(P @ L @ P - L).max() <= 1e-12 * abs(L).max()
        full = evolve(with_odd_observable(model), rho0, 1.0, 5, abs_tol=1e-12)
        for name in series.records:
            assert np.abs(series.column(name) - full.column(name)).max() < 1e-7


def complex_lu_steady_state(model):
    """Reference: sparse LU of the complex Liouvillian with its rho_00 row
    replaced by the trace condition."""
    from scipy import sparse
    from scipy.sparse.linalg import splu
    d = model.space.dim
    trace_row = sparse.csr_array(
        (np.ones(d), (np.zeros(d, dtype=int), np.arange(d) * (d + 1))), shape=(1, d * d))
    system = sparse.vstack([trace_row, ops.liouvillian(model)[1:]], format="csc")
    b = np.zeros(d * d, dtype=complex)
    b[0] = 1.0
    rho = splu(system).solve(b).reshape(d, d)
    return (rho + rho.conj().T) / 2


class TestSteadyState:
    @pytest.mark.filterwarnings("ignore:pump Rabi frequency")
    @pytest.mark.parametrize("builder", [build_three_level_model, build_four_level_model])
    def test_matches_complex_lu(self, builder):
        p = load_config(CONFIGS / "recycling_check.cfg").params.replace(bath="thermal")
        model = builder(p, 10)
        got = steady_state(model).matrix
        assert np.abs(got - complex_lu_steady_state(model)).max() < 1e-12

    def test_pure_damping_gives_vacuum(self):
        model = damping_model()
        rho = steady_state(model)
        want = ops.basis_state(model.space, "g", 0).matrix
        assert np.abs(rho.matrix - want).max() < 1e-12

    def test_three_level_dark_state(self):
        p = ModelParams(eta=0.0, lambda_coupling=0.0)
        space = ops.internal_space(("+1", "-1", "A2"))
        from eitcool.nvmodel import dark_state_vector, rotating_hamiltonian
        H = rotating_hamiltonian(p, space)
        model = ops.LindbladModel(space, H, [
            (p.gamma_plus, ops.transition(space, "+1", "A2")),
            (p.gamma_minus, ops.transition(space, "-1", "A2"))])
        rho = steady_state(model)
        dark = dark_state_vector(space)
        assert (dark.conj() @ rho.matrix @ dark).real == pytest.approx(1.0, abs=1e-8)

    def test_thermal_detailed_balance(self):
        n_th, gamma = 0.3, 0.5
        space = ops.compose_space(("g",), 25)
        b = ops.annihilation(space)
        model = ops.LindbladModel(space, ops.identity(space) * 0.0,
                                  [(gamma * (n_th + 1), b),
                                   (gamma * n_th, b.dagger())],
                                  {"n": ops.number_operator(space)})
        rho = steady_state(model)
        n_mean = ops.expectation(rho, model.observables["n"]).real
        assert n_mean == pytest.approx(n_th, abs=1e-6)

    def test_degenerate_steady_state_detected(self):
        # no channels: every density matrix is stationary
        space = ops.compose_space(("g",), 3)
        model = ops.LindbladModel(space, ops.identity(space) * 0.0)
        with pytest.raises(ValueError, match="degenerate"):
            steady_state(model)

    @pytest.mark.parametrize("ladder_energy", [0.0, 1.1])
    def test_degenerate_uncoupled_damped_ladders_detected(self, ladder_energy):
        # two damped Fock ladders on internal levels that nothing couples: one
        # steady state per ladder.  Without b^dag b the LU factor is exactly
        # singular; with it the factor exists and the condition estimate reads
        # about 1e19, seven decades above DEGENERACY_COND.
        space = ops.compose_space(("a", "b"), 6)
        b = ops.annihilation(space)
        pa, pb = ops.transition(space, "a", "a"), ops.transition(space, "b", "b")
        x = b + b.dagger()
        H = 0.7 * pb + 0.3 * (pa @ x) + 0.45 * (pb @ x) \
            + ladder_energy * ops.number_operator(space)
        model = ops.LindbladModel(space, H, [(0.5, pa @ b), (0.9, pb @ b)])
        with pytest.raises(ValueError, match="degenerate") as first:
            steady_state(model)
        with pytest.raises(ValueError, match="degenerate") as repeat:
            steady_state(model)
        assert str(repeat.value) == str(first.value)

    @pytest.mark.filterwarnings("ignore:pump Rabi frequency")
    def test_leaves_the_global_random_stream_alone(self):
        # scipy's onenormest draws from numpy's global stream
        model = build_four_level_model(RECYCLING, 6)
        np.random.seed(1)
        want = np.random.random(4)
        np.random.seed(1)
        steady_state(model)
        assert np.array_equal(np.random.random(4), want)

    def test_matches_long_time_evolution(self):
        p = FIG2A.replace(bath="thermal")
        model = build_three_level_model(p, 10)
        rho_ss = steady_state(model)
        rho0 = ops.basis_state(model.space, "-1", 0)
        series = evolve(model, rho0, 300.0, 31, abs_tol=1e-12)
        for name, op in model.observables.items():
            want = ops.expectation(rho_ss, op).real
            assert series.column(name)[-1] == pytest.approx(want, abs=1e-5)

    def test_agrees_with_bloch_solution(self):
        rng = np.random.default_rng(11)
        from eitcool.nvmodel import rotating_hamiltonian
        for _ in range(5):
            p = ModelParams(rabi_omega0=rng.uniform(1, 10),
                            detuning=rng.uniform(-30, 30),
                            gamma_total=rng.uniform(2, 25),
                            eta=0.0, lambda_coupling=0.0)
            space = ops.internal_space(("+1", "-1", "A2"))
            model = ops.LindbladModel(space, rotating_hamiltonian(p, space), [
                (p.gamma_plus, ops.transition(space, "+1", "A2")),
                (p.gamma_minus, ops.transition(space, "-1", "A2"))])
            direct = steady_state(model).matrix
            via_bloch = bloch_steady_state(p).matrix
            assert np.abs(direct - via_bloch).max() < 1e-8


def decay_series(t, n):
    return TimeSeries(times=t, records={"n": n, "trace": np.ones_like(t)},
                      leakage=np.zeros_like(t))


class TestExtractCoolingRate:
    def test_negative_rate_is_rejected(self):
        with pytest.raises(ValueError, match="fitted rate must be >= 0"):
            CoolingFit(w_fit=-0.1, n_ss_fit=0.5, n0_fit=3.0, fit_window=(0.0, 1.0),
                       residual_rms=0.0)

    @pytest.mark.parametrize("t, n, kwargs, says", [
        (np.linspace(0.0, 7.0, 7), 0.5 + 2.5 * np.exp(-np.linspace(0.0, 7.0, 7)), {},
         "series too short to fit"),
        (np.linspace(0.0, 80.0, 400), np.full(400, 0.5), {},
         "series shows no decay toward a tail value"),
        # the transient cut leaves 5 samples
        (np.linspace(0.0, 79.8, 400), 0.5 + 2.5 * np.exp(-0.1 * np.linspace(0.0, 79.8, 400)),
         dict(transient_time=79.0, start_fraction=1.0, end_fraction=0.0),
         "fit window too small"),
    ], ids=["too-short", "no-decay", "small-window"])
    def test_unfittable_series_is_rejected(self, t, n, kwargs, says):
        with pytest.raises(ValueError, match=says):
            extract_cooling_rate(decay_series(t, n), "n", **kwargs)

    def test_overflowing_tail_estimate_falls_back_to_the_last_sample(self):
        # at 1e200 the products of the Aitken estimate overflow to inf - inf;
        # with NaN as the tail no sample would fall inside the fit window
        t = np.linspace(0.0, 80.0, 400)
        with np.errstate(over="ignore", invalid="ignore"):
            fit = extract_cooling_rate(
                decay_series(t, 1e200 * (0.5 + 2.5 * np.exp(-0.1 * t))), "n",
                start_fraction=1.0)
        assert fit.w_fit == pytest.approx(0.1, rel=1e-9)
        assert fit.n_ss_fit == pytest.approx(0.5e200, rel=1e-9)

    def test_synthetic_exponential(self):
        t = np.linspace(0.0, 80.0, 400)
        n = 0.5 + 2.5 * np.exp(-0.1 * t)
        series = TimeSeries(times=t, records={"n": n, "trace": np.ones_like(t)},
                            leakage=np.zeros_like(t))
        fit = extract_cooling_rate(series, "n", start_fraction=1.0)
        assert fit.w_fit == pytest.approx(0.1, abs=1e-6)
        assert fit.n_ss_fit == pytest.approx(0.5, abs=1e-6)
        assert fit.residual_rms < 1e-8

    def test_closed_loop_with_analytic_trajectory(self):
        p = FIG2A.replace(bath="thermal")
        report = rates(p)
        gm, n_th = p.gamma_mech, report.thermal_n
        t = np.linspace(0.0, 120.0, 600)
        n = analytic_trajectory(report, gm, n_th, t)
        series = TimeSeries(times=t, records={"n": n, "trace": np.ones_like(t)},
                            leakage=np.zeros_like(t))
        fit = extract_cooling_rate(series, "n", start_fraction=1.0)
        assert fit.w_fit == pytest.approx(report.w + gm, rel=1e-8)

    def test_nonmonotone_tail_rejected(self):
        t = np.linspace(0.0, 60.0, 400)
        n = 0.5 + 2.5 * np.exp(-0.2 * t) * (1 + 0.3 * np.cos(3 * t))
        series = TimeSeries(times=t, records={"n": n, "trace": np.ones_like(t)},
                            leakage=np.zeros_like(t))
        with pytest.raises(ValueError, match="non-monotone"):
            extract_cooling_rate(series, "n", start_fraction=1.0)

    def test_insufficient_efolds_rejected(self):
        t = np.linspace(0.0, 5.0, 100)
        n = 0.5 + 2.5 * np.exp(-0.1 * t)  # only 0.5 e-folds
        series = TimeSeries(times=t, records={"n": n, "trace": np.ones_like(t)},
                            leakage=np.zeros_like(t))
        with pytest.raises(ValueError):
            extract_cooling_rate(series, "n", start_fraction=1.0)

    def test_window_reported(self):
        t = np.linspace(0.0, 90.0, 500)
        n = 1.0 + 4.0 * np.exp(-0.15 * t)
        series = TimeSeries(times=t, records={"n": n, "trace": np.ones_like(t)},
                            leakage=np.zeros_like(t))
        fit = extract_cooling_rate(series, "n", transient_time=2.0)
        assert fit.fit_window[0] >= 2.0
        assert fit.fit_window[1] <= t[-1]


class TestMonteCarlo:
    def test_zero_width_matches_deterministic(self):
        p = FIG2A
        out = monte_carlo_detuning(p, 0.0, samples=3, seed=1, fock_dim=12,
                                   t_final=10.0, sample_count=21)
        model = build_three_level_model(p, 12)
        rho0 = ops.basis_state(model.space, "-1", 3)
        single = evolve(model, rho0, 10.0, 21, abs_tol=1e-10)
        assert np.abs(out.mean_n - single.column("n")).max() < 1e-12
        # three equal shifts are one model, solved once
        assert out.meta["nfev_total"] == single.meta["nfev"]
        assert out.meta["max_leakage"] == single.meta["max_leakage"]
        assert out.meta["propagate_s_total"] > 0.0

    def test_seed_reproducibility(self):
        kwargs = dict(delta_max=0.3, samples=4, seed=42, fock_dim=12,
                      t_final=10.0, sample_count=11)
        a = monte_carlo_detuning(FIG2A, **kwargs)
        b = monte_carlo_detuning(FIG2A, **kwargs)
        assert np.array_equal(a.mean_n, b.mean_n)
        assert np.array_equal(a.deltas, b.deltas)

    def test_degradation_monotone_in_delta_max(self):
        # tail phonon number grows with the nuclear-bath spread (Fig. 6 params)
        p = FIG2A.replace(bath="thermal")
        tails = []
        for dm in (0.0, 0.05, 0.1, 0.5):
            out = monte_carlo_detuning(p, dm, samples=2, seed=9, fock_dim=16,
                                       t_final=150.0, sample_count=41)
            tails.append(out.n_ss_mean)
        assert all(a <= b + 1e-12 for a, b in zip(tails, tails[1:]))

    def test_sample_count_is_checked(self):
        with pytest.raises(ValueError, match="samples must be >= 1"):
            monte_carlo_detuning(FIG2A, 0.1, samples=0, seed=1, fock_dim=12,
                                 t_final=10.0)

    def test_failure_reports_realization(self):
        with pytest.raises(SolverError, match="realization 0 failed"):
            monte_carlo_detuning(FIG2A, 0.0, samples=2, seed=3, fock_dim=5,
                                 t_final=30.0, sample_count=11)


def test_cooling_time_definition():
    p = FIG2A
    out = monte_carlo_detuning(p, 0.0, samples=1, seed=2, fock_dim=12,
                               t_final=120.0, sample_count=121)
    assert out.cooling_time < 120.0
    k = np.searchsorted(out.times, out.cooling_time)
    assert out.mean_n[k] <= 1.1 * out.n_ss_mean
    assert np.all(out.mean_n[:k] > 1.1 * out.n_ss_mean)


def test_evolve_does_not_load_scipy_integrate():
    # scipy.integrate adds about 15 MB and 0.2 s to a process; no simulated
    # run needs it
    script = textwrap.dedent("""
        import sys, warnings
        warnings.simplefilter("ignore")
        from eitcool import operators as ops
        from eitcool.dynamics import evolve
        from eitcool.nvmodel import build_seven_level_model
        from eitcool.scenarios import load_config
        model = build_seven_level_model(load_config(sys.argv[1]).params, 12)
        evolve(model, ops.basis_state(model.space, "-1", 3), 1.0, 3)
        print("scipy.integrate" in sys.modules)
        """)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(CONFIGS.parent / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    result = subprocess.run(
        [sys.executable, "-c", script, str(CONFIGS / "recycling_check.cfg")],
        env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["False"]


def test_serial_calls_start_no_blas_threads():
    # a dense d x d product starts numpy's OpenBLAS threads, whose worker then
    # spins for about 0.1 s on a second core; nothing on the model, generator,
    # evolve or steady-state path may do that, whatever the thread settings.
    # Loading OpenBLAS starts its threads with such a spin too, so the timed
    # region begins only once no thread of the process gains CPU over 50 ms
    # (waiting at most 2 s).  A short spin early in the timed region can hide
    # under the CPU-over-wall bound, so no thread but the caller's may gain
    # more than 2 ticks (20 ms) of CPU over the region either
    script = textwrap.dedent("""
        import glob, sys, threading, time, warnings
        warnings.simplefilter("ignore")
        from eitcool import operators as ops
        from eitcool.dynamics import evolve, steady_state
        from eitcool.nvmodel import build_four_level_model, build_seven_level_model
        from eitcool.scenarios import load_config
        params = load_config(sys.argv[1]).params

        def thread_ticks():
            ticks = {}
            for path in glob.glob("/proc/self/task/*/stat"):
                try:
                    with open(path) as stat:
                        fields = stat.read().rsplit(")", 1)[1].split()
                except OSError:              # the thread has ended
                    continue
                ticks[path] = int(fields[11]) + int(fields[12])    # utime + stime
            return ticks

        deadline, before = time.perf_counter() + 2.0, thread_ticks()
        while time.perf_counter() < deadline:
            time.sleep(0.05)
            after = thread_ticks()
            if all(ticks <= before.get(path, 0) for path, ticks in after.items()):
                break
            before = after
        caller = f"/proc/self/task/{threading.get_native_id()}/stat"
        before = thread_ticks()
        cpu, wall = time.process_time(), time.perf_counter()
        model = build_seven_level_model(params, 12)
        evolve(model, ops.basis_state(model.space, "-1", 3), 1.0, 3)
        steady_state(build_four_level_model(params, 12))
        cpu, wall = time.process_time() - cpu, time.perf_counter() - wall
        others = max((ticks - before.get(path, 0) for path, ticks in
                      thread_ticks().items() if path != caller), default=0)
        idle = time.process_time()
        time.sleep(0.3)
        print(cpu, wall, time.process_time() - idle, others)
        """)
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(CONFIGS.parent / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    result = subprocess.run(
        [sys.executable, "-c", script, str(CONFIGS / "recycling_check.cfg")],
        env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    cpu, wall, idle, others = map(float, result.stdout.split())
    assert idle < 0.05
    assert cpu <= 1.2 * wall
    assert others <= 2
