import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import eitcool.operators as ops
from eitcool.analytics import (analytic_trajectory, bloch_steady_state, rates,
                               thermal_occupation)
from eitcool.dynamics import (LeakageError, SolverError, TimeSeries, evolve,
                              extract_cooling_rate, monte_carlo_detuning,
                              reachable_coordinates, steady_state)
from eitcool.nvmodel import (build_four_level_model, build_seven_level_model,
                             build_three_level_model)
from eitcool.params import ModelParams
from eitcool.scenarios import load_config
from test_operators import (LEVELS3, LEVELS6, random_model, sandwich_rhs,
                            thermal_random_model)

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


def evolve_against_complex_reference(model, rho0):
    """evolve at rel_tol 1e-8 against the complex d x d master equation
    integrated 1e3 times tighter; evolve's global error stays well below 1e-6."""
    from scipy.integrate import solve_ivp
    d = model.space.dim
    series = evolve(model, rho0, 5.0, 11, rel_tol=1e-8, abs_tol=1e-11)
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
                        8.0, 81, rel_tol=1e-9, abs_tol=1e-12)
        want = np.exp(-gamma * series.times)
        assert np.abs(series.column("n") - want).max() < 1e-6 * want.max()

    def test_rabi_oscillation(self):
        omega, delta = 1.3, 0.7
        space = ops.internal_space(("g", "e"))
        H = (-delta * ops.transition(space, "e", "e")
             + omega / 2 * (ops.transition(space, "e", "g")
                            + ops.transition(space, "g", "e")))
        model = ops.LindbladModel(space, H, [],
                                  {"p_e": ops.transition(space, "e", "e")})
        series = evolve(model, ops.basis_state(space, "g", 0), 12.0, 241,
                        rel_tol=1e-10, abs_tol=1e-13)
        omega_r = math.hypot(omega, delta)
        want = (omega / omega_r) ** 2 * np.sin(omega_r * series.times / 2) ** 2
        assert np.abs(series.column("p_e") - want).max() < 1e-6

    def test_trace_and_hermiticity_along_trajectory(self):
        model = build_three_level_model(FIG2A, 10)
        rho0 = ops.basis_state(model.space, "-1", 2)
        series = evolve(model, rho0, 20.0, 41, rel_tol=1e-8, abs_tol=1e-11)
        assert np.abs(series.column("trace") - 1.0).max() < 1e-6
        assert series.meta["hermiticity_max"] < 1e-9

    def test_positivity_at_checkpoints(self):
        model = build_three_level_model(FIG2A, 10)
        rho0 = ops.basis_state(model.space, "-1", 2)
        series = evolve(model, rho0, 20.0, 41, rel_tol=1e-8, abs_tol=1e-11,
                        checkpoint_every=5)
        assert series.meta["min_eigenvalue"] >= -1e-6

    def test_leakage_is_an_error(self):
        model = build_three_level_model(FIG2A, 5)
        rho0 = ops.basis_state(model.space, "-1", 2)
        with pytest.raises(LeakageError):
            evolve(model, rho0, 20.0, 41)

    def test_tolerance_domain(self):
        model = damping_model()
        rho0 = ops.basis_state(model.space, "g", 0)
        with pytest.raises(ValueError):
            evolve(model, rho0, 1.0, 11, rel_tol=0.5)

    def test_solver_order(self):
        # no error plateau: halving rel_tol keeps reducing the observable error
        model = build_three_level_model(FIG2A, 8)
        rho0 = ops.basis_state(model.space, "-1", 1)

        def run(rtol):
            return evolve(model, rho0, 5.0, 11, rel_tol=rtol,
                          abs_tol=1e-14).column("n")

        reference = run(1e-11)
        errors = [np.abs(run(rtol) - reference).max()
                  for rtol in (1e-4, 5e-5, 2.5e-5, 1.25e-5)]
        assert all(a > b for a, b in zip(errors, errors[1:]))

    def test_meta_reports_generator(self):
        model = damping_model(fock=6)
        rho0 = ops.basis_state(model.space, "g", 1)
        series = evolve(model, rho0, 1.0, 3)
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
        # every coordinate is coherently coupled in the Lambda system
        assert series.meta["coordinates"] == model.space.dim ** 2
        assert series.meta["generator_nnz"] == ops.real_liouvillian(model)[0].nnz

    @pytest.mark.filterwarnings("ignore:pump Rabi frequency")
    @pytest.mark.parametrize("builder, kept", [
        (build_four_level_model, 24 ** 2 + 8 ** 2),
        (build_seven_level_model, 24 ** 2 + 16 ** 2 + 8 ** 2 - 8)])
    def test_recycling_models_match_complex_reference(self, builder, kept):
        # |0>, |E_y> and |1A1> reach the Lambda block only through jumps, so from
        # |-1, 1> no coherence between the blocks ever arises.  Each block is
        # reached in full, except Re <0, n|rho|E_y, n>: the resonant real pump
        # drive feeds only the imaginary part of those coherences
        model = builder(RECYCLING, 8)
        series = evolve_against_complex_reference(model, ops.basis_state(model.space, "-1", 1))
        assert series.meta["coordinates"] == kept < model.space.dim ** 2

    @pytest.mark.filterwarnings("ignore:pump Rabi frequency")
    def test_block_coherence_reaches_more_coordinates(self):
        model = build_four_level_model(RECYCLING, 8)
        amplitudes = [0.0, 0.8, 0.0, 0.6]          # on ("+1", "-1", "A2", "0")
        rho0 = ops.product_state(model.space, amplitudes, np.eye(8)[1])
        series = evolve_against_complex_reference(model, rho0)
        assert 640 < series.meta["coordinates"] <= model.space.dim ** 2

    def test_records_include_trace(self):
        with pytest.raises(ValueError, match="trace"):
            TimeSeries(times=np.array([0.0, 1.0]),
                       records={"n": np.array([1.0, 0.5])},
                       leakage=np.zeros(2))


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
        with pytest.raises(ValueError, match="degenerate"):
            steady_state(model)

    def test_matches_long_time_evolution(self):
        p = FIG2A.replace(bath="thermal")
        model = build_three_level_model(p, 10)
        rho_ss = steady_state(model)
        rho0 = ops.basis_state(model.space, "-1", 0)
        series = evolve(model, rho0, 300.0, 31, rel_tol=1e-9, abs_tol=1e-12)
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


class TestExtractCoolingRate:
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
        single = evolve(model, rho0, 10.0, 21, rel_tol=1e-7, abs_tol=1e-10)
        assert np.abs(out.mean_n - single.column("n")).max() < 1e-12
        # three equal shifts are one model, solved once
        assert out.meta["nfev_total"] == single.meta["nfev"]

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


def test_serial_calls_start_no_blas_threads():
    # a dense d x d product starts numpy's OpenBLAS threads, whose worker then
    # spins for about 0.1 s on a second core; nothing on the model, generator,
    # evolve or steady-state path may do that, whatever the thread settings
    script = textwrap.dedent("""
        import sys, time, warnings
        warnings.simplefilter("ignore")
        from eitcool import operators as ops
        from eitcool.dynamics import evolve, steady_state
        from eitcool.nvmodel import build_four_level_model, build_seven_level_model
        from eitcool.scenarios import load_config
        params = load_config(sys.argv[1]).params
        cpu, wall = time.process_time(), time.perf_counter()
        model = build_seven_level_model(params, 12)
        evolve(model, ops.basis_state(model.space, "-1", 3), 1.0, 3)
        steady_state(build_four_level_model(params, 12))
        cpu, wall = time.process_time() - cpu, time.perf_counter() - wall
        idle = time.process_time()
        time.sleep(0.3)
        print(cpu, wall, time.process_time() - idle)
        """)
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(CONFIGS.parent / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    result = subprocess.run(
        [sys.executable, "-c", script, str(CONFIGS / "recycling_check.cfg")],
        env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    cpu, wall, idle = map(float, result.stdout.split())
    assert idle < 0.05
    assert cpu <= 1.2 * wall
