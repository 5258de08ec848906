import math

import numpy as np
import pytest

import eitcool.operators as ops
from eitcool.analytics import (analytic_trajectory, bloch_steady_state, rates,
                               thermal_occupation)
from eitcool.dynamics import (LeakageError, SolverError, TimeSeries, evolve,
                              extract_cooling_rate, monte_carlo_detuning,
                              steady_state)
from eitcool.nvmodel import build_three_level_model
from eitcool.params import ModelParams

FIG2A = ModelParams()


def damping_model(gamma=0.8, fock=6):
    space = ops.compose_space(("g",), fock)
    return ops.LindbladModel(space, ops.identity(space) * 0.0,
                             [(gamma, ops.annihilation(space))],
                             {"n": ops.number_operator(space)})


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
        series = evolve(model, ops.basis_state(model.space, "g", 1), 1.0, 3)
        assert series.meta["generator_nnz"] == ops.liouvillian(model).nnz
        assert series.meta["generator_build_s"] > 0.0
        assert series.meta["nfev"] > 0

    def test_records_include_trace(self):
        with pytest.raises(ValueError, match="trace"):
            TimeSeries(times=np.array([0.0, 1.0]),
                       records={"n": np.array([1.0, 0.5])},
                       leakage=np.zeros(2))


class TestSteadyState:
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
        with pytest.raises(SolverError, match="realization"):
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
