import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import eitcool.operators as ops
from eitcool.analytics import (RateReport, SpectrumSeries, absorption_spectrum,
                               analytic_trajectory,
                               correlation_transform_closed_form,
                               fluctuation_spectrum, rate_in_khz, rates,
                               rates_at_optimum, steady_occupation,
                               steady_phonon_terms, thermal_occupation)
from eitcool.constants import TWO_PI
from eitcool.nvmodel import (LAMBDA_LEVELS, dark_state_vector, dressed_states,
                             optimal_detuning)
from eitcool.params import ModelParams
import oracles
from oracles import (bloch_steady_state, bloch_system, bright_state_vector,
                     correlation_transform_numeric, effective_hamiltonian,
                     rate_equation_evolve)

FIG2A = ModelParams()  # Omega_0 = 8, Delta = 31, Gamma = 15, eta = 0.115


def random_params(rng, **overrides):
    kwargs = dict(rabi_omega0=rng.uniform(1.0, 12.0),
                  detuning=rng.uniform(-40.0, 40.0),
                  gamma_total=rng.uniform(0.5, 30.0),
                  eta=rng.uniform(0.01, 0.3))
    kwargs.update(overrides)
    return ModelParams(**kwargs)


class TestThermalOccupation:
    def test_reference_value(self):
        n = thermal_occupation(TWO_PI * 1e6, 0.020)
        assert n == pytest.approx(416.23, abs=0.01)

    def test_zero_temperature(self):
        assert thermal_occupation(TWO_PI * 1e6, 0.0) == 0.0

    def test_rayleigh_jeans_limit(self):
        omega = TWO_PI * 1e6
        n = thermal_occupation(omega, 0.020)
        classical = 1.380649e-23 * 0.020 / (1.054571817e-34 * omega)
        assert abs(n - classical) / classical < 0.002

    def test_huge_gap_underflows_to_zero(self):
        assert thermal_occupation(1e18, 1e-6) == 0.0


class TestFluctuationSpectrum:
    def test_red_sideband_value(self):
        s = fluctuation_spectrum(FIG2A, 1.0)
        assert s.real == pytest.approx(0.056427, rel=1e-4)
        assert abs(s.imag) < 1e-15  # denominator purely imaginary here

    def test_dark_point(self):
        assert fluctuation_spectrum(FIG2A, 0.0) == 0.0

    def test_blue_sideband_value(self):
        s = fluctuation_spectrum(FIG2A, -1.0)
        want = 0.4232 * (30 + 248j) / 15601
        assert s == pytest.approx(want, rel=1e-12)
        assert s.real == pytest.approx(8.1378e-4, rel=1e-4)

    def test_pole_guard(self):
        p = ModelParams(gamma_total=1e-20, detuning=0.0, rabi_omega0=2.0)
        # at omega with 2 w^2 = Omega_0^2 and Delta = 0 the denominator vanishes
        with pytest.raises(ZeroDivisionError):
            fluctuation_spectrum(p, math.sqrt(2.0))
        # a grid holding a pole: at Gamma = Omega_0 = 0 the denominator vanishes at 0
        p = ModelParams(gamma_total=0.0, rabi_omega0=0.0)
        for transform in (correlation_transform_closed_form, fluctuation_spectrum):
            with pytest.raises(ZeroDivisionError, match="^transform pole at omega = 0.0$"):
                transform(p, np.array([-1.0, 0.0, 1.0]))


class TestRates:
    def test_reference_values_in_khz(self):
        report = rates(FIG2A)
        assert report.a_minus == pytest.approx(25.392 / 225, rel=1e-12)
        assert report.a_plus == pytest.approx(25.392 / 15601, rel=1e-12)
        a_minus_khz = rate_in_khz(report.a_minus, FIG2A.omega_m)
        a_plus_khz = rate_in_khz(report.a_plus, FIG2A.omega_m)
        assert a_minus_khz == pytest.approx(112.853, rel=1e-4)
        assert a_plus_khz == pytest.approx(1.6276, rel=1e-4)

    def test_zero_eta(self):
        report = rates(FIG2A.replace(eta=0.0, lambda_coupling=0.0))
        assert report.a_plus == report.a_minus == 0.0

    def test_identity_with_spectrum(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            p = random_params(rng)
            report = rates(p)
            assert report.a_minus == pytest.approx(
                2 * fluctuation_spectrum(p, 1.0).real, rel=1e-12)
            assert report.a_plus == pytest.approx(
                2 * fluctuation_spectrum(p, -1.0).real, rel=1e-12)

    def test_w_consistency(self):
        report = rates(FIG2A)
        assert report.w == report.a_minus - report.a_plus


def morigi_rates(eta, omega_g, omega_r, delta, gamma, nu):
    """Standard EIT cooling (Morigi, Eschner & Keitel, PRL 85, 4458 (2000)): a weak
    cooling beam of Rabi frequency Omega_g on |g> <-> |e> and a coupling beam Omega_r
    on |r> <-> |e>, both at detuning Delta, excited linewidth Gamma, trap frequency nu:
    A_+- = eta^2 Omega_g^2 Gamma nu^2 / (Gamma^2 nu^2 + 4 (Omega_r^2/4 - nu (nu -+ Delta))^2).
    Returns (A_+, A_-)."""
    def rate(sign):
        detune = omega_r**2 / 4 - nu * (nu + sign * delta)
        return eta**2 * omega_g**2 * gamma * nu**2 / (gamma**2 * nu**2 + 4 * detune**2)
    return rate(-1), rate(+1)


class TestStandardEitReduction:
    """The scheme reduced to standard EIT cooling, as the abstract claims.

    The mapping: |g> = |D> = (|+1> - |-1>)/sqrt2, |r> = |B> = (|+1> + |-1>)/sqrt2,
    |e> = |A2>, Gamma = gamma_total and nu = omega_m = 1.  H0 of
    `effective_hamiltonian` couples |B> to |A2> with element Omega_0/sqrt2, so
    Omega_r = sqrt2 Omega_0, whose dressed splitting sqrt(Omega_r^2 + Delta^2) is the
    one of `dressed_states`.  Its V couples |D> to |A2> with element eta Omega_0/sqrt2
    times the ladder, so Omega_g = sqrt2 Omega_0 on the cooling leg.

    It holds when:
    - both legs share one detuning (nuclear_shift = 0): |D> is then an exact dark
      eigenstate of H0, the limit Omega_g << Omega_r in which standard EIT's |g> is dark;
    - only the cooling leg carries the phonon, to first order in eta (Lamb-Dicke), and
      the rates are second order in eta, as both sides are;
    - |A2> decays at Gamma in total: a jump out of |A2> does not feed the coherence
      |A2><D| that the rates come from, so the split into gamma_+- does not enter.
    """

    def test_couplings_map_onto_the_standard_legs(self):
        p = ModelParams(rabi_omega0=5.0, detuning=7.0, eta=0.2)
        space = ops.compose_space(LAMBDA_LEVELS, 4)
        H0, V = effective_hamiltonian(p, space)
        a2 = np.zeros(space.n_internal)
        a2[space.internal_index("A2")] = 1.0

        def ket(internal, n):
            return np.kron(internal, np.eye(space.fock_dim)[n])

        dark, bright = dark_state_vector(space), bright_state_vector(space)
        for n in range(space.fock_dim - 1):
            assert abs(ket(a2, n) @ H0.matrix @ ket(bright, n)) == pytest.approx(
                5.0 / math.sqrt(2), rel=1e-15)
            assert abs(ket(a2, n) @ H0.matrix @ ket(dark, n)) == 0.0
            assert abs(ket(a2, n) @ V.matrix @ ket(dark, n + 1)) == pytest.approx(
                0.2 * 5.0 / math.sqrt(2) * math.sqrt(n + 1), rel=1e-15)
        report = dressed_states(p)
        omega_r = math.sqrt(2) * 5.0
        assert report.e_plus - report.e_minus == pytest.approx(
            math.hypot(omega_r, 7.0), rel=1e-14)

    def test_rates_match_the_standard_form(self):
        # bound fixed beforehand: both sides are one rational function, so only
        # rounding may separate them
        omega0 = np.array([0.5, 2.0, 5.0, 8.0, 12.0])[:, None]
        delta = np.array([-40.0, -5.0, 0.0, 3.0, 31.0, 40.0])[None, :]
        for gamma in (0.5, 5.0, 15.0, 30.0):
            for eta in (0.01, 0.115, 0.3):
                p = ModelParams(gamma_total=gamma, eta=eta)
                report = rates(p.replace(rabi_omega0=omega0, detuning=delta))
                want_plus, want_minus = morigi_rates(
                    eta, math.sqrt(2) * omega0, math.sqrt(2) * omega0, delta, gamma, 1.0)
                np.testing.assert_allclose(report.a_plus, want_plus, rtol=1e-12, atol=0)
                np.testing.assert_allclose(report.a_minus, want_minus, rtol=1e-12, atol=0)

    def test_optimum_is_the_stark_shift_condition(self):
        # Omega_r^2/4 = nu (nu + Delta): the red sideband sits on the narrow dressed
        # state, where A_- reaches eta^2 Omega_g^2 / Gamma
        for m_r in (3.0, 6.0, 8.0, 10.0):
            p = FIG2A.replace(rabi_omega0=m_r, detuning=optimal_detuning(m_r))
            report = dressed_states(p)
            assert report.e_plus == pytest.approx(1.0, rel=1e-12)
            omega_g = math.sqrt(2) * m_r
            assert rates(p).a_minus == pytest.approx(
                p.eta**2 * omega_g**2 / p.gamma_total, rel=1e-12)


class TestRatesAtOptimum:
    def test_matches_rates_code_path(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            m_r = rng.uniform(2.0, 12.0)
            gamma = rng.uniform(1.0, 30.0)
            eta = rng.uniform(0.01, 0.3)
            at_opt = rates_at_optimum(m_r, gamma, eta)
            direct = rates(ModelParams(rabi_omega0=m_r,
                                       detuning=(m_r**2 - 2) / 2,
                                       gamma_total=gamma, eta=eta))
            assert at_opt.a_plus == pytest.approx(direct.a_plus, rel=1e-14)
            assert at_opt.a_minus == pytest.approx(direct.a_minus, rel=1e-14)

    def test_closed_forms(self):
        m_r, gamma, eta = 8.0, 15.0, 0.115
        report = rates_at_optimum(m_r, gamma, eta)
        assert report.a_minus == pytest.approx(eta**2 * 2 * m_r**2 / gamma, rel=1e-12)
        assert report.a_plus == pytest.approx(
            eta**2 * 2 * m_r**2 * gamma / (4 * (m_r**2 - 2) ** 2 + gamma**2),
            rel=1e-12)

    def test_sqrt2_edge_no_net_cooling(self):
        report = rates_at_optimum(math.sqrt(2.0), 7.0, 0.1)
        assert report.a_plus == pytest.approx(report.a_minus, rel=1e-12)

    def test_cooling_parabolic_in_m_r(self):
        for m_r in (3.0, 5.0, 8.0):
            small = rates_at_optimum(m_r, 15.0, 0.1).a_minus
            big = rates_at_optimum(2 * m_r, 15.0, 0.1).a_minus
            assert big / small == pytest.approx(4.0, rel=1e-12)

    def test_heating_hump_location(self):
        # dA+/dm_r = 0 at m_r^2 = sqrt(Gamma^2 + 16)/2 (grid-scan verified)
        gamma = 15.0
        grid = np.linspace(1.2, 8.0, 4001)
        values = [rates_at_optimum(m, gamma, 0.1).a_plus for m in grid]
        m_star = grid[int(np.argmax(values))]
        want = math.sqrt(math.sqrt(gamma**2 + 16.0) / 2.0)
        assert m_star == pytest.approx(want, abs=2 * (grid[1] - grid[0]))
        # single interior maximum: values rise then fall
        k = int(np.argmax(values))
        assert all(np.diff(values[:k]) > 0) and all(np.diff(values[k:]) < 0)


class TestSteadyPhonon:
    def test_backaction_term(self):
        report = rates_at_optimum(8.0, 15.0, 0.115)
        p = ModelParams(rabi_omega0=8.0, detuning=31.0, gamma_total=15.0,
                        eta=0.115, gamma_mech=0.0, bath="zero")
        terms = steady_phonon_terms(p, report)
        assert terms["backaction"] == pytest.approx((15 / 124) ** 2, rel=1e-12)
        assert terms["backaction"] == pytest.approx(0.014633, rel=1e-4)
        assert terms["at_optimal_detuning"]

    def test_thermal_reference_point(self):
        p = FIG2A.replace(bath="thermal")  # Q=1e5, T=20 mK
        report = rates(p)
        assert report.n_ss == pytest.approx(0.05205, abs=2e-4)
        terms = steady_phonon_terms(p, report)
        assert terms["thermal"] == pytest.approx(0.0374, abs=3e-4)

    def test_zero_mechanical_damping_limit(self):
        p = FIG2A.replace(gamma_mech=0.0)
        report = rates(p)
        assert report.n_ss == pytest.approx(report.a_plus / report.w, rel=1e-12)

    def test_net_heating_reported(self):
        p = ModelParams(rabi_omega0=3.0, detuning=-10.0, gamma_mech=0.0)
        report = rates(p)  # blue-sideband-resonant: heating wins
        assert report.w < 0
        assert report.n_ss == math.inf


class TestAnalyticTrajectory:
    def test_endpoints(self):
        report = rates(FIG2A.replace(bath="thermal"))
        n_th = report.thermal_n
        gm = FIG2A.gamma_mech
        assert analytic_trajectory(report, gm, n_th, 0.0) == pytest.approx(n_th)
        late = analytic_trajectory(report, gm, n_th, 1e6)
        assert late == pytest.approx((report.a_plus + n_th * gm) / (report.w + gm))

    def test_half_life_identity(self):
        report = rates(FIG2A)
        gm, n_th = 1e-5, 400.0
        n_ss = (report.a_plus + n_th * gm) / (report.w + gm)
        t_half = math.log(2.0) / (report.w + gm)
        assert analytic_trajectory(report, gm, n_th, t_half) == pytest.approx(
            n_ss + (n_th - n_ss) / 2, rel=1e-12)


class TestRateEquation:
    def test_thermal_only_bose_einstein(self):
        n_th = 2.0
        p0 = np.zeros(61)
        p0[0] = 1.0
        out = rate_equation_evolve(0.0, 0.0, 0.05, n_th, p0, 400.0, 21, 60)
        p_final = out.probabilities[-1]
        ratio = n_th / (n_th + 1.0)
        want = (1 - ratio) * ratio ** np.arange(61)
        assert np.abs(p_final - want).max() < 1e-6
        assert out.mean_n[-1] == pytest.approx(n_th, abs=1e-6)

    def test_mean_matches_moment_solution(self):
        # first moment of the chain obeys the closed linear equation exactly
        a_plus, a_minus, gm, n_th = 0.02, 0.4, 0.01, 1.2
        grid = np.linspace(0.0, 30.0, 31)
        ratio = n_th / (n_th + 1.0)
        p0 = (1 - ratio) * ratio ** np.arange(100)
        p0 /= p0.sum()
        out = rate_equation_evolve(a_plus, a_minus, gm, n_th, p0, 30.0, 31, 99)
        assert np.array_equal(out.times, grid)
        report = RateReport(a_plus=a_plus, a_minus=a_minus,
                            w=a_minus - a_plus, n_ss=0.0, thermal_n=n_th)
        want = analytic_trajectory(report, gm, n_th, grid)
        assert np.abs(out.mean_n - want).max() < 1e-6

    def test_matches_the_matrix_exponential(self):
        # bound fixed beforehand: 1e-12 on every probability against scipy's
        # expm of the dense generator, on the thermal p0 above
        from scipy.linalg import expm
        a_plus, a_minus, gm, n_th = 0.02, 0.4, 0.01, 1.2
        up, down = a_plus + n_th * gm, a_minus + (n_th + 1.0) * gm
        n = np.arange(100)
        gen = (np.diag(-(down * n + up * (n + 1))) + np.diag(down * n[1:], 1)
               + np.diag(up * n[1:], -1))
        ratio = n_th / (n_th + 1.0)
        p0 = (1 - ratio) * ratio ** n
        p0 /= p0.sum()
        out = rate_equation_evolve(a_plus, a_minus, gm, n_th, p0, 30.0, 31, 99)
        want = np.array([expm(gen * t) @ p0 for t in out.times])
        assert np.abs(out.probabilities - want).max() < 1e-12
        assert out.probabilities.min() >= 0.0

    def test_leakage_guard(self):
        p0 = np.zeros(7); p0[0] = 1.0
        with pytest.raises(ValueError, match="leakage"):
            rate_equation_evolve(0.2, 0.25, 0.0, 0.0, p0, 200.0, 5, 6)

    def test_rejects_unnormalized_distribution(self):
        with pytest.raises(ValueError, match="normalized"):
            rate_equation_evolve(0.1, 0.5, 0.0, 0.0, np.array([0.5, 0.4]), 1.0, 3, 10)


class TestBlochSteadyState:
    def test_dark_population(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            p = random_params(rng)
            rho = bloch_steady_state(p)
            dark = dark_state_vector(rho.space)
            pop = (dark.conj() @ rho.matrix @ dark).real
            assert pop == pytest.approx(1.0, abs=1e-10)

    def test_no_excited_coherence(self):
        rho = bloch_steady_state(FIG2A)
        # <sigma_y^{A2,d}> = -2 Im <A2|rho|d>
        dark = dark_state_vector(rho.space)
        a2 = np.zeros(3, complex); a2[2] = 1.0
        coh = a2.conj() @ rho.matrix @ dark
        assert abs(coh) < 1e-12

    def test_valid_density_matrix(self):
        rho = bloch_steady_state(FIG2A).matrix
        assert np.abs(rho - rho.conj().T).max() <= 1e-12
        assert abs(np.trace(rho) - 1.0) <= 1e-12
        assert np.linalg.eigvalsh((rho + rho.conj().T) / 2)[0] >= -1e-8

    def test_requires_drive_and_decay(self):
        with pytest.raises(ValueError):
            bloch_steady_state(ModelParams(rabi_omega0=0.0))

    def test_generator_matches_master_equation_projection(self):
        """The affine Bloch generator is the superoperator projected onto the
        8 operator expectations (with the excited population eliminated)."""
        p = random_params(np.random.default_rng(9), gamma_total=11.0)
        space = ops.HilbertSpace(("+1", "-1", "A2"), 1)
        H = (-p.detuning * ops.transition(space, "A2", "A2")
             + (p.rabi_omega0 / 2) * (ops.transition(space, "A2", "+1")
                                      + ops.transition(space, "A2", "-1")
                                      + ops.transition(space, "+1", "A2")
                                      + ops.transition(space, "-1", "A2")))
        half = p.gamma_total / 2
        model = ops.LindbladModel(space, H, [
            (half, ops.transition(space, "+1", "A2")),
            (half, ops.transition(space, "-1", "A2"))])
        bright = np.array([1, 1, 0], complex) / math.sqrt(2)
        dark = np.array([1, -1, 0], complex) / math.sqrt(2)
        a2 = np.array([0, 0, 1], complex)

        def kb(x, y):
            return np.outer(x, y.conj())

        def sx(m, n): return kb(m, n) + kb(n, m)
        def sy(m, n): return -1j * (kb(m, n) - kb(n, m))
        observables = [kb(bright, bright), kb(dark, dark), sx(bright, dark),
                       sy(bright, dark), sx(a2, bright), sy(a2, bright),
                       sx(a2, dark), sy(a2, dark)]

        def rho_from(v):
            rho = (v[0] * kb(bright, bright) + v[1] * kb(dark, dark)
                   + (1 - v[0] - v[1]) * kb(a2, a2))
            for (m, n), (x, y) in (((bright, dark), (v[2], v[3])),
                                   ((a2, bright), (v[4], v[5])),
                                   ((a2, dark), (v[6], v[7]))):
                rho = rho + (x - 1j * y) / 2 * kb(m, n) \
                    + (x + 1j * y) / 2 * kb(n, m)
            return rho

        def project(v):
            drho = ops.lindblad_rhs(model, rho_from(v))
            return np.array([np.trace(o @ drho).real for o in observables])

        c_true = project(np.zeros(8))
        M_true = np.empty((8, 8))
        for j in range(8):
            e = np.zeros(8); e[j] = 1.0
            M_true[:, j] = project(e) - c_true
        M_pkg, c_pkg = bloch_system(p)
        assert np.abs(M_true - M_pkg).max() < 1e-12
        assert np.abs(c_true - c_pkg).max() < 1e-12
        # the projected generator is contractive
        assert np.linalg.eigvals(M_pkg).real.max() < 0


class TestCorrelationTransform:
    def test_reference_point(self):
        val = correlation_transform_numeric(FIG2A, 1.0)
        assert val == pytest.approx(2 / 15, abs=1e-6)

    def test_dark_point(self):
        assert abs(correlation_transform_numeric(FIG2A, 0.0)) < 1e-8

    def test_scan_against_closed_form(self):
        for w in np.linspace(-3.0, 3.0, 241):
            closed = correlation_transform_closed_form(FIG2A, w)
            if abs(closed) <= 1e-6:
                continue
            num = correlation_transform_numeric(FIG2A, w)
            assert abs(num - closed) / abs(closed) < 1e-3

    def test_quadrature_path_agrees(self):
        for w in (-2.3, -1.0, 0.5, 1.0, 2.7):
            res = correlation_transform_numeric(FIG2A, w, method="resolvent")
            quad = correlation_transform_numeric(FIG2A, w, method="quadrature")
            assert quad == pytest.approx(res, abs=5e-7)

    def test_random_params_cross_check(self):
        rng = np.random.default_rng(10)
        for _ in range(15):
            p = random_params(rng)
            w = rng.uniform(-3, 3)
            closed = correlation_transform_closed_form(p, w)
            num = correlation_transform_numeric(p, w)
            assert num == pytest.approx(closed, abs=1e-9 + 1e-9 * abs(closed))


class TestAbsorptionSpectrum:
    def test_dark_dip_exact(self):
        grid = np.linspace(-40.0, 10.0, 2001)
        series = absorption_spectrum(FIG2A, grid)
        k0 = int(np.argmin(np.abs(series.omegas)))
        assert series.omegas[k0] == 0.0
        assert abs(series.values[k0]) < 1e-10 * series.values.max()

    def test_nonnegative(self):
        series = absorption_spectrum(FIG2A, np.linspace(-40, 10, 501))
        assert series.values.min() >= -1e-15

    def test_peaks_at_dressed_energies(self):
        grid = np.linspace(-40.0, 10.0, 2001)
        series = absorption_spectrum(FIG2A, grid)
        rep = dressed_states(FIG2A)
        v = series.values
        peaks = [k for k in range(1, len(grid) - 1)
                 if v[k] > v[k - 1] and v[k] > v[k + 1]]
        assert len(peaks) == 2
        step = grid[1] - grid[0]
        located = sorted(grid[k] for k in peaks)
        assert located[0] == pytest.approx(rep.e_minus, abs=step)
        assert located[1] == pytest.approx(rep.e_plus, abs=step)
        # unit normalization at the resonances
        assert v[peaks[0]] == pytest.approx(1.0, abs=1e-3)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            absorption_spectrum(FIG2A, [])


# fixed seed and no example database, so the suite is deterministic
GRID_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)


class TestWholeGrids:
    """A grid in one call gives what one call per point gives (bounds fixed beforehand)."""

    @GRID_SETTINGS
    @given(omega0=st.lists(st.floats(0.5, 12.0), min_size=1, max_size=6),
           delta=st.lists(st.floats(-40.0, 40.0), min_size=1, max_size=6),
           gamma=st.floats(0.5, 30.0), eta=st.floats(0.0, 0.3))
    def test_rates_on_a_grid_match_per_point(self, omega0, delta, gamma, eta):
        p = ModelParams(gamma_total=gamma, eta=eta)
        grid = rates(p.replace(rabi_omega0=np.array(omega0)[:, None],
                               detuning=np.array(delta)[None, :]))
        for i, o in enumerate(omega0):
            for j, d in enumerate(delta):
                point = rates(p.replace(rabi_omega0=o, detuning=d))
                for name in ("a_plus", "a_minus", "w", "n_ss"):
                    np.testing.assert_allclose(getattr(grid, name)[i, j],
                                               getattr(point, name), rtol=1e-15, atol=0)

    @GRID_SETTINGS
    @given(omega0=st.floats(0.5, 12.0), delta=st.floats(-40.0, 40.0),
           gamma=st.floats(0.5, 30.0), eta=st.floats(0.0, 0.3),
           omegas=st.lists(st.floats(-50.0, 50.0), min_size=1, max_size=30, unique=True))
    def test_absorption_matches_correlation_transform(self, omega0, delta, gamma, eta,
                                                       omegas):
        p = ModelParams(rabi_omega0=omega0, detuning=delta, gamma_total=gamma, eta=eta)
        grid = np.sort(omegas)
        series = absorption_spectrum(p, grid)
        per_point = np.array([(gamma / 2.0) * correlation_transform_closed_form(p, w).real
                              for w in grid])
        assert np.abs(series.values - per_point).max() <= 1e-15 * np.abs(per_point).max()

    @GRID_SETTINGS
    @given(omega0=st.floats(0.5, 12.0), delta=st.floats(-40.0, 40.0),
           gamma=st.floats(0.5, 30.0), eta=st.floats(0.0, 0.3),
           omegas=st.lists(st.floats(-50.0, 50.0), min_size=1, max_size=30, unique=True))
    def test_absorption_matches_the_bloch_resolvent(self, omega0, delta, gamma, eta,
                                                    omegas):
        # the second route: the resolvent of the Bloch correlation block
        p = ModelParams(rabi_omega0=omega0, detuning=delta, gamma_total=gamma, eta=eta)
        grid = np.sort(omegas)
        series = absorption_spectrum(p, grid)
        per_point = np.array([(gamma / 2.0) * correlation_transform_numeric(p, w).real
                              for w in grid])
        assert np.abs(series.values - per_point).max() <= 1e-12 * np.abs(per_point).max()

    @GRID_SETTINGS
    @given(omega0=st.floats(0.5, 12.0), delta=st.floats(-40.0, 40.0),
           gamma=st.floats(0.5, 30.0), eta=st.floats(0.0, 0.3),
           omegas=st.lists(st.floats(-50.0, 50.0), min_size=1, max_size=30))
    def test_transform_on_a_grid_matches_per_point(self, omega0, delta, gamma, eta,
                                                   omegas):
        p = ModelParams(rabi_omega0=omega0, detuning=delta, gamma_total=gamma, eta=eta)
        for transform in (correlation_transform_closed_form, fluctuation_spectrum):
            per_point = [transform(p, w) for w in omegas]
            assert all(type(value) is complex for value in per_point)
            grid = transform(p, np.array(omegas))
            assert np.abs(grid - per_point).max() <= 1e-15 * np.abs(per_point).max()

    @GRID_SETTINGS
    @given(omega0=st.lists(st.floats(0.5, 12.0), min_size=1, max_size=6),
           delta=st.lists(st.floats(-40.0, 40.0), min_size=1, max_size=6),
           gamma=st.floats(0.5, 30.0), eta=st.floats(0.0, 0.3))
    def test_rates_are_twice_the_spectrum_at_the_sidebands(self, omega0, delta, gamma,
                                                           eta):
        # A+- = 2 Re S(-+ omega_m) on a parameter grid; rtol of criterion 02
        p = ModelParams(gamma_total=gamma, eta=eta).replace(
            rabi_omega0=np.array(omega0)[:, None], detuning=np.array(delta)[None, :])
        report = rates(p)
        s = fluctuation_spectrum(p, np.array([-1.0, 1.0])[:, None, None])
        np.testing.assert_allclose(report.a_plus, 2 * s[0].real, rtol=1e-12, atol=0)
        np.testing.assert_allclose(report.a_minus, 2 * s[1].real, rtol=1e-12, atol=0)

    def test_steady_occupation_on_a_grid(self):
        w = np.array([[0.1, 0.0, -0.1]])
        got = steady_occupation(0.01, w, 2.0, np.array([[0.0], [0.05]]))
        want = [[0.01 / 0.1, math.inf, math.inf],
                [(0.01 + 0.1) / 0.15, (0.01 + 0.1) / 0.05, math.inf]]
        np.testing.assert_allclose(got, want, rtol=1e-15)

    def test_thermal_occupation_on_a_grid(self):
        temperatures = np.array([0.0, 1e-6, 0.020])
        got = thermal_occupation(TWO_PI * 1e6, temperatures)
        assert got.shape == (3,)
        assert list(got) == [thermal_occupation(TWO_PI * 1e6, t) for t in temperatures]
        with pytest.raises(ValueError, match="temperature"):
            thermal_occupation(TWO_PI * 1e6, np.array([0.01, -0.01]))


REPORT = RateReport(a_plus=0.01, a_minus=0.3, w=0.29, n_ss=0.0, thermal_n=0.0)
HEATING = RateReport(a_plus=0.3, a_minus=0.01, w=-0.29, n_ss=0.0, thermal_n=0.0)
P0 = np.array([1.0, 0.0])


# each argument check of the closed forms, with the error it raises
@pytest.mark.parametrize("call, says", [
    (lambda: RateReport(a_plus=-0.1, a_minus=0.3, w=0.4, n_ss=0.0, thermal_n=0.0),
     "heating/cooling coefficients must be >= 0"),
    (lambda: SpectrumSeries(omegas=np.zeros((2, 2)), values=np.zeros(2)),
     "omegas and values must be 1-d and equally long"),
    (lambda: SpectrumSeries(omegas=[0.0, 1.0, 2.0], values=[0.0, 1.0]),
     "omegas and values must be 1-d and equally long"),
    (lambda: SpectrumSeries(omegas=[0.0, 1.0, 1.0], values=[0.0, 1.0, 2.0]),
     "omegas must be strictly increasing"),
    (lambda: rates(ModelParams(gamma_total=0.0)), "gamma_total must be > 0"),
    (lambda: rates_at_optimum(0.0, 15.0, 0.1), "m_ratio must be > 0"),
    (lambda: analytic_trajectory(REPORT, 0.0, 0.0, [0.0, -1.0]), "t must be >= 0"),
    (lambda: analytic_trajectory(HEATING, 0.0, 0.0, 1.0),
     "W + gamma_m must be > 0 for a decaying trajectory"),
    (lambda: rate_equation_evolve(0.1, 0.5, 0.0, -0.5, P0, 1.0, 2, 10),
     "rates and thermal occupation must be >= 0"),
    (lambda: rate_equation_evolve(0.1, 0.5, 0.0, 0.0, P0, 0.0, 2, 10),
     "need t_final > 0 and at least two samples"),
    (lambda: rate_equation_evolve(0.1, 0.5, 0.0, 0.0, P0, 1.0, 1, 10),
     "need t_final > 0 and at least two samples"),
    (lambda: rate_equation_evolve(0.1, 0.5, 0.0, 0.0, np.eye(2), 1.0, 2, 10),
     "p0 must be a 1-d distribution over at most n_max + 1 levels"),
    (lambda: rate_equation_evolve(0.1, 0.5, 0.0, 0.0, np.eye(12)[0], 1.0, 2, 10),
     "p0 must be a 1-d distribution over at most n_max + 1 levels"),
    (lambda: correlation_transform_numeric(ModelParams(gamma_total=0.0), 1.0),
     "correlation transform needs Gamma > 0 and Omega_0 > 0"),
    (lambda: absorption_spectrum(ModelParams(gamma_total=0.0), [-1.0, 0.0, 1.0]),
     "correlation transform needs Gamma > 0 and Omega_0 > 0"),
    (lambda: absorption_spectrum(ModelParams(rabi_omega0=0.0), [-1.0, 0.0, 1.0]),
     "correlation transform needs Gamma > 0 and Omega_0 > 0"),
    (lambda: absorption_spectrum(FIG2A, []), "probe detuning grid is empty"),
    (lambda: correlation_transform_numeric(FIG2A, 1.0, method="simpson"),
     "unknown method 'simpson'"),
])
def test_argument_check(call, says):
    with pytest.raises(ValueError, match=f"^{re.escape(says)}$"):
        call()


def test_non_decaying_correlation_is_rejected(monkeypatch):
    # a generator with no damping: every eigenvalue of the block is 0
    monkeypatch.setattr(oracles, "bloch_system", lambda params: (np.zeros((8, 8)),
                                                                 np.zeros(8)))
    with pytest.raises(ValueError, match=re.escape(
            "non-decaying correlation (spectral abscissa 0.000e+00 >= 0)")):
        correlation_transform_numeric(FIG2A, 1.0)
