import math
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm

import eitcool.operators as ops
from eitcool.dynamics import evolve, reachable_coordinates
from eitcool.effective import effective_pump_rates
from eitcool.nvmodel import (bright_state_vector, build_four_level_model,
                             build_seven_level_model, build_three_level_model,
                             dark_state_vector, dressed_states, effective_hamiltonian,
                             lamb_dicke_from_physical, optimal_detuning,
                             polaron_generator, rotating_hamiltonian)
from eitcool.params import ModelParams
from eitcool.scenarios import load_config

RECYCLING_CHECK = Path(__file__).resolve().parent.parent / "configs" / "recycling_check.cfg"

FIG2A = ModelParams()  # Omega_0 = 8, Delta = 31, Gamma = 15, eta = 0.115


def fig7_params(**overrides):
    gamma = 15.0
    gamma_ren = 7.597385734072022  # gamma/2 plus the effective repump rate
    base = dict(rabi_omega0=6.0, detuning=10.0, gamma_total=2 * gamma_ren,
                gamma_plus=gamma_ren, gamma_minus=gamma_ren,
                gamma_p1=gamma / 2, gamma_m1=gamma / 2, gamma_0=0.1 * gamma,
                gamma_dark=gamma / 130, gamma_s=gamma / 33,
                Gamma_0=gamma, Gamma_p1=gamma / 150, Gamma_m1=gamma / 150,
                rabi_pump=gamma, pump_detuning=0.0, eta=0.115)
    base.update(overrides)
    return ModelParams(**base)


class TestRotatingHamiltonian:
    def test_diagonal_when_undriven(self):
        p = ModelParams(rabi_omega0=0.0, eta=0.0, lambda_coupling=0.0, detuning=5.0)
        space = ops.compose_space(("+1", "-1", "A2"), 4)
        H = rotating_hamiltonian(p, space).matrix
        assert np.abs(H - np.diag(np.diag(H))).max() == 0.0
        eigs = np.sort(np.diag(H).real)
        want = sorted([n for n in range(4)] * 2 + [n - 5.0 for n in range(4)])
        assert np.allclose(eigs, want)

    def test_vacuum_sector_dressed_eigenvalues(self):
        p = ModelParams(eta=0.0, lambda_coupling=0.0)
        space = ops.compose_space(("+1", "-1", "A2"), 2)
        H = rotating_hamiltonian(p, space).matrix
        # vacuum-sector internal block: rows/cols of |level, n=0>
        idx = [space.index(lab, 0) for lab in ("+1", "-1", "A2")]
        block = H[np.ix_(idx, idx)]
        eigs = np.sort(np.linalg.eigvalsh(block))
        assert np.allclose(eigs, [-32.0, 0.0, 1.0], atol=1e-12)

    def test_hermitian_for_random_params(self):
        rng = np.random.default_rng(1)
        space = ops.compose_space(("+1", "-1", "A2"), 5)
        for _ in range(10):
            p = ModelParams(rabi_omega0=rng.uniform(0, 10),
                            detuning=rng.uniform(-40, 40),
                            eta=rng.uniform(0, 0.3),
                            nuclear_shift=rng.uniform(-1, 1))
            H = rotating_hamiltonian(p, space).matrix
            assert np.abs(H - H.conj().T).max() < 1e-12

    def test_missing_levels(self):
        space = ops.compose_space(("a", "b"), 3)
        with pytest.raises(KeyError):
            rotating_hamiltonian(FIG2A, space)

    def test_full_spectrum_is_fock_shifted_dressed_ladder(self):
        p = ModelParams(eta=0.0, lambda_coupling=0.0)
        nf = 6
        space = ops.compose_space(("+1", "-1", "A2"), nf)
        eigs = np.sort(np.linalg.eigvalsh(rotating_hamiltonian(p, space).matrix))
        rep = dressed_states(p)
        want = np.sort(np.concatenate(
            [[n + rep.e_plus, n + rep.e_minus, n] for n in range(nf)]))
        assert np.allclose(eigs, want, atol=1e-10)


class TestEffectiveHamiltonian:
    def test_zero_eta_no_coupling(self):
        p = ModelParams(eta=0.0, lambda_coupling=0.0)
        space = ops.compose_space(("+1", "-1", "A2"), 4)
        H0, V = effective_hamiltonian(p, space)
        assert np.abs(V.matrix).max() == 0.0
        # unitarily equivalent to the rotating-frame Hamiltonian: same spectrum
        Hrot = rotating_hamiltonian(p, space)
        assert np.allclose(np.linalg.eigvalsh(H0.matrix),
                           np.linalg.eigvalsh(Hrot.matrix), atol=1e-10)
        # in fact identical at lambda = 0: bright-basis rewrite of the drive
        assert np.abs(H0.matrix - Hrot.matrix).max() < 1e-12

    def test_polaron_transform_residual_scales_quadratically(self):
        space = ops.compose_space(("+1", "-1", "A2"), 12)
        ratios = []
        for eta in (0.1, 0.05, 0.025):
            p = ModelParams(eta=eta, lambda_coupling=eta)
            Hrot = rotating_hamiltonian(p, space).matrix
            S = polaron_generator(p, space).matrix
            transformed = expm(-1j * S) @ Hrot @ expm(1j * S)
            H0, V = effective_hamiltonian(p, space)
            residual = np.abs(transformed - H0.matrix - V.matrix).max()
            ratios.append(residual / eta**2)
        spread = (max(ratios) - min(ratios)) / max(ratios)
        assert spread < 0.20

    def test_coupling_matrix_elements(self):
        p = FIG2A
        nf = 6
        space = ops.compose_space(("+1", "-1", "A2"), nf)
        _, V = effective_hamiltonian(p, space)
        dark = dark_state_vector(space)
        scale = p.eta * p.rabi_omega0 / math.sqrt(2)
        for n in range(nf - 1):
            bra = np.zeros(space.dim, complex)  # <d, n|
            ket = np.zeros(space.dim, complex)  # |A2, n+1>
            for i, amp in enumerate(dark):
                bra[i * nf + n] = amp
            ket[space.index("A2", n + 1)] = 1.0
            elem = bra.conj() @ V.matrix @ ket
            assert abs(elem) == pytest.approx(scale * math.sqrt(n + 1), rel=1e-12)


class TestDressedStates:
    def test_reference_point(self):
        rep = dressed_states(FIG2A)
        assert rep.e_plus == pytest.approx(1.0, abs=1e-12)
        assert rep.e_minus == pytest.approx(-32.0, abs=1e-12)
        assert math.cos(rep.phi) ** 2 == pytest.approx(1 / 33, rel=1e-12)
        assert rep.linewidth_plus == pytest.approx(15 / 33, rel=1e-12)

    def test_zero_detuning(self):
        rep = dressed_states(ModelParams(detuning=0.0, rabi_omega0=4.0))
        assert rep.phi == pytest.approx(math.pi / 4, rel=1e-12)
        assert rep.e_plus == pytest.approx(4.0 / math.sqrt(2), rel=1e-12)
        assert rep.linewidth_plus == pytest.approx(rep.linewidth_minus, rel=1e-12)

    def test_red_sideband_resonance(self):
        for m_r in (3.0, 6.0, 8.0, 11.0):
            p = ModelParams(rabi_omega0=m_r, detuning=optimal_detuning(m_r))
            assert dressed_states(p).e_plus == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_error(self):
        with pytest.raises(ValueError):
            dressed_states(ModelParams(rabi_omega0=0.0, detuning=0.0))

    def test_vieta_identities(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            p = ModelParams(rabi_omega0=rng.uniform(0.1, 12),
                            detuning=rng.uniform(-40, 40),
                            gamma_total=rng.uniform(0.5, 30))
            rep = dressed_states(p)
            assert rep.e_plus * rep.e_minus == pytest.approx(
                -p.rabi_omega0**2 / 2, rel=1e-12)
            assert rep.e_plus + rep.e_minus == pytest.approx(-p.detuning, rel=1e-12)
            assert rep.linewidth_plus + rep.linewidth_minus == pytest.approx(
                p.gamma_total, rel=1e-12)


class TestModelBuilders:
    def test_channel_counts(self):
        assert len(build_three_level_model(FIG2A, 4).channels) == 3
        thermal = FIG2A.replace(bath="thermal")
        assert len(build_three_level_model(thermal, 4).channels) == 4
        assert len(build_four_level_model(fig7_params(), 4).channels) == 6
        assert len(build_seven_level_model(fig7_params(), 4).channels) == 8

    def test_pump_regime_warning_names_the_callers_line(self):
        # the builder's own line would hide which build used the strong pump
        with pytest.warns(UserWarning, match="perturbative regime") as record:
            build_four_level_model(fig7_params(), 4)
        assert [w.filename for w in record] == [__file__]

    def test_optical_decay_of_excited_state(self):
        # closed two-channel decay: undriven |A2> empties at Gamma
        p = ModelParams(rabi_omega0=0.0, eta=0.0, lambda_coupling=0.0,
                        gamma_mech=0.0)
        model = build_three_level_model(p, 3)
        rho0 = ops.basis_state(model.space, "A2", 0)
        series = evolve(model, rho0, 0.5, 41)
        decay = np.exp(-p.gamma_total * series.times)
        assert np.abs(series.column("p_A2") - decay).max() < 1e-6

    def test_phonon_decoupled_at_zero_eta(self):
        p = ModelParams(eta=0.0, lambda_coupling=0.0, gamma_mech=0.05)
        model = build_three_level_model(p, 6)
        rho0 = ops.basis_state(model.space, "-1", 2)
        series = evolve(model, rho0, 20.0, 41, abs_tol=1e-9 / model.space.dim)
        want = 2.0 * np.exp(-p.gamma_mech * series.times)
        assert np.abs(series.column("n") - want).max() < 1e-6

    def test_four_level_reduces_to_three_level_sector(self):
        # gamma_0 = 0 and no pump: |0> decouples and the Lambda sector
        # reproduces the three-level model with gamma_+- = gamma_+-1
        p = fig7_params(gamma_0=0.0, rabi_pump=0.0,
                        gamma_plus=7.5, gamma_minus=7.5)
        m4 = build_four_level_model(p, 10)
        m3 = build_three_level_model(p, 10)
        rho4 = ops.basis_state(m4.space, "-1", 1)
        rho3 = ops.basis_state(m3.space, "-1", 1)
        s4 = evolve(m4, rho4, 8.0, 33, abs_tol=1e-9 / m4.space.dim)
        s3 = evolve(m3, rho3, 8.0, 33, abs_tol=1e-9 / m3.space.dim)
        assert np.abs(s4.column("n") - s3.column("n")).max() < 1e-7
        assert np.abs(s4.column("p_0")).max() < 1e-12

    def test_seven_level_dark_trap_without_pump(self):
        p = fig7_params(rabi_pump=0.0, gamma_mech=0.02)
        model = build_seven_level_model(p, 5)
        rho0 = ops.basis_state(model.space, "0", 2)
        series = evolve(model, rho0, 10.0, 21, abs_tol=1e-9 / model.space.dim)
        assert np.abs(series.column("p_0") - 1.0).max() < 1e-9
        want = 2.0 * np.exp(-p.gamma_mech * series.times)
        assert np.abs(series.column("n") - want).max() < 1e-6

    def test_four_level_zero_population_regression(self):
        # quasi-steady |0> occupation stays far below 1 under the full pump set
        p = fig7_params()
        model = build_four_level_model(p, 10)
        rho0 = ops.basis_state(model.space, "-1", 1)
        series = evolve(model, rho0, 40.0, 81)
        tail = series.column("p_0")[40:]
        assert tail.max() < 0.05
        assert tail[-1] == pytest.approx(0.0228, abs=0.002)  # regression number


def _recycling_n(model):
    rho0 = ops.basis_state(model.space, "-1", 3)
    series = evolve(model, rho0, 20.0, 11, abs_tol=1e-11)
    return series.column("n")


def _shifted(model, levels, offset):
    """The model with offset * |level><level| taken off the Hamiltonian."""
    H = model.hamiltonian
    for level in levels:
        H = H - offset * ops.transition(model.space, level, level)
    return ops.LindbladModel(model.space, H, model.channels, model.observables)


def _max_rel_diff(a, b):
    return float(np.max(np.abs(a - b) / np.abs(b)))


@pytest.fixture(scope="module")
def seven_level_reference():
    p = fig7_params()
    p = p.replace(gamma_0=p.gamma_dark)
    return p, _recycling_n(build_seven_level_model(p, 12))


@pytest.fixture(scope="module")
def recycling_check_generator():
    """The seven-level model of configs/recycling_check.cfg at fock_dim 12, with
    |-1, 3> in the real coordinates, the coordinates it reaches, the real
    generator on them, and <n> at the end of a short solve."""
    config = load_config(RECYCLING_CHECK)
    model = build_seven_level_model(config.params, 12)
    rho0 = ops.basis_state(model.space, "-1", 3)
    x0 = (ops.hermitian_coordinates(model.space.dim) @ rho0.matrix.ravel()).real
    L, _ = ops.real_liouvillian(model)
    kept = reachable_coordinates(L, x0)

    def final_n(m):
        return evolve(m, rho0, 10.0, 6, abs_tol=config.solver.abs_tol).column("n")[-1]

    return model, x0, kept, L[kept][:, kept], final_n, final_n(model)


@pytest.mark.filterwarnings("ignore::UserWarning")
class TestFreeLevelEnergies:
    """Energies the master equations leave unassigned, and the pump terms the
    four-level model leaves out, act only on coherences that nothing creates,
    so <n(t)> must not move."""

    def test_four_level_dephasing_and_light_shift_of_level_0_are_inert(self):
        base = fig7_params()
        for pump_detuning in (0.0, 5.0):
            p = base.replace(gamma_0=base.gamma_dark, pump_detuning=pump_detuning)
            eff = effective_pump_rates(p.rabi_pump, p.pump_detuning,
                                       p.Gamma_0, p.Gamma_p1, p.Gamma_m1)
            assert eff.gamma_op_0 > 1.0
            assert (eff.stark_shift_0 != 0.0) == (pump_detuning != 0.0)
            model = build_four_level_model(p, 12)
            p_0 = ops.transition(model.space, "0", "0")
            full = ops.LindbladModel(
                model.space, model.hamiltonian + eff.stark_shift_0 * p_0,
                model.channels + [(eff.gamma_op_0, p_0)], model.observables)
            assert _max_rel_diff(_recycling_n(full), _recycling_n(model)) < 1e-12

    @pytest.mark.parametrize("levels", [("0", "Ey"), ("1A1",)])
    def test_seven_level_block_shift_is_inert(self, seven_level_reference, levels):
        p, n_ref = seven_level_reference
        model = build_seven_level_model(p, 12)
        for offset in (10.0, -10.0):
            n = _recycling_n(_shifted(model, levels, offset))
            assert _max_rel_diff(n, n_ref) < 1e-12

    @pytest.mark.parametrize("offset", [10.0, -10.0])
    @pytest.mark.parametrize("levels", [("0", "Ey"), ("1A1",)])
    def test_seven_level_block_offset_is_rounding_in_the_generator(
            self, recycling_check_generator, levels, offset):
        """The printed master equations leave the energies of the pump pair
        |0>, |E_y> and of |1A1> unassigned.  Neither block is coupled
        coherently to the rest, only by jumps, which carry populations, so a
        common shift of either block acts only on coherences between it and
        the rest.  |-1, 3> never reaches those: on the coordinates it does
        reach, the generator moves by rounding alone, and so does <n(t)>.
        (A shift of |0> alone is not free: it is pump_detuning again.)"""
        model, x0, kept, L, final_n, n_ref = recycling_check_generator
        space = model.space
        block = [space.index(level, n) for level in levels for n in range(space.fock_dim)]
        rest = np.setdiff1d(np.arange(space.dim), block)
        H = model.hamiltonian.matrix
        assert not H[np.ix_(block, rest)].any() and not H[np.ix_(rest, block)].any()
        shifted = _shifted(model, levels, offset)
        L_shifted, _ = ops.real_liouvillian(shifted)
        assert np.array_equal(reachable_coordinates(L_shifted, x0), kept)
        moved = abs(L_shifted[kept][:, kept] - L).max()
        assert moved <= 4 * np.finfo(float).eps * abs(L).max()
        assert abs(final_n(shifted) - n_ref) <= 1e-12 * abs(n_ref)

    def test_shift_of_level_0_alone_is_pump_detuning(self, seven_level_reference):
        # a shift of |0> alone detunes the pump: it is the pump_detuning knob
        p, n_ref = seven_level_reference
        shifted = _recycling_n(_shifted(build_seven_level_model(p, 12), ("0",), 10.0))
        detuned = _recycling_n(build_seven_level_model(p.replace(pump_detuning=10.0), 12))
        assert _max_rel_diff(shifted, detuned) < 1e-12
        assert _max_rel_diff(shifted, n_ref) > 1e-5


class TestLambDicke:
    def test_zero_point_amplitude(self):
        out = lamb_dicke_from_physical(1.22e-14, 2 * math.pi * 1e6, 2.4e7)
        assert out["x0"] == pytest.approx(2.6227e-14, rel=1e-3)

    def test_override_reproduces_quoted_coupling(self):
        out = lamb_dicke_from_physical(1.22e-14, 2 * math.pi * 1e6, 2.4e7,
                                       g_e=2.0028, x0_override=1.6e-13)
        lam_khz = out["lambda"] / (2 * math.pi) / 1e3
        assert lam_khz == pytest.approx(107.64, rel=1e-3)
        assert abs(lam_khz - 115.0) / 115.0 < 0.10
        assert out["eta"] == pytest.approx(0.10764, rel=1e-3)

    def test_zero_gradient(self):
        out = lamb_dicke_from_physical(1e-14, 1e7, 0.0)
        assert out["lambda"] == 0.0 and out["eta"] == 0.0

    def test_nonpositive_inputs(self):
        with pytest.raises(ValueError):
            lamb_dicke_from_physical(-1e-14, 1e7, 1e7)
        with pytest.raises(ValueError):
            lamb_dicke_from_physical(1e-14, 0.0, 1e7)
        with pytest.raises(ValueError, match="^x0_override must be > 0$"):
            lamb_dicke_from_physical(1e-14, 1e7, 1e7, x0_override=0.0)


def test_bright_dark_orthonormal():
    space = ops.internal_space(("+1", "-1", "A2"))
    d, b = dark_state_vector(space), bright_state_vector(space)
    assert abs(d.conj() @ b) < 1e-15
    assert d.conj() @ d == pytest.approx(1.0)
