import numpy as np
import pytest

from eitcool import operators as ops
from eitcool.dynamics import evolve, extract_cooling_rate
from eitcool.effective import (EffectiveRates, effective_pump_rates,
                               outside_perturbative_regime, renormalized_decays,
                               stark_shift)

GAMMA = 15.0


def fig7_pump_rates():
    # pump at Omega_p = Gamma, resonant, Gamma_0 = Gamma, Gamma_+-1 = Gamma/150
    with pytest.warns(UserWarning):
        return effective_pump_rates(GAMMA, 0.0, GAMMA, GAMMA / 150, GAMMA / 150)


class TestPumpRates:
    def test_strong_pump_values(self):
        rates = fig7_pump_rates()
        # Gamma/150 * Gamma^2 / (Gamma(1 + 2/150))^2 = Gamma * 75^2 / (150 * 76^2)
        want = GAMMA * 75**2 / (150 * 76**2)
        assert rates.gamma_op_p1 == pytest.approx(want, rel=1e-14)
        assert rates.gamma_op_p1 == pytest.approx(0.006492 * GAMMA, rel=1e-3)
        assert rates.gamma_op_0 == pytest.approx(0.9739 * GAMMA, rel=1e-4)

    def test_regime_warning_names_the_callers_line(self):
        with pytest.warns(UserWarning, match="perturbative regime") as record:
            effective_pump_rates(GAMMA, 0.0, GAMMA, GAMMA / 150, GAMMA / 150)
        assert [w.filename for w in record] == [__file__]

    def test_regime_bound_is_half_the_excited_linewidth(self):
        assert not outside_perturbative_regime(0.5, 0.5, 0.25, 0.25)
        assert outside_perturbative_regime(0.5 + 1e-12, 0.5, 0.25, 0.25)

    def test_zero_pump(self):
        rates = effective_pump_rates(0.0, 3.0, 1.0, 0.2, 0.3)
        assert rates.gamma_op_p1 == rates.gamma_op_m1 == rates.gamma_op_0 == 0.0
        assert rates.stark_shift_0 == 0.0

    def test_far_detuned_limit(self):
        values = [effective_pump_rates(1.0, de, 1.0, 0.5, 0.5).gamma_op_p1
                  for de in (0.0, 5.0, 50.0, 500.0)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert values[-1] < 1e-6

    def test_degenerate_pump_system(self):
        with pytest.raises(ZeroDivisionError):
            effective_pump_rates(1.0, 0.0, 0.0, 0.0, 0.0)

    @pytest.mark.parametrize("position, name", [
        (0, "rabi_pump"), (2, "Gamma_0"), (3, "Gamma_p1"), (4, "Gamma_m1")])
    def test_negative_rate_is_named(self, position, name):
        args = [0.5, 0.0, 1.0, 0.2, 0.3]
        args[position] = -0.1
        with pytest.raises(ValueError, match=f"^{name} must be >= 0$"):
            effective_pump_rates(*args)

    def test_negative_effective_rate_is_named(self):
        with pytest.raises(ValueError, match="^gamma_op_m1 must be >= 0$"):
            EffectiveRates(gamma_op_p1=0.1, gamma_op_m1=-0.1, gamma_op_0=0.1,
                           stark_shift_0=0.0)

    def test_negative_direct_decay_is_rejected(self):
        rates = effective_pump_rates(0.0, 0.0, 1.0, 0.2, 0.3)
        for gamma_p1, gamma_m1 in ((-0.1, 0.5), (0.5, -0.1)):
            with pytest.raises(ValueError, match="^direct decays must be >= 0$"):
                renormalized_decays(gamma_p1, gamma_m1, rates)

    def test_common_lorentzian_ratio(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            g0, gp, gm = rng.uniform(0.1, 5.0, size=3)
            rates = effective_pump_rates(0.3, rng.uniform(-4, 4), g0, gp, gm)
            assert rates.gamma_op_p1 / rates.gamma_op_0 == pytest.approx(
                gp / g0, rel=1e-14)

    def test_monotone_in_pump_and_detuning(self):
        pumps = np.linspace(0.05, 0.9, 8)
        up = [effective_pump_rates(w, 1.0, 1.0, 0.3, 0.3).gamma_op_p1 for w in pumps]
        assert all(a < b for a, b in zip(up, up[1:]))
        dets = np.linspace(0.0, 6.0, 8)
        down = [effective_pump_rates(0.5, de, 1.0, 0.3, 0.3).gamma_op_p1 for de in dets]
        assert all(a > b for a, b in zip(down, down[1:]))


class TestStarkShift:
    def test_resonant_pump_no_shift(self):
        assert stark_shift(2.0, 0.0, 1.0, 0.1, 0.1) == 0.0

    def test_reference_point(self):
        total = 1.7
        shift = stark_shift(total, total / 2, total, 0.0, 0.0)
        assert shift == pytest.approx(-total / 4, rel=1e-14)

    def test_odd_in_detuning(self):
        for de in (0.3, 1.1, 4.0):
            plus = stark_shift(1.0, de, 1.0, 0.2, 0.2)
            minus = stark_shift(1.0, -de, 1.0, 0.2, 0.2)
            assert plus == pytest.approx(-minus, rel=1e-14)


class TestRenormalizedDecays:
    def test_zero_pump_identity(self):
        rates = effective_pump_rates(0.0, 0.0, 1.0, 0.1, 0.1)
        gp, gm, total = renormalized_decays(1.2, 3.4, rates)
        assert (gp, gm, total) == (1.2, 3.4, 4.6)

    def test_fig7_values(self):
        rates = fig7_pump_rates()
        gp, gm, total = renormalized_decays(GAMMA / 2, GAMMA / 2, rates)
        assert gp == pytest.approx(7.597, rel=1e-3)
        assert gm == gp

    def test_symmetric_inputs(self):
        rates = effective_pump_rates(0.4, 1.0, 1.0, 0.25, 0.25)
        gp, gm, _ = renormalized_decays(0.5, 0.5, rates)
        assert gp == gm


@pytest.mark.parametrize("pump_fraction", [0.25, 0.125])
def test_rates_against_pump_subsystem_dynamics(pump_fraction):
    """The |0> pocket drains into |+-1> at Gamma_op^{+1} + Gamma_op^{-1}.

    Saturation corrections scale as (Omega_p / Gamma_t)^2 and already reach
    ~30% at Omega_p = Gamma_t / 2, so the 10% agreement is checked in the
    genuinely perturbative range Omega_p <= Gamma_t / 4.
    """
    Gamma_0, Gamma_p1, Gamma_m1 = 1.0, 0.08, 0.05
    total = Gamma_0 + Gamma_p1 + Gamma_m1
    pump = total * pump_fraction
    rates = effective_pump_rates(pump, 0.0, Gamma_0, Gamma_p1, Gamma_m1)

    space = ops.internal_space(("0", "Ey", "+1", "-1"))
    drive = ops.transition(space, "Ey", "0")
    H = (pump / 2) * (drive + drive.dagger())
    channels = [(Gamma_0, ops.transition(space, "0", "Ey")),
                (Gamma_p1, ops.transition(space, "+1", "Ey")),
                (Gamma_m1, ops.transition(space, "-1", "Ey"))]
    survive = ops.transition(space, "0", "0") + ops.transition(space, "Ey", "Ey")
    model = ops.LindbladModel(space, H, channels, {"survival": survive})

    kappa = rates.gamma_op_p1 + rates.gamma_op_m1
    series = evolve(model, ops.basis_state(space, "0", 0),
                    t_final=5.0 / kappa, sample_count=401)
    fit = extract_cooling_rate(series, "survival", start_fraction=0.8,
                               end_fraction=0.02, min_efolds=2.0)
    assert fit.w_fit == pytest.approx(kappa, rel=0.10)
