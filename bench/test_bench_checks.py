"""Each benchmark check accepts a correct output and rejects a corrupted one.

Correct outputs come from eitcool itself on small inputs (a few hundred grid
points, a d = 9 steady state); the recycling curves and nuclear-bath tails
are synthetic, since real runs of those take 2 to 10 s each.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
from eitcool import cli, dynamics, nvmodel  # noqa: E402
from eitcool.params import ModelParams  # noqa: E402


def run_scenario(tmp_path, text):
    config = tmp_path / "bench.cfg"
    config.write_text(text)
    outdir = tmp_path / "out"
    assert cli.main(["run", str(config), "--output-dir", str(outdir)]) == 0
    return outdir


ABSORPTION = """scenario = absorption
params.rabi_omega0 = 8.0
params.detuning = 31.0
params.gamma_total = 15.0
sweep.probe_detuning.start = -40.0
sweep.probe_detuning.stop = 10.0
sweep.probe_detuning.points = 501
"""

RATES = """scenario = rates-vs-mr
params.gamma_total = 15.0
params.eta = 0.115
sweep.rabi_omega0.start = 2.0
sweep.rabi_omega0.stop = 12.0
sweep.rabi_omega0.points = 101
"""

STEADY_MAP = """scenario = steady-map
params.rabi_omega0 = 8.0
params.detuning = 31.0
sweep.quality_q.start = 1e3
sweep.quality_q.stop = 1e7
sweep.quality_q.points = 5
sweep.quality_q.scale = log
sweep.temperature_mk.start = 10.0
sweep.temperature_mk.stop = 30.0
sweep.temperature_mk.points = 3
"""

ROBUSTNESS = """scenario = robustness
params.rabi_omega0 = 8.0
params.temperature_mk = 20.0
params.bath = thermal
sweep.rabi_fraction.start = -0.3
sweep.rabi_fraction.stop = 0.3
sweep.rabi_fraction.points = 601
"""


@pytest.fixture(scope="module")
def absorption(tmp_path_factory):
    outdir = run_scenario(tmp_path_factory.mktemp("absorption"), ABSORPTION)
    return outdir, checks.read_csv(outdir / "absorption.csv")


def test_absorption_accepts_program_output(absorption):
    outdir, data = absorption
    assert checks.check_absorption(data[:, 0], data[:, 1], 8.0, 31.0) == []
    assert checks.check_manifest(outdir) == []


def test_absorption_rejects_peak_moved_by_one_step(absorption):
    _, data = absorption
    omega, values = data[:, 0], data[:, 1].copy()
    k = int(np.argmin(np.abs(omega - 1.0)))       # E+ = 1
    values[k], values[k + 1] = values[k + 1], values[k]
    fails = checks.check_absorption(omega, values, 8.0, 31.0)
    assert len(fails) == 1 and "E+" in fails[0]


def test_absorption_rejects_filled_dip(absorption):
    _, data = absorption
    omega, values = data[:, 0], data[:, 1].copy()
    values[np.argmin(np.abs(omega))] = 1e-6
    fails = checks.check_absorption(omega, values, 8.0, 31.0)
    assert len(fails) == 1 and "dip" in fails[0]


def test_manifest_rejects_changed_bytes(absorption, tmp_path):
    outdir, _ = absorption
    copy = tmp_path / "copy"
    copy.mkdir()
    (copy / "manifest.txt").write_bytes((outdir / "manifest.txt").read_bytes())
    data = bytearray((outdir / "absorption.csv").read_bytes())
    data[-2] ^= 1                                  # last digit of the last row
    (copy / "absorption.csv").write_bytes(bytes(data))
    fails = checks.check_manifest(copy)
    assert len(fails) == 1 and "sha256" in fails[0]


def test_same_hashes_rejects_a_difference():
    assert checks.check_same_hashes({"a.csv": "00"}, {"a.csv": "00"}) == []
    assert checks.check_same_hashes({"a.csv": "00"}, {"a.csv": "01"})


def test_rates_accept_program_output_and_reject_changes(tmp_path):
    outdir = run_scenario(tmp_path, RATES)
    data = checks.read_csv(outdir / "rates_vs_mr.csv")
    m_r, a_plus, a_minus = data[:, 0], data[:, 1], data[:, 2]
    assert checks.check_rates_vs_mr(m_r, a_plus, a_minus, 15.0, 0.115) == []

    nudged = a_plus.copy()
    nudged[10] *= 1 + 1e-9
    fails = checks.check_rates_vs_mr(m_r, nudged, a_minus, 15.0, 0.115)
    assert len(fails) == 1 and "A+" in fails[0]

    # the published A- alone is off: a wrong eta moves both coefficients
    fails = checks.check_rates_vs_mr(m_r, a_plus * 1.02, a_minus * 1.02, 15.0, 0.115)
    assert any("published" in f for f in fails)


def test_steady_map_accepts_program_output_and_rejects_changes(tmp_path):
    outdir = run_scenario(tmp_path, STEADY_MAP)
    data = checks.read_csv(outdir / "steady_map.csv")
    q, t_mk, n_ss = data[:, 0], data[:, 1], data[:, 2]
    assert checks.check_steady_map(q, t_mk, n_ss) == []
    fails = checks.check_steady_map(q, t_mk, n_ss * 1.05)
    assert len(fails) == 1 and "published" in fails[0]


def test_robustness_accepts_program_output_and_rejects_changes(tmp_path):
    outdir = run_scenario(tmp_path, ROBUSTNESS)
    data = checks.read_csv(outdir / "robustness.csv")
    fraction, curves = data[:, 0], [data[:, k] for k in (1, 2, 3)]
    assert checks.check_robustness(fraction, curves) == []

    swapped = [curves[2], curves[1], curves[0]]
    assert checks.check_robustness(fraction, swapped)

    at_zero = [c.copy() for c in curves]
    k0 = int(np.argmin(np.abs(fraction)))
    at_zero[1][k0] = at_zero[1].min() * 0.999
    fails = checks.check_robustness(fraction, at_zero)
    assert len(fails) == 1 and "zero Rabi error" in fails[0]


def synthetic_cooling(tail, rate, times):
    """A recycling-like curve: a small rise during the first omega_m^-1,
    then exponential cooling from 3 toward `tail`."""
    return tail + (3.0 - tail) * np.exp(-rate * times) + 0.01 * times * np.exp(-times)


def test_recycling_accepts_agreeing_models_and_rejects_swapped_curve():
    t = np.linspace(0.0, 20.0, 11)
    curves = {"n3": synthetic_cooling(2.00, 0.05, t),
              "n4": synthetic_cooling(2.01, 0.05, t),
              "n7": synthetic_cooling(2.02, 0.05, t)}
    assert checks.check_recycling(t, curves) == []

    # the seven-level curve replaced by one from a faster-cooling set
    swapped = dict(curves, n7=synthetic_cooling(1.0, 0.2, t))
    fails = checks.check_recycling(t, swapped)
    assert fails and all("differ" in f for f in fails)

    # the three-level curve replaced by its time reverse
    reversed_n3 = dict(curves, n3=curves["n3"][::-1].copy())
    assert any("n3" in f for f in checks.check_recycling(t, reversed_n3))


def test_nuclear_tails_reject_a_fall():
    assert checks.check_nuclear_tails(np.array([0.5, 1.5]), [2.3, 2.8]) == []
    assert checks.check_nuclear_tails(np.array([0.5, 1.5]), [2.8, 2.3])


@pytest.fixture(scope="module")
def small_steady_state():
    params = ModelParams(rabi_omega0=8.0, detuning=31.0, gamma_total=15.0)
    model = nvmodel.build_three_level_model(params, 3)
    rho = dynamics.steady_state(model).matrix
    channels = [(rate, jump.matrix) for rate, jump in model.channels]
    return rho, model.hamiltonian.matrix, channels, list(model.space.internal_labels)


def steady_fails(state, rho):
    _, hamiltonian, channels, labels = state
    return checks.check_steady_state(rho, hamiltonian, channels, labels, 3)


def test_steady_state_accepts_program_output(small_steady_state):
    assert steady_fails(small_steady_state, small_steady_state[0]) == []


def test_steady_state_rejects_scaled_trace(small_steady_state):
    fails = steady_fails(small_steady_state, 1.01 * small_steady_state[0])
    assert any("trace" in f for f in fails)


def test_steady_state_rejects_non_hermitian(small_steady_state):
    rho = small_steady_state[0].copy()
    rho[0, 1] += 1e-6
    assert any("Hermitian" in f for f in steady_fails(small_steady_state, rho))


def test_steady_state_rejects_negative_eigenvalue(small_steady_state):
    rho = small_steady_state[0].copy()
    k = int(np.argmin(np.diag(rho).real))
    rho[k, k] -= 1e-3
    rho[0, 0] += 1e-3
    assert any("eigenvalue" in f for f in steady_fails(small_steady_state, rho))


def test_steady_state_rejects_a_state_that_is_not_stationary(small_steady_state):
    rho = np.eye(9, dtype=complex) / 9       # maximally mixed: valid, not stationary
    fails = steady_fails(small_steady_state, rho)
    assert any("generator" in f for f in fails)
    assert any("dark-state" in f for f in fails)
