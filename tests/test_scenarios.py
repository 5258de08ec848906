import math
import re
from pathlib import Path

import numpy as np
import pytest

from eitcool import analytics, cli
from eitcool.constants import TWO_PI
from eitcool.csvio import sha256_of
from eitcool.scenarios import (_INERT_KEYS, SCENARIOS, ConfigError, config_warnings,
                               load_config, parse_config, run)

REPO = Path(__file__).resolve().parent.parent
CONFIG_DIR = REPO / "configs"
BENCH_CONFIG_DIR = REPO / "bench" / "configs"

MINIMAL = """
scenario = robustness
seed = 7
output_dir = {out}
params.rabi_omega0 = 8.0
params.gamma_total = 15.0
params.eta = 0.115
params.temperature_mk = 20.0
params.bath = thermal
sweep.rabi_fraction.start = -0.2
sweep.rabi_fraction.stop = 0.2
sweep.rabi_fraction.points = 201
"""


def read_csv(path):
    def to_float(x):
        try:
            return float(x)
        except ValueError:
            return math.nan  # non-numeric label column

    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = [[to_float(x) for x in line.strip().split(",")] for line in fh]
    return header, np.array(rows)


class TestConfigParsing:
    def test_unknown_scenario_names_field(self):
        with pytest.raises(ConfigError, match="scenario"):
            parse_config("scenario = warp-drive\n")

    def test_missing_scenario(self):
        with pytest.raises(ConfigError, match="scenario"):
            parse_config("seed = 1\n")

    def test_fock_dim_floor(self):
        text = "scenario = recycling-check\nsolver.fock_dim = 1\n"
        with pytest.raises(ConfigError, match="fock_dim"):
            parse_config(text)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config("scenario = absorption\nbanana = 3\n")

    def test_unknown_param_rejected(self):
        with pytest.raises(ConfigError, match="parameter"):
            parse_config("scenario = absorption\nparams.bananas = 3\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("scenario = absorption\nseed = 1\nseed = 2\n")

    def test_axis_needs_bounds(self):
        text = ("scenario = absorption\n"
                "sweep.probe_detuning.points = 11\n")
        with pytest.raises(ConfigError, match="start"):
            parse_config(text)

    def test_axis_needs_two_points(self):
        text = ("scenario = absorption\n"
                "sweep.probe_detuning.start = -1\n"
                "sweep.probe_detuning.stop = 1\n"
                "sweep.probe_detuning.points = 1\n")
        with pytest.raises(ConfigError, match="points"):
            parse_config(text)

    def test_axis_must_be_recognized(self):
        # eta, detuning and rabi_omega0 are ModelParams fields that these
        # scenarios do not sweep
        for scenario, axis in (("absorption", "rabi_fraction"), ("absorption", "eta"),
                               ("absorption", "detuning"), ("nuclear-bath", "rabi_omega0")):
            text = (f"scenario = {scenario}\n"
                    f"sweep.{axis}.start = 0\n"
                    f"sweep.{axis}.stop = 1\n"
                    f"sweep.{axis}.points = 5\n")
            with pytest.raises(ConfigError,
                               match=f"line 2: field 'sweep.{axis}'.*does not recognize"):
                parse_config(text)

    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_only_read_sections_are_accepted(self, scenario):
        one_key = {"solver": "solver.fock_dim = 12", "mc": "mc.samples = 3",
                   "fit": "fit.start_fraction = 0.2",
                   "recycling": "recycling.sensitivity = false"}
        reads = SCENARIOS[scenario].sections
        for section, line in one_key.items():
            text = f"scenario = {scenario}\n{line}\n"
            if section in reads:
                assert parse_config(text).scenario == scenario
            else:
                key = line.split(" = ")[0]
                with pytest.raises(ConfigError, match=f"line 2: .*'{key}'"):
                    parse_config(text)

    def test_unit_conversion(self):
        text = ("scenario = absorption\n"
                "params.omega_m_mhz = 2.0\n"
                "params.gamma_total_mhz = 30.0\n"
                "params.temperature_mk = 20.0\n"
                "params.gamma_mech_hz = 20.0\n")
        config = parse_config(text)
        assert config.params.omega_m == pytest.approx(TWO_PI * 2e6)
        assert config.params.gamma_total == pytest.approx(15.0)
        assert config.params.temperature == pytest.approx(0.020)
        assert config.params.gamma_mech == pytest.approx(1e-5)

    def test_comments_and_blank_lines(self):
        config = parse_config("# a comment\n\nscenario = absorption  # trailing\n")
        assert config.scenario == "absorption"

    @pytest.mark.parametrize("scenario, lines, says", [
        ("absorption", "just words", "line 2: expected 'key = value', got 'just words'"),
        ("absorption", "params.bath = hot",
         "<config>: invalid params: bath must be 'zero' or 'thermal', got 'hot'"),
        ("cooling-rate-compare", "solver.step = 3", "line 2: unknown solver field 'step'"),
        ("nuclear-bath", "sweep.delta_max = 1", "line 2: sweep keys look like sweep.<axis>."),
        ("nuclear-bath", "sweep.delta_max.start.mhz = 1", "line 2: sweep keys look like"),
        ("steady-map", "sweep.quality_q.scale = cubic", "line 2: scale must be lin or log"),
        ("steady-map", "sweep.quality_q.values = 1e3",
         "line 2: field 'sweep.quality_q': needs >= 2 values"),
        ("rates-vs-mr", "sweep.rabi_omega0.scale = log\nsweep.rabi_omega0.start = 0\n"
         "sweep.rabi_omega0.stop = 10\nsweep.rabi_omega0.points = 3",
         "line 2: field 'sweep.rabi_omega0': log scale needs positive bounds")])
    def test_malformed_line_is_named(self, scenario, lines, says):
        with pytest.raises(ConfigError, match=re.escape(says)):
            parse_config(f"scenario = {scenario}\n{lines}\n")

    @pytest.mark.parametrize("key", ["omega_0", "omega_p1"])
    def test_level_energy_key_rejected(self, key):
        text = ("scenario = recycling-check\n"
                f"params.level_energies.{key} = 3.0\n")
        with pytest.raises(ConfigError, match=f"level_energies.{key}"):
            parse_config(text)

    @pytest.mark.parametrize("line", [
        "seed = nan", "seed = 1.5", "seed = -1", "seed = true",
        "mc.samples = inf", "mc.samples = 0", "mc.samples = 2.5",
        "threads = 0", "threads = 2.5", "threads = nan",
        "solver.fock_dim = 2.5", "solver.fock_dim = 1",
        "solver.sample_count = 1", "solver.sample_count = 10.5",
        "solver.t_final = 0", "solver.t_final = -5", "solver.t_final = inf",
        "solver.t_final = nan", "solver.t_final = long",
        "sweep.delta_max.points = 2.5",
        "params.eta = nan", "params.temperature_mk = inf",
        "params.gamma_total = -inf"])
    def test_bad_number_is_named(self, line):
        key = line.split(" = ")[0]
        name = key.split(".", 1)[1] if key.startswith("params.") else key
        name = name.removesuffix("_mk")
        text = ("scenario = nuclear-bath\nsweep.delta_max.start = 0\n"
                "sweep.delta_max.stop = 1\n")
        if not line.startswith("sweep."):
            text += "sweep.delta_max.points = 2\n"
        with pytest.raises(ConfigError, match=name):
            parse_config(text + line + "\n")

    @pytest.mark.parametrize("line", [
        "sweep.delta_max.start = abc", "sweep.delta_max.stop = abc",
        "sweep.delta_max.values = 0,abc", "sweep.delta_max.values = 0,nan",
        "solver.rel_tol = abc", "solver.abs_tol = abc",
        "solver.rel_tol = 0.5", "solver.abs_tol = 0",
        "params.lambda_coupling = nan", "params.detuning_mhz = abc",
        # in range for the parser, but each once crashed `eitcool run`
        "params.gamma_total = 0", "params.rabi_omega0 = 0"])
    def test_malformed_value_fails_validate_naming_key(self, line, tmp_path, capsys):
        key = line.split(" = ")[0]
        axis = {"start": "sweep.delta_max.start = 0", "stop": "sweep.delta_max.stop = 1",
                "points": "sweep.delta_max.points = 2"}
        if key.startswith("sweep."):
            axis = {} if key.endswith("values") else {
                k: v for k, v in axis.items() if k != key.rsplit(".", 1)[1]}
        # Gamma and Omega_0 must be positive where the closed forms divide by them
        scenario = {"params.gamma_total": "rates-vs-mr",
                    "params.rabi_omega0": "absorption"}.get(key, "nuclear-bath")
        if scenario != "nuclear-bath":
            axis = {}
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("\n".join([f"scenario = {scenario}", *axis.values(), line, ""]))
        assert cli.main(["validate", str(cfg)]) == 2
        assert key in capsys.readouterr().err

    # the fit window is fixed; these keys, at the values of that window, once set it
    @pytest.mark.parametrize("line", [
        "fit.start_fraction = 0.2", "fit.end_fraction = 0.008",
        "fit.transient_over_gamma = 5"])
    def test_fit_keys_are_unknown(self, line, tmp_path, capsys):
        key = line.split(" = ")[0]
        cfg = tmp_path / "fit.cfg"
        cfg.write_text(f"scenario = cooling-rate-compare\n{line}\n")
        assert cli.main(["validate", str(cfg)]) == 2
        assert f"line 2: unknown key '{key}'" in capsys.readouterr().err

    @pytest.mark.parametrize("line", [
        "sweep.quality_q.start = -1e3", "sweep.quality_q.start = 0",
        "sweep.temperature_mk.start = -5"])
    def test_out_of_range_sweep_fails_validate(self, line, tmp_path, capsys):
        axis = line.split(".")[1]
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"scenario = steady-map\n{line}\nsweep.{axis}.stop = 1e3\n"
                       f"sweep.{axis}.points = 3\n")
        assert cli.main(["validate", str(cfg)]) == 2
        assert f"line 2: field 'sweep.{axis}'" in capsys.readouterr().err

    @pytest.mark.parametrize("lines", [
        "sweep.probe_detuning.values = 5,3",
        "sweep.probe_detuning.start = 10\nsweep.probe_detuning.stop = -40\n"
        "sweep.probe_detuning.points = 11"])
    def test_absorption_sweep_must_increase(self, lines, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"scenario = absorption\n{lines}\n")
        assert cli.main(["validate", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "line 2: field 'sweep.probe_detuning'" in err and "increasing" in err

    @pytest.mark.parametrize("lines, names", [
        ("sweep.temperature.values = 0.001,0.002\nsweep.temperature_mk.values = 5,6,7",
         "'sweep.temperature' and 'sweep.temperature_mk'"),
        ("sweep.temperature_mk.start = 1\nsweep.temperature_mk.stop = 5\n"
         "sweep.temperature.values = 0.001,0.002", "'sweep.temperature_mk' and "
         "'sweep.temperature'"),
        ("params.temperature = 0.02\nparams.temperature_mk = 5", "params.temperature"),
        # AxisSpec.grid would use the values and drop the bounds
        ("sweep.temperature_mk.start = 1\nsweep.temperature_mk.stop = 9\n"
         "sweep.temperature_mk.points = 9\nsweep.temperature_mk.values = 5,6",
         "'sweep.temperature_mk.start' and 'sweep.temperature_mk.values'"),
        ("sweep.quality_q.points = 3\nsweep.quality_q.values = 1e3,1e4",
         "'sweep.quality_q.points' and 'sweep.quality_q.values'"),
        ("sweep.quality_q.scale = log\nsweep.quality_q.values = 1e3,1e4",
         "'sweep.quality_q.scale' and 'sweep.quality_q.values'")])
    def test_one_field_named_twice(self, lines, names):
        # the second key would silently replace the first after unit conversion
        first, second = 2, 2 + lines.count("\n")
        with pytest.raises(ConfigError, match=f"lines {first} and {second}: .*{names}"):
            parse_config(f"scenario = steady-map\n{lines}\n")

    @pytest.mark.parametrize("lines, line, key", [
        # alone it would set the model's omega_m while the unit conversions keep
        # the 1 MHz anchor
        ("params.omega_m = 6.283185307179586e7", 2, "params.omega_m"),
        ("params.omega_m_mhz = 10\nparams.omega_m = 6.283185307179586e6", 3,
         "params.omega_m"),
        ("params.omega_m = 6.283185307179586e6\nparams.omega_m_mhz = 10", 2,
         "params.omega_m"),
        ("params.omega_m_hz = 1e7", 2, "params.omega_m_hz")])
    def test_omega_m_is_set_only_by_its_anchor(self, lines, line, key, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"scenario = rates-vs-mr\n{lines}\n")
        assert cli.main(["validate", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert f"line {line}: field '{key}'" in err and "'params.omega_m_mhz'" in err

    @pytest.mark.parametrize("scenario, line, says", [
        # detuning = optimal_detuning(m_R) overflows
        ("rates-vs-mr", "sweep.rabi_omega0.values = 1,1e200", "detuning"),
        ("cooling-rate-compare", "sweep.rabi_omega0.values = 1,1e200", "detuning"),
        # gamma_mech = 1/Q overflows
        ("steady-map", "sweep.quality_q.values = 1e-320,1", "gamma_mech"),
        # Omega_0 (1 + fraction) overflows
        ("robustness", "sweep.rabi_fraction.values = 0,1e308", "rabi_omega0"),
        # (the fixed Omega_0)^2 overflows as a Python float; the grid centres on it
        ("robustness", "params.rabi_omega0 = 1e200", "out of range")])
    def test_derived_fields_are_checked(self, scenario, line, says, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"scenario = {scenario}\n{line}\n")
        assert cli.main(["validate", str(cfg)]) == 2
        err = capsys.readouterr().err
        key = line.split(" = ")[0]
        field = key.rsplit(".", 1)[0] if key.startswith("sweep.") else key
        assert f"line 2: field '{field}'" in err
        assert says in err

    @pytest.mark.parametrize("value", ["abc", "nan", "0", "-1"])
    def test_omega_m_anchor_is_checked(self, value, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"scenario = rates-vs-mr\nparams.omega_m_mhz = {value}\n"
                       "params.gamma_total_mhz = 15\n")
        assert cli.main(["validate", str(cfg)]) == 2
        assert "params.omega_m_mhz" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["no", "yes", "1", "0"])
    def test_boolean_key_accepts_only_true_false(self, value):
        text = f"scenario = recycling-check\nrecycling.sensitivity = {value}\n"
        with pytest.raises(ConfigError, match="recycling.sensitivity"):
            parse_config(text)
        # a well-formed value parses, sets nothing and draws the inert-key warning
        for word in ("true", "False"):
            text = f"scenario = recycling-check\nrecycling.sensitivity = {word}\n"
            config = parse_config(text)
            assert not hasattr(config, "recycling_sensitivity")
            assert any("'recycling.sensitivity' has no effect" in w
                       for w in config_warnings(config))

    def test_threads_key_is_inert(self, tmp_path):
        config = parse_config("scenario = absorption\nthreads = 2\n")
        assert not hasattr(config, "threads")
        cfg = tmp_path / "threads.cfg"
        cfg.write_text("scenario = absorption\nthreads = 2\n")
        warnings = config_warnings(load_config(cfg))
        assert any("'threads' has no effect" in w for w in warnings)
        cfg.write_text("scenario = absorption\n")
        warnings = config_warnings(load_config(cfg))
        assert not any("threads" in w for w in warnings)

    def test_rel_tol_key_is_inert(self, tmp_path):
        # the series stops on solver.abs_tol alone; rel_tol is still range-checked
        config = parse_config("scenario = nuclear-bath\nsolver.rel_tol = 1e-3\n")
        assert not hasattr(config.solver, "rel_tol")
        assert "'solver.rel_tol' has no effect: the series stops on abs_tol" \
            in config_warnings(config)
        cfg = tmp_path / "rel_tol.cfg"
        cfg.write_text("scenario = nuclear-bath\nsolver.rel_tol = 1e-3\n")
        warnings = config_warnings(load_config(cfg))
        assert any("'solver.rel_tol' has no effect" in w for w in warnings)
        cfg.write_text("scenario = nuclear-bath\nsolver.abs_tol = 1e-10\n")
        warnings = config_warnings(load_config(cfg))
        assert not any("rel_tol" in w for w in warnings)

    @pytest.mark.parametrize("value, warns", [("0.3", False), ("0.35", True)])
    def test_large_eta_warns(self, value, warns):
        config = parse_config(f"scenario = absorption\nparams.eta = {value}\n")
        said = [w for w in config_warnings(config) if "Lamb-Dicke" in w]
        assert said == ([f"eta = {value} is large for a first-order Lamb-Dicke model"]
                        if warns else [])

    @pytest.mark.parametrize("fock_dim, warns", [(64, False), (65, True)])
    def test_large_fock_dim_warns(self, fock_dim, warns):
        config = parse_config(f"scenario = recycling-check\nsolver.fock_dim = {fock_dim}\n")
        said = [w for w in config_warnings(config) if w.startswith("fock_dim > 64")]
        assert len(said) == (1 if warns else 0)


class TestShippedConfigs:
    @pytest.mark.parametrize("name", [
        "absorption.cfg", "rates_vs_mr.cfg", "steady_map.cfg",
        "cooling_rate_compare.cfg", "robustness.cfg", "recycling_check.cfg",
        "nuclear_bath.cfg"])
    def test_validates_clean(self, name):
        config = load_config(CONFIG_DIR / name)
        warnings = config_warnings(config)
        assert config.scenario in name.replace("_", "-")
        # every key a shipped config sets changes its run
        assert not any("has no effect" in w for w in warnings)
        keys = {line.partition("=")[0].strip() for line in config.raw_text.splitlines()}
        assert not keys & set(_INERT_KEYS)

    @pytest.mark.parametrize("key", sorted(_INERT_KEYS))
    def test_inert_key_is_still_set_by_a_bench_config(self, key):
        # an inert key is accepted only for bench/configs: once none sets it,
        # its entry must go
        said = [w for path in sorted(BENCH_CONFIG_DIR.glob("*.cfg"))
                for w in config_warnings(load_config(path))]
        assert any(w.startswith(f"{key!r} has no effect") for w in said)

    def test_both_config_directories_are_found(self):
        assert list(CONFIG_DIR.glob("*.cfg")) and list(BENCH_CONFIG_DIR.glob("*.cfg"))

    @pytest.mark.parametrize(
        "path", sorted(CONFIG_DIR.glob("*.cfg")) + sorted(BENCH_CONFIG_DIR.glob("*.cfg")),
        ids=lambda path: str(path.relative_to(REPO)))
    def test_loads(self, path):
        assert load_config(path).scenario in SCENARIOS

    def test_closed_form_hashes(self, tmp_path):
        # the full sha256 of every closed-form CSV, pinned
        want = {
            "absorption.csv": "459a9e8821f6966c5c44b9ecb13c7ae19c1a09a5337579c7cbf62a34a6e317d9",
            "rates_vs_mr.csv": "9538e6bcac5f2b4eb142a9212632be39e38db3e11fed0b38e5033fee0e612c0c",
            "nss_vs_mr.csv": "7d7ee6a762aea8b2867d7b89cd293d0c05300ba9a5de58f4b1a89781f5020206",
            "steady_map.csv": "16e8e6bd23c13fe26e82505bf8c6a27f325cad3af8d46deafa280d9943e8d949",
            "robustness.csv": "55d9522b153233463adc08e30e1c0ca55f3d4b69f052170f0b76dfa1cbfa1cad",
        }
        got = {}
        for name in ("absorption", "rates_vs_mr", "steady_map", "robustness"):
            config = load_config(CONFIG_DIR / f"{name}.cfg")
            config.output_dir = tmp_path / name
            got.update(run(config).outputs)
        assert got == want

    def test_recycling_config_warns_about_strong_pump(self):
        warnings = config_warnings(load_config(CONFIG_DIR / "recycling_check.cfg"))
        assert any("perturbative" in w for w in warnings)


class TestRunners:
    def test_robustness_minimum_off_center_and_ordering(self, tmp_path):
        config = parse_config(MINIMAL.format(out=tmp_path))
        manifest = run(config)
        header, rows = read_csv(tmp_path / "robustness.csv")
        assert header[0] == "rabi_fraction"
        fractions = rows[:, 0]
        for col in (1, 2, 3):
            k = int(np.argmin(rows[:, col]))
            assert abs(fractions[k]) > 1e-9  # not at zero deviation
        assert np.all(rows[:, 1] <= rows[:, 2] + 1e-15)
        assert np.all(rows[:, 2] <= rows[:, 3] + 1e-15)
        assert "robustness.csv" in manifest.outputs

    def test_robustness_steeper_for_larger_rabi(self, tmp_path):
        def sensitivity(m_r):
            text = MINIMAL.format(out=tmp_path / f"m{m_r}").replace(
                "params.rabi_omega0 = 8.0", f"params.rabi_omega0 = {m_r}")
            run(parse_config(text))
            _, rows = read_csv(tmp_path / f"m{m_r}" / "robustness.csv")
            zero_t = rows[:, 1]  # gamma_m = 0 curve
            return zero_t[-1] / zero_t.min()  # rise at +20% deviation

        assert sensitivity(10.0) > sensitivity(6.0)

    def test_steady_map_against_closed_form(self, tmp_path):
        text = ("scenario = steady-map\noutput_dir = {out}\n"
                "params.rabi_omega0 = 8.0\nparams.detuning = 31.0\n"
                "params.gamma_total = 15.0\nparams.eta = 0.115\n"
                "sweep.quality_q.start = 1e4\nsweep.quality_q.stop = 1e6\n"
                "sweep.quality_q.points = 3\nsweep.quality_q.scale = log\n"
                "sweep.temperature_mk.start = 10\nsweep.temperature_mk.stop = 30\n"
                "sweep.temperature_mk.points = 3\n").format(out=tmp_path)
        run(parse_config(text))
        header, rows = read_csv(tmp_path / "steady_map.csv")
        assert header == ["quality_q", "temperature_mk", "n_ss", "log10_n_ss"]
        assert len(rows) == 9
        # spot-check the (Q = 1e5, T = 20 mK) cell against the quotient form
        mask = (np.abs(rows[:, 0] - 1e5) < 1) & (np.abs(rows[:, 1] - 20) < 1e-9)
        assert mask.sum() == 1
        assert rows[mask][0, 2] == pytest.approx(0.05205, abs=2e-4)
        assert rows[mask][0, 3] == pytest.approx(math.log10(0.05205), abs=2e-3)

    def test_steady_map_under_net_heating_writes_inf(self, tmp_path):
        cfg = tmp_path / "heating.cfg"
        cfg.write_text(
            "scenario = steady-map\nparams.detuning = -31\n"
            "sweep.quality_q.values = 1e4,1e5\n"
            "sweep.temperature_mk.values = 10,20\n")
        out = tmp_path / "out"
        assert cli.main(["run", str(cfg), "--output-dir", str(out)]) == 0
        assert (out / "manifest.txt").exists()
        header, rows = read_csv(out / "steady_map.csv")
        assert header[2] == "n_ss"
        assert np.all(np.isposinf(rows[:, 2]))

    def test_rates_vs_mr_ratio(self, tmp_path):
        text = ("scenario = rates-vs-mr\noutput_dir = {out}\n"
                "params.gamma_total = 15.0\nparams.eta = 0.115\n"
                "params.bath = thermal\nparams.temperature_mk = 20.0\n"
                "sweep.rabi_omega0.start = 2.0\nsweep.rabi_omega0.stop = 12.0\n"
                "sweep.rabi_omega0.points = 11\n").format(out=tmp_path)
        run(parse_config(text))
        header, rows = read_csv(tmp_path / "rates_vs_mr.csv")
        at_8 = rows[np.abs(rows[:, 0] - 8.0) < 1e-9][0]
        assert at_8[2] / at_8[1] > 10.0  # cooling over ten times heating
        assert np.all(np.diff(rows[:, 2]) > 0)  # A- monotone in m_R

    def test_absorption_runner(self, tmp_path):
        text = ("scenario = absorption\noutput_dir = {out}\n"
                "sweep.probe_detuning.start = -40\n"
                "sweep.probe_detuning.stop = 10\n"
                "sweep.probe_detuning.points = 501\n").format(out=tmp_path)
        run(parse_config(text))
        header, rows = read_csv(tmp_path / "absorption.csv")
        assert header == ["omega", "absorption"]
        k0 = int(np.argmin(np.abs(rows[:, 0])))
        assert rows[k0, 1] < 1e-8 * rows[:, 1].max()

    def test_recycling_runner_small(self, tmp_path):
        text = ("scenario = recycling-check\noutput_dir = {out}\n"
                "params.rabi_omega0 = 6.0\nparams.detuning = 10.0\n"
                "params.gamma_total = 15.194771468144044\n"
                "params.gamma_plus = 7.597385734072022\n"
                "params.gamma_minus = 7.597385734072022\n"
                "params.gamma_p1 = 7.5\nparams.gamma_m1 = 7.5\n"
                "params.gamma_0 = 1.5\nparams.gamma_dark = 0.11538461538461539\n"
                "params.gamma_s = 0.45454545454545453\nparams.Gamma_0 = 15.0\n"
                "params.Gamma_p1 = 0.1\nparams.Gamma_m1 = 0.1\n"
                "params.rabi_pump = 15.0\nparams.eta = 0.115\n"
                "solver.fock_dim = 12\nsolver.t_final = 30.0\n"
                "solver.sample_count = 31\n").format(out=tmp_path)
        manifest = run(parse_config(text))
        header, rows = read_csv(tmp_path / "recycling.csv")
        assert header == ["t", "n3", "n4", "n7"]
        assert rows[0, 1:] == pytest.approx([3.0, 3.0, 3.0])
        assert "max_rel_dev_n3_n7" in manifest.solver_stats
        # each model steps only the parity-even coordinates, and of those the
        # four- and seven-level models only what |-1, 3> reaches
        stats = manifest.solver_stats
        assert [stats[f"sector_{name}"] for name in ("n3", "n4", "n7")] == ["even"] * 3
        assert stats["coordinates_n3"] == 36 ** 2 // 2
        assert stats["coordinates_n4"] == 720 and stats["coordinates_n7"] == 996
        # checksums in the manifest match the files on disk
        for name, digest in manifest.outputs.items():
            assert sha256_of(tmp_path / name) == digest

    def test_nuclear_bath_determinism(self, tmp_path):
        text = ("scenario = nuclear-bath\noutput_dir = {out}\nseed = 42\n"
                "params.bath = thermal\nparams.temperature_mk = 20.0\n"
                "params.gamma_mech_hz = 10.0\n"
                "sweep.delta_max_mhz.values = 0.0,0.1\n"
                "mc.samples = 2\nsolver.fock_dim = 14\n"
                "solver.t_final = 40.0\nsolver.sample_count = 21\n")
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        digests = {}
        for out in (out_a, out_b):
            manifest = run(parse_config(text.format(out=out)))
            digests[out] = manifest.outputs
        assert digests[out_a] == digests[out_b]
        header, rows = read_csv(out_a / "nuclear_mean_n.csv")
        assert header[0] == "t" and len(header) == 3


class TestCli:
    def test_list_scenarios(self, capsys):
        assert cli.main(["list-scenarios"]) == 0
        out = capsys.readouterr().out
        assert "recycling-check" in out and "absorption" in out

    def test_validate_good_config(self, capsys):
        code = cli.main(["validate", str(CONFIG_DIR / "recycling_check.cfg")])
        assert code == 0
        assert "validates clean" in capsys.readouterr().out

    def test_validate_bad_config(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("scenario = nope\n")
        assert cli.main(["validate", str(bad)]) == 2
        assert "error" in capsys.readouterr().err

    def test_missing_file_is_config_error(self):
        assert cli.main(["validate", "/definitely/not/here.cfg"]) == 2

    def test_run_with_overrides(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "scenario = absorption\noutput_dir = will_be_overridden\n"
            "sweep.probe_detuning.start = -5\nsweep.probe_detuning.stop = 5\n"
            "sweep.probe_detuning.points = 41\n")
        out = tmp_path / "result"
        code = cli.main(["run", str(cfg), "--output-dir", str(out), "--seed", "7"])
        assert code == 0
        assert (out / "absorption.csv").exists()
        assert (out / "manifest.txt").exists()
        text = (out / "manifest.txt").read_text()
        assert "scenario = absorption" in text
        assert "sha256" in text

    def test_solver_failure_exits_3_with_a_failure_manifest(self, tmp_path, capsys):
        # the start state |-1, 2> sits on the top two levels of a four-level
        # ladder, so the leakage monitor fails at t = 0
        text = (CONFIG_DIR / "recycling_check.cfg").read_text()
        assert "solver.fock_dim = 12\n" in text
        cfg = tmp_path / "leaky.cfg"
        cfg.write_text(text.replace("solver.fock_dim = 12\n", "solver.fock_dim = 4\n"))
        out = tmp_path / "out"
        assert cli.main(["run", str(cfg), "--output-dir", str(out)]) == 3
        assert "solver failure" in capsys.readouterr().err
        lines = (out / "manifest.txt").read_text().splitlines()
        assert lines[:2] == ["scenario = recycling-check", "status = solver-failure"]
        assert lines[2].startswith("error = ") and "fock_dim" in lines[2]

    @staticmethod
    def leaky_config(tmp_path):
        # recycling_check.cfg at fock_dim 4: the leakage monitor fails at t = 0
        cfg = tmp_path / "leaky.cfg"
        cfg.write_text((CONFIG_DIR / "recycling_check.cfg").read_text()
                       .replace("solver.fock_dim = 12\n", "solver.fock_dim = 4\n"))
        return cfg

    def test_failed_run_names_no_csv_of_an_earlier_run(self, tmp_path, capsys):
        out = tmp_path / "out"
        good = tmp_path / "good.cfg"
        good.write_text("scenario = absorption\nsweep.probe_detuning.start = -5\n"
                        "sweep.probe_detuning.stop = 5\nsweep.probe_detuning.points = 41\n")
        assert cli.main(["run", str(good), "--output-dir", str(out)]) == 0
        assert cli.main(["run", str(self.leaky_config(tmp_path)),
                         "--output-dir", str(out)]) == 3
        # absorption.csv is the good run's; the failure manifest does not list it
        assert (out / "absorption.csv").exists()
        lines = (out / "manifest.txt").read_text().splitlines()
        assert len(lines) == 3 and lines[1] == "status = solver-failure"
        assert lines[2].startswith("error = ") and "fock_dim" in lines[2]

    def test_unwritable_failure_manifest_still_exits_3(self, tmp_path, capsys):
        out = tmp_path / "out"
        (out / "manifest.txt").mkdir(parents=True)
        assert cli.main(["run", str(self.leaky_config(tmp_path)),
                         "--output-dir", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("solver failure: ") and "fock_dim" in err
        assert (out / "manifest.txt").is_dir()

    def test_failed_cooling_rate_fit_exits_3(self, tmp_path, capsys):
        # t_final = 30 passes validate, but the decay is too short to fit
        text = (CONFIG_DIR / "cooling_rate_compare.cfg").read_text()
        assert "solver.t_final = 1700.0\n" in text
        cfg = tmp_path / "short.cfg"
        cfg.write_text(text.replace("solver.t_final = 1700.0\n", "solver.t_final = 30.0\n"))
        assert cli.main(["validate", str(cfg)]) == 0
        out = tmp_path / "out"
        assert cli.main(["run", str(cfg), "--output-dir", str(out)]) == 3
        assert "solver failure: cooling-rate fit" in capsys.readouterr().err
        assert (out / "manifest.txt").read_text().splitlines() == [
            "scenario = cooling-rate-compare", "status = solver-failure",
            "error = cooling-rate fit at m_R = 6 failed: fit window too small; "
            "series may not span enough decay"]
        assert not list(out.glob("*.csv"))

    def test_output_failure_exits_4(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("scenario = absorption\n")
        blocker = tmp_path / "a_file"
        blocker.write_text("")
        assert cli.main(["run", str(cfg), "--output-dir", str(blocker)]) == 4
        assert "output failure" in capsys.readouterr().err

    def test_run_on_malformed_config_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("scenario = absorption\nsweep.probe_detuning.scale = cubic\n")
        out = tmp_path / "out"
        assert cli.main(["run", str(cfg), "--output-dir", str(out)]) == 2
        assert "error: line 2: scale must be lin or log" in capsys.readouterr().err
        assert not out.exists()

    def test_manifest_lists_the_validate_warnings(self, tmp_path, capsys):
        cfg = tmp_path / "warn.cfg"
        cfg.write_text("scenario = rates-vs-mr\nthreads = 1\nparams.eta = 0.35\n"
                       "sweep.rabi_omega0.values = 4,8\n")
        assert cli.main(["validate", str(cfg)]) == 0
        printed = [line.removeprefix("warning: ")
                   for line in capsys.readouterr().out.splitlines()
                   if line.startswith("warning: ")]
        out = tmp_path / "out"
        assert cli.main(["run", str(cfg), "--output-dir", str(out)]) == 0
        listed = [line.removeprefix("warning = ")
                  for line in (out / "manifest.txt").read_text().splitlines()
                  if line.startswith("warning = ")]
        assert len(printed) == 2 and listed == printed

    def test_threads_flag_is_gone(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("scenario = absorption\n")
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["run", str(cfg), "--threads", "2",
                      "--output-dir", str(tmp_path / "out")])
        assert exit_info.value.code == 2
        assert "--threads" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    # the scenarios that read solver.*, where --rel-tol used to override solver.rel_tol
    @pytest.mark.parametrize("scenario", [
        name for name, reads in SCENARIOS.items() if "solver" in reads.sections])
    def test_rel_tol_flag_is_gone(self, scenario, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"scenario = {scenario}\n")
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["run", str(cfg), "--rel-tol", "1e-8",
                      "--output-dir", str(tmp_path / "out")])
        assert exit_info.value.code == 2
        assert "--rel-tol" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

