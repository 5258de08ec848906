"""Declarative figure-class experiments: config parsing, runners, manifests.

Config grammar (UTF-8, one scenario per file):
    # comment lines and blank lines are ignored
    key = value
Dotted keys select sections: params.*, solver.*, sweep.<axis>.*, mc.*,
recycling.*; everything else is top-level (scenario, seed, output_dir).  A
key of an axis or section that SCENARIOS does not list for the scenario is an
error.  Fields suffixed _hz / _mhz are converted to omega_m units and _mk to
kelvin at parse time, using params.omega_m_mhz (default 1.0) as the SI anchor.
Every run is serial, and its CSV outputs are byte-reproducible for a fixed
config and seed.
"""

from __future__ import annotations

import contextlib
import dataclasses
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__ as code_version
from . import analytics
from . import operators as ops
from .constants import TWO_PI
from .csvio import sha256_of, write_csv
from .effective import outside_perturbative_regime
from .nvmodel import (build_four_level_model, build_seven_level_model,
                      build_three_level_model, dark_state_vector,
                      optimal_detuning)
from .params import ModelParams

# the simulated runners import `dynamics` where they call it: it loads scipy,
# which the closed-form runners and the config checks do not need


class ConfigError(ValueError):
    """Malformed or inconsistent scenario configuration."""


@dataclass(frozen=True)
class Scenario:
    """One row of SCENARIOS (after the runners): the sweep axes and sections a
    scenario reads, the params its closed forms need > 0, and its runner's
    (params, sweep) -> grid, which the parser calls to check the grid too."""
    description: str
    runner: object
    axes: tuple = ()
    sections: tuple = ()
    positive: tuple = ()
    grid: object = None
    grid_params: tuple = ()          # the params fields the grid derives others from


_PARAM_FIELDS = {f.name for f in dataclasses.fields(ModelParams)}
_SECTIONS = ("solver", "mc", "recycling")


@dataclass
class AxisSpec:
    name: str
    start: float = None
    stop: float = None
    points: int = None
    scale: str = "lin"
    values: tuple | None = None

    def grid(self):
        if self.values is not None:
            return np.asarray(self.values, dtype=float)
        if self.scale == "log":
            return np.geomspace(self.start, self.stop, self.points)
        return np.linspace(self.start, self.stop, self.points)


@dataclass
class SolverSpec:
    abs_tol: float = 1e-10
    fock_dim: int = 12
    t_final: float = 200.0
    sample_count: int = 201

    def __post_init__(self):
        self.abs_tol = _tolerance("solver.abs_tol", self.abs_tol)
        self.t_final = _real("solver.t_final", self.t_final)
        # fock_dim >= 2: a single-level ladder carries no phonon
        _integer("solver.fock_dim", self.fock_dim, 2)
        _integer("solver.sample_count", self.sample_count, 2)
        if not self.t_final > 0:
            raise ConfigError(f"field 'solver.t_final': must be > 0, got {self.t_final}")


@dataclass
class ScenarioConfig:
    scenario: str
    params: ModelParams = field(default_factory=ModelParams)
    sweep: dict = field(default_factory=dict)        # axis name -> AxisSpec
    solver: SolverSpec = field(default_factory=SolverSpec)
    seed: int = 42
    output_dir: Path = Path("out")
    mc_samples: int = 200
    raw_text: str = ""


@dataclass
class RunManifest:
    scenario: str
    config_echo: str
    code_version: str
    wall_time_s: float
    outputs: dict            # filename -> sha256
    solver_stats: dict
    warnings: list

    def lines(self, outdir):
        """The manifest.txt lines after `scenario =`; `outdir` holds the CSVs."""
        yield f"code_version = {self.code_version}"
        yield f"wall_time_s = {self.wall_time_s:.3f}"
        for key, val in sorted(self.solver_stats.items()):
            yield f"stat.{key} = {val}"
        for warning in self.warnings:
            yield f"warning = {warning}"
        for name, digest in sorted(self.outputs.items()):
            yield f"csv {name} sha256 {digest} bytes {(outdir / name).stat().st_size}"
        yield "# --- config echo ---"
        for line in self.config_echo.splitlines():
            yield f"# {line}"


# ---------------------------------------------------------------------------
# parsing

def _parse_kv_lines(text):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        yield lineno, key.strip(), value.split("#", 1)[0].strip()


def _coerce(value):
    low = value.lower()
    if low in ("true", "false"):
        return low == "true"
    for kind in (int, float):
        try:
            return kind(value)
        except ValueError:
            pass
    return value


def _integer(key, value, minimum):
    """`value` if it is an integer >= minimum, else a ConfigError naming `key`."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"field {key!r}: must be an integer, got {value!r}")
    if value < minimum:
        raise ConfigError(f"field {key!r}: must be >= {minimum}, got {value}")
    return value


def _real(key, value):
    """`value` as a finite float, else a ConfigError naming `key`."""
    try:
        number = float(value)
    except (TypeError, ValueError):
        number = math.nan
    if isinstance(value, bool) or not math.isfinite(number):
        raise ConfigError(f"field {key!r}: must be a finite number, got {value!r}")
    return number


def _boolean(key, value):
    """`value` if it parsed from true/false, else a ConfigError naming `key`."""
    if not isinstance(value, bool):
        raise ConfigError(f"field {key!r}: must be true or false, got {value!r}")
    return value


def _tolerance(key, value):
    """`value` as a float in (0, 1e-2], else a ConfigError naming `key`."""
    value = _real(key, value)
    if not 0 < value <= 1e-2:
        raise ConfigError(f"field {key!r}: must lie in (0, 1e-2]")
    return value


# Keys that change no run, accepted only because bench/configs/*.cfg still set
# them: key -> (check of its value, why it has no effect).  Each draws a
# warning; delete an entry once no config sets its key.
_INERT_KEYS = {
    "threads": (lambda key, value: _integer(key, value, 1), "every run is serial"),
    "solver.rel_tol": (_tolerance, "the series stops on abs_tol"),
    "recycling.sensitivity": (_boolean, "the free level energies are checked "
                              "on the generator by the test suite"),
}


def _two_keys(*named):
    """"lines a and b: 'key_a' and 'key_b'" for two (line, key) pairs, in line order."""
    (line_a, key_a), (line_b, key_b) = sorted(named)
    return f"lines {line_a} and {line_b}: '{key_a}' and '{key_b}'"


def _convert_units(key, value, omega_m_si):
    """Strip a unit suffix and rescale the value into internal units."""
    if key.endswith("_mhz"):
        return key[:-4], value * TWO_PI * 1e6 / omega_m_si
    if key.endswith("_hz"):
        return key[:-3], value * TWO_PI / omega_m_si
    if key.endswith("_mk"):
        return key[:-3], value * 1e-3
    return key, value


def parse_config(text, path_hint="<config>") -> ScenarioConfig:
    entries = {}
    for lineno, key, value in _parse_kv_lines(text):
        if key in entries:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        entries[key] = (lineno, _coerce(value))

    def pop(key, default=None):
        return entries.pop(key, (None, default))[1]

    scenario = pop("scenario")
    if scenario is None:
        raise ConfigError(f"{path_hint}: missing required key 'scenario'")
    if scenario not in SCENARIOS:
        raise ConfigError(
            f"field 'scenario': unknown scenario {scenario!r}; "
            f"known: {', '.join(sorted(SCENARIOS))}")
    reads = SCENARIOS[scenario]
    for key, (lineno, _) in entries.items():
        section = key.partition(".")[0]
        if section in _SECTIONS and section not in reads.sections:
            raise ConfigError(f"line {lineno}: scenario {scenario!r} reads no "
                              f"{section}.* keys, got {key!r}")
    for key, (check, _) in _INERT_KEYS.items():
        if key in entries:
            check(key, pop(key))

    # the SI anchor of every unit conversion, and so the omega_m field itself
    omega_m_mhz = _real("params.omega_m_mhz", pop("params.omega_m_mhz", 1.0))
    if not omega_m_mhz > 0:
        raise ConfigError(f"field 'params.omega_m_mhz': must be > 0, got {omega_m_mhz}")
    omega_m_si = TWO_PI * omega_m_mhz * 1e6

    param_kwargs, param_lines = {"omega_m": omega_m_si}, {}
    for key in [k for k in entries if k.startswith("params.")]:
        lineno, value = entries.pop(key)
        name = key[len("params."):]
        if name != "bath":
            value = _real(key, value)
        name, value = _convert_units(name, value, omega_m_si)
        if name == "omega_m":
            raise ConfigError(f"line {lineno}: field {key!r}: omega_m is set only by "
                              "'params.omega_m_mhz', the anchor of every unit conversion")
        if name not in _PARAM_FIELDS:
            raise ConfigError(f"line {lineno}: unknown parameter field {name!r}")
        if name in param_lines:
            raise ConfigError(f"{_two_keys(param_lines[name], (lineno, key))} "
                              f"both set 'params.{name}'")
        param_kwargs[name], param_lines[name] = value, (lineno, key)
    try:
        params = ModelParams(**param_kwargs)
    except (TypeError, ValueError) as err:
        raise ConfigError(f"{path_hint}: invalid params: {err}") from None
    for name in reads.positive:
        if not getattr(params, name) > 0:
            raise ConfigError(f"field 'params.{name}': scenario {scenario!r} "
                              f"needs it > 0, got {getattr(params, name)}")

    solver_kwargs = {}
    for key in [k for k in entries if k.startswith("solver.")]:
        lineno, value = entries.pop(key)
        name = key[len("solver."):]
        if name not in {f.name for f in dataclasses.fields(SolverSpec)}:
            raise ConfigError(f"line {lineno}: unknown solver field {name!r}")
        solver_kwargs[name] = value
    solver = SolverSpec(**solver_kwargs)

    sweep, axis_lines, field_lines = {}, {}, {}
    axis_fields = {"start", "stop", "points", "scale", "values"}
    for key in [k for k in entries if k.startswith("sweep.")]:
        lineno, value = entries.pop(key)
        parts = key.split(".")
        if len(parts) != 3 or parts[2] not in axis_fields:
            raise ConfigError(f"line {lineno}: sweep keys look like "
                              f"sweep.<axis>.<{'|'.join(sorted(axis_fields))}>")
        axis_name, field_name = parts[1], parts[2]
        converted_name, _ = _convert_units(axis_name, 0.0, omega_m_si)
        first_line, first_name = axis_lines.setdefault(converted_name, (lineno, axis_name))
        if first_name != axis_name:
            raise ConfigError(_two_keys((first_line, f"sweep.{first_name}"),
                                        (lineno, f"sweep.{axis_name}"))
                              + f" name one axis, {converted_name!r}")
        spec = sweep.setdefault(converted_name, AxisSpec(name=converted_name))
        field_lines.setdefault(converted_name, {})[field_name] = lineno
        if field_name == "values":
            spec.values = tuple(_convert_units(axis_name, _real(key, v), omega_m_si)[1]
                                for v in str(value).split(",") if v.strip())
        elif field_name == "scale":
            if value not in ("lin", "log"):
                raise ConfigError(f"line {lineno}: scale must be lin or log")
            spec.scale = value
        elif field_name == "points":
            spec.points = _integer(key, value, 2)
        else:
            _, scaled = _convert_units(axis_name, _real(key, value), omega_m_si)
            setattr(spec, field_name, scaled)

    for spec in sweep.values():
        where = "line {}: field 'sweep.{}'".format(*axis_lines[spec.name])
        if spec.name not in reads.axes:
            raise ConfigError(f"{where}: scenario {scenario!r} does not recognize "
                              f"this axis; it understands {reads.axes}")
        if spec.values is not None and len(spec.values) < 2:
            raise ConfigError(f"{where}: needs >= 2 values")
        lines = field_lines[spec.name]
        ignored = [f for f in ("start", "stop", "points", "scale") if f in lines]
        if spec.values is not None and ignored:
            # a values list is the whole grid; AxisSpec.grid would drop the rest
            axis = axis_lines[spec.name][1]
            raise ConfigError(
                _two_keys(*((lines[f], f"sweep.{axis}.{f}") for f in ("values", ignored[0])))
                + " on one axis: a values list is the whole grid and takes no start, "
                "stop, points or scale")
        if spec.values is None and None in (spec.start, spec.stop, spec.points):
            raise ConfigError(f"{where}: needs start, stop and points (or a values list)")
        if spec.values is None and spec.scale == "log" and min(spec.start, spec.stop) <= 0:
            raise ConfigError(f"{where}: log scale needs positive bounds")
    if reads.grid is not None:
        # the grid and the fields the runner derives from it, against the bounds
        # of ModelParams.validate (1/Q at Q = 0 would warn before Q's bound fails)
        try:
            with np.errstate(all="ignore"):
                reads.grid(params, sweep)
        except (ValueError, ArithmeticError) as err:   # float ** overflows
            named = [(line, f"sweep.{axis}") for line, axis in axis_lines.values()]
            named += [param_lines[name] for name in reads.grid_params if name in param_lines]
            where = ", ".join(f"line {line}: field '{key}'" for line, key in sorted(named))
            raise ConfigError(f"{where or path_hint}: {err}") from None

    config = ScenarioConfig(
        scenario=scenario, params=params, sweep=sweep, solver=solver,
        seed=_integer("seed", pop("seed", 42), 0),
        output_dir=Path(pop("output_dir", "out")),
        mc_samples=_integer("mc.samples", pop("mc.samples", 200), 1),
        raw_text=text)
    if entries:
        key, (lineno, _) = sorted(entries.items())[0]
        raise ConfigError(f"line {lineno}: unknown key {key!r}")
    return config


def load_config(path) -> ScenarioConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from None
    return parse_config(text, path_hint=str(path))


def config_warnings(config):
    """The sanity warnings that `eitcool validate` prints and each manifest lists."""
    warnings = []
    p = config.params
    if outside_perturbative_regime(p.rabi_pump, p.Gamma_0, p.Gamma_p1, p.Gamma_m1):
        total = p.Gamma_0 + p.Gamma_p1 + p.Gamma_m1
        warnings.append(
            f"pump Rabi {p.rabi_pump} is outside the perturbative regime "
            f"(> half the pump-excited linewidth {total}); second-order "
            "repump rates are informational only")
    if p.eta > 0.3:
        warnings.append(f"eta = {p.eta} is large for a first-order Lamb-Dicke model")
    keys = {key for _, key, _ in _parse_kv_lines(config.raw_text)}
    for key, (_, reason) in _INERT_KEYS.items():
        if key in keys:
            warnings.append(f"{key!r} has no effect: {reason}")
    # solver.fock_dim is accepted only where a scenario reads it
    if config.solver.fock_dim > 64:
        warnings.append(
            "fock_dim > 64 will be slow: each solve steps a generator on "
            "(levels x fock_dim)^2 density-matrix entries")
    return warnings


# ---------------------------------------------------------------------------
# runners

def run(config: ScenarioConfig) -> RunManifest:
    """Execute the configured scenario, writing CSVs plus a manifest.

    On a SolverError the manifest carries the status and the error instead,
    and the error propagates.  Each runner writes its CSVs after its last
    solve, so a failed run has written none.
    """
    t0 = time.perf_counter()
    outdir = config.output_dir
    outdir.mkdir(parents=True, exist_ok=True)
    try:
        files, stats = SCENARIOS[config.scenario].runner(config)
    except ops.SolverError as err:
        # an unwritable manifest must not hide the solver failure
        with contextlib.suppress(OSError):
            _write_manifest(outdir, config.scenario,
                            ["status = solver-failure", f"error = {err}"])
        raise
    outputs = {name: sha256_of(outdir / name) for name in files}
    manifest = RunManifest(
        scenario=config.scenario, config_echo=config.raw_text,
        code_version=code_version, wall_time_s=time.perf_counter() - t0,
        outputs=outputs, solver_stats=stats, warnings=config_warnings(config))
    _write_manifest(outdir, config.scenario, manifest.lines(outdir))
    return manifest


def _write_manifest(outdir, scenario, lines):
    with open(outdir / "manifest.txt", "w", newline="\n") as fh:
        fh.write(f"scenario = {scenario}\n")
        fh.writelines(f"{line}\n" for line in lines)


def _default_axis(sweep, name, **kwargs):
    return sweep.get(name, AxisSpec(name=name, **kwargs)).grid()


def _at_optimal_detuning(params, m_r):
    return params.replace(rabi_omega0=m_r, detuning=optimal_detuning(m_r))


def _absorption_grid(params, sweep):
    grid = _default_axis(sweep, "probe_detuning", start=-40.0, stop=10.0, points=2001)
    if not np.all(np.diff(grid) > 0):
        raise ValueError("probe detunings must be strictly increasing")
    return grid


def _run_absorption(config):
    grid = _absorption_grid(config.params, config.sweep)
    series = analytics.absorption_spectrum(config.params, grid)
    write_csv(config.output_dir / "absorption.csv", ["omega", "absorption"],
              np.column_stack([series.omegas, series.values]))
    return ["absorption.csv"], {"points": len(grid)}


def _rates_vs_mr_grid(params, sweep):
    m_r = _default_axis(sweep, "rabi_omega0", start=2.0, stop=12.0, points=101)
    return m_r, _at_optimal_detuning(params, m_r)


def _run_rates_vs_mr(config):
    grid, params = _rates_vs_mr_grid(config.params, config.sweep)
    report = analytics.rates(params)
    write_csv(config.output_dir / "rates_vs_mr.csv", ["m_r", "a_plus", "a_minus", "w"],
              np.column_stack([grid, report.a_plus, report.a_minus, report.w]))
    write_csv(config.output_dir / "nss_vs_mr.csv", ["m_r", "n_ss"],
              np.column_stack([grid, report.n_ss]))
    return ["rates_vs_mr.csv", "nss_vs_mr.csv"], {"points": len(grid)}


def _steady_map_grid(params, sweep):
    q_grid = _default_axis(sweep, "quality_q", start=1e3, stop=1e7, points=41, scale="log")
    t_grid = _default_axis(sweep, "temperature", start=1e-3, stop=0.1, points=34)
    q, t_k = np.meshgrid(q_grid, t_grid, indexing="ij")   # rows: Q outer, T inner
    return params.replace(quality_q=q, gamma_mech=1.0 / q, temperature=t_k, bath="thermal")


def _run_steady_map(config):
    params = _steady_map_grid(config.params, config.sweep)
    n_ss = analytics.rates(params).n_ss.ravel()
    rows = np.column_stack([params.quality_q.ravel(), params.temperature.ravel() * 1e3,
                            n_ss, np.log10(n_ss)])
    write_csv(config.output_dir / "steady_map.csv",
              ["quality_q", "temperature_mk", "n_ss", "log10_n_ss"], rows)
    return ["steady_map.csv"], {"points": len(rows)}


def _cooling_rate_grid(params, sweep):
    m_r = _default_axis(sweep, "rabi_omega0", start=4.0, stop=10.0, points=4)
    return m_r, _at_optimal_detuning(params, m_r)


def _run_cooling_rate_compare(config):
    from . import dynamics
    grid, _ = _cooling_rate_grid(config.params, config.sweep)
    p = config.params
    solver = config.solver
    lam = p.lambda_coupling
    rows, nfev, leakage = [], 0, 0.0
    for m_r in grid:
        pp = _at_optimal_detuning(p, float(m_r))
        model = build_three_level_model(pp, solver.fock_dim)
        fock_pops = np.eye(solver.fock_dim)[min(3, solver.fock_dim - 4)]
        rho0 = ops.product_state(model.space, dark_state_vector(model.space), fock_pops)
        series = dynamics.evolve(model, rho0, solver.t_final, solver.sample_count,
                                 abs_tol=solver.abs_tol)
        try:
            decay = dynamics.extract_cooling_rate(series, "n",
                                                  transient_time=5.0 / pp.gamma_total)
        except ValueError as err:
            raise ops.SolverError(f"cooling-rate fit at m_R = {m_r:g} failed: {err}") from err
        analytic = analytics.rates(pp)
        rows.append([float(m_r), decay.w_fit, analytic.w, decay.w_fit / lam,
                     analytic.w / lam, decay.n_ss_fit, decay.residual_rms,
                     decay.fit_window[0], decay.fit_window[1]])
        nfev += series.meta["nfev"]
        leakage = max(leakage, series.meta["max_leakage"])
    write_csv(config.output_dir / "cooling_rate.csv",
              ["m_r", "w_fit", "w_analytic", "w_fit_over_lambda",
               "w_analytic_over_lambda", "n_ss_fit", "residual_rms",
               "fit_t_start", "fit_t_end"], rows)
    return ["cooling_rate.csv"], {"points": len(grid), "nfev": nfev,
                                  "max_leakage": leakage}


def _robustness_grid(params, sweep):
    fraction = _default_axis(sweep, "rabi_fraction", start=-0.3, stop=0.3, points=301)
    m_r = params.rabi_omega0
    return fraction, params.replace(rabi_omega0=m_r * (1.0 + fraction),
                                    detuning=optimal_detuning(m_r), bath="thermal")


def _run_robustness(config):
    """Steady phonon number versus fractional Rabi error (three gamma_m curves)."""
    grid, params = _robustness_grid(config.params, config.sweep)
    report = analytics.rates(params)
    gamma_m_list = [0.0, TWO_PI * 10.0 / params.omega_m, TWO_PI * 100.0 / params.omega_m]
    columns = [analytics.steady_occupation(report.a_plus, report.w, report.thermal_n, gm)
               for gm in gamma_m_list]
    write_csv(config.output_dir / "robustness.csv",
              ["rabi_fraction", "n_ss_gamma_m_0hz", "n_ss_gamma_m_10hz",
               "n_ss_gamma_m_100hz"], np.column_stack([grid, *columns]))
    return ["robustness.csv"], {"points": len(grid)}


def _run_recycling_check(config):
    from . import dynamics
    p = config.params
    solver = config.solver
    curves, stats = {}, {}
    for name, builder in (("n3", build_three_level_model),
                          ("n4", build_four_level_model),
                          ("n7", build_seven_level_model)):
        model = builder(p, solver.fock_dim)
        rho0 = ops.basis_state(model.space, "-1", min(3, solver.fock_dim - 2))
        series = dynamics.evolve(model, rho0, solver.t_final, solver.sample_count,
                                 abs_tol=solver.abs_tol)
        curves[name] = series.column("n")
        stats[f"nfev_{name}"] = series.meta["nfev"]
        stats[f"coordinates_{name}"] = series.meta["coordinates"]
        stats[f"sector_{name}"] = series.meta["sector"]
        stats[f"max_leakage_{name}"] = series.meta["max_leakage"]
    write_csv(config.output_dir / "recycling.csv", ["t", "n3", "n4", "n7"],
              np.column_stack([series.times, *curves.values()]))
    for a, b in (("n3", "n4"), ("n3", "n7"), ("n4", "n7")):
        dev = np.abs(curves[a] - curves[b]) / np.maximum(curves[a], curves[b])
        stats[f"max_rel_dev_{a}_{b}"] = float(dev.max())
    return ["recycling.csv"], stats


def _run_nuclear_bath(config):
    from . import dynamics
    p = config.params
    solver = config.solver
    # default {0, 0.1, 0.5} MHz converted to omega_m units
    deltas = _default_axis(config.sweep, "delta_max",
                           values=np.array([0.0, 0.1, 0.5]) * TWO_PI * 1e6 / p.omega_m)
    mean_curves, summary_rows, nfev, leakage = [], [], 0, 0.0
    for dm in deltas:
        result = dynamics.monte_carlo_detuning(
            p, float(dm), config.mc_samples, config.seed, solver.fock_dim,
            solver.t_final, sample_count=solver.sample_count, abs_tol=solver.abs_tol)
        mean_curves.append(result.mean_n)
        summary_rows.append([float(dm), result.n_ss_mean, result.cooling_time])
        nfev += result.meta["nfev_total"]
        leakage = max(leakage, result.meta["max_leakage"])
    header = ["t"] + [f"mean_n_delta_{i}" for i in range(len(deltas))]
    write_csv(config.output_dir / "nuclear_mean_n.csv", header,
              np.column_stack([result.times, *mean_curves]))
    write_csv(config.output_dir / "nuclear_summary.csv",
              ["delta_max", "n_ss_mean", "cooling_time"], summary_rows)
    stats = {"samples": config.mc_samples, "nfev": nfev, "max_leakage": leakage,
             "deltas": ",".join(f"{d:g}" for d in deltas)}
    return ["nuclear_mean_n.csv", "nuclear_summary.csv"], stats


SCENARIOS = {
    "absorption": Scenario(
        "sideband absorption spectrum with the EIT dark dip", _run_absorption,
        axes=("probe_detuning",), positive=("gamma_total", "rabi_omega0"),
        grid=_absorption_grid),
    "rates-vs-mr": Scenario(
        "cooling/heating coefficients and net rate versus m_R", _run_rates_vs_mr,
        axes=("rabi_omega0",), positive=("gamma_total",), grid=_rates_vs_mr_grid),
    "steady-map": Scenario("log10 steady phonon number over (Q, T)", _run_steady_map,
                           axes=("quality_q", "temperature"), positive=("gamma_total",),
                           grid=_steady_map_grid),
    "cooling-rate-compare": Scenario(
        "fitted Lindblad cooling rate versus the closed form",
        _run_cooling_rate_compare, axes=("rabi_omega0",),
        sections=("solver",), positive=("gamma_total",), grid=_cooling_rate_grid),
    "robustness": Scenario(
        "steady phonon number versus fractional Rabi error", _run_robustness,
        axes=("rabi_fraction",), positive=("gamma_total",), grid=_robustness_grid,
        grid_params=("rabi_omega0",)),
    "recycling-check": Scenario("three-, four- and seven-level cooling curves",
                                _run_recycling_check, sections=("solver", "recycling")),
    "nuclear-bath": Scenario(
        "ensemble-averaged cooling under random |-1> shifts", _run_nuclear_bath,
        axes=("delta_max",), sections=("solver", "mc")),
}
