"""Declarative figure-class experiments: config parsing, runners, manifests.

Config grammar (UTF-8, one scenario per file):
    # comment lines and blank lines are ignored
    key = value
Dotted keys select sections: params.*, solver.*, sweep.<axis>.*, mc.*, fit.*,
recycling.*; everything else is top-level (scenario, seed, output_dir).
Fields suffixed _hz / _mhz are converted to omega_m units and _mk to kelvin at
parse time, using params.omega_m_mhz (default 1.0) as the SI anchor.  Every
run is serial, and its CSV outputs are byte-reproducible for a fixed config
and seed.
"""

from __future__ import annotations

import dataclasses
import math
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__ as code_version
from . import analytics, dynamics
from . import operators as ops
from .constants import TWO_PI
from .csvio import sha256_of, write_csv, write_spectrum_csv
from .nvmodel import (build_four_level_model, build_seven_level_model,
                      build_three_level_model, dark_state_vector,
                      optimal_detuning)
from .params import ModelParams


class ConfigError(ValueError):
    """Malformed or inconsistent scenario configuration."""


SCENARIOS = {
    "absorption": "sideband absorption spectrum with the EIT dark dip",
    "rates-vs-mr": "cooling/heating coefficients and net rate versus m_R",
    "steady-map": "log10 steady phonon number over (Q, T)",
    "cooling-rate-compare": "fitted Lindblad cooling rate versus the closed form",
    "robustness": "steady phonon number versus fractional Rabi error",
    "recycling-check": "three-, four- and seven-level cooling curves",
    "nuclear-bath": "ensemble-averaged cooling under random |-1> shifts",
}

# virtual sweep axes each scenario understands (beyond ModelParams fields)
SCENARIO_AXES = {
    "absorption": ("probe_detuning",),
    "rates-vs-mr": ("rabi_omega0",),
    "steady-map": ("quality_q", "temperature"),
    "cooling-rate-compare": ("rabi_omega0",),
    "robustness": ("rabi_fraction",),
    "recycling-check": (),
    "nuclear-bath": ("delta_max",),
}

_PARAM_FIELDS = {f.name for f in dataclasses.fields(ModelParams)}
_UNIT_SUFFIXES = ("_mhz", "_hz", "_mk")


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
    rel_tol: float = 1e-7
    abs_tol: float = 1e-10
    fock_dim: int = 12
    t_final: float = 200.0
    sample_count: int = 201


@dataclass
class ScenarioConfig:
    scenario: str
    params: ModelParams = field(default_factory=ModelParams)
    sweep: dict = field(default_factory=dict)        # axis name -> AxisSpec
    solver: SolverSpec = field(default_factory=SolverSpec)
    seed: int = 42
    output_dir: Path = Path("out")
    mc_samples: int = 200
    fit_transient_over_gamma: float = 5.0
    fit_start_fraction: float = 0.2
    fit_end_fraction: float = 0.008
    recycling_sensitivity: bool = False
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

    def write(self, path):
        with open(path, "w", newline="\n") as fh:
            fh.write(f"scenario = {self.scenario}\n")
            fh.write(f"code_version = {self.code_version}\n")
            fh.write(f"wall_time_s = {self.wall_time_s:.3f}\n")
            for key, val in sorted(self.solver_stats.items()):
                fh.write(f"stat.{key} = {val}\n")
            for warning in self.warnings:
                fh.write(f"warning = {warning}\n")
            for name, digest in sorted(self.outputs.items()):
                size = os.path.getsize(os.path.join(os.path.dirname(path), name))
                fh.write(f"csv {name} sha256 {digest} bytes {size}\n")
            fh.write("# --- config echo ---\n")
            for line in self.config_echo.splitlines():
                fh.write(f"# {line}\n")


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
    try:
        return int(value)
    except ValueError:
        pass
    try:
        return float(value)
    except ValueError:
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

    omega_m_mhz = pop("params.omega_m_mhz", 1.0)
    omega_m_si = TWO_PI * omega_m_mhz * 1e6

    param_kwargs = {"omega_m": omega_m_si}
    for key in [k for k in entries if k.startswith("params.")]:
        lineno, value = entries.pop(key)
        name = key[len("params."):]
        if name != "bath":
            value = _real(key, value)
        name, value = _convert_units(name, value, omega_m_si)
        if name not in _PARAM_FIELDS:
            raise ConfigError(f"line {lineno}: unknown parameter field {name!r}")
        param_kwargs[name] = value
    try:
        params = ModelParams(**param_kwargs)
    except (TypeError, ValueError) as err:
        raise ConfigError(f"{path_hint}: invalid params: {err}") from None

    solver = SolverSpec()
    for key in [k for k in entries if k.startswith("solver.")]:
        lineno, value = entries.pop(key)
        name = key[len("solver."):]
        if not hasattr(solver, name):
            raise ConfigError(f"line {lineno}: unknown solver field {name!r}")
        if name in ("rel_tol", "abs_tol", "t_final"):
            value = _real(key, value)
        setattr(solver, name, value)
    # fock_dim >= 2: a single-level ladder carries no phonon
    _integer("solver.fock_dim", solver.fock_dim, 2)
    _integer("solver.sample_count", solver.sample_count, 2)
    if not solver.t_final > 0:
        raise ConfigError(f"field 'solver.t_final': must be > 0, got {solver.t_final}")
    for tol_name in ("rel_tol", "abs_tol"):
        tol = getattr(solver, tol_name)
        if not 0 < tol <= 1e-2:
            raise ConfigError(f"field 'solver.{tol_name}': must lie in (0, 1e-2]")

    sweep = {}
    axis_fields = {"start", "stop", "points", "scale", "values"}
    for key in [k for k in entries if k.startswith("sweep.")]:
        lineno, value = entries.pop(key)
        parts = key.split(".")
        if len(parts) != 3 or parts[2] not in axis_fields:
            raise ConfigError(f"line {lineno}: sweep keys look like "
                              f"sweep.<axis>.<{'|'.join(sorted(axis_fields))}>")
        axis_name, field_name = parts[1], parts[2]
        converted_name, _ = _convert_units(axis_name, 0.0, omega_m_si)
        spec = sweep.setdefault(axis_name, AxisSpec(name=converted_name))
        if field_name == "values":
            raw_values = [_real(key, v) for v in str(value).split(",") if v.strip() != ""]
            _, scaled = zip(*[_convert_units(axis_name, v, omega_m_si)
                              for v in raw_values]) if raw_values else ((), ())
            spec.values = tuple(scaled)
        elif field_name == "scale":
            if value not in ("lin", "log"):
                raise ConfigError(f"line {lineno}: scale must be lin or log")
            spec.scale = value
        elif field_name == "points":
            spec.points = _integer(key, value, 2)
        else:
            _, scaled = _convert_units(axis_name, _real(key, value), omega_m_si)
            setattr(spec, field_name, scaled)
    sweep = {spec.name: spec for spec in sweep.values()}

    for axis_name, spec in sweep.items():
        allowed = set(SCENARIO_AXES[scenario]) | _PARAM_FIELDS
        if axis_name not in allowed:
            raise ConfigError(
                f"field 'sweep.{axis_name}': scenario {scenario!r} does not "
                f"recognize this axis; it understands {SCENARIO_AXES[scenario]}")
        if spec.values is not None:
            if len(spec.values) < 2:
                raise ConfigError(f"field 'sweep.{axis_name}': needs >= 2 values")
        else:
            if spec.start is None or spec.stop is None or spec.points is None:
                raise ConfigError(
                    f"field 'sweep.{axis_name}': needs start, stop and points "
                    "(or an explicit values list)")
            if spec.scale == "log" and (spec.start <= 0 or spec.stop <= 0):
                raise ConfigError(
                    f"field 'sweep.{axis_name}': log scale needs positive bounds")

    # `threads` has no effect (every run is serial); it is parsed only because
    # bench/configs/*.cfg still set it.  Delete this branch, and its warning in
    # validate_config, once none of them does.
    if "threads" in entries:
        _integer("threads", pop("threads"), 1)

    config = ScenarioConfig(
        scenario=scenario, params=params, sweep=sweep, solver=solver,
        seed=_integer("seed", pop("seed", 42), 0),
        output_dir=Path(pop("output_dir", "out")),
        mc_samples=_integer("mc.samples", pop("mc.samples", 200), 1),
        fit_transient_over_gamma=_real("fit.transient_over_gamma",
                                       pop("fit.transient_over_gamma", 5.0)),
        fit_start_fraction=_real("fit.start_fraction", pop("fit.start_fraction", 0.2)),
        fit_end_fraction=_real("fit.end_fraction", pop("fit.end_fraction", 0.008)),
        recycling_sensitivity=_boolean("recycling.sensitivity",
                                       pop("recycling.sensitivity", False)),
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


def validate_config(path):
    """Full schema check plus parameter-sanity warnings; no side effects."""
    config = load_config(path)
    warnings = []
    p = config.params
    total = p.Gamma_0 + p.Gamma_p1 + p.Gamma_m1
    if total > 0 and p.rabi_pump > total / 2:
        warnings.append(
            f"pump Rabi {p.rabi_pump} is outside the perturbative regime "
            f"(> half the pump-excited linewidth {total}); second-order "
            "repump rates are informational only")
    if p.eta > 0.3:
        warnings.append(f"eta = {p.eta} is large for a first-order Lamb-Dicke model")
    if any(key == "threads" for _, key, _ in _parse_kv_lines(config.raw_text)):
        warnings.append("'threads' has no effect: every run is serial")
    needs_sim = config.scenario in ("cooling-rate-compare", "recycling-check",
                                    "nuclear-bath")
    if needs_sim and config.solver.fock_dim > 64:
        warnings.append(
            "fock_dim > 64 will be slow: each solve steps a generator on "
            "(levels x fock_dim)^2 density-matrix entries")
    return config, warnings


# ---------------------------------------------------------------------------
# runners

def run(config: ScenarioConfig) -> RunManifest:
    """Execute the configured scenario, writing CSVs plus a manifest."""
    t0 = time.perf_counter()
    outdir = config.output_dir
    outdir.mkdir(parents=True, exist_ok=True)
    runner = _RUNNERS[config.scenario]
    files, stats, warnings = runner(config)
    outputs = {name: sha256_of(outdir / name) for name in files}
    manifest = RunManifest(
        scenario=config.scenario, config_echo=config.raw_text,
        code_version=code_version, wall_time_s=time.perf_counter() - t0,
        outputs=outputs, solver_stats=stats, warnings=warnings)
    manifest.write(outdir / "manifest.txt")
    return manifest


def _default_axis(config, name, **kwargs):
    if name in config.sweep:
        return config.sweep[name].grid()
    return AxisSpec(name=name, **kwargs).grid()


def _run_absorption(config):
    grid = _default_axis(config, "probe_detuning",
                         start=-40.0, stop=10.0, points=2001)
    series = analytics.absorption_spectrum(config.params, grid)
    write_spectrum_csv(series, config.output_dir / "absorption.csv")
    return ["absorption.csv"], {"points": len(grid)}, []


def _run_rates_vs_mr(config):
    grid = _default_axis(config, "rabi_omega0", start=2.0, stop=12.0, points=101)
    p = config.params
    rate_rows, nss_rows = [], []
    for m_r in grid:
        pp = p.replace(rabi_omega0=float(m_r), detuning=optimal_detuning(m_r))
        report = analytics.rates(pp)
        rate_rows.append([float(m_r), report.a_plus, report.a_minus, report.w])
        nss_rows.append([float(m_r), report.n_ss])
    write_csv(config.output_dir / "rates_vs_mr.csv",
              ["m_r", "a_plus", "a_minus", "w"], rate_rows)
    write_csv(config.output_dir / "nss_vs_mr.csv", ["m_r", "n_ss"], nss_rows)
    return ["rates_vs_mr.csv", "nss_vs_mr.csv"], {"points": len(grid)}, []


def _run_steady_map(config):
    q_grid = _default_axis(config, "quality_q", start=1e3, stop=1e7,
                           points=41, scale="log")
    t_grid = _default_axis(config, "temperature", start=1e-3, stop=0.1, points=34)
    p = config.params
    rows = []
    for q in q_grid:
        for t_k in t_grid:
            pp = p.replace(quality_q=float(q), gamma_mech=1.0 / float(q),
                           temperature=float(t_k), bath="thermal")
            n_ss = analytics.rates(pp).n_ss
            rows.append([float(q), float(t_k) * 1e3, n_ss, float(np.log10(n_ss))])
    write_csv(config.output_dir / "steady_map.csv",
              ["quality_q", "temperature_mk", "n_ss", "log10_n_ss"], rows)
    return ["steady_map.csv"], {"points": len(rows)}, []


def _run_cooling_rate_compare(config):
    grid = _default_axis(config, "rabi_omega0", start=4.0, stop=10.0, points=4)
    p = config.params
    solver = config.solver
    lam = p.lambda_coupling
    rows, nfev = [], 0
    for m_r in grid:
        pp = p.replace(rabi_omega0=float(m_r), detuning=optimal_detuning(m_r))
        model = build_three_level_model(pp, solver.fock_dim)
        rho0 = _dark_fock_state(model.space, min(3, solver.fock_dim - 4))
        series = dynamics.evolve(model, rho0, solver.t_final, solver.sample_count,
                                 rel_tol=solver.rel_tol, abs_tol=solver.abs_tol)
        fit = dynamics.extract_cooling_rate(
            series, "n",
            transient_time=config.fit_transient_over_gamma / pp.gamma_total,
            start_fraction=config.fit_start_fraction,
            end_fraction=config.fit_end_fraction)
        analytic = analytics.rates(pp)
        rows.append([float(m_r), fit.w_fit, analytic.w, fit.w_fit / lam,
                     analytic.w / lam, fit.n_ss_fit, fit.residual_rms,
                     fit.fit_window[0], fit.fit_window[1]])
        nfev += series.meta["nfev"]
    write_csv(config.output_dir / "cooling_rate.csv",
              ["m_r", "w_fit", "w_analytic", "w_fit_over_lambda",
               "w_analytic_over_lambda", "n_ss_fit", "residual_rms",
               "fit_t_start", "fit_t_end"], rows)
    return ["cooling_rate.csv"], {"points": len(grid), "nfev": nfev}, []


def _dark_fock_state(space, n0):
    pops = np.zeros(space.fock_dim)
    pops[n0] = 1.0
    return ops.product_state(space, dark_state_vector(space), pops)


def robustness_sweep(config):
    """Steady phonon number versus fractional Rabi error (three gamma_m curves)."""
    grid = _default_axis(config, "rabi_fraction", start=-0.3, stop=0.3, points=301)
    p = config.params
    m_r = p.rabi_omega0
    delta = optimal_detuning(m_r)
    gamma_m_list = [0.0, TWO_PI * 10.0 / p.omega_m, TWO_PI * 100.0 / p.omega_m]
    rows = []
    for f in grid:
        pp = p.replace(rabi_omega0=m_r * (1.0 + float(f)), detuning=delta,
                       bath="thermal")
        report = analytics.rates(pp)
        rows.append([float(f)] + [
            analytics.steady_occupation(report.a_plus, report.w, report.thermal_n, gm)
            for gm in gamma_m_list])
    write_csv(config.output_dir / "robustness.csv",
              ["rabi_fraction", "n_ss_gamma_m_0hz", "n_ss_gamma_m_10hz",
               "n_ss_gamma_m_100hz"], rows)
    return ["robustness.csv"], {"points": len(grid)}, []


def _run_recycling_check(config):
    p = config.params
    solver = config.solver
    builders = [("n3", build_three_level_model),
                ("n4", build_four_level_model),
                ("n7", build_seven_level_model)]
    curves, stats, warnings = {}, {}, []

    def cooling_curve(model):
        rho0 = ops.basis_state(model.space, "-1", min(3, solver.fock_dim - 2))
        return dynamics.evolve(model, rho0, solver.t_final, solver.sample_count,
                               rel_tol=solver.rel_tol, abs_tol=solver.abs_tol)

    for name, builder in builders:
        series = cooling_curve(builder(p, solver.fock_dim))
        curves[name] = series.column("n")
        stats[f"nfev_{name}"] = series.meta["nfev"]
    times = series.times
    rows = [[times[k], curves["n3"][k], curves["n4"][k], curves["n7"][k]]
            for k in range(len(times))]
    write_csv(config.output_dir / "recycling.csv", ["t", "n3", "n4", "n7"], rows)
    for a, b in (("n3", "n4"), ("n3", "n7"), ("n4", "n7")):
        dev = np.abs(curves[a] - curves[b]) / np.maximum(curves[a], curves[b])
        stats[f"max_rel_dev_{a}_{b}"] = float(dev.max())

    files = ["recycling.csv"]
    if config.recycling_sensitivity:
        # The printed master equations leave the energies of the pump pair
        # |0>, |E_y> and of |1A1> unassigned.  Neither block is coupled
        # coherently to the rest, only by jumps, which carry populations, so a
        # common shift of either block must leave <n(t)> where it is.  (A shift
        # of |0> alone is not free: it is pump_detuning again.)
        rows, shift = [], 10.0
        base_final = curves["n7"][-1]
        base = build_seven_level_model(p, solver.fock_dim)
        for key, levels in (("omega_0", ("0", "Ey")), ("omega_s", ("1A1",))):
            for offset in (shift, -shift):
                H = base.hamiltonian
                for level in levels:
                    H = H - offset * ops.transition(base.space, level, level)
                model = ops.LindbladModel(base.space, H, base.channels,
                                          base.observables)
                final = cooling_curve(model).column("n")[-1]
                rows.append([key, offset, final,
                             abs(final - base_final) / base_final])
        write_csv(config.output_dir / "offset_sensitivity.csv",
                  ["offset_name", "offset_value", "final_n", "rel_change"], rows)
        files.append("offset_sensitivity.csv")
        worst = max(r[3] for r in rows)
        stats["offset_sensitivity_max_rel_change"] = worst
        if worst > 0.01:
            warnings.append(
                f"rotating-frame offsets moved final <n> by {worst:.3%}")
    return files, stats, warnings


def _run_nuclear_bath(config):
    p = config.params
    solver = config.solver
    axis = config.sweep.get("delta_max")
    if axis is not None:
        deltas = axis.grid()
    else:
        # {0, 0.1, 0.5} MHz converted to omega_m units
        deltas = np.array([0.0, 0.1, 0.5]) * TWO_PI * 1e6 / p.omega_m
    mean_rows, summary_rows, nfev = None, [], 0
    for dm in deltas:
        result = dynamics.monte_carlo_detuning(
            p, float(dm), config.mc_samples, config.seed, solver.fock_dim,
            solver.t_final, sample_count=solver.sample_count,
            rel_tol=solver.rel_tol, abs_tol=solver.abs_tol)
        if mean_rows is None:
            mean_rows = [[float(t)] for t in result.times]
        for k, v in enumerate(result.mean_n):
            mean_rows[k].append(float(v))
        summary_rows.append([float(dm), result.n_ss_mean, result.cooling_time])
        nfev += result.meta["nfev_total"]
    header = ["t"] + [f"mean_n_delta_{i}" for i in range(len(deltas))]
    write_csv(config.output_dir / "nuclear_mean_n.csv", header, mean_rows)
    write_csv(config.output_dir / "nuclear_summary.csv",
              ["delta_max", "n_ss_mean", "cooling_time"], summary_rows)
    stats = {"samples": config.mc_samples, "nfev": nfev,
             "deltas": ",".join(f"{d:g}" for d in deltas)}
    return ["nuclear_mean_n.csv", "nuclear_summary.csv"], stats, []


_RUNNERS = {
    "absorption": _run_absorption,
    "rates-vs-mr": _run_rates_vs_mr,
    "steady-map": _run_steady_map,
    "cooling-rate-compare": _run_cooling_rate_compare,
    "robustness": robustness_sweep,
    "recycling-check": _run_recycling_check,
    "nuclear-bath": _run_nuclear_bath,
}
