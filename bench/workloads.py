"""The four benchmark workloads.

A workload runs whole rounds of the same operations.  `run_round()` returns
the operations attempted and failed, the compute seconds of the round and
the work done, in the workload's own unit (grid points, omega_m^-1 of model
time, steady states), which `work_per_s` divides by the seconds;
`check_round()` checks that round's outputs.  eitcool is driven only through
`eitcool.cli.main` and, where no scenario reaches the layer,
`eitcool.dynamics.steady_state`.
"""

from __future__ import annotations

import contextlib
import io
import time
from pathlib import Path

import numpy as np

import checks
from eitcool import cli, dynamics, nvmodel, operators, scenarios

CONFIGS = Path(__file__).resolve().parent / "configs"


class Round:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.seconds = 0.0
        self.work = 0.0          # points, model time or states, per workload
        self.outputs = []        # per successful operation, for the checks


def run_cli(config, outdir, seed):
    """`eitcool run` through the CLI entry point; (exit code, seconds)."""
    argv = ["run", str(config), "--output-dir", str(outdir), "--seed", str(seed)]
    with contextlib.redirect_stdout(io.StringIO()):
        start = time.perf_counter()
        code = cli.main(argv)
        seconds = time.perf_counter() - start
    return code, seconds


class ScenarioWorkload:
    """Operations are `eitcool run` invocations, one per config in a round."""

    configs = ()
    probes_rhs = False

    def __init__(self, seed, outdir):
        self.seed = seed
        self.outdir = Path(outdir)
        self.loaded = {name: scenarios.load_config(CONFIGS / name)
                       for name in self.configs}
        self.first_hashes = None

    def run_round(self):
        rnd = Round()
        for name in self.configs:
            outdir = self.outdir / Path(name).stem
            code, seconds = run_cli(CONFIGS / name, outdir, self.seed)
            rnd.attempted += 1
            rnd.seconds += seconds
            if code != 0:
                rnd.failed += 1
                continue
            rnd.work += self.work_of(self.loaded[name])
            rnd.outputs.append((name, outdir))
        return rnd

    def check_round(self, rnd):
        """Full checks on the first round; later rounds must hash the same."""
        fails = []
        for _, outdir in rnd.outputs:
            fails += checks.check_manifest(outdir)
        hashes = {name: checks.read_manifest_hashes(outdir / "manifest.txt")
                  for name, outdir in rnd.outputs}
        if self.first_hashes is None:
            self.first_hashes = hashes
            for name, outdir in rnd.outputs:
                fails += self.check_outputs(name, outdir)
        else:
            fails += checks.check_same_hashes(self.first_hashes, hashes)
        return fails


class ClosedForms(ScenarioWorkload):
    configs = ("absorption.cfg", "rates_vs_mr.cfg", "steady_map.cfg",
               "robustness.cfg")

    @staticmethod
    def work_of(config):
        """Grid points of the scenario."""
        return int(np.prod([len(axis.grid()) for axis in config.sweep.values()]))

    def check_outputs(self, name, outdir):
        params = self.loaded[name].params
        if name == "absorption.cfg":
            data = checks.read_csv(outdir / "absorption.csv")
            return checks.check_absorption(data[:, 0], data[:, 1],
                                           params.rabi_omega0, params.detuning)
        if name == "rates_vs_mr.cfg":
            data = checks.read_csv(outdir / "rates_vs_mr.csv")
            return checks.check_rates_vs_mr(
                data[:, 0], data[:, 1], data[:, 2], params.gamma_total, params.eta,
                omega_m_mhz=params.omega_m / (2 * np.pi * 1e6))
        if name == "steady_map.cfg":
            data = checks.read_csv(outdir / "steady_map.csv")
            return checks.check_steady_map(data[:, 0], data[:, 1], data[:, 2])
        data = checks.read_csv(outdir / "robustness.csv")
        return checks.check_robustness(data[:, 0], [data[:, k] for k in (1, 2, 3)])


class RecyclingEvolve(ScenarioWorkload):
    configs = ("recycling.cfg",)
    probes_rhs = True

    @staticmethod
    def work_of(config):
        """Model time integrated: three models over t_final."""
        return 3 * config.solver.t_final

    def check_outputs(self, name, outdir):
        data = checks.read_csv(outdir / "recycling.csv")
        return checks.check_recycling(
            data[:, 0], {"n3": data[:, 1], "n4": data[:, 2], "n7": data[:, 3]})


class NuclearEnsemble(ScenarioWorkload):
    configs = ("nuclear_bath.cfg",)
    probes_rhs = True

    @staticmethod
    def work_of(config):
        """Model time integrated over every realization of every spread."""
        spreads = len(config.sweep["delta_max"].grid())
        return spreads * config.mc_samples * config.solver.t_final

    def check_outputs(self, name, outdir):
        data = checks.read_csv(outdir / "nuclear_summary.csv")
        return checks.check_nuclear_tails(data[:, 0], data[:, 1])


class SteadyStates:
    """`dynamics.steady_state` on seeded parameter points.

    Each round draws one point (Omega_0, Gamma, eta; Delta at the
    red-sideband optimum) and solves the three- and four-level models at
    fock_dim 8 (d = 24 and 32).
    """

    configs = ("steady_states.cfg",)
    probes_rhs = False
    MODELS = (("build_three_level_model", 8), ("build_four_level_model", 8))

    def __init__(self, seed, outdir):
        self.base = scenarios.load_config(CONFIGS / self.configs[0]).params
        self.rng = np.random.default_rng(seed)

    def draw_point(self):
        m_r = self.rng.uniform(6.0, 10.0)
        gamma = self.rng.uniform(10.0, 20.0)
        eta = self.rng.uniform(0.08, 0.13)
        return self.base.replace(
            rabi_omega0=m_r, detuning=nvmodel.optimal_detuning(m_r),
            gamma_total=gamma, gamma_plus=gamma / 2, gamma_minus=gamma / 2,
            gamma_p1=gamma / 2, gamma_m1=gamma / 2, eta=eta, lambda_coupling=eta)

    def run_round(self):
        rnd = Round()
        params = self.draw_point()
        for builder, fock_dim in self.MODELS:
            rnd.attempted += 1
            start = time.perf_counter()
            try:
                model = getattr(nvmodel, builder)(params, fock_dim)
                rho = dynamics.steady_state(model)
            except (ValueError, operators.DimensionError):
                rnd.failed += 1
                continue
            finally:
                rnd.seconds += time.perf_counter() - start
            rnd.work += 1
            rnd.outputs.append((model, rho))
        return rnd

    def check_round(self, rnd):
        fails = []
        for model, rho in rnd.outputs:
            fails += checks.check_steady_state(
                rho.matrix, model.hamiltonian.matrix,
                [(rate, jump.matrix) for rate, jump in model.channels],
                list(model.space.internal_labels), model.space.fock_dim)
        return fails


WORKLOADS = {
    "closed-forms": ClosedForms,
    "recycling-evolve": RecyclingEvolve,
    "nuclear-ensemble": NuclearEnsemble,
    "steady-states": SteadyStates,
}
