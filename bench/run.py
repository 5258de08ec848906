"""eitcool benchmark: one workload per invocation, end to end or traced.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; eitcool is imported from `src/`.
The set-up is timed first: several fresh interpreters each import eitcool and
load the workload's configs, and `setup_s` is their median wall time.  Then
whole rounds of the workload's operations run until `--seconds` have passed,
and each round's outputs are checked.  The last line of standard output is
one JSON object: correct, attempted, failed and the metrics (end-to-end with
`--trace 0`, per layer with `--trace 1`).  Machine facts go on the line
before it.  Thread settings (OPENBLAS_NUM_THREADS, OMP_NUM_THREADS,
EITCOOL_THREADS) are reported as found and never changed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_REPEATS = 5
RHS_PROBE_CALLS = 100
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "EITCOOL_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def machine_facts():
    import numpy as np
    import scipy

    facts = {"nproc": os.cpu_count(),
             "affinity": len(os.sched_getaffinity(0)),
             "python": platform.python_version(),
             "numpy": np.__version__, "scipy": scipy.__version__,
             "machine": platform.machine()}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        facts["blas"] = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        facts["blas"] = "unknown"
    facts.update({var: os.environ.get(var) for var in THREAD_VARS})
    return facts


def measure_setup(configs):
    """Median wall time of fresh `import eitcool` + config loading, and the
    medians of the two parts as measured inside each child.  The first start
    in a checkout may also compile bytecode; the median leaves that out."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    cmd = [sys.executable, str(BENCH / "setup_probe.py")] + [str(c) for c in configs]
    walls, parts = [], []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=120, check=True)
        walls.append(time.perf_counter() - start)
        parts.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return (statistics.median(walls),
            statistics.median(p["import_s"] for p in parts),
            statistics.median(p["load_config_s"] for p in parts))


def rhs_probe():
    """Median seconds of one `lindblad_rhs` call on the d = 36/48/72 models
    of the recycling parameter set (fock_dim 12)."""
    from eitcool import nvmodel, operators, scenarios
    from workloads import CONFIGS

    params = scenarios.load_config(CONFIGS / "recycling.cfg").params
    out = {}
    for builder in ("build_three_level_model", "build_four_level_model",
                    "build_seven_level_model"):
        model = getattr(nvmodel, builder)(params, 12)
        rho = operators.basis_state(model.space, "-1", 3).matrix
        for _ in range(5):
            operators.lindblad_rhs(model, rho)
        times = []
        for _ in range(RHS_PROBE_CALLS):
            start = time.perf_counter()
            operators.lindblad_rhs(model, rho)
            times.append(time.perf_counter() - start)
        out[model.space.dim] = statistics.median(times)
    return out


def layer_metrics(tracer, rounds):
    """Per-layer figures per complete run (round) of the traced rounds."""
    n = len(rounds)
    evolve = tracer.named("dynamics.evolve")
    rhs_calls = sum(s["nfev"] for s in evolve)
    rates_calls, rates_s = tracer.totals["analytics.rates"]
    absorption = tracer.named("analytics.absorption_spectrum")
    absorption_points = sum(s["points"] for s in absorption)
    liouvillians = tracer.named("operators.liouvillian_matrix")
    return {
        "scenarios.run_self_s": (tracer.self_time("scenarios.run") / n, "s"),
        "nvmodel.build_s": (tracer.total("nvmodel.build") / n, "s"),
        "nvmodel.build_calls": (len(tracer.named("nvmodel.build")) / n, "count"),
        "operators.liouvillian_s": (tracer.total("operators.liouvillian_matrix") / n, "s"),
        "operators.liouvillian_mb": (
            max((s["bytes"] for s in liouvillians), default=0) / 1e6, "MB"),
        "dynamics.evolve_s": (tracer.total("dynamics.evolve") / n, "s"),
        "dynamics.rhs_calls": (rhs_calls / n, "count"),
        "dynamics.us_per_rhs_call": (
            1e6 * tracer.total("dynamics.evolve") / rhs_calls if rhs_calls else 0.0, "us"),
        "dynamics.ensemble_s": (tracer.total("dynamics.monte_carlo_detuning") / n, "s"),
        "dynamics.ensemble_busy_ratio": (tracer.ensemble_busy_ratio(), "ratio"),
        "dynamics.steady_state_s": (tracer.total("dynamics.steady_state") / n, "s"),
        "analytics.absorption_us_per_point": (
            1e6 * tracer.total("analytics.absorption_spectrum") / absorption_points
            if absorption_points else 0.0, "us"),
        "analytics.rates_us": (1e6 * rates_s / rates_calls if rates_calls else 0.0, "us"),
        "csvio.write_s": (tracer.total("csvio.write_csv") / n, "s"),
        "csvio.bytes": (sum(s["bytes"] for s in tracer.named("csvio.write_csv")) / n,
                        "bytes"),
        "csvio.sha256_s": (tracer.total("csvio.sha256_of") / n, "s"),
    }


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "eitcool" / "__init__.py").is_file():
        print(f"error: no eitcool sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import eitcool
    if Path(eitcool.__file__).resolve().parent != (SRC / "eitcool").resolve():
        print(f"error: imported eitcool from {eitcool.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from workloads import CONFIGS, WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"known: {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    cls = WORKLOADS[args.workload]
    setup_s, import_s, load_config_s = measure_setup(
        [CONFIGS / name for name in cls.configs])
    outdir = OUT / f"{args.workload}-{os.getpid()}"
    workload = cls(args.seed, outdir)

    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()

    # The first round is a warm-up: counted and checked, but not timed, so
    # that one-off costs (BLAS thread start, lazy imports) stay out of the
    # medians.  Traced and untraced rounds then alternate.
    rounds, untraced_rounds, traced_rounds, fails = [], [], [], []
    start = None
    try:
        while (start is None or not untraced_rounds
               or (tracer and not traced_rounds)
               or time.perf_counter() - start < args.seconds):
            traced = bool(tracer) and len(untraced_rounds) > len(traced_rounds)
            if traced:
                tracer.install()
            try:
                rnd = workload.run_round()
            finally:
                if traced:
                    tracer.uninstall()
            fails += workload.check_round(rnd)
            if start is None:
                start = time.perf_counter()
            else:
                (traced_rounds if traced else untraced_rounds).append(rnd)
            rounds.append(rnd)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)

    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    untraced_wall = statistics.median(r.seconds for r in untraced_rounds)
    if tracer is None:
        metrics = {
            "wall_s": (untraced_wall, "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            * 1024 / 1e6, "MB"),
            "work_per_s": (statistics.median(r.work / r.seconds
                                             for r in untraced_rounds), "work/s"),
        }
    else:
        metrics = {"cli.import_s": (import_s, "s"),
                   "scenarios.load_config_s": (load_config_s, "s")}
        metrics.update(layer_metrics(tracer, traced_rounds))
        probe = rhs_probe() if cls.probes_rhs else {}
        for dim in (36, 48, 72):
            metrics[f"operators.rhs_us_d{dim}"] = (1e6 * probe.get(dim, 0.0), "us")
        traced_wall = statistics.median(r.seconds for r in traced_rounds)
        metrics["trace.wall_s"] = (traced_wall, "s")
        metrics["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
        OUT.mkdir(parents=True, exist_ok=True)
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.json")

    for message in fails:
        print(f"check failed: {message}", file=sys.stderr)
    print("machine: " + json.dumps(machine_facts()))
    print(json.dumps({
        "correct": not fails, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
