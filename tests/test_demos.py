"""Smoke runs of the demos, each in a fresh interpreter."""

import os
import re
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def run_demo(name, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    result = subprocess.run([sys.executable, str(REPO / "demos" / name)], cwd=cwd,
                            env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_closed_form_rates_demo(tmp_path):
    out = run_demo("01_closed_form_rates.py", tmp_path)
    assert "(equals A-)" in out and "(equals A+)" in out


def test_absorption_demo_writes_its_csv(tmp_path):
    assert "wrote absorption_demo.csv" in run_demo("02_absorption_dark_dip.py", tmp_path)
    lines = (tmp_path / "absorption_demo.csv").read_text().splitlines()
    assert lines[0] == "omega,absorption" and len(lines) == 2002
    assert lines[1].startswith("-40,")


def test_lindblad_cooling_curve_demo(tmp_path):
    # the one demo through evolve, extract_cooling_rate, steady_state and expectation
    out = run_demo("03_lindblad_cooling_curve.py", tmp_path)
    steady = re.search(r"^Liouvillian steady <n>: (\S+) \(rate model: (\S+);", out, re.M)
    n_ss, n_rate = float(steady[1]), float(steady[2])
    n_last = float(re.search(r"^ +160\.0 +(\S+)", out, re.M)[1])
    n_fit = float(re.search(r"^fitted tail <n> +: (\S+)", out, re.M)[1])
    # cooled from above toward the steady state; the bare-basis dressing keeps it
    # above the rate model's
    assert n_rate < n_ss < n_last
    assert abs(n_fit - n_ss) < 0.1 * n_ss


def test_recycling_models_demo(tmp_path):
    # the four- and seven-level models through evolve, end to end
    out = run_demo("04_recycling_models.py", tmp_path)
    for pair in ("3-level vs 7-level", "3-level vs 4-level"):
        assert f"max pointwise relative deviation {pair}: " in out


def test_nuclear_bath_ensemble_demo(tmp_path):
    out = run_demo("05_nuclear_bath_ensemble.py", tmp_path)
    rows = re.findall(r"^ +(\S+) +(\S+) +(\S+)   draws: \[(.*)\]$", out, re.M)
    assert [float(row[0]) for row in rows] == [0.0, 0.2, 0.5]
    # the draws print as plain floats, four per spread
    assert all(len([float(d) for d in row[3].split(", ")]) == 4 for row in rows)
    # the tail rises and the cooling time stretches as the spread grows
    tails = [float(row[1]) for row in rows]
    assert tails[0] < tails[1] < tails[2]
    cooling = [float(row[2]) for row in rows]
    assert cooling[0] <= cooling[1] <= cooling[2]
