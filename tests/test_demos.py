"""Smoke runs of the closed-form demos, each in a fresh interpreter."""

import os
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
