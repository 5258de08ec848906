"""Only the solver loads scipy: `eitcool.dynamics` and the simulated scenarios
that call it.  `import eitcool`, the config tools, the closed-form runs and the
closed-form oracles load numpy only, which is most of their cold start saved.
`import eitcool` loads neither `fractions` nor `decimal`."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import eitcool
from eitcool import dynamics, operators

REPO = Path(__file__).resolve().parent.parent
CONFIGS = sorted((REPO / "configs").glob("*.cfg"))
CLOSED_FORMS = ["absorption", "rates_vs_mr", "steady_map", "robustness"]
SOLVER_NAMES = ["CoolingFit", "LeakageError", "MonteCarloResult", "SolverError",
                "TimeSeries", "evolve", "extract_cooling_rate",
                "monte_carlo_detuning", "steady_state"]


def modules_after(code, *args):
    """The modules loaded once a fresh interpreter has run `code`."""
    script = textwrap.dedent(code) + textwrap.dedent("""
        import json, sys
        print(json.dumps(sorted(sys.modules)))
        """)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    result = subprocess.run([sys.executable, "-c", script, *map(str, args)],
                            env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


def scipy_modules_after(code, *args):
    """The scipy modules loaded once a fresh interpreter has run `code`."""
    return [m for m in modules_after(code, *args) if m.startswith("scipy")]


def test_import_loads_no_exact_arithmetic():
    # the CSV writer builds its power-of-ten table from Python ints on first use
    loaded = modules_after("import eitcool")
    assert "eitcool.csvio" in loaded
    assert "fractions" not in loaded and "decimal" not in loaded


def test_import_loads_no_scipy():
    assert scipy_modules_after("""
        import eitcool
        from eitcool import scenarios
        """) == []


def test_config_tools_load_no_scipy():
    assert len(CONFIGS) == 7
    assert scipy_modules_after("""
        import sys
        from eitcool import cli, scenarios
        for path in sys.argv[1:]:
            scenarios.load_config(path)
            assert cli.main(["validate", path]) == 0
        """, *CONFIGS) == []


def test_list_scenarios_loads_no_scipy():
    assert scipy_modules_after("""
        from eitcool import cli
        assert cli.main(["list-scenarios"]) == 0
        """) == []


@pytest.mark.parametrize("name", CLOSED_FORMS)
def test_closed_form_run_loads_no_scipy(name, tmp_path):
    assert scipy_modules_after("""
        import sys
        from eitcool import cli
        assert cli.main(["run", sys.argv[1], "--output-dir", sys.argv[2]]) == 0
        """, REPO / "configs" / f"{name}.cfg", tmp_path) == []
    assert sorted(tmp_path.glob("*.csv"))


def test_closed_form_oracles_load_no_scipy():
    assert scipy_modules_after("""
        from eitcool.analytics import correlation_transform_numeric, rate_equation_evolve
        from eitcool.params import ModelParams
        rate_equation_evolve(0.02, 0.4, 0.01, 1.2, [1.0], 30.0, 31, 40)
        correlation_transform_numeric(ModelParams(), 1.0, method="quadrature")
        """) == []


def test_solver_loads_scipy_linalg():
    assert "scipy.linalg" in scipy_modules_after("import eitcool.dynamics")


def test_root_resolves_the_solver_names_from_dynamics():
    for name in SOLVER_NAMES:
        assert getattr(eitcool, name) is getattr(dynamics, name)
    assert dynamics.SolverError is operators.SolverError
    assert dynamics.LeakageError is operators.LeakageError
    with pytest.raises(AttributeError, match="no_such_name"):
        eitcool.no_such_name
