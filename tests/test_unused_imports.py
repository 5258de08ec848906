"""Every module-level import in the package is used somewhere in its module, and
every module-level function, class and assignment is read by product code: a
package module, a demo or a bench script.

`__init__.py` is left out of the import check: its imports are the public
re-exports.  They do not count as reads either, so a name that only the tests
call is flagged; its place is beside the tests (`tests/oracles.py`).  A name
kept in the package without a reader needs an entry in `UNREAD_ALLOWED`, with
its reason.
"""

import ast
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "eitcool"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
DEMOS = sorted((REPO / "demos").glob("*.py"))
BENCH = sorted(p for p in (REPO / "bench").glob("*.py") if not p.name.startswith("test_"))

# (module, name) -> why the package keeps a definition that no product code reads
UNREAD_ALLOWED = {
    ("effective.py", "renormalized_decays"):
        "the three-level decays gamma_+- = gamma_+-1 + Gamma_op^+-1; the "
        "recycling-check runner is to derive its decays from it (ROADMAP item 19)",
    ("nvmodel.py", "lamb_dicke_from_physical"):
        "the paper's lambda = g_e mu_B B' x0 / hbar from SI quantities, the one "
        "link from a laboratory gradient to eta",
}


def unused_imports(source):
    """Names bound by module-level imports that the module never reads."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in used)


def names_read(tree, imports=True, strings=False):
    """Names a module reads: bare-name loads, attributes (`ops.name`), with
    `imports` the names of a `from ... import`, and with `strings` every string
    literal (a function wrapped by name, as bench/spans.py does)."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and imports:
            read.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and strings:
            read.add(node.value)
    return read


def unread_definitions(package, demos=(), bench=()):
    """(module, line, name) of the module-level functions, classes and assigned
    names of `package` (module name -> source) that no product code reads: a
    package module, where a re-export in `__init__.py` does not count, a demo
    or a bench script (sources), where a string literal counts as well.

    `__getattr__` in `__init__.py` counts as read: the interpreter calls it for
    an attribute the package lacks (PEP 562).  In any other module it does not.
    """
    trees = {module: ast.parse(source) for module, source in package.items()}
    read = set()
    for module, tree in trees.items():
        read |= names_read(tree, imports=module != "__init__.py")
    for source in demos:
        read |= names_read(ast.parse(source))
    for source in bench:
        read |= names_read(ast.parse(source), strings=True)
    unread = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                named = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                named = [t.id for target in targets for t in ast.walk(target)
                         if isinstance(t, ast.Name)]
            else:
                continue
            unread += [(module, node.lineno, name) for name in named if name not in read
                       and (module, name) != ("__init__.py", "__getattr__")]
    return sorted(unread)


def allowlist_mismatch(unread, allowed):
    """(unread definitions without an entry, entries for no unread definition)."""
    found = {(module, name) for module, _, name in unread}
    return sorted(found - set(allowed)), sorted(set(allowed) - found)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_every_definition_is_read():
    package = {p.name: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    unread = unread_definitions(package, [p.read_text(encoding="utf-8") for p in DEMOS],
                                [p.read_text(encoding="utf-8") for p in BENCH])
    assert allowlist_mismatch(unread, UNREAD_ALLOWED) == ([], [])


def test_package_imports_nothing_from_the_tests():
    tests = {p.stem for p in Path(__file__).parent.glob("*.py")} | {"tests"}
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            assert not {m.split(".")[0] for m in modules} & tests, (path.name, node.lineno)


def test_checker_flags_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os\nimport numpy as np\nfrom math import pi, tau\n"
              "x = np.zeros(1) * tau\n")
    assert unused_imports(source) == [(2, "os"), (4, "pi")]


def test_checker_flags_an_unread_definition():
    sources = {
        "__init__.py": "from .a import exported\n",
        "a.py": ("LIMIT = 3\n_DEAD, _ALSO = 1, 2\n"
                 "def exported():\n    return helper() + LIMIT\n"
                 "def helper():\n    return 1\n"
                 "def orphan():\n    return exported()\n"
                 "class Unused:\n    pass\n"),
        "b.py": "from . import a\nvalue: int = a._ALSO\n",
    }
    assert unread_definitions(sources) == [
        ("a.py", 2, "_DEAD"), ("a.py", 7, "orphan"), ("a.py", 9, "Unused"),
        ("b.py", 2, "value")]


def test_checker_flags_a_name_that_is_only_re_exported():
    sources = {"__init__.py": "from .a import target\n", "a.py": "target = 1\n"}
    assert unread_definitions(sources) == [("a.py", 1, "target")]


def test_checker_counts_only_the_package_attribute_hook_as_read():
    hook = "def __getattr__(name):\n    raise AttributeError(name)\n"
    sources = {"__init__.py": hook + "def helper():\n    return 1\n", "a.py": hook}
    assert unread_definitions(sources) == [
        ("__init__.py", 3, "helper"), ("a.py", 1, "__getattr__")]


@pytest.mark.parametrize("sources", [
    {"a.py": "target = 1\nprint(target)\n"},
    {"a.py": "target = 1\n", "b.py": "from . import a\nprint(a.target)\n"},
    {"a.py": "target = 1\n", "b.py": "from .a import target\nprint(target)\n"}],
    ids=["name", "attribute", "from-import"])
def test_checker_counts_each_kind_of_read(sources):
    assert unread_definitions(sources) == []


@pytest.mark.parametrize("demos, bench", [
    (["from eitcool import target\n"], []),
    (["import eitcool.a as a\nprint(a.target)\n"], []),
    ([], ["from eitcool.a import target\n"]),
    ([], ["WRAPPED = ('a.target', 'target')\n"])],
    ids=["demo-import", "demo-attribute", "bench-import", "bench-string"])
def test_checker_counts_a_read_in_a_demo_or_in_bench(demos, bench):
    sources = {"__init__.py": "from .a import target\n", "a.py": "target = 1\n"}
    assert unread_definitions(sources, demos, bench) == []


def test_checker_counts_a_string_only_in_bench():
    sources = {"a.py": "target = 1\nNAMES = ('target',)\nprint(NAMES)\n"}
    assert unread_definitions(sources, ["print('target')\n"]) == [("a.py", 1, "target")]


def test_checker_does_not_count_a_store_as_a_read():
    sources = {"a.py": "target = 1\ntarget += 1\n"}
    assert unread_definitions(sources) == [("a.py", 1, "target")]


def test_allowlist_flags_new_and_stale_entries():
    unread = [("a.py", 1, "kept"), ("a.py", 3, "new")]
    allowed = {("a.py", "kept"): "reason", ("b.py", "read_now"): "reason"}
    assert allowlist_mismatch(unread, allowed) == (
        [("a.py", "new")], [("b.py", "read_now")])
    assert allowlist_mismatch(unread[:1], {("a.py", "kept"): "reason"}) == ([], [])
