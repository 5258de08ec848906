"""Every module-level import in the package is used somewhere in its module, and
every module-level function, class and assignment is read by some module of the
package.

`__init__.py` is left out of the import check: its imports are the public
re-exports, and they count as reads of the names they re-export.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "eitcool"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


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


def unread_definitions(sources):
    """(module, line, name) of the module-level functions, classes and assigned
    names that no module in `sources` (module name -> source) reads: as a bare
    name, as an attribute (`ops.name`) or in a `from ... import name`.

    `__getattr__` in `__init__.py` counts as read: the interpreter calls it for
    an attribute the package lacks (PEP 562).  In any other module it does not.
    """
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
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


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_every_definition_is_read():
    sources = {p.name: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    assert unread_definitions(sources) == []


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


def test_checker_counts_only_the_package_attribute_hook_as_read():
    hook = "def __getattr__(name):\n    raise AttributeError(name)\n"
    sources = {"__init__.py": hook + "def helper():\n    return 1\n", "a.py": hook}
    assert unread_definitions(sources) == [
        ("__init__.py", 3, "helper"), ("a.py", 1, "__getattr__")]


@pytest.mark.parametrize("sources", [
    {"a.py": "target = 1\nprint(target)\n"},
    {"a.py": "target = 1\n", "b.py": "from . import a\nprint(a.target)\n"},
    {"a.py": "target = 1\n", "b.py": "from .a import target\nprint(target)\n"},
    {"__init__.py": "from .a import target\n", "a.py": "target = 1\n"}],
    ids=["name", "attribute", "from-import", "re-export"])
def test_checker_counts_each_kind_of_read(sources):
    assert unread_definitions(sources) == []


def test_checker_does_not_count_a_store_as_a_read():
    sources = {"a.py": "target = 1\ntarget += 1\n"}
    assert unread_definitions(sources) == [("a.py", 1, "target")]
