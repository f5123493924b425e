"""No module of coxkit imports a name it never uses, and every coxkit name
the benchmark harness reaches exists.

``__init__.py`` is left out of the first check: its imports are the
package's re-exports.
"""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "coxkit"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text("utf-8"), str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(set(_imported_names(tree)) - used) == []


PERFBENCH = PACKAGE.parent.parent / "perfbench"


def _parse(name):
    path = PERFBENCH / name
    return ast.parse(path.read_text("utf-8"), str(path))


def test_every_traced_function_exists():
    # the span tracer looks each one up with getattr when it installs, so a
    # missing name crashes every traced benchmark run; the file is parsed,
    # not run
    import coxkit

    traced = next(ast.literal_eval(node.value) for node in _parse("spans.py").body
                  if isinstance(node, ast.Assign)
                  and any(getattr(t, "id", None) == "TRACED" for t in node.targets))
    missing = [f"{module}.{name}" for module, names in traced.items() for name in names
               if not callable(getattr(getattr(coxkit, module, None), name, None))]
    assert traced and missing == []


def test_every_name_the_workloads_read_exists():
    import importlib

    names = set()
    for node in ast.walk(_parse("workloads.py")):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "coxkit"):
            names.add(("coxkit", node.attr))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("coxkit"):
            names.update((node.module, alias.name) for alias in node.names)
    missing = sorted(f"{module}.{name}" for module, name in names
                     if not hasattr(importlib.import_module(module), name))
    assert names and missing == []
