"""The package imports only the standard library and itself; the shared
oracles in bench/oracle.py import only the standard library."""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "bundle_arith"
# The oracles the tests and the benchmark share: with the standard library
# alone they stay independent of the package they check.
ORACLE = ROOT / "bench" / "oracle.py"


def test_imports_are_relative_or_stdlib():
    paths = sorted(SRC.glob("*.py")) + [ORACLE]
    assert ORACLE.is_file() and len(paths) > 1
    foreign = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text("utf-8"), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            foreign += [
                f"{path.name}: {name}"
                for name in names
                if name.partition(".")[0] not in sys.stdlib_module_names
            ]
    assert not foreign, foreign


# the modules each module may import from the package; the rest may import any
LAYERS = {
    "cohomology": {"errors"},
    "diophantine": {"errors"},
    "rank2": {"errors"},
    "rank3": {"cohomology", "errors"},
}


def _package_imports(path):
    """The package modules that ``path`` imports relatively."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text("utf-8"), str(path))):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                found.add(node.module.partition(".")[0])
            else:
                found.update(alias.name for alias in node.names)
    return found


def test_layers_import_only_below_them():
    found = {name: _package_imports(SRC / f"{name}.py") for name in LAYERS}
    assert found == LAYERS


def _private_stdlib_names(source):
    """``m._name`` and ``from m import _name`` for stdlib modules ``m``, with lines.

    Base classes are attribute nodes too, so subclassing is included.
    """
    tree = ast.parse(source)
    modules = {
        alias.asname or alias.name.partition(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
        if alias.name.partition(".")[0] in sys.stdlib_module_names
    }
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            names = [f"{node.value.id}.{node.attr}"]
        elif (isinstance(node, ast.ImportFrom) and not node.level
              and node.module.partition(".")[0] in sys.stdlib_module_names):
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        found += [
            (node.lineno, name)
            for name in names
            if name.rpartition(".")[2].startswith("_") and not name.endswith("__")
        ]
    return found


def test_detector_sees_private_names():
    source = (
        "import argparse\n"
        "from argparse import _SubParsersAction\n"
        "class A(argparse._SubParsersAction): pass\n"
        "x = argparse.ArgumentParser()._actions\n"
        "y = argparse.__name__\n"
        "from . import _local\n"
    )
    assert _private_stdlib_names(source) == [
        (2, "argparse._SubParsersAction"),
        (3, "argparse._SubParsersAction"),
    ]


def test_no_private_stdlib_names():
    # a private name can change in any Python release, and the package allows >= 3.10
    found = [
        f"{path.name}:{line}: {name}"
        for path in sorted(SRC.glob("*.py"))
        for line, name in _private_stdlib_names(path.read_text("utf-8"))
    ]
    assert not found, found


def _scopes(source, matches):
    """The enclosing ``def``/``class`` path of each node in ``source`` that ``matches``."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}"
            elif matches(child):
                found.append(scope)
            visit(child, inner)

    visit(ast.parse(source), "")
    return found


def _is_object_new(node):
    return (isinstance(node, ast.Attribute) and node.attr == "__new__"
            and isinstance(node.value, ast.Name) and node.value.id == "object")


def _is_dict_attribute(node):
    return isinstance(node, ast.Attribute) and node.attr == "__dict__"


def _raises_consistency_error(node):
    if not isinstance(node, ast.Raise):
        return False
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "ConsistencyError"


def _package_scopes(matches):
    return sorted(
        f"{path.stem}{scope}"
        for path in SRC.glob("*.py")
        for scope in _scopes(path.read_text("utf-8"), matches)
    )


def test_only_the_two_law_builders_skip_the_constructor():
    # An unchecked builder is kept only where it skips real validation (parity,
    # alpha, feasibility) on results valid by proof, on a timed path.
    assert _package_scopes(_is_object_new) == ["rank2._class", "rank3._class"]


def test_dict_detector_sees_every_dict_attribute():
    source = (
        "class A:\n"
        "    def __init__(self):\n"
        "        self.__dict__.update(x=1)\n"
        "def build():\n"
        "    v = object.__new__(A)\n"
        "    v.__dict__['x'] = 1\n"
        "    return type(v).__dict__\n"
    )
    assert _scopes(source, _is_dict_attribute) == [".A.__init__", ".build", ".build"]


def test_no_instance_dict_stores():
    # The value classes keep their fields in slots, stored through the slots'
    # descriptors; a dict-backed store would cost the hot constructors again.
    assert _package_scopes(_is_dict_attribute) == []


def test_no_scope_raises_consistency_error():
    # Checks that guard theorems live in the tests as proofs, and every bad
    # input is a DomainError: exit 3 is left to a failing report.
    assert _scopes("def f():\n    raise ConsistencyError('x')\n", _raises_consistency_error) == [".f"]
    assert _package_scopes(_raises_consistency_error) == []
