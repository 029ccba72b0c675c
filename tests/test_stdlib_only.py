"""The package imports nothing outside the standard library and itself."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "bundle_arith"


def test_imports_are_relative_or_stdlib():
    paths = sorted(SRC.glob("*.py"))
    assert paths
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
