"""The package's internal import graph is one-way and fully visible at module top,
and every public name it defines is used inside it."""

import ast
import graphlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "overhang"
MODULES = {path.stem: path for path in sorted(PACKAGE.glob("*.py"))}


def _overhang_imports(tree: ast.Module):
    """(node, imported module) for every overhang import anywhere in the tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module is not None:
            names = [node.module]
            if node.module == "overhang":  # `from overhang import ledger, schedule`
                names = [f"overhang.{alias.name}" for alias in node.names]
        else:
            continue
        for name in names:
            parts = name.split(".")
            if parts[0] == "overhang":
                target = parts[1] if len(parts) > 1 and parts[1] in MODULES else "__init__"
                yield node, target


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def test_import_graph_is_acyclic():
    graph = {
        module: {target for _, target in _overhang_imports(_parse(path))}
        for module, path in MODULES.items()
    }
    try:
        tuple(graphlib.TopologicalSorter(graph).static_order())
    except graphlib.CycleError as exc:
        pytest.fail(f"import cycle: {' -> '.join(exc.args[1])}")


@pytest.mark.parametrize("module", sorted(MODULES))
def test_overhang_imports_sit_at_module_top(module):
    """No overhang import hides in a function or an `if TYPE_CHECKING:` block."""
    tree = _parse(MODULES[module])
    top_level = set(map(id, tree.body))
    hidden = [
        f"line {node.lineno}: import of overhang.{target}"
        for node, target in _overhang_imports(tree)
        if id(node) not in top_level
    ]
    assert not hidden, f"{module}: {hidden}"


def test_sharding_and_schedules_load_no_numpy():
    """Only the frontier needs numpy, and the package itself imports no module."""
    probe = "import sys, overhang.mechanisms, overhang.schedule; print('numpy' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "False"


# Public names that only the acceptance criteria or the benchmark call.
UNREFERENCED_IN_SRC = (
    "cost_of",
    "apply_burn",
    "relative_impact_with_growth",
    "dms_step",
    "overshoot_path",
)


def test_every_public_name_is_referenced_in_src():
    """Each top-level public def and class, and each public method, property
    and classmethod of a public class, is named somewhere in the package,
    through a name, an attribute or an import, so none is kept alive by the
    tests alone. Enum members are not scanned: the CLI reaches them by
    iteration."""
    trees = [_parse(path) for path in MODULES.values()]
    referenced = set()
    for node in (node for tree in trees for node in ast.walk(tree)):
        if isinstance(node, ast.Name):
            referenced.add(node.id)
        elif isinstance(node, ast.Attribute):
            referenced.add(node.attr)
        elif isinstance(node, ast.alias):
            referenced.add(node.name)
    public = [
        node
        for tree in trees
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    ]
    defined = [node.name for node in public]
    assert set(UNREFERENCED_IN_SRC) <= set(defined)
    unreferenced = sorted(set(defined) - referenced - set(UNREFERENCED_IN_SRC))
    assert not unreferenced, f"only the tests use {unreferenced}"
    unreferenced = [
        f"{cls.name}.{node.name}"
        for cls in public
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.FunctionDef)
        and not node.name.startswith("_")
        and node.name not in referenced
    ]
    assert not unreferenced, f"only the tests use {unreferenced}"
