"""The package's internal import graph is one-way and fully visible at module top,
its one runtime dependency is numpy, every public name it defines is used
inside it, its records follow one idiom, and it keeps to Python 3.10."""

import ast
import graphlib
import importlib
import inspect
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import overhang
from overhang import decisions, frontier, impact, ledger, mechanisms, scenarios, schedule, shamir

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


def _probe(code: str) -> str:
    """The stripped stdout of `code` run in a fresh interpreter that imports
    the package from this tree."""
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return result.stdout.strip()


def test_sharding_and_schedules_load_no_numpy():
    """Only the frontier needs numpy, and the package itself imports no module."""
    probe = ("import sys, overhang.shamir, overhang.mechanisms, overhang.schedule; "
             "print('numpy' in sys.modules)")
    assert _probe(probe) == "False"


def test_sharding_loads_no_other_overhang_module():
    """Sharding stands alone: beside the package itself, importing it loads
    no overhang module and no numpy."""
    probe = ("import sys; bare = set(sys.modules); import overhang.shamir; "
             "print(sorted(name for name in set(sys.modules) - bare "
             "if name.startswith(('overhang.', 'numpy'))))")
    assert _probe(probe) == "['overhang.shamir']"


def test_pace_and_scenario_arithmetic_load_no_mechanism():
    """Schedules, tranche programs, scenarios and configs are arithmetic: they
    load neither the mechanism simulator nor the preference map."""
    probe = ("import sys, overhang.schedule, overhang.scenarios, overhang.config; "
             "print(sorted({'overhang.mechanisms', 'overhang.decisions'} & set(sys.modules)))")
    assert _probe(probe) == "[]"


def test_numpy_is_the_one_runtime_dependency():
    """Every module the package imports is in the standard library, numpy or
    overhang itself, and numpy is the one dependency pyproject.toml declares:
    no runtime dependency is one that only the tests use."""
    imported = set()
    for path in MODULES.values():
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Import):
                imported.update(alias.name.partition(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.partition(".")[0])
    assert imported - sys.stdlib_module_names == {"numpy", "overhang"}
    # [project] dependencies is the one `dependencies = [...]` list; the test
    # extras are `test = [...]` under [project.optional-dependencies].
    pyproject = (PACKAGE.parents[1] / "pyproject.toml").read_text()
    (dependencies,) = re.findall(r"^dependencies = \[(.*?)\]", pyproject, re.M | re.S)
    assert re.findall(r'"([\w-]+)', dependencies) == ["numpy"]


def test_the_cli_loads_no_configparser():
    """A config file is read by the loader's own grammar: importing the CLI
    adds no configparser to what the bare interpreter has loaded."""
    probe = ("import sys; bare = set(sys.modules); import overhang.cli; "
             "print(sorted({'configparser'} & (set(sys.modules) - bare)))")
    assert _probe(probe) == "[]"


def test_pyproject_version_is_the_package_version():
    # [project] version is pyproject.toml's one `version = "..."` line.
    pyproject = (PACKAGE.parents[1] / "pyproject.toml").read_text()
    assert re.findall(r'^version = "(.*)"$', pyproject, re.M) == [overhang.__version__]


# Names a module imports only for other code to read there, with the reason.
RE_EXPORTS = {
    # perfbench/wl_shard.py and wl_cli.py read these in overhang.mechanisms,
    # and the benchmark changes only under ROADMAP item 1; they live in shamir
    "mechanisms": {"Share", "reconstruct", "split"},
}


@pytest.mark.parametrize("module", sorted(MODULES))
def test_every_top_level_import_is_used(module):
    """Each name a module imports at its top is read somewhere in that module,
    so no import outlives the code that needed it; a re-export is named above."""
    tree = _parse(MODULES[module])
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    unused = imported - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exempt = RE_EXPORTS.get(module, set())
    assert unused == exempt, (
        f"{module}: unused {sorted(unused - exempt)}, exempt but used {sorted(exempt - unused)}")


# Public names that only the acceptance criteria or the benchmark call.
UNREFERENCED_IN_SRC = (
    "cost_of",
    "apply_burn",
    "relative_impact_with_growth",
    "dms_step",
    "overshoot_path",
)
# Public methods that only the benchmark reads: perfbench/wl_replay.py:154,193
# reads TrancheProgram.tranches, and the benchmark changes only under ROADMAP
# item 1, which then deletes the property with TimelockCondition (item 7).
UNREFERENCED_METHODS_IN_SRC = ("TrancheProgram.tranches",)


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
    methods = {
        f"{cls.name}.{node.name}": node.name
        for cls in public
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    }
    unreferenced = {method for method, name in methods.items() if name not in referenced}
    exempt = set(UNREFERENCED_METHODS_IN_SRC)
    assert unreferenced == exempt, (f"only the tests use {sorted(unreferenced - exempt)}, "
                                    f"exempt but used {sorted(exempt - unreferenced)}")


# frontier.FrontierPoint stays a dataclass: perfbench/selftest.py:89 calls
# dataclasses.replace on one, and the benchmark changes only under ROADMAP item 1.
DATACLASSES = {"frontier.FrontierPoint"}


def _decorators(node: ast.ClassDef) -> set[str]:
    """The names a class is decorated with, `@dataclass(frozen=True)` as `dataclass`."""
    names = set()
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        names.add(target.attr if isinstance(target, ast.Attribute) else target.id)
    return names


def test_records_are_named_tuples_and_a_checked_one_is_decorated():
    """No class is a dataclass but FrontierPoint, and every class with a
    _check is @checked, so its constructor, _make and _replace all run it."""
    dataclasses, unchecked = set(), []
    for module, path in MODULES.items():
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.ClassDef):
                decorators = _decorators(node)
                if "dataclass" in decorators:
                    dataclasses.add(f"{module}.{node.name}")
                if "checked" not in decorators and any(
                    isinstance(item, ast.FunctionDef) and item.name == "_check" for item in node.body
                ):
                    unchecked.append(f"{module}.{node.name}")
    assert dataclasses == DATACLASSES
    assert not unchecked, f"define _check but are not @checked: {unchecked}"


def _checked_types():
    """(record type, its module's own error) for every class with a _check."""
    for name in sorted(name for name in MODULES if not name.startswith("__")):
        module = importlib.import_module(f"overhang.{name}")
        local = [obj for obj in vars(module).values()
                 if isinstance(obj, type) and obj.__module__ == module.__name__]
        for record_type in (obj for obj in local if "_check" in vars(obj)):
            (error,) = (obj for obj in local if obj.__bases__ == (ValueError,))
            yield record_type, error


# A valid record of each checked type, a field, a value its check rejects,
# and the rejection's message.
CHECKED_EXAMPLES = {
    ledger.SupplyLedger: (ledger.SupplyLedger.from_btc(), "reference_price", 0.0, "reference price"),
    impact.ElasticityModel: (impact.ElasticityModel(0.7), "epsilon", 0.0, "elasticity must be"),
    impact.FrictionBand: (impact.OTC_BAND_LOW, "low", 3.0, "invalid friction band"),
    impact.OvershootParams: (impact.OvershootParams(), "half_life", math.inf, "half-life"),
    schedule.ScheduleParams: (schedule.ScheduleParams(1.0, 10.0), "horizon", 0.5, "horizon must"),
    schedule.TimelockCondition: (
        schedule.TimelockCondition(3), "value", -1, "timelock epoch must be nonnegative"),
    schedule.TrancheProgram: (
        schedule.TrancheProgram((3, 5), (10, 20)), "epochs", (3, -1),
        "timelock epoch must be nonnegative"),
    shamir.Share: (shamir.Share(1, b"x"), "index", 256, "share index 256"),
    mechanisms.DmsConfig: (
        mechanisms.DmsConfig(30, 3, mechanisms.DmsAction.PUBLISH_SHARDS), "grace_missed", 0,
        "grace_missed must be at least 1"),
    scenarios.Scenario: (scenarios.builtin_scenarios()[1], "horizon", math.nan, "horizon must"),
    decisions.TerminalState: (
        decisions.TerminalState(decisions.TerminalStateKind.SILENT_BURN, 0.01),
        "retention_fraction", 0.5, "burn retention"),
    decisions.ConsistencyMatrix: (decisions.consistency_matrix(), "entries", {}, "not total"),
    decisions.SupplyEffect: (
        decisions.SupplyEffect(1.0, decisions.MarketSign.BEARISH, -0.1), "bound", 0.5,
        "bearish effect needs a bound"),
    frontier.ExecutionModel: (
        frontier.ExecutionModel(100.0, 10), "risk_aversion", -1.0, "risk aversion must be"),
}


@pytest.mark.parametrize("record_type, error", _checked_types(), ids=lambda t: t.__name__)
def test_every_checked_record_validates_every_construction(record_type, error):
    """A checked record is an immutable named tuple equal to the plain tuple of
    its fields, and its constructor, _replace and _make all raise its module's
    own error for a bad field. Its constructor has the record's own signature:
    a missing or extra argument raises TypeError."""
    assert record_type in CHECKED_EXAMPLES, f"{record_type.__name__} has no example"
    record, field, bad, message = CHECKED_EXAMPLES[record_type]
    values = tuple(getattr(record, name) for name in record_type._fields)
    assert type(record) is record_type and record == values
    assert record <= values and record < (*values, 0)  # it orders as that tuple
    assert repr(record) == f"{record_type.__name__}(" + ", ".join(
        f"{name}={value!r}" for name, value in zip(record_type._fields, values)) + ")"
    bad_values = [bad if name == field else value for name, value in zip(record._fields, values)]
    for build in (lambda: record_type(*bad_values), lambda: record._replace(**{field: bad}),
                  lambda: record_type._make(bad_values)):
        with pytest.raises(error, match=message) as raised:
            build()
        assert raised.type is error
    assert type(record._replace(**{field: getattr(record, field)})) is record_type
    for name in (field, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, bad)

    # The constructor takes the record's own fields and defaults, as a
    # collections.namedtuple's does, and builds what tuple.__new__ builds.
    fields, defaults = record_type._fields, record_type._field_defaults
    parameters = inspect.signature(record_type.__new__).parameters
    assert list(parameters) == ["_cls", *fields]
    assert {name: p.default for name, p in parameters.items()
            if p.default is not inspect.Parameter.empty} == defaults
    plain = tuple.__new__(record_type, values)
    for built in (record_type(*values), record_type(**dict(zip(fields, values)))):
        assert type(built) is record_type and built == plain
    required = len(fields) - len(defaults)
    for given in range(required, len(fields)):  # the rest left to their defaults
        filled = (*values[:given], *list(defaults.values())[given - required:])
        try:
            tuple.__new__(record_type, filled)._check()
        except error:
            with pytest.raises(error):
                record_type(*values[:given])
        else:
            built = record_type(*values[:given])
            assert type(built) is record_type and built == tuple.__new__(record_type, filled)
    calls = [lambda: record_type(*values, values[0]), lambda: record_type(*values, extra=bad),
             lambda: record_type(*values, **{fields[0]: values[0]})]
    if required:
        calls.append(lambda: record_type(*values[:required - 1]))
    for call in calls:
        with pytest.raises(TypeError):
            call()


@pytest.mark.parametrize("module", sorted(MODULES))
def test_int_byte_conversions_name_their_byte_order(module):
    # int.from_bytes and int.to_bytes default the byte order only from Python 3.11
    bare = [
        node.lineno for node in ast.walk(ast.parse(MODULES[module].read_text()))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("from_bytes", "to_bytes")
        and len(node.args) < 2 and not any(kw.arg == "byteorder" for kw in node.keywords)
    ]
    assert not bare, f"{module}.py lines {bare} leave out the byte order"


@pytest.mark.parametrize("module", sorted(MODULES))
def test_no_integer_is_converted_through_operator_index(module):
    """An integer input is checked to be an int, not converted: operator.index
    lets a numpy integer or a bool through, which then reaches the arithmetic
    unconverted, so no module reads operator.index or imports index from operator."""
    converting = [
        node.lineno for node in ast.walk(_parse(MODULES[module]))
        if isinstance(node, ast.Attribute) and node.attr == "index"
        and isinstance(node.value, ast.Name) and node.value.id == "operator"
        or isinstance(node, ast.ImportFrom) and node.module == "operator"
        and any(alias.name == "index" for alias in node.names)
    ]
    assert not converting, f"{module}.py lines {converting} use operator.index"


# The float() calls of the modules that read outside text, by the function
# each sits in and its argument: config.number's on text, and the CLI's on a
# schedule's Fraction fields.
FLOAT_CALLS = {
    "config": {("number", "text")},
    "cli": {(function, f"sched.{field}") for function in ("_pace_cells", "_cmd_schedule")
            for field in ("annual_btc", "daily_btc")},
}


@pytest.mark.parametrize("module", sorted(FLOAT_CALLS))
def test_text_becomes_a_float_only_through_config_number(module):
    """float() takes spaces, '_', '+', other Unicode digits, inf and nan, so
    no flag, config value or list item reaches it but through config.number:
    no float is passed as a function (type=float, map(float, ...)) but to
    isinstance, and float() is called only where named above."""
    passed, calls = [], set()
    for function in ast.parse(MODULES[module].read_text()).body:
        for node in ast.walk(function):
            if not isinstance(node, ast.Call) or ast.unparse(node.func) == "isinstance":
                continue
            passed += [node.lineno for arg in (*node.args, *(kw.value for kw in node.keywords))
                       if isinstance(arg, ast.Name) and arg.id == "float"]
            if isinstance(node.func, ast.Name) and node.func.id == "float":
                calls.add((getattr(function, "name", None), *map(ast.unparse, node.args)))
    assert not passed, f"{module}.py lines {passed} pass float as a function"
    assert calls == FLOAT_CALLS[module]
