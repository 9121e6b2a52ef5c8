import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from overhang import frontier
from overhang.cli import (
    EXIT_CLOSED_STDOUT,
    EXIT_COMPUTATION,
    EXIT_OK,
    EXIT_UNKNOWN,
    EXIT_VALIDATION,
    FLAG_FORMS,
    TERMINALS,
    build_parser,
    main,
)
from overhang.config import _KNOWN_KEYS, _NUMBER, ConfigError, integer, load_config
from overhang.frontier import ExecutionModel
from test_cli_golden import ON_BASELINE_KERNELS, outputs_with_avx512_kernels_off, pinned
from test_frontier import assert_close, exact_trajectory


def run_cli(*argv):
    """The exit status and stdout, whether main returns the status or argparse
    raises SystemExit."""
    out = io.StringIO()
    try:
        code = main(list(argv), out=out)
    except SystemExit as exc:
        code = exc.code
    return code, out.getvalue()


def test_impact_table_reproduces_reference_rows():
    code, text = run_cli("impact", "--table")
    assert code == EXIT_OK
    assert "-4.4%" in text
    assert "-9.2%" in text
    assert "-20.2%" in text


def test_impact_zero_share():
    code, text = run_cli("impact", "--share", "0", "--epsilon", "0.7")
    assert code == EXIT_OK
    assert "0.0%" in text


def test_scenario_b_band():
    code, text = run_cli("scenario", "B")
    assert code == EXIT_OK
    assert "Between" in text
    assert "0.17%" in text


def test_scenario_unknown_exits_3():
    code, _ = run_cli("scenario", "Z")
    assert code == EXIT_UNKNOWN


def test_scenario_volume_override():
    code, text = run_cli("scenario", "B", "--volume", "20e9", "--json")
    assert code == EXIT_OK
    row = json.loads(text)[0]
    assert row["participation"] == pytest.approx(0.001258, abs=1e-5)


def test_scenario_sweep_bound():
    code, text = run_cli("scenario", "sweep", "--json")
    assert code == EXIT_OK
    rows = json.loads(text)
    bounds = rows[-1]
    assert bounds["scenario"] == "BOUNDS"
    assert abs(bounds["total_low"]) <= 0.26


ROUND_TRIP_CONFIGS = {
    "run.json": """{
  "ledger": {"position": 900000, "reference_price": 95000},
  "scenario": {"name": "json-run", "epsilon": 0.9, "quality": "disciplined-otc", "horizon": 12},
  "run": {"volume": 18e9}
}
""",
    "custom.ini": """[ledger]
position = 1000000
lost_estimate = 3500000

[scenario]
name = custom
epsilon = 0.5
quality = mixed
horizon = 8

[run]
volume = 12e9
""",
}


@pytest.mark.parametrize(
    "argv",
    [("B",), ("B", "--volume", "20e9"), ("--config", "run.json"), ("--config", "custom.ini")],
    ids=["B", "B --volume 20e9", "--config run.json", "--config custom.ini"],
)
def test_scenario_config_round_trip(argv, tmp_path):
    for name, text in ROUND_TRIP_CONFIGS.items():
        (tmp_path / name).write_text(text)
    argv = ["scenario", *(str(tmp_path / arg) if arg in ROUND_TRIP_CONFIGS else arg for arg in argv)]
    code, emitted = run_cli(*argv, "--emit-config")
    assert code == EXIT_OK
    path = tmp_path / "emitted.json"
    path.write_text(emitted)
    for fmt in ([], ["--json"]):
        assert run_cli("scenario", "--config", str(path), *fmt) == run_cli(*argv, *fmt)
    if "--config" in argv:
        assert load_config(emitted) == load_config((tmp_path / argv[-1]).read_text())


def test_config_unknown_key_rejected(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[ledger]\nbogus_key = 1\n")
    code, _ = run_cli("scenario", "B", "--config", str(path))
    assert code == EXIT_VALIDATION


_SCENARIO_JSON = '"epsilon": 0.5, "quality": "mixed", "horizon": 8'


@pytest.mark.parametrize(
    "text",
    [
        "[sweep]\nepsilons = 0.5\n",
        "[run]\nseed = 3\n",
        "[run]\nformat = json\n",
        '{"run": 5}',
        pytest.param("[scenario]\nname = x\nepsilon = 0.5\nquality = mixed\nhorizon = 8\n"
                     "overshoot_magnitude = 0.9\n", id="ini-overshoot"),
        pytest.param('{"scenario": {"name": "x", "overshoot_half_life": 3, ' + _SCENARIO_JSON
                     + "}}", id="json-overshoot"),
        pytest.param('{"scenario": {"name": null, ' + _SCENARIO_JSON + "}}", id="json-null-name"),
        pytest.param('{"scenario": {"name": true, ' + _SCENARIO_JSON + "}}", id="json-true-name"),
        # a value that would print a forged table row, or a raw terminal escape
        pytest.param("[scenario]\nname = custom\n  | injected | row\nepsilon = 0.5\n"
                     "quality = mixed\nhorizon = 8\n", id="ini-continuation-line"),
        *(pytest.param('{"scenario": {"name": ' + json.dumps(name) + ", " + _SCENARIO_JSON + "}}",
                       id=f"json-name-{kind}")
          for kind, name in [("newline", "custom\n| injected | row"), ("tab", "a\tb"),
                             ("escape", "\x1b[31mred")]),
    ],
)
def test_config_without_effect_or_shape_rejected(tmp_path, text):
    path = tmp_path / "run.ini"
    path.write_text(text)
    code, out, err, _ = _run_captured(["scenario", "--config", str(path)])
    assert (code, out) == (EXIT_VALIDATION, "")
    assert err.startswith("error:") and len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "text",
    [
        "[ledger]\nposition = 100%\n",
        '{"a": ' * 100_000 + "1" + "}" * 100_000,
        "[DEFAULT]\nposition = 5\n",
        "[DEFAULT]\nposition = 5\n[ledger]\nlost_estimate = 3500000\n",
        '{"ledger": {"position": 1000, "position": 2000}}',
        '{"run": {"volume": 1e10}, "run": {"volume": 2e10}}',
        "[ledger] trailing words\nposition = 1000000\n",
        "[run]\nVOLUME = 2e10\n",
        "[run]\nvolume: 2e10\n",
        "position = 1000000\nreference_price = 80000\n",
        "position = 1000000\n[run]\nvolume = 2e10\n",
        "[ledger]\nposition = 1000000\n[ledger]\nreference_price = 80000\n",
        "[run]\nvolume = 2e10\nvolume = 3e10\n",
        "[run]\nvolume\n",
    ],
    ids=["percent", "deep-json", "default-alone", "default-with-ledger", "repeated-key",
         "repeated-section", "header-trailing-text", "case-folded-key", "colon-delimiter",
         "no-section-header", "key-before-section", "ini-repeated-section", "ini-repeated-key",
         "no-equals"],
)
def test_malformed_config_exits_2_with_one_error_line(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    code, out, err, _ = _run_captured(["scenario", "B", "--config", str(path)])
    assert (code, out) == (EXIT_VALIDATION, "")
    assert err.startswith("error:") and len(err.splitlines()) == 1


@pytest.mark.parametrize("name", ["run.json", "custom.ini"])
def test_config_saved_with_a_byte_order_mark_loads(tmp_path, name):
    plain, marked = tmp_path / name, tmp_path / f"bom-{name}"
    plain.write_text(ROUND_TRIP_CONFIGS[name])
    marked.write_text(ROUND_TRIP_CONFIGS[name], encoding="utf-8-sig")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    for fmt in ([], ["--json"]):
        code, text = run_cli("scenario", "--config", str(marked), *fmt)
        assert (code, text) == run_cli("scenario", "--config", str(plain), *fmt)
        assert code == EXIT_OK


def test_volume_flag_over_config_over_default(tmp_path):
    path = tmp_path / "volume.ini"
    path.write_text("[run]\nvolume = 10e9\n")
    code, text = run_cli("scenario", "B", "--config", str(path), "--volume", "20e9", "--json")
    assert code == EXIT_OK
    assert json.loads(text)[0]["participation"] == pytest.approx(0.001258, abs=1e-5)
    code, text = run_cli("scenario", "B", "--config", str(path), "--json")
    assert code == EXIT_OK
    assert json.loads(text)[0]["participation"] == pytest.approx(0.002516, abs=1e-5)


@pytest.mark.parametrize(
    "argv",
    [
        ("schedule", "--horizon", "0"),
        ("frontier", "--lambdas", "x"),
        ("frontier", "--lambdas", "-1"),
        ("scenario", "sweep", "--epsilons", "0.5,x"),
        ("scenario", "B", "--json", "--csv"),
        ("impact", "--share", "nan"),
        ("mechanism", "split", "--secret-hex", "aa", "-k", "3", "-n", "2"),
        ("mechanism", "reconstruct", "-k", "0", "1:00"),
        ("mechanism", "reconstruct", "-k", "1", "1:zz"),
        ("mechanism", "reconstruct", "-k", "1", "nocolon"),
        # a replay of an infinite or negative position, or a negative horizon
        ("mechanism", "simulate", "--terminal", "adversarial", "--position", "1e400"),
        ("mechanism", "simulate", "--terminal", "burn", "--position", "1e400"),
        ("mechanism", "simulate", "--terminal", "adversarial", "--position", "-5"),
        ("mechanism", "simulate", "--terminal", "dormancy", "--horizon", "-1"),
        # an infinite BTC amount
        ("schedule", "--position", "1e400"),
        ("mechanism", "simulate", "--terminal", "liquidation", "--position", "1e400"),
        # a retention other than with burn, rejected by the terminal state
        ("mechanism", "simulate", "--terminal", "dormancy", "--retention", "0.03"),
        # a share beyond the first k with another payload length, an empty payload
        ("mechanism", "reconstruct", "-k", "2", "1:3943598e", "2:0b6a6b2d", "3:ff"),
        ("mechanism", "reconstruct", "-k", "1", "1:"),
        # an infinite frontier model parameter or risk aversion: 1e400 reads as inf
        ("frontier", "--total", "1e400"),
        ("frontier", "--sigma", "1e400"),
        ("frontier", "--eta", "1e400"),
        ("frontier", "--tau", "1e400"),
        ("frontier", "--gamma", "1e400"),
        ("frontier", "--lambdas", "1e400"),
        ("frontier", "--lambdas", "0,1e400"),
        ("frontier", "--total", "1e400", "--lambdas", "0,1"),
        # an infinite or out-of-domain value, rejected by the type that owns it
        ("impact", "--epsilon", "-1"),
        ("scenario", "sweep", "--horizons", "1e400"),
        ("scenario", "B", "--volume", "1e400"),
        ("schedule", "--volume", "1e400"),
        ("schedule", "--price", "1e400"),
        ("schedule", "--horizon", "1e400"),
        ("decision-map", "--bear-bound", "1e400"),
        ("decision-map", "--bear-bound", "0.5"),
        ("impact", "--share", "1e400"),
        # no tranche a year, or more tranches a year than days
        ("schedule", "--tranches-per-year", "0"),
        ("schedule", "--tranches-per-year", "730"),
        # more tranches than a century of daily ones, rejected before any is built
        ("schedule", "--horizon", "1e6", "--tranches-per-year", "365"),
        # a tranche count past the float range, or with 301 digits, checked before rounding
        ("schedule", "--horizon", "1e308", "--tranches-per-year", "365"),
        ("schedule", "--horizon", "1e300", "--tranches-per-year", "1"),
        # a position that rounds to zero satoshis
        ("schedule", "--position", "1e-9"),
        ("schedule", "--position", "1e-9", "--tranches-per-year", "4"),
        ("mechanism", "simulate", "--terminal", "liquidation", "--position", "1e-9"),
        # more periods than a century of daily ones, rejected before any array is built
        ("frontier", "--periods", "10000000000000"),
        # a position with no finite satoshi value, for every terminal that moves coins
        ("mechanism", "simulate", "--terminal", "burn", "--position", "1e301"),
        ("mechanism", "simulate", "--terminal", "adversarial", "--position", "1e301"),
        # the smallest two-quality sweep over the cell limit, 2 × 21 × 2381 = 100,002 cells,
        # rejected before any is built
        ("scenario", "sweep", "--epsilons", ",".join(str(0.3 + i / 20) for i in range(21)),
         "--horizons", ",".join(str(h) for h in range(1, 2382))),
        # a value out of its domain for each other flag that has one
        ("mechanism", "simulate", "--terminal", "adversarial", "--retention", "0.03"),
        ("mechanism", "simulate", "--terminal", "burn", "--retention", "1.5"),
        ("mechanism", "simulate", "--terminal", "adversarial", "--interval", "0"),
        ("mechanism", "simulate", "--terminal", "burn", "--grace", "0"),
        ("mechanism", "simulate", "--terminal", "liquidation", "--tranches-per-year", "0"),
        ("mechanism", "simulate", "--terminal", "liquidation", "--program-years", "0"),
        ("schedule", "--tranches-per-year", "4", "--start", "-1"),
        ("impact", "--quality", "bogus"),
        ("impact", "--participation", "1e400"),
        ("frontier", "--periods", "0"),
        ("scenario", "sweep", "--epsilons", "0.2"),
        ("scenario", "B", "--volume", "0"),
        ("decision-map", "--bear-bound", "-1.5"),
        ("mechanism", "split", "--secret-hex", "zz", "-k", "1", "-n", "1"),
    ],
)
def test_domain_and_parse_errors_exit_2(argv, capsys):
    code, text = run_cli(*argv)
    assert code == EXIT_VALIDATION
    assert text == ""
    errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    assert len(errors) == 1


# ---------------------------------------------------------------------------
# Every flag either changes the output of each form of its command or exits 2:
# the cases are generated from build_parser(), so a new flag or subcommand
# cannot go unchecked.

def _subcommands(parser, words=()):
    """(command words, parser) for each subcommand that runs a handler."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _subcommands(sub, (*words, name))
            return
    yield " ".join(words), parser


def _option_flags(parser, required=True):
    """The long option string of each option the parser takes, help aside."""
    return {max(action.option_strings, key=len) for action in parser._actions
            if action.option_strings and not isinstance(action, argparse._HelpAction)
            and (required or not action.required)}


_FORMAT_FLAGS = ("--json", "--csv", "--markdown")

# The forms of each subcommand; each one that takes a format is also tried
# under --json and --csv.
_FORMS = {
    "impact": [[], ["--table"]],
    "scenario": [["B"], ["sweep"], ["B", "--emit-config"]],
    "schedule": [[], ["--tranches-per-year", "4"]],
    "frontier": [[]],
    "decision-map": [[]],
    "mechanism simulate": [["--terminal", terminal] for terminal in TERMINALS],
    "mechanism split": [["--secret-hex", "deadbeef", "-k", "2", "-n", "3"]],
    "mechanism reconstruct": [["-k", "2", "1:3943598e", "2:0b6a6b2d"]],
    "anchors": [[]],
}

# A value unlike the default for every optional flag, None for a switch;
# "ledger.ini" names a ledger config unlike the default ledger, and the
# participation is below the 0.15% step of the default OTC friction band.
_FLAG_VALUES = {
    "--seed": "5", "--share": "0.1", "--epsilon": "0.9", "--quality": "mixed",
    "--participation": "0.001", "--table": None, "--json": None, "--csv": None,
    "--markdown": None, "--emit-config": None, "--config": "ledger.ini", "--volume": "2e10",
    "--nominal": None, "--epsilons": "0.5", "--horizons": "5", "--allow-out-of-range": None,
    "--position": "1000", "--horizon": "5", "--price": "1e5", "--tranches-per-year": "12",
    "--start": "5", "--lambdas": "1e-6", "--total": "50", "--periods": "5", "--tau": "2",
    "--sigma": "100", "--gamma": "0.2", "--eta": "2", "--retention-variant": None,
    "--bear-bound": "-0.5", "--retention": "0.02", "--interval": "10", "--grace": "2",
    "--program-years": "5",
}

# What the form needs for the flag to matter: an elasticity outside the
# reference range for --allow-out-of-range.
_FLAG_CONTEXT = {"--allow-out-of-range": ["--epsilons", "0.2"]}


def _all_forms(parser):
    """(command, subparser, form) for each form of _FORMS, and for each one
    that takes a format, that form under --json and under --csv."""
    for command, sub in _subcommands(parser):
        forms = _FORMS.get(command, [])
        if "--json" in _option_flags(sub):
            forms = forms + [f + [fmt] for f in forms if "--emit-config" not in f
                             for fmt in ("--json", "--csv")]
        for form in forms:
            yield command, sub, form


def _flag_cases():
    """Each optional flag on each form; --seed only on mechanism split, the one
    form that draws from it (test_seed_changes_only_mechanism_split)."""
    parser = build_parser()
    for command, sub, form in _all_forms(parser):
        for flag in sorted(_option_flags(parser) | _option_flags(sub, required=False)):
            if flag in form or flag == "--seed" and command != "mechanism split":
                continue
            marks = []
            if command == "mechanism simulate" and form[-1] == "liquidation" and flag in (
                    "--interval", "--grace"):
                marks = pytest.mark.xfail(strict=True, reason=(
                    "the cli bench deck sends these flags; reject them after the benchmark "
                    "revision (ROADMAP item 1)"))
            yield pytest.param(command, form, flag, marks=marks,
                               id=" ".join([command, *form, "|", flag]))


@pytest.fixture(scope="module")
def flag_outcome(tmp_path_factory):
    """The exit code, stdout and error lines of an argv, each argv run once,
    with OVERHANG_SEED unset: mechanism split without --seed reads it."""
    config = tmp_path_factory.mktemp("flags") / "ledger.ini"
    config.write_text("[ledger]\nposition = 1000000\n")
    outcomes = {}

    def outcome(argv):
        argv = tuple(str(config) if arg == "ledger.ini" else arg for arg in argv)
        if argv not in outcomes:
            code, text, err, _ = _run_captured(argv)
            outcomes[argv] = code, text, [line for line in err.splitlines() if "error:" in line]
        return outcomes[argv]

    with pytest.MonkeyPatch.context() as patch:
        patch.delenv("OVERHANG_SEED", raising=False)
        yield outcome


def test_every_subcommand_has_forms():
    assert {command for command, _ in _subcommands(build_parser())} == set(_FORMS)


@pytest.mark.parametrize("command, form, flag", _flag_cases())
def test_every_flag_changes_the_output_or_exits_2(command, form, flag, flag_outcome):
    assert flag in _FLAG_VALUES, f"{flag} has no test value"
    value = _FLAG_VALUES[flag]
    base = [*command.split(), *form, *_FLAG_CONTEXT.get(flag, [])]
    given = [flag] if value is None else [flag, value]
    top_level = flag in _option_flags(build_parser())
    code, text, errors = flag_outcome(given + base if top_level else base + given)
    if code == EXIT_VALIDATION:
        assert text == "" and len(errors) == 1
    else:
        assert (code, text) != flag_outcome(base)[:2], f"{flag} changes nothing"


_EVERY_FORM = [(command, form) for command, _, form in _all_forms(build_parser())]


@pytest.mark.parametrize("command, form", _EVERY_FORM,
                         ids=[" ".join([command, *form]) for command, form in _EVERY_FORM])
def test_seed_changes_only_mechanism_split(command, form, flag_outcome):
    """--seed is accepted on every form, since the cli bench deck sends it to
    each (ROADMAP item 1), but only mechanism split reads it."""
    base = [*command.split(), *form]
    unseeded, seeded = flag_outcome(base)[:2], flag_outcome(["--seed", "5", *base])[:2]
    if command == "mechanism split":
        assert seeded[0] == EXIT_OK and seeded != unseeded
    else:
        assert seeded == unseeded


def test_readme_lists_exactly_the_flags_of_some_forms():
    """The README's table of flags that apply to some forms only names each
    (command, flag) pair of FLAG_FORMS and no other."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    table = readme.split("### Which flags each form takes")[1].split("\n\n")[2]
    first_cells = re.findall(r"^\| (`\w.*?) \|", table, re.M)
    listed = {(cell[1:].split()[0], flag)
              for cell in first_cells for flag in re.findall(r"--[\w-]+", cell)}
    assert listed == {(command, flag) for command, flags in FLAG_FORMS.items() for flag in flags}


# A config that sets every key, and for each key a value unlike its base
# value; "quality" moves the friction band, and "reference_price" the USD pace.
_CONFIG_BASE = {
    "ledger": {"total_mined": 19_900_000, "lost_estimate": 3_000_000, "position": 1_000_000,
               "reference_price": 90_000},
    "scenario": {"name": "base", "epsilon": 0.7, "quality": "mixed", "horizon": 10},
    "run": {"volume": 15e9},
}
_CONFIG_VALUES = {
    ("ledger", "total_mined"): 20_500_000, ("ledger", "lost_estimate"): 2_000_000,
    ("ledger", "position"): 600_000, ("ledger", "reference_price"): 60_000,
    ("scenario", "name"): "changed", ("scenario", "epsilon"): 1.2,
    ("scenario", "quality"): "public-venue", ("scenario", "horizon"): 6,
    ("run", "volume"): 11e9,
}


@pytest.mark.parametrize("section, key", [
    pytest.param(section, key, id=f"[{section}] {key}")
    for section, keys in _KNOWN_KEYS.items() for key in sorted(keys)
])
def test_every_config_key_changes_the_output_or_exits_2(section, key, tmp_path):
    """Each key the config schema accepts reaches the run's table and JSON,
    or its value is rejected: no key is parsed and then ignored."""
    assert (section, key) in _CONFIG_VALUES, f"[{section}] {key} has no test value"
    changed = {name: dict(body) for name, body in _CONFIG_BASE.items()}
    changed[section][key] = _CONFIG_VALUES[section, key]

    def outcome(doc, fmt):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(doc))
        return _run_captured(["scenario", "--config", str(path), *fmt])[:3]

    for fmt in ([], ["--json"]):
        base_code, base_text, _ = outcome(_CONFIG_BASE, fmt)
        code, text, err = outcome(changed, fmt)
        assert base_code == EXIT_OK
        if code == EXIT_VALIDATION:
            assert text == "" and err.startswith("error:") and len(err.splitlines()) == 1
        else:
            assert (code, text) != (base_code, base_text), f"[{section}] {key} changes nothing"


@pytest.mark.parametrize(
    "argv",
    [
        # participation = daily USD / 1e-320 overflows to inf
        ("schedule", "--volume", "1e-320"),
        # the variance σ²τ·Σx² is past the float range
        ("frontier", "--sigma", "1e300"),
        ("frontier", "--total", "1e160", "--lambdas", "0"),
    ],
)
def test_nonfinite_frontier_exits_4_without_printing_it(argv):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, text = run_cli(*argv)
    assert code == EXIT_COMPUTATION
    assert text == ""


# the expected cost γX²/2 + (η̃/τ)·Σn² is past the float range: the output check's one line
@pytest.mark.parametrize(
    "argv", [("frontier", "--total", "1e200"), ("frontier", "--total", "1e160", "--lambdas", "0")]
)
def test_float_overflow_exits_4_with_one_readable_line(argv):
    code, text, err, _ = _run_captured(argv)
    assert (code, text) == (EXIT_COMPUTATION, "")
    assert err == "error: a computed value is not finite; nothing printed\n"


OVERFLOWING_FRONTIERS = [
    # σ²τ and the stiffness, about 1e311, are past the float range, but e^−κτ ≈ 5e-311 is
    # taken from the stiffness over 4^k: the variance, 2.5e-308, and x_1 = 5e-309 are floats
    (("frontier", "--sigma", "1e154", "--tau", "10", "--lambdas", "1"), EXIT_OK,
     "2ff6e028a0f949dadfa3c17d5caee4b7"),
    # at λ = 1e10 the stiffness, about 1e310, is past the float range, but the variance,
    # 9.025e-317, is a float; at λ = 1 Σx² ≈ 9e-597 is past the float range, but the
    # variance, 9.025e-297, is a float
    (("frontier", "--sigma", "1e150", "--lambdas", "1e10,1", "--json"), EXIT_OK,
     "050e0404c5f67b78da7fc39c53a08d00"),
    # λσ² overflows and τ² underflows, but λ(στ)² = 1e-91: the linear limit, exit 0
    (("frontier", "--sigma", "1e154", "--tau", "1e-200", "--lambdas", "10"), EXIT_OK,
     "0f97bef4dda3a777168b92eb46f485aa"),
    # (στ)² overflows a float, but λ·στ is taken first: λ(στ)² = 1e20, exit 0
    (("frontier", "--sigma", "1e140", "--tau", "1e20", "--gamma", "0", "--lambdas",
      "1e-300,0", "--json"), EXIT_OK, "ef984593029afcf45b8a241868f66854"),
    # σ² overflows a float, but the variance σ²τ·Σx² = 2.85e224 is one: exit 0
    (("frontier", "--sigma", "1e160", "--tau", "1e-100", "--lambdas", "0", "--json"),
     EXIT_OK, "69503eb35d09a1fe497796964239a7d4"),
]


@pytest.mark.parametrize("argv, expected_code, stdout_md5", OVERFLOWING_FRONTIERS)
def test_overflowing_frontier_writes_no_numpy_warning(argv, expected_code, stdout_md5):
    code, text, err, caught = _run_captured(argv)
    assert code == expected_code
    assert hashlib.md5(text.encode()).hexdigest() == pinned(stdout_md5)
    assert "Warning" not in err and caught == []
    assert len([line for line in err.splitlines() if "error:" in line]) == (code != EXIT_OK)


def test_overflowing_frontier_digests_hold_with_numpy_avx512_kernels_off():
    # every row, though none has a baseline-kernel digest of its own
    rows = OVERFLOWING_FRONTIERS
    assert not any(md5 in ON_BASELINE_KERNELS for _, _, md5 in rows)
    kernels, runs = outputs_with_avx512_kernels_off([list(argv) for argv, _, _ in rows])
    assert kernels == "baseline"
    for (argv, code, md5), (got, text) in zip(rows, runs):
        assert got == code, argv
        assert hashlib.md5(text.encode()).hexdigest() == pinned(md5, "baseline"), argv


def assert_frontier_rows_match_exact(argv, lambdas, **model):
    """The argv's JSON rows carry the 50-digit costs of the model at each λ."""
    code, text = run_cli("frontier", *argv, "--json")
    assert code == EXIT_OK
    rows = json.loads(text)
    assert [row["risk_aversion"] for row in rows] == lambdas
    for row in rows:
        variant = ExecutionModel(total_units=100.0, periods=10, risk_aversion=row["risk_aversion"],
                                 **model)
        _, expected, variance = exact_trajectory(variant)
        assert_close(variant, [row["expected_cost"], row["cost_variance"]], [expected, variance])


def test_frontier_past_the_float_square_of_sigma_tau_matches_exact_rows():
    assert_frontier_rows_match_exact(
        ("--sigma", "1e140", "--tau", "1e20", "--gamma", "0", "--lambdas", "1e-300,0"),
        [1e-300, 0.0], period_length=1e20, volatility=1e140,
    )


def test_frontier_past_the_float_square_of_sigma_matches_exact_rows():
    assert_frontier_rows_match_exact(
        ("--sigma", "1e160", "--tau", "1e-100", "--lambdas", "0"),
        [0.0], period_length=1e-100, volatility=1e160, permanent_coeff=0.1,
    )


def test_frontier_past_sinh_overflow_prints_finite_falling_holdings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, text = run_cli("frontier", "--periods", "200", "--lambdas", "0.01", "--json")
    assert code == EXIT_OK
    (point,) = json.loads(text)
    holdings = [float(x) for x in point["holdings"].split(", ")]
    assert len(holdings) == 201 and holdings[0] == 100 and holdings[-1] == 0
    assert all(map(math.isfinite, holdings + [point["expected_cost"], point["cost_variance"]]))
    assert all(a >= b for a, b in zip(holdings, holdings[1:]))


def test_single_lambda_frontier_evaluates_the_kernel_once(monkeypatch):
    # the one row prices its κτ, E and V once, for its holdings and its
    # costs; the frontier() of a list of λ prices them all in one call
    calls = []
    priced = frontier._priced
    monkeypatch.setattr(frontier, "_priced",
                        lambda model, lambdas: calls.append(len(lambdas)) or priced(model, lambdas))
    assert run_cli("frontier", "--lambdas", "1e-6")[0] == EXIT_OK
    assert calls == [1]
    calls.clear()
    assert run_cli("frontier", "--lambdas", "0,1e-6,1e-5")[0] == EXIT_OK
    assert calls == [3]


def test_decision_map_first_row():
    code, text = run_cli("decision-map")
    assert code == EXIT_OK
    first_data_row = text.splitlines()[1]
    assert first_data_row.startswith("1")
    assert "dormancy-non-recovery" in first_data_row


def test_mechanism_dormancy_no_releases():
    code, text = run_cli("mechanism", "simulate", "--terminal", "dormancy")
    assert code == EXIT_OK
    assert '"release"' not in text
    assert "unrecoverable" in text


def test_mechanism_liquidation_releases():
    code, text = run_cli(
        "mechanism", "simulate", "--terminal", "liquidation", "--horizon", "4000"
    )
    assert code == EXIT_OK
    assert text.count('"release"') == 10


def test_mechanism_split_reconstruct_round_trip():
    code, text = run_cli(
        "--seed", "11", "mechanism", "split", "--secret-hex", "deadbeef", "-k", "2", "-n", "3"
    )
    assert code == EXIT_OK
    lines = text.splitlines()
    assert len(lines) == 3
    code, recovered = run_cli("mechanism", "reconstruct", "-k", "2", *lines[:2])
    assert code == EXIT_OK
    assert "deadbeef" in recovered


def test_frontier_linear_trajectory():
    code, text = run_cli("frontier", "--lambdas", "0", "--periods", "4", "--total", "100")
    assert code == EXIT_OK
    assert "100, 75, 50, 25, 0" in text


def test_anchors_listing():
    code, text = run_cli("anchors")
    assert code == EXIT_OK
    assert "GermanBKA" in text
    assert "MtGox" in text


def test_deterministic_output():
    _, first = run_cli("--seed", "3", "scenario", "sweep")
    _, second = run_cli("--seed", "3", "scenario", "sweep")
    assert first == second


_SPLIT = ("mechanism", "split", "--secret-hex", "deadbeef", "-k", "2", "-n", "3")


def test_overhang_seed_seeds_mechanism_split(monkeypatch):
    monkeypatch.delenv("OVERHANG_SEED", raising=False)
    unseeded, seeded = run_cli(*_SPLIT), run_cli("--seed", "77", *_SPLIT)
    monkeypatch.setenv("OVERHANG_SEED", "77")
    assert run_cli(*_SPLIT) == seeded != unseeded


@pytest.mark.parametrize("variable", ["77", "x"])
def test_the_seed_flag_wins_over_overhang_seed(variable, monkeypatch):
    monkeypatch.delenv("OVERHANG_SEED", raising=False)
    seeded = run_cli("--seed", "5", *_SPLIT)
    monkeypatch.setenv("OVERHANG_SEED", variable)
    assert run_cli("--seed", "5", *_SPLIT) == seeded


def test_every_other_form_ignores_overhang_seed(monkeypatch):
    monkeypatch.delenv("OVERHANG_SEED", raising=False)
    usual = run_cli("anchors")
    monkeypatch.setenv("OVERHANG_SEED", "x")
    assert run_cli("anchors") == usual
    assert usual[0] == EXIT_OK


@pytest.mark.parametrize("seed", ["x", "\u0661", "1_0", "+1", " 1", ""])
def test_a_seed_that_is_not_an_integer_exits_2_naming_the_variable(seed, monkeypatch, capsys):
    # int() takes all but "x" and "": "\u0661" once ran as seed 1
    monkeypatch.setenv("OVERHANG_SEED", seed)
    assert run_cli(*_SPLIT) == (EXIT_VALIDATION, "")
    assert capsys.readouterr().err == f"error: OVERHANG_SEED {seed!r} is not an integer\n"


# What int() takes besides ASCII digits: spaces around, a '+', any Unicode
# decimal digits, '_' between digits
_INT_FORMS = st.builds(
    "{}{}{}{}".format,
    st.sampled_from(["", " ", "\t", "\u3000"]),
    st.sampled_from(["", "-", "+"]),
    st.lists(st.text(st.characters(categories=["Nd"]), min_size=1, max_size=3),
             min_size=1, max_size=3).map("_".join),
    st.sampled_from(["", " ", "\n"]),
).filter(lambda text: not re.fullmatch(r"-?[0-9]+", text))


@given(text=st.from_regex(r"-?[0-9]+", fullmatch=True))
def test_every_ascii_integer_parses_as_int_does(text):
    assert integer(text) == int(text)
    assert build_parser().parse_args([f"--seed={text}", "anchors"]).seed == int(text)


@given(text=st.from_regex(_NUMBER, fullmatch=True).map(lambda text: "-" + text.removeprefix("-")))
def test_a_negative_number_as_its_own_argument_reads_as_after_an_equals_sign(text):
    # argparse once took "-1e-3" for an option: `expected one argument`
    parser = build_parser()
    assert (parser.parse_args(["decision-map", "--bear-bound", text])
            == parser.parse_args(["decision-map", f"--bear-bound={text}"]))


@given(text=_INT_FORMS)
def test_every_other_text_int_takes_exits_2(text):
    int(text)  # _INT_FORMS draws only text that int() takes
    with pytest.raises(ValueError, match=" is not an integer$"):
        integer(text)
    code, out, err, _ = _run_captured(["frontier", f"--periods={text}"])
    assert (code, out) == (EXIT_VALIDATION, "")
    assert err.endswith(f"error: argument --periods: invalid integer value: {text!r}\n")


# RFC 8259's number grammar, written here apart from the reader's own copy.
_GRAMMAR = r"-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?"
_NUMBERS = st.from_regex(_GRAMMAR, fullmatch=True)
# What float() takes besides the grammar: spaces around, '_' between digits,
# other Unicode digits, a '+', a leading zero, '.5', '5.', inf and nan
_FLOAT_FORMS = st.one_of(
    st.builds("{}{}{}".format, st.sampled_from(["", " ", "\t", "\u3000"]), _NUMBERS,
              st.sampled_from(["", " ", "\r"])),
    st.from_regex(r"-?[0-9]+(_[0-9]+)+(\.[0-9]+)?", fullmatch=True),
    st.builds("{}.{}".format, st.text(st.characters(categories=["Nd"]), min_size=1, max_size=3),
              st.text(st.characters(categories=["Nd"]), min_size=1, max_size=3)),
    _NUMBERS.map(lambda text: "+" + text.removeprefix("-")),
    st.from_regex(r"-?0[0-9]+(\.[0-9]+)?", fullmatch=True),
    st.from_regex(r"-?\.[0-9]+([eE][+-]?[0-9]+)?", fullmatch=True),
    st.from_regex(r"-?[0-9]+\.([eE][+-]?[0-9]+)?", fullmatch=True),
    st.sampled_from(["inf", "-inf", "+inf", "INF", "infinity", "Infinity", "nan", "-nan", "NaN"]),
).filter(lambda text: not re.fullmatch(_GRAMMAR, text))


def _same(value, text):
    """value is float(text) exactly: a -0 keeps its sign."""
    return repr(value) == repr(float(text))


@given(text=_NUMBERS)
def test_every_number_in_the_grammar_reads_as_float_does(text):
    """A flag, a list flag, an INI value and a JSON value, as a string or as
    a number literal, each read float(text); past the float range that is inf."""
    args = build_parser().parse_args(["frontier", f"--sigma={text}", f"--lambdas={text},0"])
    assert _same(args.sigma, text) and _same(args.lambdas[0], text) and args.lambdas[1] == 0
    for doc in (f"[run]\nvolume = {text}\n", json.dumps({"run": {"volume": text}}),
                f'{{"run": {{"volume": {text}}}}}'):
        assert _same(load_config(doc).volume, text)


@given(text=_FLOAT_FORMS)
def test_every_other_text_float_takes_exits_2(text):
    float(text)  # _FLOAT_FORMS draws only text that float() takes
    for argv in (["frontier", f"--sigma={text}"], ["frontier", f"--lambdas=0,{text}"]):
        code, out, err, _ = _run_captured(argv)
        assert (code, out) == (EXIT_VALIDATION, "")
        flag, value = argv[1].split("=", 1)
        kind = "numbers" if flag == "--lambdas" else "number"
        assert err.endswith(f"error: argument {flag}: invalid {kind} value: {value!r}\n")
    # an INI line is stripped before its value is read, a JSON string is not
    ini, stripped = f"[run]\nvolume = {text}\n", text.strip()
    if re.fullmatch(_GRAMMAR, stripped):
        assert _same(load_config(ini).volume, stripped)
    else:
        with pytest.raises(ConfigError) as raised:
            load_config(ini)
        assert str(raised.value) == f"[run] volume: invalid number value: {stripped!r}"
    with pytest.raises(ConfigError) as raised:
        load_config(json.dumps({"run": {"volume": text}}))
    assert str(raised.value) == f"[run] volume: invalid number value: {text!r}"


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
def test_json_number_literals_outside_rfc_8259_are_rejected(literal):
    # json.loads takes these; each once loaded as a NaN or infinite value
    with pytest.raises(ConfigError) as raised:
        load_config(f'{{"ledger": {{"position": {literal}}}}}')
    assert str(raised.value) == f"[ledger] position: invalid number value: {literal!r}"


def test_csv_output_is_parseable():
    import csv as csv_mod

    code, text = run_cli("schedule", "--horizon", "10", "--tranches-per-year", "1", "--csv")
    rows = list(csv_mod.DictReader(io.StringIO(text)))
    assert code == EXIT_OK
    assert len(rows) == 10
    assert float(rows[0]["amount_btc"]) == pytest.approx(114_800)


# ---------------------------------------------------------------------------
# Fuzzing: argv drawn from the parser's grammar, with small sizes so that a
# valid draw stays cheap (periods <= 300, lists <= 4, tranches/yr <= 365).

_BAD_FLOATS = ("nan", "inf", "-inf", "-1", "0", "x", "")
_BAD_INTS = ("-1", "0", "1.5", "nan", "x")


def _float(lo, hi):
    """A value in [lo, hi] three draws in four, else a bad number."""
    good = st.floats(lo, hi).map(repr)
    return st.one_of(good, good, good, st.sampled_from(_BAD_FLOATS))


def _int(lo, hi):
    good = st.integers(lo, hi).map(str)
    return st.one_of(good, good, good, st.sampled_from(_BAD_INTS))


def _floats(lo, hi):
    return st.lists(_float(lo, hi), min_size=1, max_size=4).map(",".join)


_SWITCH = st.just(None)


def _command(name, tail=st.just([]), **flags):
    """`name`, any subset of its flags with a drawn value each, then `tail`."""
    optional = {"--" + flag.replace("_", "-"): value for flag, value in flags.items()}

    def argv(drawn):
        chosen, rest = drawn
        tokens = name.split()
        for flag, value in chosen.items():
            tokens += [flag] if value is None else [flag, value]
        return tokens + rest

    return st.tuples(st.fixed_dictionaries({}, optional=optional), tail).map(argv)


_SHARE_LINES = ("1:3943598e", "2:0b6a6b2d", "3:ec848c4c", "1:zz", "nocolon", "0:00", "1:")

# Each subcommand's flags with the strategy of each value; _ARGV adds --seed
# and one of _FORMAT_FLAGS to every command.
_FLAGS = {
    "impact": dict(share=_float(0, 0.5), epsilon=_float(0.05, 3),
                   quality=st.sampled_from(["mixed", "public-venue", "bogus"]),
                   participation=_float(0, 0.06), table=_SWITCH),
    "scenario": dict(config=st.sampled_from(
                         ["run.ini", "ledger.ini", "bad.ini", "percent.ini", "missing.ini",
                          "nosection.ini", "repeated.json"]),
                     volume=_float(1e8, 3e10), nominal=_SWITCH, epsilons=_floats(0.05, 3),
                     horizons=_floats(0.5, 30), allow_out_of_range=_SWITCH, emit_config=_SWITCH),
    "schedule": dict(position=_float(1, 2e6), horizon=_float(0.5, 20),
                     volume=_float(1e6, 3e10), price=_float(1, 2e5),
                     tranches_per_year=_int(1, 365), start=_int(0, 400)),
    "frontier": dict(lambdas=_floats(0, 1), periods=_int(1, 300),
                     total=st.one_of(_float(1e-3, 1e6), st.sampled_from(["1e160", "1e300"])),
                     tau=_float(0.01, 10), sigma=_float(0, 1e4), gamma=_float(0, 1),
                     eta=_float(0.01, 10)),
    "decision-map": dict(retention_variant=_SWITCH, bear_bound=_float(-1.5, 0.5)),
    "mechanism simulate": dict(
        terminal=st.sampled_from(["dormancy", "burn", "adversarial", "liquidation", "bogus"]),
        retention=_float(0, 0.1), interval=_int(1, 365), grace=_int(1, 12),
        position=_float(1, 2e6), horizon=_int(0, 4000), program_years=_float(0.5, 20),
        tranches_per_year=_int(1, 365)),
    "mechanism split": dict(secret_hex=st.sampled_from(["deadbeef", "00", "zz", ""]),
                            threshold=_int(0, 8), shares=_int(0, 8)),
    "mechanism reconstruct": dict(threshold=_int(0, 8)),
    "anchors": {},
}
_TAILS = {
    "scenario": st.lists(st.sampled_from(["A", "B", "C", "sweep", "Z"]), max_size=1),
    "mechanism reconstruct": st.lists(st.sampled_from(_SHARE_LINES), max_size=4),
}
_COMMANDS = st.one_of(*(_command(name, _TAILS.get(name, st.just([])), **flags)
                        for name, flags in _FLAGS.items()))

_ARGV = st.tuples(
    st.sampled_from([[], ["--seed", "5"], ["--seed", "x"]]),
    _COMMANDS,
    st.sampled_from([[], *([flag] for flag in _FORMAT_FLAGS)]),
).map(lambda parts: [arg for part in parts for arg in part])


def test_fuzzer_draws_every_flag_of_every_subcommand():
    parser = build_parser()
    assert _option_flags(parser) == {"--seed"}
    drawn = {name: {"--" + flag.replace("_", "-") for flag in flags}
             for name, flags in _FLAGS.items()}
    assert drawn == {command: _option_flags(sub) - set(_FORMAT_FLAGS)
                     for command, sub in _subcommands(parser)}

@pytest.fixture(scope="module")
def config_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("configs")
    (path / "ledger.ini").write_text("[ledger]\nposition = 1148000\nreference_price = 80000\n")
    (path / "run.ini").write_text(
        "[scenario]\nname = custom\nepsilon = 0.5\nquality = mixed\nhorizon = 8\n")
    (path / "bad.ini").write_text("[ledger]\nbogus_key = 1\n")
    (path / "percent.ini").write_text("[ledger]\nposition = 100%\n")
    (path / "nosection.ini").write_text("position = 1148000\n")
    (path / "repeated.json").write_text('{"ledger": {"position": 1000, "position": 2000}}')
    return path


def _run_captured(argv):
    stderr = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(stderr):
        warnings.simplefilter("always")
        code, text = run_cli(*argv)
    return code, text, stderr.getvalue(), caught


@settings(max_examples=200)
@given(argv=_ARGV)
def test_fuzzed_argv_exits_cleanly(argv, config_dir):
    argv = [str(config_dir / arg) if arg.endswith((".ini", ".json")) else arg for arg in argv]
    code, text, err, caught = _run_captured(argv)
    assert code in (EXIT_OK, EXIT_VALIDATION, EXIT_UNKNOWN, EXIT_COMPUTATION)
    assert text == "" or code == EXIT_OK
    assert "Traceback" not in err and "Warning" not in err
    assert len([line for line in err.splitlines() if "error:" in line]) == (code != EXIT_OK)
    if code != EXIT_OK:  # one error line, after the usage argparse wraps to the terminal
        *usage, _ = err.splitlines()
        assert usage == [] or (usage[0].startswith("usage:")
                               and all(line.startswith(" ") for line in usage[1:]))
    assert caught == []
    assert _run_captured(argv)[:2] == (code, text)


# The process entry: `python -m overhang` ends with os._exit once its output
# is flushed, and must print what main() prints in process.
SRC = Path(__file__).resolve().parents[1] / "src"
PROCESS_ARGV = [
    (["anchors"], EXIT_OK),
    (["scenario", "B", "--json"], EXIT_OK),
    (["--seed", "7", "mechanism", "split", "--secret-hex", "00ff10", "-k", "2", "-n", "3"],
     EXIT_OK),
    (["frontier", "--lambdas", "0,1e-6", "--markdown"], EXIT_OK),
    (["--help"], EXIT_OK),
    (["schedule", "--horizon", "0"], EXIT_VALIDATION),
    (["mechanism", "reconstruct", "-k", "2", "1:zz"], EXIT_VALIDATION),
    (["impact", "--no-such-flag"], EXIT_VALIDATION),
    (["scenario", "Z"], EXIT_UNKNOWN),
    (["schedule", "--volume", "1e-320"], EXIT_COMPUTATION),
    (["frontier", "--sigma", "1e300"], EXIT_COMPUTATION),
]


@pytest.fixture
def process_env(monkeypatch):
    """One environment for the process and for main() in process: argparse
    wraps its usage to COLUMNS, and the seed falls back to OVERHANG_SEED.
    stdout is block-buffered, as it is for a user, so output that the entry
    did not flush would be lost."""
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.delenv("OVERHANG_SEED", raising=False)
    monkeypatch.delenv("PYTHONUNBUFFERED", raising=False)
    return dict(os.environ, PYTHONPATH=str(SRC))


def _overhang_process(argv, env):
    return subprocess.Popen([sys.executable, "-m", "overhang", *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)


@pytest.mark.parametrize("argv, code", PROCESS_ARGV, ids=[" ".join(a) for a, _ in PROCESS_ARGV])
def test_the_process_prints_and_exits_as_main_does(argv, code, process_env, capsys):
    process = _overhang_process(argv, process_env)
    stdout, stderr = process.communicate(timeout=60)
    try:
        in_process = main(argv)
    except SystemExit as exc:  # argparse: --help and usage errors
        in_process = exc.code
    captured = capsys.readouterr()
    assert process.returncode == in_process == code
    assert (stdout, stderr) == (captured.out.encode(), captured.err.encode())


def test_split_output_goes_straight_into_reconstruct(process_env):
    split = ["--seed", "7", "mechanism", "split", "--secret-hex", "00ff10", "-k", "2", "-n", "3"]
    with _overhang_process(split, process_env) as process:
        shares, err = process.communicate(timeout=60)
    assert (process.returncode, err) == (EXIT_OK, b"")
    reconstruct = ["mechanism", "reconstruct", "-k", "2", *shares.decode().splitlines()]
    with _overhang_process(reconstruct, process_env) as process:
        assert process.communicate(timeout=60) == (b"00ff10\n", b"")
    assert process.returncode == EXIT_OK


def test_a_process_started_with_stdout_closed_still_reports_its_error(process_env):
    """With no stdout to flush, an error still exits 2 with its one line."""
    shell = 'exec "$0" -m overhang schedule --horizon 0 >&-'
    result = subprocess.run(["/bin/sh", "-c", shell, sys.executable], env=process_env,
                            capture_output=True, timeout=60)
    assert (result.returncode, result.stderr) == (
        EXIT_VALIDATION, b"error: horizon must be finite and at least one year\n")


def test_a_process_started_with_stdout_closed_exits_1_without_a_traceback(process_env):
    """A command that succeeds has nowhere to write: it exits as a closed pipe does."""
    shell = 'exec "$0" -m overhang anchors >&-'
    result = subprocess.run(["/bin/sh", "-c", shell, sys.executable], env=process_env,
                            capture_output=True, timeout=60)
    assert (result.returncode, result.stderr) == (EXIT_CLOSED_STDOUT, b"")


def test_a_closed_pipe_exits_1_without_a_traceback(process_env):
    """About 1 MB of tranche rows into a pipe whose reader closes at once: the
    write fails past the pipe's buffer, and the process exits quietly."""
    argv = ["schedule", "--tranches-per-year", "365", "--horizon", "90"]
    with _overhang_process(argv, process_env) as process:
        process.stdout.close()
        stderr = process.stderr.read()
        assert process.wait(timeout=60) == EXIT_CLOSED_STDOUT
    assert stderr == b""
