import contextlib
import hashlib
import io
import json
import math
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from overhang.cli import (
    EXIT_COMPUTATION,
    EXIT_OK,
    EXIT_UNKNOWN,
    EXIT_VALIDATION,
    main,
)
from overhang.config import load_config


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
    "overshoot.ini": """[ledger]
position = 1000000
lost_estimate = 3500000

[scenario]
name = custom
epsilon = 0.5
quality = mixed
horizon = 8
overshoot_magnitude = 0.2
overshoot_half_life = 3

[run]
volume = 12e9
""",
}


@pytest.mark.parametrize(
    "argv",
    [("B",), ("B", "--volume", "20e9"), ("--config", "run.json"), ("--config", "overshoot.ini")],
    ids=["B", "B --volume 20e9", "--config run.json", "--config overshoot.ini"],
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
        # No output reads the overshoot keys, so compare the loaded configs too.
        assert load_config(emitted) == load_config((tmp_path / argv[-1]).read_text())


def test_config_unknown_key_rejected(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[ledger]\nbogus_key = 1\n")
    code, _ = run_cli("scenario", "B", "--config", str(path))
    assert code == EXIT_VALIDATION


@pytest.mark.parametrize(
    "text",
    [
        "[sweep]\nepsilons = 0.5\n",
        "[run]\nseed = 3\n",
        "[run]\nformat = json\n",
        '{"run": 5}',
    ],
)
def test_config_without_effect_or_shape_rejected(tmp_path, text):
    path = tmp_path / "run.ini"
    path.write_text(text)
    code, _ = run_cli("scenario", "B", "--config", str(path))
    assert code == EXIT_VALIDATION


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
        # a replay of a non-finite or negative position, or a negative horizon
        ("mechanism", "simulate", "--terminal", "adversarial", "--position", "inf"),
        ("mechanism", "simulate", "--terminal", "burn", "--position", "nan"),
        ("mechanism", "simulate", "--terminal", "adversarial", "--position", "-5"),
        ("mechanism", "simulate", "--terminal", "dormancy", "--horizon", "-1"),
        # an infinite BTC amount
        ("schedule", "--position", "inf"),
        ("mechanism", "simulate", "--terminal", "liquidation", "--position", "inf"),
        # a flag the terminal does not use
        ("mechanism", "simulate", "--terminal", "dormancy", "--retention", "0.03"),
        ("mechanism", "simulate", "--terminal", "adversarial", "--tranches-per-year", "12"),
        ("mechanism", "simulate", "--terminal", "burn", "--program-years", "5"),
        # a share beyond the first k with another payload length, an empty payload
        ("mechanism", "reconstruct", "-k", "2", "1:3943598e", "2:0b6a6b2d", "3:ff"),
        ("mechanism", "reconstruct", "-k", "1", "1:"),
        # a non-finite frontier model parameter or risk aversion
        ("frontier", "--total", "inf"),
        ("frontier", "--sigma", "inf"),
        ("frontier", "--eta", "nan"),
        ("frontier", "--tau", "nan"),
        ("frontier", "--gamma", "nan"),
        ("frontier", "--lambdas", "nan"),
        ("frontier", "--lambdas", "inf"),
        ("frontier", "--total", "nan"),
        # a scenario flag the chosen mode does not use
        ("scenario", "sweep", "--nominal"),
        ("scenario", "sweep", "--emit-config"),
        ("scenario", "B", "--epsilons", "0.5"),
        ("scenario", "B", "--horizons", "5"),
        ("scenario", "B", "--allow-out-of-range"),
        ("impact", "--epsilon", "-1"),
        # a non-finite or out-of-domain value, rejected by the type that owns it
        ("scenario", "sweep", "--horizons", "inf"),
        ("scenario", "B", "--volume", "inf"),
        ("schedule", "--volume", "inf"),
        ("schedule", "--price", "nan"),
        ("schedule", "--horizon", "inf"),
        ("decision-map", "--bear-bound", "nan"),
        ("decision-map", "--bear-bound", "0.5"),
        ("impact", "--table", "--epsilon", "5"),
        ("impact", "--share", "inf"),
        # a tranche flag that would do nothing, or more tranches a year than days
        ("schedule", "--tranches-per-year", "0"),
        ("schedule", "--start", "5"),
        ("schedule", "--tranches-per-year", "730"),
        # --emit-config prints a config, which holds no share basis and no format
        ("scenario", "B", "--emit-config", "--nominal"),
        ("scenario", "B", "--emit-config", "--markdown"),
        # a flag the terminal or the tranche rows do not read
        ("mechanism", "simulate", "--terminal", "dormancy", "--position", "5"),
        ("schedule", "--tranches-per-year", "4", "--volume", "1e10"),
        ("schedule", "--tranches-per-year", "4", "--price", "5"),
        # more tranches than a century of daily ones, rejected before any is built
        ("schedule", "--horizon", "1e6", "--tranches-per-year", "365"),
        # more periods than a century of daily ones, rejected before any array is built
        ("frontier", "--periods", "10000000000000"),
    ],
)
def test_domain_and_parse_errors_exit_2(argv, capsys):
    code, text = run_cli(*argv)
    assert code == EXIT_VALIDATION
    assert text == ""
    errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    assert len(errors) == 1


@pytest.mark.parametrize(
    "argv",
    [
        # participation = daily USD / 1e-320 overflows to inf
        ("schedule", "--volume", "1e-320"),
        # float `**2` raises OverflowError instead of returning inf
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


@pytest.mark.parametrize(
    "argv, expected_code, stdout_md5",
    [
        # σ²τ overflows to inf and meets Σx² = 0 in the variance: NaN, exit 4
        (("frontier", "--sigma", "1e154", "--tau", "10", "--lambdas", "1"), EXIT_COMPUTATION,
         "d41d8cd98f00b204e9800998ecf8427e"),
        # the stiffness overflows to inf: the immediate-liquidation limit
        (("frontier", "--sigma", "1e150", "--lambdas", "1e10,1", "--json"), EXIT_OK,
         "3ad136b32926cdcde965f144850fabc6"),
    ],
)
def test_overflowing_frontier_writes_no_numpy_warning(argv, expected_code, stdout_md5):
    code, text, err, caught = _run_captured(argv)
    assert code == expected_code
    assert hashlib.md5(text.encode()).hexdigest() == stdout_md5
    assert "Warning" not in err and caught == []
    assert len([line for line in err.splitlines() if "error:" in line]) == (code != EXIT_OK)


def test_frontier_past_sinh_overflow_prints_finite_falling_holdings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, text = run_cli("frontier", "--periods", "200", "--lambdas", "0.01", "--json")
    assert code == EXIT_OK
    rows, _, line = text.partition("]\n")
    point = json.loads(rows + "]")[0]
    holdings = [float(x) for x in line.removeprefix("holdings: ").split(", ")]
    assert len(holdings) == 201 and holdings[0] == 100 and holdings[-1] == 0
    assert all(map(math.isfinite, holdings + [point["expected_cost"], point["cost_variance"]]))
    assert all(a >= b for a, b in zip(holdings, holdings[1:]))


def test_decision_map_first_row():
    code, text = run_cli("decision-map")
    assert code == EXIT_OK
    first_data_row = text.splitlines()[2]
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
    lines = [l for l in text.splitlines() if ":" in l]
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


def test_seed_echoed_in_header():
    _, text = run_cli("--seed", "42", "decision-map")
    assert text.startswith("# seed 42")


def test_seed_env_fallback(monkeypatch):
    monkeypatch.setenv("OVERHANG_SEED", "77")
    _, text = run_cli("anchors")
    assert text.startswith("# seed 77")


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

_COMMANDS = st.one_of(
    _command("impact", share=_float(0, 0.5), epsilon=_float(0.05, 3),
             quality=st.sampled_from(["mixed", "public-venue", "bogus"]),
             participation=_float(0, 0.06), table=_SWITCH),
    _command("scenario", tail=st.lists(st.sampled_from(["A", "B", "C", "sweep", "Z"]), max_size=1),
             config=st.sampled_from(["run.ini", "ledger.ini", "bad.ini", "missing.ini"]),
             volume=_float(1e8, 3e10), nominal=_SWITCH, epsilons=_floats(0.05, 3),
             horizons=_floats(0.5, 30), allow_out_of_range=_SWITCH, emit_config=_SWITCH),
    _command("schedule", position=_float(1, 2e6), horizon=_float(0.5, 20),
             volume=_float(1e6, 3e10), price=_float(1, 2e5),
             tranches_per_year=_int(1, 365), start=_int(0, 400)),
    _command("frontier", lambdas=_floats(0, 1), periods=_int(1, 300),
             total=st.one_of(_float(1e-3, 1e6), st.sampled_from(["1e160", "1e300"])),
             tau=_float(0.01, 10), sigma=_float(0, 1e4), gamma=_float(0, 1), eta=_float(0.01, 10)),
    _command("decision-map", retention_variant=_SWITCH, bear_bound=_float(-1.5, 0.5)),
    _command("mechanism simulate",
             terminal=st.sampled_from(["dormancy", "burn", "adversarial", "liquidation", "bogus"]),
             retention=_float(0, 0.1), interval=_int(1, 365), grace=_int(1, 12),
             position=_float(1, 2e6), horizon=_int(0, 4000), program_years=_float(0.5, 20),
             tranches_per_year=_int(1, 365)),
    _command("mechanism split", secret_hex=st.sampled_from(["deadbeef", "00", "zz", ""]),
             threshold=_int(0, 8), shares=_int(0, 8)),
    _command("mechanism reconstruct", tail=st.lists(st.sampled_from(_SHARE_LINES), max_size=4),
             threshold=_int(0, 8)),
    _command("anchors"),
)

_ARGV = st.tuples(
    st.sampled_from([[], ["--seed", "5"], ["--seed", "x"]]),
    _COMMANDS,
    st.sampled_from([[], ["--json"], ["--csv"], ["--markdown"]]),
).map(lambda parts: [arg for part in parts for arg in part])


@pytest.fixture(scope="module")
def config_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("configs")
    (path / "ledger.ini").write_text("[ledger]\nposition = 1148000\nreference_price = 80000\n")
    (path / "run.ini").write_text(
        "[scenario]\nname = custom\nepsilon = 0.5\nquality = mixed\nhorizon = 8\n")
    (path / "bad.ini").write_text("[ledger]\nbogus_key = 1\n")
    return path


def _run_captured(argv):
    stderr = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(stderr):
        warnings.simplefilter("always")
        code, text = run_cli(*argv)
    return code, text, stderr.getvalue(), caught


@settings(max_examples=200, deadline=None)
@given(argv=_ARGV)
def test_fuzzed_argv_exits_cleanly(argv, config_dir):
    argv = [str(config_dir / arg) if arg.endswith(".ini") else arg for arg in argv]
    code, text, err, caught = _run_captured(argv)
    assert code in (EXIT_OK, EXIT_VALIDATION, EXIT_UNKNOWN, EXIT_COMPUTATION)
    assert text == "" or code == EXIT_OK
    assert "Traceback" not in err and "Warning" not in err
    assert len([line for line in err.splitlines() if "error:" in line]) == (code != EXIT_OK)
    assert caught == []
    assert _run_captured(argv)[:2] == (code, text)
