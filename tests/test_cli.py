import io
import json

import pytest

from overhang.cli import (
    EXIT_COMPUTATION,
    EXIT_OK,
    EXIT_UNKNOWN,
    EXIT_VALIDATION,
    main,
)


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def exit_code(*argv):
    """The exit status, whether main returns it or argparse raises SystemExit."""
    try:
        return run_cli(*argv)[0]
    except SystemExit as exc:
        return exc.code


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


def test_impact_invalid_epsilon_exits_2():
    with pytest.raises(SystemExit) as excinfo:
        run_cli("impact", "--epsilon", "-1")
    assert excinfo.value.code == EXIT_VALIDATION


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


def test_scenario_config_round_trip(tmp_path):
    code, emitted = run_cli("scenario", "B", "--emit-config")
    assert code == EXIT_OK
    body = emitted.split("\n", 1)[1]  # strip the seed header
    path = tmp_path / "run.json"
    path.write_text(body)
    code, from_config = run_cli("scenario", "--config", str(path), "--json")
    assert code == EXIT_OK
    code, direct = run_cli("scenario", "B", "--json")
    assert json.loads(from_config) == json.loads(direct)


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
    ],
)
def test_domain_and_parse_errors_exit_2(argv):
    assert exit_code(*argv) == EXIT_VALIDATION


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize(
    "argv",
    [
        ("frontier", "--periods", "200", "--lambdas", "0.01"),
        # float `**2` raises OverflowError instead of returning inf
        ("frontier", "--sigma", "1e300"),
        ("frontier", "--total", "1e160", "--lambdas", "0"),
    ],
)
def test_nonfinite_frontier_exits_4_without_printing_it(argv):
    code, text = run_cli(*argv)
    assert code == EXIT_COMPUTATION
    assert text.startswith("# seed") and text.count("\n") == 1


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
