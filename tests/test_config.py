import configparser
import json
import re
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from overhang.config import _KNOWN_KEYS, ConfigError, RunConfig, dump_config, load_config
from overhang.impact import ElasticityModel, ExecutionQuality
from overhang.ledger import SupplyLedger
from overhang.scenarios import Scenario
from test_cli_golden import INI_CONFIG, LEDGER_CONFIG

MAX_SATS = 21_000_000 * 10**8


@st.composite
def ledgers(draw):
    total = draw(st.integers(1, MAX_SATS))
    lost = draw(st.integers(0, total - 1))
    position = draw(st.integers(0, total - lost))
    price = draw(st.floats(1e-3, 1e7))
    return SupplyLedger(total, lost, position, price)


def scenarios(names):
    return st.builds(
        Scenario,
        name=names,
        elasticity=st.builds(ElasticityModel, st.floats(1e-3, 1e3)),
        quality=st.sampled_from(ExecutionQuality),
        horizon=st.integers(1, 100) | st.floats(1, 1e3),
    )


def configs(names):
    return st.builds(
        RunConfig,
        ledger=ledgers(),
        scenario=st.none() | scenarios(names),
        volume=st.floats(1e-3, 1e13),
    )


# A scenario name is printable (str.isprintable), and an INI value is a
# stripped line, so a name there has no surrounding whitespace either.
printable = st.characters(exclude_categories=("C", "Z"), include_characters=" ")
ini_names = st.text(printable, min_size=1).map(str.strip).filter(bool)


def ini_text(doc: dict[str, dict]) -> str:
    return "".join(
        f"[{section}]\n" + "".join(f"{key} = {value}\n" for key, value in body.items())
        for section, body in doc.items()
    )


@settings(max_examples=300)
@given(cfg=configs(st.text(printable, min_size=1)))
def test_dumped_config_loads_back_to_the_same_run(cfg):
    assert load_config(json.dumps(dump_config(cfg))) == cfg


@settings(max_examples=300)
@given(cfg=configs(ini_names))
def test_dumped_config_loads_back_from_ini(cfg):
    assert load_config(ini_text(dump_config(cfg))) == cfg


one_line = st.text(st.characters(exclude_characters="\n"))
spaces = st.sampled_from(["", " ", "  ", "\t"])
# A blank line, or a comment line, indented or not, often a commented-out key.
filler = spaces | st.builds("{}{}{}".format, spaces, st.sampled_from("#;"),
                            one_line | st.sampled_from(["volume = 1", " position=2"]))


def some_of(names):
    """All of `names` or some of them, each once, in any order."""
    return st.permutations(sorted(names)) | st.lists(st.sampled_from(sorted(names)), unique=True)


@st.composite
def grammar_documents(draw):
    """An INI document in the documented grammar: some sections of the schema,
    each once, holding some of its keys, each once, with blank and comment
    lines anywhere and LF or CRLF line ends. Half the sections hold every key,
    and seven values in eight are a dumped run's, so many documents load; the
    rest is any text without a newline. Section and key lines are not
    indented, as configparser would read them as continuation lines."""
    cfg = draw(configs(ini_names))
    doc = dump_config(cfg._replace(scenario=draw(scenarios(ini_names))))
    lines = []
    for section in draw(some_of(_KNOWN_KEYS)):
        lines += [*draw(st.lists(filler, max_size=2)), f"[{section}]"]
        for key in draw(some_of(_KNOWN_KEYS[section])):
            value = str(doc[section][key]) if draw(st.integers(0, 7)) else draw(one_line)
            lines += [*draw(st.lists(filler, max_size=2)),
                      "{}{}={}{}{}".format(key, draw(spaces), draw(spaces), value, draw(spaces))]
    lines += draw(st.lists(filler, max_size=2))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(lines) + draw(st.sampled_from(["", end]))


def _outcome(text):
    try:
        return load_config(text)
    except ConfigError as exc:
        return str(exc)


@settings(max_examples=500)
@given(text=grammar_documents())
@example(text=INI_CONFIG)
@example(text=LEDGER_CONFIG.replace("\n", "\r\n"))
def test_grammar_document_loads_as_configparser_reads_it(text):
    """configparser, the reader this grammar replaced, is the oracle: its
    sections, sent through the unchanged JSON path, give the same run or the
    same error."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(text)
    oracle = json.dumps({name: dict(parser[name]) for name in parser.sections()})
    assert _outcome(text) == _outcome(oracle)


@pytest.mark.parametrize("value", [None, True, False, [1e10], {"usd": 1e10}])
def test_json_value_that_is_not_a_string_or_number_rejected(value):
    with pytest.raises(ConfigError, match="sections of strings and numbers$"):
        load_config(json.dumps({"run": {"volume": value}}))


@pytest.mark.parametrize("value", [12e9, 12_000_000_000, "12e9"])
def test_json_value_may_be_a_string_or_number(value):
    assert load_config(json.dumps({"run": {"volume": value}})).volume == 12e9


def test_readme_lists_exactly_the_accepted_keys():
    """The README's accepted-key bullets, one per section, name each key the
    loader accepts and no other."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    bullets = re.findall(r"^- `\[(\w+)\]`:(.*(?:\n  .*)*)", readme, re.M)
    assert {section: set(re.findall(r"`(\w+)`", body)) for section, body in bullets} == _KNOWN_KEYS
