import json
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from overhang.config import _KNOWN_KEYS, ConfigError, RunConfig, dump_config, load_config
from overhang.impact import ElasticityModel, ExecutionQuality
from overhang.ledger import SupplyLedger
from overhang.scenarios import Scenario

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


# INI values are stripped lines, so a name there is printable with no
# surrounding whitespace.
ini_names = (
    st.text(st.characters(exclude_categories=("C", "Z"), include_characters=" "), min_size=1)
    .map(str.strip)
    .filter(bool)
)


def ini_text(doc: dict[str, dict]) -> str:
    return "".join(
        f"[{section}]\n" + "".join(f"{key} = {value}\n" for key, value in body.items())
        for section, body in doc.items()
    )


@settings(max_examples=300, deadline=None)
@given(cfg=configs(st.text(min_size=1)))
def test_dumped_config_loads_back_to_the_same_run(cfg):
    assert load_config(json.dumps(dump_config(cfg))) == cfg


@settings(max_examples=300, deadline=None)
@given(cfg=configs(ini_names))
def test_dumped_config_loads_back_from_ini(cfg):
    assert load_config(ini_text(dump_config(cfg))) == cfg


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
