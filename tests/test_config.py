import json

from hypothesis import given, settings
from hypothesis import strategies as st

from overhang.config import RunConfig, dump_config, load_config
from overhang.impact import ElasticityModel, ExecutionQuality, OvershootParams
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
        overshoot=st.none() | st.builds(OvershootParams, st.floats(0, 1), st.floats(1e-3, 1e4)),
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
