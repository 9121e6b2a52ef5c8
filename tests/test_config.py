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


scenarios = st.builds(
    Scenario,
    name=st.text(min_size=1),
    elasticity=st.builds(ElasticityModel, st.floats(1e-3, 1e3)),
    quality=st.sampled_from(ExecutionQuality),
    horizon=st.integers(1, 100) | st.floats(1, 1e3),
    overshoot=st.none() | st.builds(OvershootParams, st.floats(0, 1), st.floats(1e-3, 1e4)),
)

configs = st.builds(
    RunConfig,
    ledger=ledgers(),
    scenario=st.none() | scenarios,
    volume=st.floats(1e-3, 1e13),
)


@settings(max_examples=300, deadline=None)
@given(cfg=configs)
def test_dumped_config_loads_back_to_the_same_run(cfg):
    assert load_config(json.dumps(dump_config(cfg))) == cfg
