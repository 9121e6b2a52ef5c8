import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from overhang.impact import ElasticityModel, ExecutionQuality
from overhang.ledger import SupplyLedger
from overhang.scenarios import (
    EPSILON_RANGE,
    AnchorClass,
    Scenario,
    ScenarioError,
    SweepSummary,
    builtin_anchors,
    builtin_scenarios,
    friction_gap_check,
    run_scenario,
    sensitivity_sweep,
)

PUBLISHED_TOTALS = {"A": (-0.06, -0.05), "B": (-0.12, -0.11), "C": (-0.25, -0.23)}


@pytest.fixture
def ledger():
    return SupplyLedger.from_btc()


@pytest.fixture
def builtins():
    return {s.name: s for s in builtin_scenarios()}


def test_builtin_calibrations(builtins):
    assert builtins["A"].elasticity.epsilon == 1.5
    assert builtins["A"].horizon == 12
    assert builtins["B"].elasticity.epsilon == 0.7
    assert builtins["B"].horizon == 10
    assert builtins["B"].quality is ExecutionQuality.DISCIPLINED_OTC
    assert builtins["C"].elasticity.epsilon == 0.3
    assert builtins["C"].quality is ExecutionQuality.MIXED
    assert builtins["C"].horizon == 5


def test_builtin_anchors():
    anchors = {a.name: a for a in builtin_anchors()}
    assert anchors["GermanBKA"].amount_btc == 50_000
    assert anchors["GermanBKA"].observed_impact == (-0.20, -0.15)
    assert anchors["SilkRoadAuctions"].observed_impact == (-0.05, -0.02)
    assert anchors["MtGox"].amount_btc == 140_000
    assert anchors["MtGox"].observed_impact is None


@pytest.mark.parametrize("name", ["A", "B", "C"])
def test_scenario_totals_match_published_bands(name, ledger, builtins):
    result = run_scenario(builtins[name], ledger)
    low, high = PUBLISHED_TOTALS[name]
    assert result.total[0] == pytest.approx(low, abs=0.006)
    assert result.total[1] == pytest.approx(high, abs=0.006)


def test_scenario_ordering(ledger, builtins):
    totals = {
        name: abs(run_scenario(builtins[name], ledger).total[0])
        for name in ("A", "B", "C")
    }
    assert totals["A"] < totals["B"] < totals["C"]


def test_anchor_classification(ledger, builtins):
    classes = {
        name: run_scenario(builtins[name], ledger).anchor_class
        for name in ("A", "B", "C")
    }
    assert classes == {
        "A": AnchorClass.NEAR_SILK_ROAD,
        "B": AnchorClass.BETWEEN,
        "C": AnchorClass.NEAR_GERMAN,
    }


def test_default_sweep_bounds(ledger):
    summary = sensitivity_sweep(ledger)
    assert summary.max_abs_total <= 0.26
    assert summary.max_abs_total == pytest.approx(0.25, abs=0.01)
    assert summary.min_abs_total == pytest.approx(0.05, abs=0.01)


def test_single_cell_sweep_matches_run(ledger, builtins):
    summary = sensitivity_sweep(
        ledger,
        epsilon_grid=[0.7],
        quality_set=[ExecutionQuality.DISCIPLINED_OTC],
        horizon_grid=[10],
    )
    assert len(summary.results) == 1
    direct = run_scenario(builtins["B"], ledger)
    assert summary.results[0].total == direct.total


def test_sweep_monotone_in_elasticity(ledger):
    summary = sensitivity_sweep(
        ledger,
        epsilon_grid=[0.3, 0.5, 0.7, 1.0, 1.5],
        quality_set=[ExecutionQuality.MIXED],
        horizon_grid=[10],
    )
    permanents = [r.permanent for r in summary.results]
    assert permanents == sorted(permanents)


def test_sweep_rejects_out_of_range_epsilon(ledger):
    with pytest.raises(ScenarioError):
        sensitivity_sweep(ledger, epsilon_grid=[0.1])
    summary = sensitivity_sweep(
        ledger,
        epsilon_grid=[2.0],
        quality_set=[ExecutionQuality.DISCIPLINED_OTC],
        horizon_grid=[10],
        allow_out_of_range=True,
    )
    assert len(summary.results) == 1


def test_sweep_rejects_empty_grid(ledger):
    with pytest.raises(ScenarioError):
        sensitivity_sweep(ledger, epsilon_grid=[])


def test_friction_gap_at_anchor_midpoints(ledger, builtins):
    results = [run_scenario(builtins[n], ledger) for n in ("A", "B", "C")]
    gap = friction_gap_check(results, builtin_anchors())
    assert gap.ratio == pytest.approx(5.0)
    assert gap.in_range


def test_friction_gap_requires_both_classes(ledger, builtins):
    results = [run_scenario(builtins["B"], ledger)]
    with pytest.raises(ScenarioError):
        friction_gap_check(results, builtin_anchors())


def test_nominal_basis_gives_smaller_impact(ledger, builtins):
    from overhang.ledger import ShareBasis

    effective = run_scenario(builtins["B"], ledger)
    nominal = run_scenario(builtins["B"], ledger, basis=ShareBasis.NOMINAL)
    assert abs(nominal.permanent) < abs(effective.permanent)


def test_duplicate_scenario_name_is_allowed_but_unique_names_expected():
    scenario = Scenario("X", ElasticityModel(0.7), ExecutionQuality.MIXED, 10)
    assert scenario.name == "X"
    with pytest.raises(ScenarioError):
        Scenario("", ElasticityModel(0.7), ExecutionQuality.MIXED, 10)


def cellwise_sweep(ledger, epsilon_grid, quality_set, horizon_grid, volume, allow_out_of_range):
    """The sweep as one Scenario and one run_scenario per cell: the reference
    for the factored sensitivity_sweep."""
    if not epsilon_grid or not quality_set or not horizon_grid:
        raise ScenarioError("sweep grids must be non-empty")
    lo, hi = EPSILON_RANGE
    if not allow_out_of_range and not all(lo <= eps <= hi for eps in epsilon_grid):
        raise ScenarioError("epsilon outside sensitivity range")
    results = []
    for eps, quality, horizon in itertools.product(
        sorted(epsilon_grid), quality_set, sorted(horizon_grid)
    ):
        scenario = Scenario(
            name=f"eps={eps}/{quality.value}/{horizon}y",
            elasticity=ElasticityModel(eps),
            quality=quality,
            horizon=horizon,
        )
        results.append(run_scenario(scenario, ledger, volume))
    return SweepSummary(
        results=tuple(results),
        min_abs_total=min(min(abs(r.total[0]), abs(r.total[1])) for r in results),
        max_abs_total=max(max(abs(r.total[0]), abs(r.total[1])) for r in results),
    )


def _outcome(sweep, *args):
    try:
        return sweep(*args)
    except Exception as exc:  # the exception type is the outcome
        return type(exc)


_EPSILONS = st.one_of(
    st.sampled_from([0.3, 0.5, 0.7, 1.0, 1.5]),
    st.floats(0.3, 1.5),
    st.floats(0.05, 3.0),
)
_HORIZONS = st.one_of(
    st.sampled_from([1, 1.0, 5, 10, 12]),
    st.floats(1.0, 40.0),
    st.integers(1, 30).map(lambda k: k / 4),
)


@settings(max_examples=300, deadline=None)
@given(
    position=st.floats(1e4, 2e6),
    epsilons=st.lists(_EPSILONS, min_size=1, max_size=5),
    qualities=st.lists(st.sampled_from(ExecutionQuality), min_size=1, max_size=4),
    horizons=st.lists(_HORIZONS, min_size=1, max_size=5),
    volume=st.floats(5e8, 3e10),
    allow_out_of_range=st.booleans(),
)
@example(  # a horizon below one year behind a valid first cell
    position=1148000.0, epsilons=[0.5, 0.7, 0.7], qualities=[ExecutionQuality.MIXED],
    horizons=[10, 0.5, 10], volume=15e9, allow_out_of_range=False,
)
@example(  # an elasticity that is not positive
    position=1148000.0, epsilons=[0.7, 0.0], qualities=[ExecutionQuality.MIXED],
    horizons=[0.5, 10], volume=15e9, allow_out_of_range=True,
)
@example(  # participation past the 5% cap only at the shorter horizons
    position=1148000.0, epsilons=[1.0, 0.3], qualities=list(ExecutionQuality),
    horizons=[12, 1, 2.5], volume=1e9, allow_out_of_range=True,
)
def test_factored_sweep_matches_cellwise_sweep(
    position, epsilons, qualities, horizons, volume, allow_out_of_range
):
    ledger = SupplyLedger.from_btc(position=position)
    args = (ledger, epsilons, qualities, horizons, volume, allow_out_of_range)
    fast = _outcome(sensitivity_sweep, *args)
    slow = _outcome(cellwise_sweep, *args)
    if isinstance(slow, type):
        assert fast is slow
    else:
        assert fast == slow
        assert repr(fast) == repr(slow)
