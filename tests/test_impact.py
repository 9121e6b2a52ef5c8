import math
import random

import pytest
from hypothesis import example, given, strategies as st

from overhang.impact import (
    ElasticityModel,
    ExecutionQuality,
    FrictionBand,
    ImpactError,
    OvershootParams,
    combine,
    friction_band,
    overshoot_path,
    permanent_impact,
    relative_impact_with_growth,
    small_shift_approx,
)
from overhang.ledger import format_percent

REFERENCE_TABLE = [(1.5, "-4.4%"), (0.7, "-9.2%"), (0.3, "-20.2%")]


@pytest.mark.parametrize("epsilon, reported", REFERENCE_TABLE)
def test_reference_impact_table(epsilon, reported):
    value = permanent_impact(0.07, ElasticityModel(epsilon))
    assert format_percent(value) == reported
    assert value == pytest.approx(1.07 ** (-1 / epsilon) - 1, abs=5e-4)


def test_zero_shift_zero_impact():
    for eps in (0.3, 0.7, 1.5):
        assert permanent_impact(0.0, ElasticityModel(eps)) == 0.0


def test_invalid_elasticity():
    with pytest.raises(ImpactError):
        ElasticityModel(0.0)
    with pytest.raises(ImpactError):
        ElasticityModel(-1.0)


def test_small_shift_approx_definitional():
    assert small_shift_approx(0.01, ElasticityModel(1.0)) == pytest.approx(-0.01)
    assert small_shift_approx(0.0, ElasticityModel(0.3)) == 0.0


def test_small_shift_approx_vs_exact():
    approx = small_shift_approx(0.07, ElasticityModel(0.7))
    exact = permanent_impact(0.07, ElasticityModel(0.7))
    assert approx == pytest.approx(-0.10, abs=1e-12)
    assert abs(approx - exact) < 0.01


@given(shift=st.floats(min_value=1e-6, max_value=0.01))
def test_small_shift_relative_error_bound(shift):
    for eps in (0.3, 0.7, 1.0, 1.5):
        model = ElasticityModel(eps)
        exact = permanent_impact(shift, model)
        approx = small_shift_approx(shift, model)
        assert abs(approx - exact) / abs(exact) < 0.05


@given(
    s1=st.floats(min_value=0.001, max_value=0.5),
    s2=st.floats(min_value=0.001, max_value=0.5),
    e1=st.floats(min_value=0.1, max_value=3.0),
    e2=st.floats(min_value=0.1, max_value=3.0),
)
@example(s1=0.001, s2=0.0010000000000000002, e1=1.0, e2=1.0)
def test_permanent_impact_monotonicity(s1, s2, e1, e2):
    # Inputs a few ulps apart can round to the same impact, so the order is
    # strict only where the inputs differ by more than float resolution.
    def resolved(lo, hi):
        return hi - lo > 1e-9 * hi

    if s1 != s2:
        lo, hi = sorted((s1, s2))
        deeper = permanent_impact(hi, ElasticityModel(e1))
        shallower = permanent_impact(lo, ElasticityModel(e1))
        assert deeper < shallower if resolved(lo, hi) else deeper <= shallower
    if e1 != e2:
        lo, hi = sorted((e1, e2))
        milder = permanent_impact(s1, ElasticityModel(hi))
        harsher = permanent_impact(s1, ElasticityModel(lo))
        assert milder > harsher if resolved(lo, hi) else milder >= harsher


def test_halving_elasticity_roughly_doubles_impact():
    base = permanent_impact(0.07, ElasticityModel(0.7))
    inelastic = permanent_impact(0.07, ElasticityModel(0.3))
    assert inelastic / base == pytest.approx(2.19, abs=0.01)


@pytest.mark.parametrize(
    "quality, participation, expected",
    [
        (ExecutionQuality.DISCIPLINED_OTC, 0.0014, (1, 2)),
        (ExecutionQuality.DISCIPLINED_OTC, 0.0017, (2, 3)),
        (ExecutionQuality.MIXED, 0.0034, (3, 5)),
        (ExecutionQuality.PUBLIC_VENUE, 0.0034, (5, 8)),
    ],
)
def test_friction_schedule(quality, participation, expected):
    band = friction_band(quality, participation)
    assert (band.low, band.high) == expected


def test_friction_participation_out_of_range():
    with pytest.raises(ImpactError):
        friction_band(ExecutionQuality.MIXED, 0.06)
    with pytest.raises(ImpactError):
        friction_band(ExecutionQuality.MIXED, -0.001)


def test_public_venue_band_flagged_extrapolated():
    assert friction_band(ExecutionQuality.PUBLIC_VENUE, 0.003).extrapolated


def test_combine_base_scenario():
    result = combine(-0.092, FrictionBand(2, 3))
    assert result.total_low == pytest.approx(-0.122)
    assert result.total_high == pytest.approx(-0.112)


def test_combine_aggressive_scenario():
    result = combine(-0.202, FrictionBand(3, 5))
    assert result.total_low == pytest.approx(-0.252)
    assert result.total_high == pytest.approx(-0.232)


def test_combine_zero():
    result = combine(0.0, FrictionBand(0, 0))
    assert result.total_low == 0.0
    assert result.total_high == 0.0


def test_combine_widening_band_widens_total():
    narrow = combine(-0.1, FrictionBand(2, 3))
    wide = combine(-0.1, FrictionBand(1, 4))
    assert wide.total_low <= narrow.total_low
    assert wide.total_high >= narrow.total_high


def test_growth_invariance_flat_path():
    value = relative_impact_with_growth(0.07, ElasticityModel(0.7), [1.0] * 10)
    assert value == pytest.approx(
        permanent_impact(0.07, ElasticityModel(0.7)), rel=1e-12
    )


def test_growth_invariance_random_paths():
    rng = random.Random(20260823)
    reference = permanent_impact(0.07, ElasticityModel(0.7))
    for _ in range(100):
        path = [math.exp(rng.uniform(-0.3, 0.6)) for _ in range(rng.randint(1, 40))]
        value = relative_impact_with_growth(0.07, ElasticityModel(0.7), path)
        assert abs(value - reference) / abs(reference) < 1e-9


def test_growth_invariance_zero_shift():
    assert relative_impact_with_growth(0.0, ElasticityModel(0.5), [1.2, 0.9]) == 0.0


def test_growth_invalid_multiplier():
    with pytest.raises(ImpactError):
        relative_impact_with_growth(0.07, ElasticityModel(0.7), [1.0, -2.0])


def test_overshoot_day_zero():
    path = overshoot_path(0.0, OvershootParams(magnitude=0.125), horizon=5)
    assert path[0] == (0, pytest.approx(0.875))


def test_overshoot_zero_magnitude_is_flat():
    path = overshoot_path(-0.1, OvershootParams(magnitude=0.0), horizon=10)
    assert all(mult == pytest.approx(0.9) for _, mult in path)


def test_overshoot_decay_and_convergence():
    params = OvershootParams(magnitude=0.125, half_life=3.0)
    path = overshoot_path(-0.1, params, horizon=40)
    multipliers = [m for _, m in path]
    floor = (1 - 0.1) * (1 - params.magnitude)
    assert all(m >= floor - 1e-12 for m in multipliers)
    assert multipliers == sorted(multipliers)
    # after 10 half-lives the transient is below 1e-3 of the magnitude
    _, terminal = path[30]
    assert abs(terminal - 0.9) < 1e-3 * params.magnitude
