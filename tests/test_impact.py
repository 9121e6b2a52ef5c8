import decimal
import math
import random
import re
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from overhang.impact import (
    EPSILON_RANGE,
    OTC_BAND_LOW,
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
)
from overhang.ledger import ShareBasis, SupplyLedger, format_percent, position_share
from overhang.scenarios import DEFAULT_EPSILON_GRID

REFERENCE_TABLE = [(1.5, "-4.4%"), (0.7, "-9.2%"), (0.3, "-20.2%")]


@pytest.mark.parametrize("epsilon, reported", REFERENCE_TABLE)
def test_reference_impact_table(epsilon, reported):
    value = permanent_impact(0.07, ElasticityModel(epsilon))
    assert format_percent(value) == reported
    assert value == pytest.approx(1.07 ** (-1 / epsilon) - 1, abs=5e-4)


def test_zero_shift_zero_impact():
    for eps in (0.3, 0.7, 1.5):
        value = permanent_impact(0.0, ElasticityModel(eps))
        assert value == 0.0 and math.copysign(1.0, value) == 1.0  # +0.0, not -0.0


def test_invalid_elasticity():
    with pytest.raises(ImpactError):
        ElasticityModel(0.0)
    with pytest.raises(ImpactError):
        ElasticityModel(-1.0)


def _with_growth(shift, model):
    return relative_impact_with_growth(shift, model, [1.1])


_BAD_SHIFTS = [float("nan"), float("inf"), -0.01]


# permanent_impact keeps the bare ids ("nan", "inf", "-0.01") it had alone.
@pytest.mark.parametrize(
    "function, shift",
    [pytest.param(permanent_impact, shift, id=str(shift)) for shift in _BAD_SHIFTS]
    + [
        pytest.param(_with_growth, shift, id=f"relative_impact_with_growth-{shift}")
        for shift in _BAD_SHIFTS
    ],
)
def test_permanent_impact_rejects_nonfinite_or_negative_shift(function, shift):
    with pytest.raises(ImpactError):
        function(shift, ElasticityModel(0.7))


@pytest.mark.parametrize("half_life", [float("nan"), float("inf"), 0.0])
def test_overshoot_half_life_must_be_positive_and_finite(half_life):
    with pytest.raises(ImpactError):
        OvershootParams(half_life=half_life)


def test_overshoot_magnitude_must_lie_in_the_unit_interval():
    with pytest.raises(ImpactError, match=r"^overshoot magnitude 1.5 outside \[0, 1\]$"):
        OvershootParams(magnitude=1.5)


# To first order in the shift s, permanent impact is -s/ε.
def test_small_shift_approx_vs_exact():
    exact = permanent_impact(0.07, ElasticityModel(0.7))
    assert abs(-0.07 / 0.7 - exact) < 0.01


@given(shift=st.floats(min_value=1e-6, max_value=0.01))
def test_small_shift_relative_error_bound(shift):
    for eps in (0.3, 0.7, 1.0, 1.5):
        exact = permanent_impact(shift, ElasticityModel(eps))
        approx = -shift / eps
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


def exact_impact(shift, epsilon):
    """(1 + s)^(-1/ε) − 1 of the floats s and ε, in Decimal at 60 digits past
    the leading digit of s, so that a tiny shift keeps them too."""
    if shift == 0:
        return Decimal(0)
    digits = 60 + max(0, -math.floor(math.log10(shift)))
    with decimal.localcontext(decimal.Context(prec=digits)):
        return (-(1 + Decimal(shift)).ln() / Decimal(epsilon)).exp() - 1


def impact_ulps(shift, epsilon):
    """permanent_impact's distance from the exact value, in ulps of that value."""
    exact = exact_impact(shift, epsilon)
    got = permanent_impact(shift, ElasticityModel(epsilon))
    return float(abs(Decimal(got) - exact) / Decimal(math.ulp(float(exact))))


@pytest.mark.parametrize("epsilon", DEFAULT_EPSILON_GRID)
@pytest.mark.parametrize("basis", list(ShareBasis), ids=lambda basis: basis.value)
def test_permanent_impact_is_within_an_ulp_at_the_builtin_shares(basis, epsilon):
    shift = position_share(SupplyLedger.from_btc(), basis)
    assert impact_ulps(shift, epsilon) <= 1


@given(shift=st.floats(0.0, 1.0), epsilon=st.floats(*EPSILON_RANGE))
# the farthest of 200,000 random draws: 2.06 ulps
@example(shift=0.29107447707085665, epsilon=0.9351805127939328)
# (1 + s)^(-1/ε) − 1 printed −1.000000082740371e-10 here, 8.3e-8 relative off
@example(shift=1e-10, epsilon=1.0)
@example(shift=5e-324, epsilon=0.3)
def test_permanent_impact_is_within_4_ulps_over_its_range(shift, epsilon):
    assert impact_ulps(shift, epsilon) <= 4


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


@pytest.mark.parametrize(
    "quality, at_boundary, above",
    [
        (ExecutionQuality.DISCIPLINED_OTC, (1.0, 2.0, False), (2.0, 3.0, False)),
        (ExecutionQuality.MIXED, (3.0, 5.0, False), (3.0, 5.0, False)),
        (ExecutionQuality.PUBLIC_VENUE, (5.0, 8.0, True), (5.0, 8.0, True)),
    ],
)
def test_friction_band_at_the_otc_participation_boundary(quality, at_boundary, above):
    # 0.0015 itself takes disciplined OTC's lower band; the next float up does not
    for participation, expected in ((0.0015, at_boundary), (math.nextafter(0.0015, 1), above)):
        band = friction_band(quality, participation)
        assert (band.low, band.high, band.extrapolated) == expected
        assert band is friction_band(quality, participation)


def test_friction_participation_out_of_range():
    with pytest.raises(ImpactError):
        friction_band(ExecutionQuality.MIXED, 0.06)
    with pytest.raises(ImpactError):
        friction_band(ExecutionQuality.MIXED, -0.001)


def test_public_venue_band_flagged_extrapolated():
    assert friction_band(ExecutionQuality.PUBLIC_VENUE, 0.003).extrapolated


def test_combine_base_scenario():
    low, high = combine(-0.092, FrictionBand(2, 3))
    assert low == pytest.approx(-0.122)
    assert high == pytest.approx(-0.112)


def test_combine_aggressive_scenario():
    low, high = combine(-0.202, FrictionBand(3, 5))
    assert low == pytest.approx(-0.252)
    assert high == pytest.approx(-0.232)


def test_combine_zero():
    assert combine(0.0, FrictionBand(0, 0)) == (0.0, 0.0)


def test_combine_rejects_a_positive_permanent_impact():
    with pytest.raises(ImpactError, match="^permanent impact must be nonpositive, got 0.1$"):
        combine(0.1, OTC_BAND_LOW)


def test_combine_widening_band_widens_total():
    narrow_low, narrow_high = combine(-0.1, FrictionBand(2, 3))
    wide_low, wide_high = combine(-0.1, FrictionBand(1, 4))
    assert wide_low <= narrow_low
    assert wide_high >= narrow_high


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


@given(shift=st.floats(0.0, 1.0), epsilon=st.floats(*EPSILON_RANGE),
       path=st.lists(st.floats(1e-3, 1e3), max_size=40))
# the growth path's own (1 + s)^(-1/ε) once gave −1.000000082740371e-10 here,
# against permanent_impact's −9.999999999000001e-11
@example(shift=1e-10, epsilon=1.0, path=[1.0])
def test_growth_equals_permanent_impact_on_every_valid_path(shift, epsilon, path):
    model = ElasticityModel(epsilon)
    assert relative_impact_with_growth(shift, model, path) == permanent_impact(shift, model)


@pytest.mark.parametrize("multiplier", [-2.0, 0.0, math.nan, math.inf])
def test_growth_invalid_multiplier(multiplier):
    # a NaN or infinite multiplier once gave a NaN ratio
    with pytest.raises(ImpactError, match="^demand multiplier must be positive and finite"):
        relative_impact_with_growth(0.07, ElasticityModel(0.7), [1.0, multiplier])


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


def reference_overshoot_path(mechanical_total, params, horizon):
    """overshoot_path as one loop over the days: the reference for its comprehension."""
    base = 1.0 + mechanical_total
    path = []
    for day in range(horizon + 1):
        transient = params.magnitude * 2.0 ** (-day / params.half_life)
        path.append((day, base * (1.0 - transient)))
    return path


def test_overshoot_path_matches_the_loop_reference():
    rng = random.Random(23)
    for _ in range(200):
        total = rng.uniform(-0.5, 0.0)
        params = OvershootParams(rng.uniform(0.0, 1.0), rng.uniform(0.01, 60.0))
        horizon = rng.randint(1, 400)
        path = overshoot_path(total, params, horizon)
        assert [(d, v.hex()) for d, v in path] == [
            (d, v.hex()) for d, v in reference_overshoot_path(total, params, horizon)]


@pytest.mark.parametrize("horizon", [5.5, 5.0, "5", None, np.int64(5), np.uint8(5), True])
def test_overshoot_horizon_must_be_an_integer(horizon):
    with pytest.raises(ImpactError, match=f"^non-integer horizon {re.escape(repr(horizon))}$"):
        overshoot_path(-0.1, OvershootParams(), horizon)


def test_overshoot_horizon_must_be_at_least_one_day():
    with pytest.raises(ImpactError, match="^horizon must be at least one day$"):
        overshoot_path(-0.1, OvershootParams(), 0)
