import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from overhang import schedule
from overhang.ledger import SATS_PER_BTC, btc_to_sats, format_percent
from overhang.schedule import (
    DAYS_PER_YEAR,
    MAX_TRANCHES,
    Schedule,
    ScheduleError,
    ScheduleParams,
    TimelockCondition,
    TrancheProgram,
    _period_offsets,
    build_uniform_schedule,
    to_tranche_program,
)

POSITION = 1.148e6


def make_schedule(horizon, volume=15e9, price=80_000.0, position=POSITION):
    return build_uniform_schedule(
        ScheduleParams(
            position=position,
            horizon=horizon,
            reference_daily_volume=volume,
            price=price,
        )
    )


def test_ten_year_pace():
    sched = make_schedule(10)
    assert float(sched.annual_btc) == pytest.approx(114_800)
    assert float(sched.daily_btc) == pytest.approx(314.5, abs=0.1)
    assert sched.daily_usd == pytest.approx(25.16e6, rel=1e-3)
    assert sched.participation == pytest.approx(0.00168, abs=2e-5)


def test_twelve_year_pace():
    sched = make_schedule(12)
    assert float(sched.annual_btc) == pytest.approx(95_667, abs=1)
    assert sched.participation == pytest.approx(0.0014, abs=2e-5)


def test_five_year_pace():
    sched = make_schedule(5)
    assert float(sched.annual_btc) == pytest.approx(229_600)
    assert sched.participation == pytest.approx(0.0034, abs=5e-5)


@pytest.mark.parametrize(
    "horizon, reported", [(12, "0.14%"), (10, "0.17%"), (5, "0.34%")]
)
def test_participation_backout_at_reference_volume(horizon, reported):
    # 15e9 reference volume reproduces all three published participation rates
    sched = make_schedule(horizon)
    assert format_percent(sched.participation, decimals=2) == reported


@pytest.mark.parametrize("horizon", [5, 10, 12, 7])
def test_pace_roundtrips_at_satoshi_precision(horizon):
    sched = make_schedule(horizon)
    reconstructed = sched.annual_btc * horizon * SATS_PER_BTC
    assert reconstructed == sched.position_sats


def test_participation_homogeneity():
    base = make_schedule(10)
    scaled = make_schedule(10, price=160_000.0, position=POSITION / 2)
    assert scaled.participation == pytest.approx(base.participation, rel=1e-12)


@pytest.mark.parametrize("horizon", [1, 2.5, 10, 12.0, 1e300])
def test_schedule_is_the_record_its_keyword_constructor_builds(horizon):
    """build_uniform_schedule builds its Schedule positionally, without the
    keyword constructor; it is that exact type, field for field."""
    params = ScheduleParams(position=POSITION, horizon=horizon, price=80_000.0)
    sched = build_uniform_schedule(params)
    position_sats = btc_to_sats(POSITION)
    num, den = Fraction(horizon).as_integer_ratio()
    annual = Fraction(position_sats * den, SATS_PER_BTC * num)
    daily_usd = position_sats * den / (SATS_PER_BTC * num * DAYS_PER_YEAR) * 80_000.0
    keyword = Schedule(
        position_sats=position_sats,
        horizon=horizon,
        annual_btc=annual,
        daily_btc=annual / DAYS_PER_YEAR,
        daily_usd=daily_usd,
        participation=daily_usd / params.reference_daily_volume,
    )
    assert type(sched) is Schedule
    assert sched == keyword and repr(sched) == repr(keyword)
    assert [type(field) for field in sched] == [type(field) for field in keyword]


def test_invalid_horizon():
    with pytest.raises(ScheduleError):
        ScheduleParams(position=1.0, horizon=0)


@pytest.mark.parametrize("field", ["position", "horizon", "reference_daily_volume", "price"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), 0.0])
def test_nonfinite_or_nonpositive_params_rejected(field, value):
    params = {"position": 1.0, "horizon": 10} | {field: value}
    with pytest.raises(ScheduleError):
        ScheduleParams(**params)


def test_participation_check_volume_range():
    # the worked example: 25e6 daily flow against a 10-20e9 volume range
    position = 25e6 / 80_000 * 365 * 10
    low_end = make_schedule(10, volume=10e9, position=position)
    high_end = make_schedule(10, volume=20e9, position=position)
    assert low_end.participation == pytest.approx(0.0025)
    assert high_end.participation == pytest.approx(0.00125)


def test_participation_check_boundary():
    sched = make_schedule(10)
    assert make_schedule(10, volume=sched.daily_usd).participation == pytest.approx(1.0)


def test_tranche_program_annual():
    sched = make_schedule(10)
    program = to_tranche_program(sched, granularity=1, start=100)
    epochs, amounts = program
    assert len(epochs) == len(amounts) == 10
    assert all(a == round(114_800 * SATS_PER_BTC) for a in amounts)
    assert sum(amounts) == sched.position_sats
    assert epochs[0] == 100
    assert list(epochs) == sorted(epochs)
    assert len(set(epochs)) == len(epochs)


def test_single_tranche_unlocks_at_start():
    sched = make_schedule(1)
    program = to_tranche_program(sched, granularity=1, start=7)
    assert program == ((7,), (sched.position_sats,))


@pytest.mark.parametrize("granularity", [0, DAYS_PER_YEAR + 1, 2 * DAYS_PER_YEAR])
def test_granularity_outside_one_to_days_per_year_rejected(granularity):
    with pytest.raises(ScheduleError):
        to_tranche_program(make_schedule(1), granularity=granularity)


def test_daily_tranches_unlock_on_strictly_increasing_epochs():
    program = to_tranche_program(make_schedule(2), granularity=DAYS_PER_YEAR)
    assert program.epochs == tuple(range(2 * DAYS_PER_YEAR))


def test_tranche_remainder_goes_last():
    sched = build_uniform_schedule(ScheduleParams(position=1.0, horizon=3))
    program = to_tranche_program(sched, granularity=1)
    assert program.amounts == (33_333_333, 33_333_333, 33_333_334)


def test_tranche_count_bounded_by_a_century_of_daily_tranches():
    program = to_tranche_program(make_schedule(100), granularity=DAYS_PER_YEAR)
    assert len(program.epochs) == len(program.amounts) == MAX_TRANCHES == 100 * DAYS_PER_YEAR
    for horizon in (100 + 1 / DAYS_PER_YEAR, 1e6):
        with pytest.raises(ScheduleError):
            to_tranche_program(make_schedule(horizon), granularity=DAYS_PER_YEAR)


def _fraction_epochs(granularity, count, start=0):
    """The unlock epoch rule in exact rationals: round() takes a half day to the even day."""
    spacing = Fraction(DAYS_PER_YEAR, granularity)
    return [start + round(i * spacing) for i in range(count)]


def test_unlock_epochs_match_the_fraction_rule_at_every_granularity():
    # A two-year program holds 2g tranches. Adding g to i adds 365, an odd
    # number, to the whole days, so i < 2g meets every remainder with both
    # parities of the whole days: every case of the half-to-even tie.
    sched = make_schedule(2)
    for granularity in range(1, DAYS_PER_YEAR + 1):
        program = to_tranche_program(sched, granularity=granularity)
        assert list(program.epochs) == _fraction_epochs(granularity, 2 * granularity), granularity


@pytest.mark.parametrize("years", [5, 4.5])
def test_unlock_epochs_match_the_fraction_rule_past_the_first_period(years):
    # Unlock offsets repeat every two years, 730 days later. Five years hold
    # two whole periods and a half; 4.5 years end inside the third, so a wrong
    # shift in any later period, or a wrong cut of the last one, fails at every g.
    sched = make_schedule(years)
    for granularity in range(1, DAYS_PER_YEAR + 1):
        program = to_tranche_program(sched, granularity=granularity, start=3)
        count = round(years * granularity)
        assert list(program.epochs) == _fraction_epochs(granularity, count, start=3), granularity


def test_unchecked_program_equals_the_checked_constructor():
    # to_tranche_program builds its program without TrancheProgram's check.
    # One year holds fewer than 2g tranches, two years exactly 2g and 4.5
    # years more. Each granularity is built at three starts in turn, so a
    # cache that kept a first start's epochs, not offsets, fails at the next.
    for horizon in (1, 2, 4.5):
        sched = make_schedule(horizon)
        for granularity in range(1, DAYS_PER_YEAR + 1):
            count = round(horizon * granularity)
            base = sched.position_sats // count
            amounts = (base,) * (count - 1) + (sched.position_sats - base * (count - 1),)
            offsets = _fraction_epochs(granularity, count)
            for start in (0, 1, 10**6):
                program = to_tranche_program(sched, granularity=granularity, start=start)
                epochs = tuple(start + offset for offset in offsets)
                assert program == TrancheProgram(epochs, amounts), (horizon, granularity, start)
                assert type(program) is TrancheProgram
                assert type(program.epochs) is tuple and type(program.amounts) is tuple


def test_negative_start_rejected_after_the_schedule_checks():
    # to_tranche_program checks the start once, as TrancheProgram would check
    # each epoch, and only after the granularity and the tranche count
    with pytest.raises(ScheduleError, match="^timelock epoch must be nonnegative$"):
        to_tranche_program(make_schedule(1), granularity=4, start=-1)
    with pytest.raises(ScheduleError, match="granularity must be"):
        to_tranche_program(make_schedule(1), granularity=0, start=-1)
    with pytest.raises(ScheduleError, match="tranches exceed the limit"):
        to_tranche_program(make_schedule(MAX_TRANCHES + 1), granularity=1, start=-1)


@settings(max_examples=80, deadline=None)
@given(
    horizon=st.floats(min_value=1, max_value=30),
    granularity=st.integers(min_value=1, max_value=DAYS_PER_YEAR),
    start=st.one_of(st.integers(0, 10**6), st.integers(10**12, 10**15)),
)
@example(horizon=100, granularity=DAYS_PER_YEAR, start=0)
def test_columns_equal_the_fraction_rule_and_tranches_the_checked_locks(
    horizon, granularity, start
):
    # A program's epochs are the fraction rule's, its amounts split the
    # position with the remainder last, and its tranches are the pairs of the
    # checked lock at each epoch and that tranche's amount.
    sched = make_schedule(horizon)
    program = to_tranche_program(sched, granularity=granularity, start=start)
    count = round(horizon * granularity)
    base = sched.position_sats // count
    amounts = [base] * (count - 1) + [sched.position_sats - base * (count - 1)]
    epochs = _fraction_epochs(granularity, count, start)
    assert list(program.epochs) == epochs and list(program.amounts) == amounts
    locks = [TimelockCondition(epoch) for epoch in epochs]
    assert program.tranches == tuple(zip(locks, amounts))
    assert all(type(lock) is TimelockCondition for lock, _ in program.tranches)


@pytest.mark.parametrize(
    "epochs, amounts, message",
    [
        ((1, 2), (5,), "^2 unlock epochs for 1 tranche amounts$"),
        ((4, -1), (5, 5), "^timelock epoch must be nonnegative$"),
        ((5, 4), (1, 1), "^unlock epochs must not decrease$"),
        ((0, 7, 7, 6, 9), (1, 1, 1, 1, 1), "^unlock epochs must not decrease$"),
        # the amounts sum to a position, but one of them is negative
        ((1, 2), (-5, 10), "^tranche amounts must be nonnegative$"),
        ((1, 2), (-5, 10**30), "^tranche amounts must be nonnegative$"),
        # a list column could be changed after the check, out of epoch order
        ([1, 5], [1, 1], "^tranche program columns must be tuples$"),
        ((1, 5), [1, 1], "^tranche program columns must be tuples$"),
        (range(2), (1, 1), "^tranche program columns must be tuples$"),
        # an entry that is not an int: a replay once gave an event at epoch 4.5,
        # and a numpy epoch an event whose to_json raised a bare TypeError
        ((np.int64(3), 4.5), (1, 2), "^tranche epochs and amounts must be ints$"),
        ((3, 4.0), (1, 2), "^tranche epochs and amounts must be ints$"),
        ((3, 4), (True, 2), "^tranche epochs and amounts must be ints$"),
        ((3, 4), (1, np.uint8(2)), "^tranche epochs and amounts must be ints$"),
        (("3", 4), (1, 2), "^tranche epochs and amounts must be ints$"),
    ],
)
def test_a_program_that_breaks_an_invariant_rejected(epochs, amounts, message):
    with pytest.raises(ScheduleError, match=message):
        TrancheProgram(epochs, amounts)


@pytest.mark.parametrize("granularity, start", [
    (4.0, 0), (4.5, 0), (4, 1.5), (4, 1.0), ("4", 0), (4, -1.5),
    (np.int64(4), 0), (np.uint8(4), 0), (4, np.int32(3)), (True, 0), (4, True),
])
def test_non_integer_granularity_or_start_rejected_before_the_offsets(granularity, start):
    # checked first, so a float 4.0 never caches float offsets under the key 4
    _period_offsets.cache_clear()
    with pytest.raises(ScheduleError, match="^non-integer granularity"):
        to_tranche_program(make_schedule(1), granularity=granularity, start=start)
    assert _period_offsets.cache_info().currsize == 0


def test_tranche_count_limit_applies_to_the_rounded_count():
    # years x granularity = 36,500.5 rounds half to even, to exactly the limit
    program = to_tranche_program(make_schedule(MAX_TRANCHES + 0.5), granularity=1)
    assert len(program.epochs) == MAX_TRANCHES
    just_over = math.nextafter(MAX_TRANCHES + 0.5, math.inf)
    with pytest.raises(ScheduleError, match="tranches exceed the limit"):
        to_tranche_program(make_schedule(just_over), granularity=1)


@pytest.mark.parametrize(
    "horizon, granularity, count", [(1e308, DAYS_PER_YEAR, "inf"), (1e300, 1, "1e+300")]
)
def test_overflowing_tranche_count_rejected_before_rounding(horizon, granularity, count):
    message = rf"^{re.escape(count)} tranches exceed the limit of {MAX_TRANCHES}$"
    with pytest.raises(ScheduleError, match=message):
        to_tranche_program(make_schedule(horizon), granularity=granularity)


@pytest.mark.parametrize("position", [1e-9, 5e-9, 4.9e-9])
def test_position_below_one_satoshi_rejected(position):
    params = ScheduleParams(position=position, horizon=10)
    with pytest.raises(ScheduleError, match="rounds to zero satoshis"):
        build_uniform_schedule(params)


def test_one_satoshi_position_accepted():
    assert build_uniform_schedule(ScheduleParams(position=1e-8, horizon=10)).position_sats == 1


@settings(max_examples=100, deadline=None)
@given(
    horizon=st.floats(min_value=1, max_value=30),
    granularity=st.integers(min_value=1, max_value=DAYS_PER_YEAR),
    start=st.integers(min_value=0, max_value=10**6),
)
def test_unlock_epochs_match_the_fraction_rule(horizon, granularity, start):
    program = to_tranche_program(make_schedule(horizon), granularity=granularity, start=start)
    epochs = program.epochs
    assert all(type(epoch) is int for epoch in epochs)
    assert list(epochs) == _fraction_epochs(granularity, len(epochs), start)


def _fraction_pace(params):
    """The pace rule in exact rationals: the reference for the integer pace."""
    annual_btc = Fraction(btc_to_sats(params.position), SATS_PER_BTC) / Fraction(params.horizon)
    daily_btc = annual_btc / DAYS_PER_YEAR
    daily_usd = float(daily_btc) * params.price
    return annual_btc, daily_btc, daily_usd, daily_usd / params.reference_daily_volume


_PACE_HORIZONS = st.one_of(
    st.integers(1, 100),
    st.floats(1.0, 100.0),
    st.integers(3, 300).map(lambda k: k / 3),  # thirds, which no binary fraction holds
    st.integers(1, 1000).map(lambda k: 1 + k / 10),  # 1.1, 2.5, 10.1, ...
    st.floats(99.0, 100.0 + 1 / DAYS_PER_YEAR),  # near the 100-year tranche cap
)


@settings(max_examples=500, deadline=None)
@given(
    position=st.floats(1e-8, 2.1e7),
    horizon=_PACE_HORIZONS,
    volume=st.floats(1e6, 1e12),
    price=st.floats(1.0, 1e7),
)
@example(position=POSITION, horizon=2.5, volume=15e9, price=80_000.0)
@example(position=POSITION, horizon=10.1, volume=15e9, price=80_000.0)
@example(position=POSITION, horizon=1 / 3 + 1, volume=15e9, price=80_000.0)
@example(position=POSITION, horizon=100 + 1 / DAYS_PER_YEAR, volume=15e9, price=80_000.0)
def test_integer_pace_matches_the_fraction_rule(position, horizon, volume, price):
    params = ScheduleParams(
        position=position, horizon=horizon, reference_daily_volume=volume, price=price
    )
    sched = build_uniform_schedule(params)
    annual_btc, daily_btc, daily_usd, participation = _fraction_pace(params)
    assert sched.annual_btc == annual_btc
    assert sched.daily_btc == daily_btc
    assert sched.daily_usd == daily_usd
    assert sched.participation == participation
