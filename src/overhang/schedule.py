"""Participation-constrained uniform selldown schedules and tranche programs.

Pace arithmetic is kept exact and computed in integers: per-year and per-day
BTC flows are rational numbers over integer satoshis and the horizon's exact
integer ratio, so reconstructing the position from the pace round-trips
exactly, and the USD pace is one correctly rounded integer division. Tranche
unlock epochs are integers too: tranche i of g a year unlocks on
start + round-half-even(i * 365 / g), computed by integer division. The
market trades around the clock, hence the 365-day year.

The unlock offsets repeat every two years: tranche i + 2g unlocks exactly
730 days after tranche i, so the rounded offsets of one period's 2g tranches
are computed once per granularity, cached without the start, and every
program shifts them. One year would not do. Tranche i + g is exactly 365
days after tranche i before rounding, and 365 is odd, so a half day that
rounds down to an even day in one year rounds up in the next. The start
stays out of the rounding for the same reason: the rule rounds the offset,
and rounding start plus offset would send a half day the other way at an
odd start.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import cache
from typing import NamedTuple

from overhang import checked
from overhang.ledger import DEFAULT_REFERENCE_PRICE_USD, SATS_PER_BTC, btc_to_sats

DAYS_PER_YEAR = 365
MAX_TRANCHES = 100 * DAYS_PER_YEAR  # a century of daily tranches
PERIOD_DAYS = 2 * DAYS_PER_YEAR  # unlock offsets repeat every two years (module docstring)
DEFAULT_DAILY_VOLUME_USD = 15e9  # midpoint of the 10-20 billion real-spot range


class ScheduleError(ValueError):
    """Raised for invalid schedule parameters and timelocks."""


@checked
class TimelockCondition(NamedTuple):
    """CLTV-style absolute timelock: spendable at or after epoch `value`.
    A tranche program holds its unlock epochs as plain ints and builds these
    only when its tranches property is read."""

    value: int

    def _check(self) -> None:
        if self.value < 0:
            raise ScheduleError("timelock epoch must be nonnegative")


@checked
class TrancheProgram(NamedTuple):
    """Timelocked tranches as two tuple columns of ints, so no change follows
    the check: tranche i unlocks at epochs[i] and releases amounts[i]
    satoshis. Epochs are nonnegative and never decrease (ties are legal);
    amounts are nonnegative. simulate_disposition checks their sum."""

    epochs: tuple[int, ...]
    amounts: tuple[int, ...]

    def _check(self) -> None:
        epochs, amounts = self
        if type(epochs) is not tuple or type(amounts) is not tuple:
            raise ScheduleError("tranche program columns must be tuples")
        if len(epochs) != len(amounts):
            raise ScheduleError(f"{len(epochs)} unlock epochs for {len(amounts)} tranche amounts")
        if not set(map(type, epochs + amounts)) <= {int}:  # not a bool, a float or a numpy int
            raise ScheduleError("tranche epochs and amounts must be ints")
        if min(epochs, default=0) < 0:
            raise ScheduleError("timelock epoch must be nonnegative")
        if any(map(operator.gt, epochs, epochs[1:])):
            raise ScheduleError("unlock epochs must not decrease")
        if min(amounts, default=0) < 0:
            raise ScheduleError("tranche amounts must be nonnegative")

    @property
    def tranches(self) -> tuple[tuple[TimelockCondition, int], ...]:
        """The (TimelockCondition, satoshis) pairs, built on each read."""
        return tuple(zip(map(TimelockCondition, self.epochs), self.amounts))


@checked
class ScheduleParams(NamedTuple):
    position: float  # BTC
    horizon: float  # years
    reference_daily_volume: float = DEFAULT_DAILY_VOLUME_USD
    price: float = DEFAULT_REFERENCE_PRICE_USD

    def _check(self) -> None:
        if not 0 < self.position < math.inf:
            raise ScheduleError("position must be positive and finite")
        if not 1 <= self.horizon < math.inf:
            raise ScheduleError("horizon must be finite and at least one year")
        if not (0 < self.reference_daily_volume < math.inf and 0 < self.price < math.inf):
            raise ScheduleError("volume and price must be positive and finite")


class Schedule(NamedTuple):
    """Uniform liquidation program; BTC flows are exact rationals."""

    position_sats: int
    horizon: float
    annual_btc: Fraction
    daily_btc: Fraction
    daily_usd: float
    participation: float


def build_uniform_schedule(params: ScheduleParams) -> Schedule:
    """Spread the position evenly over the horizon at constant daily pace."""
    position_sats = btc_to_sats(params.position)
    if position_sats < 1:
        raise ScheduleError(f"position {params.position:g} BTC rounds to zero satoshis")
    # horizon == num / den exactly; int / int true division rounds correctly,
    # as float(Fraction) does, so every field equals the Fraction pace rule.
    num, den = params.horizon.as_integer_ratio()
    per_year = SATS_PER_BTC * num
    per_day = per_year * DAYS_PER_YEAR
    daily_usd = position_sats * den / per_day * params.price
    return tuple.__new__(Schedule, (  # Schedule's fields in order, without its keyword __new__
        position_sats,
        params.horizon,
        Fraction(position_sats * den, per_year),  # annual_btc
        Fraction(position_sats * den, per_day),  # daily_btc
        daily_usd,
        daily_usd / params.reference_daily_volume,  # participation
    ))


def to_tranche_program(
    schedule: Schedule,
    granularity: int,
    start: int = 0,
) -> TrancheProgram:
    """Split the schedule into evenly sized, strictly increasing timelocked tranches.

    granularity is tranches per year, at most one a day; tranche i unlocks on
    absolute day start + round(i * DAYS_PER_YEAR / granularity), a half day
    rounding to the even day, as round() does, and PERIOD_DAYS after tranche
    i - 2 * granularity. Any satoshi remainder goes to the final tranche. A
    program holds at most MAX_TRANCHES tranches, so its size is checked,
    before rounding, before any is built. A negative start then raises the
    ScheduleError of a negative epoch. The program skips TrancheProgram's
    check, which it passes: offsets rise within a period, the last below
    PERIOD_DAYS, so epochs strictly increase; every amount is >= base >= 0.
    """
    if type(granularity) is not int or type(start) is not int:
        raise ScheduleError(f"non-integer granularity {granularity!r} or start {start!r}")
    if not 1 <= granularity <= DAYS_PER_YEAR:
        raise ScheduleError(
            f"granularity must be 1 to {DAYS_PER_YEAR} tranches per year, got {granularity}"
        )
    count = schedule.horizon * granularity
    if count > MAX_TRANCHES + 0.5:  # round(count) > MAX_TRANCHES, checked before round() overflows
        raise ScheduleError(f"{count:g} tranches exceed the limit of {MAX_TRANCHES}")
    if start < 0:
        raise ScheduleError("timelock epoch must be nonnegative")
    n = max(1, round(count))
    offsets = _period_offsets(granularity)
    stop = start + PERIOD_DAYS * -(-n // len(offsets))
    epochs = [offset + shift for shift in range(start, stop, PERIOD_DAYS) for offset in offsets]
    del epochs[n:]
    base = schedule.position_sats // n
    amounts = (base,) * (n - 1) + (schedule.position_sats - base * (n - 1),)
    return tuple.__new__(TrancheProgram, (tuple(epochs), amounts))


@cache
def _period_offsets(granularity: int) -> tuple[int, ...]:
    """round-half-even(i * DAYS_PER_YEAR / granularity) in integers for the 2g
    tranches of one two-year period; tranche i + 2g unlocks PERIOD_DAYS later.

    Callers validate granularity first, so the cache holds at most
    DAYS_PER_YEAR entries.
    """
    offsets = []
    for i in range(2 * granularity):
        q, r = divmod(i * DAYS_PER_YEAR, granularity)
        offsets.append(q + (2 * r > granularity or (2 * r == granularity and q & 1)))
    return tuple(offsets)

