"""Participation-constrained uniform selldown schedules and tranche programs.

Pace arithmetic is kept exact and computed in integers: per-year and per-day
BTC flows are rational numbers over integer satoshis and the horizon's exact
integer ratio, so reconstructing the position from the pace round-trips
exactly, and the USD pace is one correctly rounded integer division. Tranche
unlock epochs are integers too: tranche i of g a year unlocks on
start + round-half-even(i * 365 / g), computed by integer division. The
market trades around the clock, hence the 365-day year.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from overhang.ledger import DEFAULT_REFERENCE_PRICE_USD, SATS_PER_BTC, btc_to_sats, sats_to_btc
from overhang.mechanisms import TimelockCondition, TrancheProgram

DAYS_PER_YEAR = 365
MAX_TRANCHES = 100 * DAYS_PER_YEAR  # a century of daily tranches
DEFAULT_DAILY_VOLUME_USD = 15e9  # midpoint of the 10-20 billion real-spot range


class ScheduleError(ValueError):
    """Raised for invalid schedule parameters."""


@dataclass(frozen=True)
class ScheduleParams:
    position: float  # BTC
    horizon: float  # years
    reference_daily_volume: float = DEFAULT_DAILY_VOLUME_USD
    price: float = DEFAULT_REFERENCE_PRICE_USD

    def __post_init__(self) -> None:
        if not 0 < self.position < math.inf:
            raise ScheduleError("position must be positive and finite")
        if not 1 <= self.horizon < math.inf:
            raise ScheduleError("horizon must be finite and at least one year")
        if not (0 < self.reference_daily_volume < math.inf and 0 < self.price < math.inf):
            raise ScheduleError("volume and price must be positive and finite")


@dataclass(frozen=True)
class Schedule:
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
    # horizon == num / den exactly; int / int true division rounds correctly,
    # as float(Fraction) does, so every field equals the Fraction pace rule.
    num, den = params.horizon.as_integer_ratio()
    per_year = SATS_PER_BTC * num
    per_day = per_year * DAYS_PER_YEAR
    daily_usd = position_sats * den / per_day * params.price
    return Schedule(
        position_sats=position_sats,
        horizon=params.horizon,
        annual_btc=Fraction(position_sats * den, per_year),
        daily_btc=Fraction(position_sats * den, per_day),
        daily_usd=daily_usd,
        participation=daily_usd / params.reference_daily_volume,
    )


def to_tranche_program(
    schedule: Schedule,
    granularity: int,
    start: int = 0,
) -> TrancheProgram:
    """Split the schedule into evenly sized, strictly increasing timelocked tranches.

    granularity is tranches per year, at most one a day; tranche i unlocks on
    absolute day start + round(i * DAYS_PER_YEAR / granularity), a half day
    rounding to the even day, as round() does.
    Any satoshi remainder goes to the final tranche. A program holds at most
    MAX_TRANCHES tranches, so its size is checked before any is built.
    """
    if not 1 <= granularity <= DAYS_PER_YEAR:
        raise ScheduleError(
            f"granularity must be 1 to {DAYS_PER_YEAR} tranches per year, got {granularity}"
        )
    n = max(1, round(schedule.horizon * granularity))
    if n > MAX_TRANCHES:
        raise ScheduleError(f"{n} tranches exceed the limit of {MAX_TRANCHES}")
    base = schedule.position_sats // n
    tranches = []
    for i in range(n):
        amount = base if i < n - 1 else schedule.position_sats - base * (n - 1)
        # round(i * DAYS_PER_YEAR / granularity), half to even, in integers
        q, r = divmod(i * DAYS_PER_YEAR, granularity)
        epoch = start + q + (2 * r > granularity or (2 * r == granularity and q & 1))
        tranches.append((TimelockCondition(epoch), amount))
    return TrancheProgram(tranches=tuple(tranches))


def schedule_rows(schedule: Schedule) -> list[dict]:
    """One summary row for CSV/JSON emission."""
    return [
        {
            "position_btc": sats_to_btc(schedule.position_sats),
            "horizon_years": schedule.horizon,
            "annual_btc": float(schedule.annual_btc),
            "daily_btc": float(schedule.daily_btc),
            "daily_usd": schedule.daily_usd,
            "participation": schedule.participation,
        }
    ]
