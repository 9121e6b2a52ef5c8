"""Constant-elasticity permanent impact, execution friction, and overshoot.

Permanent impact of returning a supply fraction s to the market under
demand elasticity e is (1 + s)^(-1/e) - 1, computed as expm1(-log1p(s)/e)
so that a small s keeps its digits. Execution friction is an
additive temporary band in percentage points, stepped by execution quality
and participation rate; the four bands are shared module constants. A
transient overshoot overlay decays exponentially toward the mechanical total.
"""

from __future__ import annotations

import enum
import math
from typing import Iterable, NamedTuple, Sequence

from overhang import checked

# Heuristic elasticity sensitivity range; sweeps outside it need an override.
EPSILON_RANGE = (0.3, 1.5)

MAX_PARTICIPATION = 0.05


class ImpactError(ValueError):
    """Raised for out-of-domain impact-model inputs."""


@checked
class ElasticityModel(NamedTuple):
    """Demand elasticity: a 1% supply increase moves price ~ -1/epsilon %."""

    epsilon: float

    def _check(self) -> None:
        if not math.isfinite(self.epsilon) or self.epsilon <= 0:
            raise ImpactError(f"elasticity must be finite and positive, got {self.epsilon}")


class ExecutionQuality(enum.Enum):
    DISCIPLINED_OTC = "disciplined-otc"
    MIXED = "mixed"
    PUBLIC_VENUE = "public-venue"


@checked
class FrictionBand(NamedTuple):
    """Temporary execution concession, in percentage points (low <= high)."""

    low: float
    high: float
    extrapolated: bool = False

    def _check(self) -> None:
        if not 0 <= self.low <= self.high:
            raise ImpactError(f"invalid friction band ({self.low}, {self.high})")


# The four friction bands, shared by every caller: a band is immutable.
OTC_LOW_PARTICIPATION = 0.0015
OTC_BAND_LOW = FrictionBand(1.0, 2.0)
OTC_BAND_HIGH = FrictionBand(2.0, 3.0)
MIXED_BAND = FrictionBand(3.0, 5.0)
PUBLIC_VENUE_BAND = FrictionBand(5.0, 8.0, extrapolated=True)
# As globals: EnumType's __getattr__ slows every attribute read off the class.
_DISCIPLINED_OTC, _MIXED = ExecutionQuality.DISCIPLINED_OTC, ExecutionQuality.MIXED


@checked
class OvershootParams(NamedTuple):
    """Transient drawdown magnitude and exponential-decay half-life in days."""

    magnitude: float = 0.125
    half_life: float = 7.0

    def _check(self) -> None:
        if not 0.0 <= self.magnitude <= 1.0:
            raise ImpactError(f"overshoot magnitude {self.magnitude} outside [0, 1]")
        if not 0 < self.half_life < math.inf:
            raise ImpactError("overshoot half-life must be positive and finite")


def permanent_impact(supply_shift: float, model: ElasticityModel) -> float:
    """Price change relative to counterfactual from a permanent supply shift,
    (1 + s)^(-1/e) - 1 as expm1(-log1p(s)/e), which does not cancel for a
    small s: within 1 ulp of the exact value at the built-in shares and the
    default elasticity grid, and within 4 ulps for s in [0, 1] and e in
    EPSILON_RANGE. Adding 0.0 turns a zero shift's -0.0 into +0.0."""
    if not 0 <= supply_shift < math.inf:
        raise ImpactError(f"supply shift must be finite and nonnegative, got {supply_shift}")
    return math.expm1(-math.log1p(supply_shift) / model.epsilon) + 0.0


def friction_band(quality: ExecutionQuality, participation: float) -> FrictionBand:
    """Step schedule of temporary friction by quality and participation rate.

    The public-venue band is an extrapolation beyond the calibrated OTC and
    mixed points, flagged as such.
    """
    if not 0.0 <= participation <= MAX_PARTICIPATION:
        raise ImpactError(
            f"participation {participation} outside [0, {MAX_PARTICIPATION}]"
        )
    if quality is _DISCIPLINED_OTC:
        return OTC_BAND_LOW if participation <= OTC_LOW_PARTICIPATION else OTC_BAND_HIGH
    if quality is _MIXED:
        return MIXED_BAND
    return PUBLIC_VENUE_BAND


def combine(permanent: float, friction: FrictionBand) -> tuple[float, float]:
    """The (low, high) total: permanent impact less the friction band's
    percentage points, as signed fractions."""
    if permanent > 0:
        raise ImpactError(f"permanent impact must be nonpositive, got {permanent}")
    return permanent - friction.high / 100.0, permanent - friction.low / 100.0


def relative_impact_with_growth(
    supply_shift: float,
    model: ElasticityModel,
    growth_path: Iterable[float],
) -> float:
    """Terminal disposition-vs-counterfactual price ratio under demand growth.

    Under the constant-elasticity log-linear form each period's demand
    multiplier scales the disposition and counterfactual prices alike, so it
    cancels from their ratio: once every multiplier is checked positive and
    finite, the result is permanent_impact for the same shift, whatever the
    growth trajectory.
    """
    impact = permanent_impact(supply_shift, model)
    for multiplier in growth_path:
        if not 0 < multiplier < math.inf:
            raise ImpactError(f"demand multiplier must be positive and finite, got {multiplier}")
    return impact


def overshoot_path(
    mechanical_total: float,
    params: OvershootParams,
    horizon: int,
) -> Sequence[tuple[int, float]]:
    """Daily price multipliers: initial overshoot decaying to the mechanical level.

    Day 0 sits at (1 + total) * (1 - magnitude); the transient halves every
    half_life days and the path converges to 1 + total from below.
    """
    if type(horizon) is not int:
        raise ImpactError(f"non-integer horizon {horizon!r}")
    if horizon < 1:
        raise ImpactError("horizon must be at least one day")
    base = 1.0 + mechanical_total
    magnitude, half_life = params
    return [(day, base * (1.0 - magnitude * 2.0 ** (-day / half_life)))
            for day in range(horizon + 1)]
