"""Named calibration scenarios, empirical anchors, and sensitivity sweeps.

A scenario bundles an elasticity, an execution quality, and a horizon; a
run composes the effective-float share, the uniform schedule, permanent
impact, friction, and an anchor classification. The sweep evaluates the
full cross-product and reports the impact bound, computing each schedule,
permanent impact and friction band once.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional, Sequence

from overhang import impact as impact_model
from overhang import ledger as supply_ledger
from overhang import schedule as liquidation_schedule
from overhang.impact import (
    ElasticityModel,
    EPSILON_RANGE,
    ExecutionQuality,
    FrictionBand,
    OvershootParams,
)
from overhang.ledger import ShareBasis, SupplyLedger
from overhang.schedule import Schedule, ScheduleParams


class ScenarioError(ValueError):
    """Raised for invalid scenario definitions or grids."""


class AnchorClass(enum.Enum):
    NEAR_SILK_ROAD = "NearSilkRoad"
    BETWEEN = "Between"
    NEAR_GERMAN = "NearGerman"


# Classification thresholds calibrated so the three built-ins bracket the
# anchors (A near Silk Road, C near German, B between); a calibration choice.
SILK_ROAD_THRESHOLD = -0.08
GERMAN_THRESHOLD = -0.15

DEFAULT_EPSILON_GRID = (0.3, 0.5, 0.7, 1.0, 1.5)
DEFAULT_HORIZON_GRID = (5, 10, 12)


@dataclass(frozen=True)
class Scenario:
    name: str
    elasticity: ElasticityModel
    quality: ExecutionQuality
    horizon: float
    overshoot: Optional[OvershootParams] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ScenarioError("scenario name must be non-empty")
        _check_horizon(self.horizon)


def _check_horizon(horizon: float) -> None:
    if not 1 <= horizon < math.inf:
        raise ScenarioError(f"horizon must be finite and at least one year, got {horizon}")


@dataclass(frozen=True)
class AnchorEvent:
    name: str
    amount_btc: float
    observed_impact: Optional[tuple[float, float]]
    execution_class: ExecutionQuality
    note: str = ""


@dataclass(frozen=True)
class ScenarioResult:
    scenario_name: str
    schedule: Schedule
    permanent: float
    friction: FrictionBand
    total: tuple[float, float]
    anchor_class: AnchorClass


def builtin_scenarios() -> list[Scenario]:
    """The conservative / base / aggressive calibrations, named A, B, C."""
    return [
        Scenario("A", ElasticityModel(1.5), ExecutionQuality.DISCIPLINED_OTC, 12),
        Scenario("B", ElasticityModel(0.7), ExecutionQuality.DISCIPLINED_OTC, 10),
        Scenario("C", ElasticityModel(0.3), ExecutionQuality.MIXED, 5),
    ]


def builtin_anchors() -> list[AnchorEvent]:
    """Historical state-actor sale episodes used to bracket execution quality."""
    return [
        AnchorEvent(
            name="GermanBKA",
            amount_btc=50_000,
            observed_impact=(-0.20, -0.15),
            execution_class=ExecutionQuality.PUBLIC_VENUE,
            note="2024 weekly public tranches; leverage unwinds and macro in the mix",
        ),
        AnchorEvent(
            name="SilkRoadAuctions",
            amount_btc=30_000,
            observed_impact=(-0.05, -0.02),
            execution_class=ExecutionQuality.DISCIPLINED_OTC,
            note="Marshals auctions to institutional buyers; impact per tranche",
        ),
        AnchorEvent(
            name="MtGox",
            amount_btc=140_000,
            observed_impact=None,
            execution_class=ExecutionQuality.PUBLIC_VENUE,
            note="creditor distribution, partial selling; impact unattributed",
        ),
    ]


def classify_against_anchors(total: tuple[float, float]) -> AnchorClass:
    low, high = total
    if high >= SILK_ROAD_THRESHOLD:
        return AnchorClass.NEAR_SILK_ROAD
    if low <= GERMAN_THRESHOLD:
        return AnchorClass.NEAR_GERMAN
    return AnchorClass.BETWEEN


def run_scenario(
    scenario: Scenario,
    ledger: SupplyLedger,
    volume: float = liquidation_schedule.DEFAULT_DAILY_VOLUME_USD,
    basis: ShareBasis = ShareBasis.EFFECTIVE,
) -> ScenarioResult:
    """Evaluate one scenario against a ledger and reference daily volume."""
    share = supply_ledger.position_share(ledger, basis)
    schedule = _uniform_schedule(ledger, scenario.horizon, volume)
    permanent = impact_model.permanent_impact(share, scenario.elasticity)
    band = impact_model.friction_band(scenario.quality, schedule.participation)
    return _result(scenario.name, schedule, permanent, band)


def _uniform_schedule(ledger: SupplyLedger, horizon: float, volume: float) -> Schedule:
    return liquidation_schedule.build_uniform_schedule(
        ScheduleParams(
            position=ledger.position,
            horizon=horizon,
            reference_daily_volume=volume,
            price=ledger.reference_price,
        )
    )


def _result(
    name: str, schedule: Schedule, permanent: float, band: FrictionBand
) -> ScenarioResult:
    """Combine a permanent impact with a friction band and classify the total."""
    combined = impact_model.combine(permanent, band)
    total = (combined.total_low, combined.total_high)
    return ScenarioResult(
        scenario_name=name,
        schedule=schedule,
        permanent=permanent,
        friction=band,
        total=total,
        anchor_class=classify_against_anchors(total),
    )


@dataclass(frozen=True)
class SweepSummary:
    results: tuple[ScenarioResult, ...]
    min_abs_total: float
    max_abs_total: float


def sensitivity_sweep(
    ledger: SupplyLedger,
    epsilon_grid: Sequence[float] = DEFAULT_EPSILON_GRID,
    quality_set: Sequence[ExecutionQuality] = (
        ExecutionQuality.DISCIPLINED_OTC,
        ExecutionQuality.MIXED,
    ),
    horizon_grid: Sequence[float] = DEFAULT_HORIZON_GRID,
    volume: float = liquidation_schedule.DEFAULT_DAILY_VOLUME_USD,
    allow_out_of_range: bool = False,
) -> SweepSummary:
    """Cross-product evaluation over elasticity, quality, and horizon grids."""
    if not epsilon_grid or not quality_set or not horizon_grid:
        raise ScenarioError("sweep grids must be non-empty")
    lo, hi = EPSILON_RANGE
    if not allow_out_of_range:
        for eps in epsilon_grid:
            if not lo <= eps <= hi:
                raise ScenarioError(
                    f"epsilon {eps} outside sensitivity range [{lo}, {hi}]; "
                    "pass allow_out_of_range=True to override"
                )
    share = supply_ledger.position_share(ledger, ShareBasis.EFFECTIVE)
    horizons = sorted(horizon_grid)
    columns = None
    results = []
    for eps in sorted(epsilon_grid):
        permanent = impact_model.permanent_impact(share, ElasticityModel(eps))
        if columns is None:
            # Built after the first elasticity is validated, so a grid with
            # several faults raises the one the cell-by-cell order meets first.
            columns = _sweep_columns(ledger, quality_set, horizons, volume)
        prefix = f"eps={eps}"
        for suffix, schedule, band in columns:
            results.append(_result(prefix + suffix, schedule, permanent, band))
    abs_totals = [max(abs(r.total[0]), abs(r.total[1])) for r in results]
    tightest = [min(abs(r.total[0]), abs(r.total[1])) for r in results]
    return SweepSummary(
        results=tuple(results),
        min_abs_total=min(tightest),
        max_abs_total=max(abs_totals),
    )


def _sweep_columns(
    ledger: SupplyLedger,
    quality_set: Sequence[ExecutionQuality],
    horizons: Sequence[float],
    volume: float,
) -> list[tuple[str, Schedule, FrictionBand]]:
    """Each (quality, horizon) cell's name suffix, schedule and friction band,
    in sweep order.

    The schedule is built once per position in the sorted horizon grid and
    the band once per (quality, horizon).
    """
    schedules: dict[int, Schedule] = {}
    columns = []
    for quality in quality_set:
        for j, horizon in enumerate(horizons):
            if j not in schedules:
                _check_horizon(horizon)
                schedules[j] = _uniform_schedule(ledger, horizon, volume)
            band = impact_model.friction_band(quality, schedules[j].participation)
            columns.append((f"/{quality.value}/{horizon}y", schedules[j], band))
    return columns


@dataclass(frozen=True)
class FrictionGap:
    ratio: float
    in_range: bool


def friction_gap_check(
    results: Sequence[ScenarioResult], anchors: Sequence[AnchorEvent]
) -> FrictionGap:
    """Ratio of public-venue realized impact to disciplined-execution impact.

    Requires the scenario results to span both ends of the anchor bracket.
    Uses the observed-impact band midpoints of the first public-venue and
    first disciplined anchors carrying bands; the calibrated factor is
    expected to lie in [3, 5].
    """
    classes = {r.anchor_class for r in results}
    if AnchorClass.NEAR_SILK_ROAD not in classes or AnchorClass.NEAR_GERMAN not in classes:
        raise ScenarioError(
            "results must include both NearSilkRoad and NearGerman classifications"
        )
    public = _first_with_band(anchors, ExecutionQuality.PUBLIC_VENUE)
    disciplined = _first_with_band(anchors, ExecutionQuality.DISCIPLINED_OTC)
    if public is None or disciplined is None:
        raise ScenarioError("need both public-venue and disciplined anchors with bands")
    ratio = _band_midpoint(public.observed_impact) / _band_midpoint(
        disciplined.observed_impact
    )
    return FrictionGap(ratio=ratio, in_range=3.0 <= ratio <= 5.0)


def _first_with_band(
    anchors: Sequence[AnchorEvent], quality: ExecutionQuality
) -> Optional[AnchorEvent]:
    for anchor in anchors:
        if anchor.execution_class is quality and anchor.observed_impact is not None:
            return anchor
    return None


def _band_midpoint(band: tuple[float, float]) -> float:
    return abs(band[0] + band[1]) / 2
