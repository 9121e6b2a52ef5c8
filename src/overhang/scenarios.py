"""Named calibration scenarios, empirical anchors, and sensitivity sweeps.

A scenario bundles an elasticity, an execution quality, and a horizon; a
run composes the effective-float share, the uniform schedule, permanent
impact, friction, and an anchor classification. The sweep evaluates the
full cross-product and reports the impact bound: a schedule and label per
horizon, a permanent impact per ε, a friction band per (quality, horizon)
column, and a total and anchor class per (ε, band), picked for all columns
at once; a cell costs only its own name and record.
"""

from __future__ import annotations

import enum
import math
from itertools import chain, repeat, starmap
from operator import itemgetter
from typing import NamedTuple, Optional, Sequence

from overhang import checked
from overhang import impact as impact_model
from overhang import ledger as supply_ledger
from overhang import schedule as liquidation_schedule
from overhang.impact import (
    ElasticityModel,
    EPSILON_RANGE,
    ExecutionQuality,
    FrictionBand,
)
from overhang.ledger import ShareBasis, SupplyLedger
from overhang.schedule import Schedule, ScheduleParams


class ScenarioError(ValueError):
    """Raised for invalid scenario definitions or grids."""


class AnchorClass(enum.Enum):
    NEAR_SILK_ROAD = "NearSilkRoad"
    BETWEEN = "Between"
    NEAR_GERMAN = "NearGerman"


# As globals: EnumType's __getattr__ slows every attribute read off the class.
_NEAR_SILK_ROAD, _BETWEEN, _NEAR_GERMAN = (
    AnchorClass.NEAR_SILK_ROAD, AnchorClass.BETWEEN, AnchorClass.NEAR_GERMAN
)

# Classification thresholds calibrated so the three built-ins bracket the
# anchors (A near Silk Road, C near German, B between); a calibration choice.
SILK_ROAD_THRESHOLD = -0.08
GERMAN_THRESHOLD = -0.15

DEFAULT_EPSILON_GRID = (0.3, 0.5, 0.7, 1.0, 1.5)
DEFAULT_HORIZON_GRID = (5, 10, 12)
MAX_SWEEP_CELLS = 100_000


@checked
class Scenario(NamedTuple):
    name: str
    elasticity: ElasticityModel
    quality: ExecutionQuality
    horizon: float

    def _check(self) -> None:
        if not self.name:
            raise ScenarioError("scenario name must be non-empty")
        if not self.name.isprintable():  # a newline or escape would forge table output
            raise ScenarioError(f"scenario name must be printable, got {self.name!r}")
        _check_horizon(self.horizon)


def _check_horizon(horizon: float) -> None:
    if not 1 <= horizon < math.inf:
        raise ScenarioError(f"horizon must be finite and at least one year, got {horizon}")


class AnchorEvent(NamedTuple):
    name: str
    amount_btc: float
    observed_impact: Optional[tuple[float, float]]
    execution_class: ExecutionQuality
    note: str = ""


class ScenarioResult(NamedTuple):
    """One evaluated cell; sweep cells share their column's schedule and band."""

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
        return _NEAR_SILK_ROAD
    if low <= GERMAN_THRESHOLD:
        return _NEAR_GERMAN
    return _BETWEEN


def run_scenario(
    scenario: Scenario,
    ledger: SupplyLedger,
    volume: float = liquidation_schedule.DEFAULT_DAILY_VOLUME_USD,
    basis: ShareBasis = ShareBasis.EFFECTIVE,
) -> ScenarioResult:
    """Evaluate one scenario against a ledger and reference daily volume."""
    share = supply_ledger.position_share(ledger, basis)
    schedule = liquidation_schedule.build_uniform_schedule(
        ScheduleParams(ledger.position, scenario.horizon, volume, ledger.reference_price))
    permanent = impact_model.permanent_impact(share, scenario.elasticity)
    band = impact_model.friction_band(scenario.quality, schedule.participation)
    total, anchor_class = _classified_total(permanent, band)
    return ScenarioResult(scenario.name, schedule, permanent, band, total, anchor_class)


def _classified_total(
    permanent: float, band: FrictionBand
) -> tuple[tuple[float, float], AnchorClass]:
    """Combine a permanent impact with a friction band and classify the total."""
    total = impact_model.combine(permanent, band)
    return total, classify_against_anchors(total)


class SweepSummary(NamedTuple):
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
    """Cross-product evaluation over elasticity, quality, and horizon grids.

    Each cell's total and anchor class depend only on its elasticity and
    friction band, so they are computed once per (ε, band) and shared by
    every cell with that band. A sweep holds at most MAX_SWEEP_CELLS cells,
    so its size is checked before any is built.
    """
    if not epsilon_grid or not quality_set or not horizon_grid:
        raise ScenarioError("sweep grids must be non-empty")
    cells = len(epsilon_grid) * len(quality_set) * len(horizon_grid)
    if cells > MAX_SWEEP_CELLS:
        raise ScenarioError(f"{cells} sweep cells exceed the limit of {MAX_SWEEP_CELLS}")
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
    results: list[ScenarioResult] = []
    totals: list[tuple[float, float]] = []
    for eps in sorted(epsilon_grid):
        permanent = impact_model.permanent_impact(share, ElasticityModel(eps))
        if not results:
            # Built after the first elasticity is validated, so a grid with
            # several faults raises the one the cell-by-cell order meets first.
            bands, suffixes, schedules, indices = _sweep_columns(
                ledger, quality_set, horizons, volume)
            # itemgetter of one index returns the item, not a 1-tuple; a single
            # column has a single band, so its picks are the whole tuple
            pick = itemgetter(*indices) if len(indices) > 1 else tuple
            cell_bands = pick(bands)
        band_totals, classes = zip(*[_classified_total(permanent, band) for band in bands])
        totals += band_totals
        results += starmap(tuple.__new__, zip(repeat(ScenarioResult), zip(
            map(f"eps={eps}".__add__, suffixes), schedules, repeat(permanent), cell_bands,
            pick(band_totals), pick(classes))))
    return SweepSummary(
        results=tuple(results),
        min_abs_total=min(map(abs, chain.from_iterable(totals))),
        max_abs_total=max(map(abs, chain.from_iterable(totals))),
    )


def _sweep_columns(
    ledger: SupplyLedger,
    quality_set: Sequence[ExecutionQuality],
    horizons: Sequence[float],
    volume: float,
) -> tuple[list[FrictionBand], list[str], list[Schedule], list[int]]:
    """The distinct friction bands in order of first appearance, and the
    (quality, horizon) columns' name suffixes, schedules and band indices,
    one list each in sweep order.

    The first quality's pass checks and schedules each horizon in turn, so
    faults keep the cell-by-cell order. Only the first horizon's
    ScheduleParams runs its check; later ones differ only in the horizon,
    just checked, and are built in bulk (overhang.checked). A column then
    costs one friction band, and its suffix joins two labels built once.
    """
    schedules: list[Schedule] = []
    band_index: dict[FrictionBand, int] = {}
    indices = []
    for quality in quality_set:
        for j, horizon in enumerate(horizons):
            if j == len(schedules):
                _check_horizon(horizon)
                row = (ledger.position, horizon, volume, ledger.reference_price)
                params = tuple.__new__(ScheduleParams, row) if schedules else ScheduleParams(*row)
                schedules.append(liquidation_schedule.build_uniform_schedule(params))
            band = impact_model.friction_band(quality, schedules[j].participation)
            indices.append(band_index.setdefault(band, len(band_index)))
    labels = [f"/{horizon}y" for horizon in horizons]
    suffixes = [*chain.from_iterable(map(("/" + q.value).__add__, labels) for q in quality_set)]
    return list(band_index), suffixes, schedules * len(quality_set), indices
