"""Preference sets, terminal dispositions, their consistency map, and supply effects.

Marks are three-valued (consistent / weak / inconsistent); no probabilities
are attached. The ranking over terminal states is ordinal: count of
consistent marks, then weak marks, then declaration order on ties.
"""

from __future__ import annotations

import enum
import functools
from operator import attrgetter, itemgetter
from types import MappingProxyType
from typing import Mapping, NamedTuple, Optional, Sequence

from overhang import checked
from overhang.ledger import SupplyLedger, burn_sats, sats_to_btc


class DecisionError(ValueError):
    """Raised for malformed matrices or inconsistent inputs."""


class PreferenceSet(enum.Enum):
    IDEOLOGICAL_NON_INTERVENTION = "ideological-non-intervention"
    PRIVACY_ABOVE_ALL = "privacy-above-all"
    SATISFICING_HABIT = "satisficing-habit"
    KEY_LOSS_INCAPACITY = "key-loss-incapacity"
    GROUP_STALEMATE = "group-stalemate"
    MYTH_PRESERVATION = "myth-preservation"
    LEGAL_CAUTION = "legal-caution"
    ADVERSARIAL = "adversarial"
    PURE_WEALTH_MAX = "pure-wealth-max"


class TerminalStateKind(enum.Enum):
    DORMANCY_NON_RECOVERY = "dormancy-non-recovery"
    SILENT_BURN = "silent-burn"
    ADVERSARIAL_SWITCH = "adversarial-switch"
    PATIENT_LIQUIDATION = "patient-liquidation"


MAX_BURN_RETENTION = 0.05
# A global: EnumType's __getattr__ slows every attribute read off the class.
_SILENT_BURN = TerminalStateKind.SILENT_BURN


@checked
class TerminalState(NamedTuple):
    kind: TerminalStateKind
    retention_fraction: float = 0.0

    def _check(self) -> None:
        if self.kind is _SILENT_BURN:
            if not 0.0 <= self.retention_fraction <= MAX_BURN_RETENTION:
                raise DecisionError(
                    f"burn retention {self.retention_fraction} outside "
                    f"[0, {MAX_BURN_RETENTION}]"
                )
        elif self.retention_fraction != 0.0:
            raise DecisionError("retention applies only to silent burn")


class Mark(enum.Enum):
    CONSISTENT = "consistent"
    WEAK = "weak"
    INCONSISTENT = "inconsistent"


@checked
class ConsistencyMatrix(NamedTuple):
    """Total map over (preference set, terminal state kind) pairs."""

    entries: Mapping[tuple[PreferenceSet, TerminalStateKind], Mark]

    def _check(self) -> None:
        missing = [
            (p, t)
            for p in PreferenceSet
            for t in TerminalStateKind
            if (p, t) not in self.entries
        ]
        if missing:
            raise DecisionError(f"matrix not total; missing {missing[:3]}...")
        if len(self.entries) != len(PreferenceSet) * len(TerminalStateKind):
            raise DecisionError("matrix has entries beyond the (preference, state) pairs")

    def mark(self, preference: PreferenceSet, state: TerminalStateKind) -> Mark:
        return self.entries[(preference, state)]


_C, _W, _I = Mark.CONSISTENT, Mark.WEAK, Mark.INCONSISTENT
# Each preference set's marks, in TerminalStateKind order: dormancy, silent
# burn, adversarial switch, patient liquidation.
_MARKS = {
    PreferenceSet.IDEOLOGICAL_NON_INTERVENTION: (_C, _C, _I, _I),
    PreferenceSet.PRIVACY_ABOVE_ALL: (_C, _I, _I, _I),
    PreferenceSet.SATISFICING_HABIT: (_C, _I, _I, _I),
    PreferenceSet.KEY_LOSS_INCAPACITY: (_C, _I, _I, _I),
    PreferenceSet.GROUP_STALEMATE: (_C, _I, _I, _I),
    PreferenceSet.MYTH_PRESERVATION: (_C, _C, _I, _I),
    PreferenceSet.LEGAL_CAUTION: (_C, _I, _I, _I),
    # Weak rather than consistent: the record argues against both as dominant.
    PreferenceSet.ADVERSARIAL: (_I, _I, _W, _I),
    PreferenceSet.PURE_WEALTH_MAX: (_I, _I, _I, _W),
}
# The rows the retention variant replaces: partial burn is weak for these.
_RETENTION_MARKS = {
    PreferenceSet.SATISFICING_HABIT: (_C, _W, _I, _I),
    PreferenceSet.LEGAL_CAUTION: (_C, _W, _I, _I),
}


@functools.cache
def consistency_matrix(retention_variant: bool = False) -> ConsistencyMatrix:
    """The built-in preference-set x terminal-state consistency map, read from
    one table of marks, a row per preference set.

    With retention_variant, the partial-burn variant earns weak marks from
    the satisficing and legal-caution preference sets. The matrix is built
    once per variant and shared by every caller, so its entries are a
    read-only mapping.
    """
    rows = {**_MARKS, **_RETENTION_MARKS} if retention_variant else _MARKS
    entries = {(p, t): mark for p, marks in rows.items()
               for t, mark in zip(TerminalStateKind, marks, strict=True)}
    return ConsistencyMatrix(entries=MappingProxyType(entries))


def rank_terminal_states(matrix: ConsistencyMatrix) -> list[TerminalStateKind]:
    """Ordinal ranking by (consistent count, weak count), declaration-order ties:
    the marks are tallied in one pass, and the stable sort keeps tied states in order."""
    consistent = dict.fromkeys(TerminalStateKind, 0)
    weak = dict.fromkeys(TerminalStateKind, 0)
    consistent_mark, weak_mark = Mark.CONSISTENT, Mark.WEAK  # read once, not once per entry
    for (_, state), mark in matrix.entries.items():
        if mark is consistent_mark:
            consistent[state] += 1
        elif mark is weak_mark:
            weak[state] += 1
    return sorted(TerminalStateKind, key=lambda state: (-consistent[state], -weak[state]))


class MarketSign(enum.Enum):
    BULLISH = "bullish"
    NEUTRAL = "neutral"
    BEARISH = "bearish"


@checked
class SupplyEffect(NamedTuple):
    delta_effective_float: float  # BTC, signed
    market_sign: MarketSign
    bound: Optional[float] = None

    def _check(self) -> None:
        if self.market_sign is MarketSign.BEARISH and (
            self.bound is None or not -1.0 <= self.bound <= 0.0
        ):
            raise DecisionError(f"a bearish effect needs a bound in [-1, 0], got {self.bound}")


def supply_effect(
    state: TerminalState, ledger: SupplyLedger, bear_bound: float
) -> SupplyEffect:
    """Effective-float delta and market sign of one terminal state.

    Dormancy and burn subtract the position (less any retention) from
    effective float; the adversarial switch and patient liquidation return
    it to float, bearish with the supplied bound.
    """
    if ledger.position_sats == 0:
        return SupplyEffect(0.0, MarketSign.NEUTRAL)
    if state.kind in (
        TerminalStateKind.DORMANCY_NON_RECOVERY,
        TerminalStateKind.SILENT_BURN,
    ):
        removed = burn_sats(ledger.position_sats, state.retention_fraction)
        return SupplyEffect(-sats_to_btc(removed), MarketSign.BULLISH)
    return SupplyEffect(ledger.position, MarketSign.BEARISH, bound=bear_bound)


class BearCaseReport(NamedTuple):
    worst_case_bound: tuple[float, float]
    ranking: tuple[TerminalStateKind, ...]
    effects: tuple[SupplyEffect, ...]


def bear_case_summary(
    matrix: ConsistencyMatrix,
    ledger: SupplyLedger,
    scenario_results: Sequence,
) -> BearCaseReport:
    """Structured headline: worst-case bound plus the supply effect of each
    ranked state, in ranking order.

    scenario_results are ScenarioResult values; the worst case is the widest
    total band among them, the bound of every bearish effect.
    """
    if not scenario_results:
        raise DecisionError("scenario results required")
    # The first minimal total, as min over the results keyed on total[0] finds.
    worst = min(map(attrgetter("total"), scenario_results), key=itemgetter(0))
    ranking = tuple(rank_terminal_states(matrix))
    return BearCaseReport(
        worst_case_bound=worst,
        ranking=ranking,
        effects=tuple(supply_effect(TerminalState(kind=k), ledger, worst[0]) for k in ranking),
    )
