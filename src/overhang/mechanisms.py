"""Desk-scale disposition mechanisms on a simulated integer clock.

Covers the dead-man's-switch state machine and end-to-end disposition
replays; a patient liquidation replays a schedule's tranche program.
Everything is deterministic: time is an explicit epoch counter.
"""

from __future__ import annotations

import enum
import json
import math
from bisect import bisect_right
from itertools import repeat, starmap
from typing import NamedTuple, Optional

from overhang import checked
from overhang.decisions import TerminalState, TerminalStateKind
from overhang.ledger import btc_to_sats, burn_sats, sats_to_btc
from overhang.schedule import TrancheProgram
# perfbench/wl_shard.py:50 and wl_cli.py:41 read these names here; they live in overhang.shamir
from overhang.shamir import Share, reconstruct, split


# As globals: EnumType's __getattr__ slows every attribute read off the class.
_PATIENT_LIQUIDATION, _DORMANCY, _SILENT_BURN = (
    TerminalStateKind.PATIENT_LIQUIDATION,
    TerminalStateKind.DORMANCY_NON_RECOVERY,
    TerminalStateKind.SILENT_BURN,
)


class MechanismError(ValueError):
    """Raised for invalid mechanism parameters or transitions."""


# ---------------------------------------------------------------------------
# Dead-man's switch

class DmsAction(enum.Enum):
    PUBLISH_SHARDS = "publish-shards"
    DESTROY_SHARDS = "destroy-shards"


@checked
class DmsConfig(NamedTuple):
    heartbeat_interval: int
    grace_missed: int
    action: DmsAction

    def _check(self) -> None:
        if type(self.heartbeat_interval) is not int or type(self.grace_missed) is not int:
            raise MechanismError("heartbeat interval and grace_missed must be integers")
        if self.heartbeat_interval <= 0:
            raise MechanismError("heartbeat interval must be positive")
        if self.grace_missed < 1:
            raise MechanismError("grace_missed must be at least 1")


class DmsPhase(enum.Enum):
    ARMED = "armed"
    GRACE = "grace"
    TRIGGERED = "triggered"
    UNRECOVERABLE = "unrecoverable"


class DmsState(NamedTuple):
    phase: DmsPhase
    missed: int = 0


class DmsEvent(enum.Enum):
    HEARTBEAT = "heartbeat"
    INTERVAL_ELAPSED = "interval-elapsed"
    KEY_DESTRUCTION = "key-destruction"


ARMED = DmsState(DmsPhase.ARMED)
UNRECOVERABLE = DmsState(DmsPhase.UNRECOVERABLE)


def _is_terminal(state: DmsState, config: DmsConfig) -> bool:
    if state.phase is DmsPhase.UNRECOVERABLE:
        return True
    return state.phase is DmsPhase.TRIGGERED and config.action is DmsAction.DESTROY_SHARDS


def dms_step(state: DmsState, config: DmsConfig, event: DmsEvent) -> DmsState:
    """Advance the switch by one event; terminal states absorb.

    Key destruction ends any state unrecoverable. Each interval that elapses
    without a heartbeat counts one miss, and the grace_missed-th miss
    triggers the action: destroying the shards ends unrecoverable, and a
    triggered destroy switch takes no further event but key destruction.
    A triggered publish switch stays triggered when an interval elapses and
    re-arms on a heartbeat. A heartbeat re-arms any live switch.
    """
    if event is DmsEvent.KEY_DESTRUCTION:
        return UNRECOVERABLE
    if _is_terminal(state, config):
        raise MechanismError(f"no transitions from terminal state {state.phase.value}")
    if event is DmsEvent.HEARTBEAT:
        return ARMED
    # interval elapsed without a heartbeat
    if state.phase is DmsPhase.TRIGGERED:
        return state
    missed = state.missed + 1
    if missed >= config.grace_missed:
        if config.action is DmsAction.DESTROY_SHARDS:
            return UNRECOVERABLE
        return DmsState(DmsPhase.TRIGGERED, missed=missed)
    return DmsState(DmsPhase.GRACE, missed=missed)


# ---------------------------------------------------------------------------
# Disposition replay

class SimEvent(NamedTuple):
    """One replay event at an epoch, its amount in whole satoshis."""

    epoch: int
    kind: str
    amount_sats: int = 0

    @property
    def amount_btc(self) -> float:
        return sats_to_btc(self.amount_sats)

    def to_json(self) -> str:
        return json.dumps(
            {"epoch": self.epoch, "event": self.kind, "amount": self.amount_btc}
        )


def simulate_disposition(
    terminal: TerminalState,
    config: DmsConfig,
    tranche_program: Optional[TrancheProgram] = None,
    clock_horizon: int = 3650,
    position_btc: float = 0.0,
) -> list[SimEvent]:
    """Replay a terminal disposition over the simulated clock.

    Heartbeats cease at epoch zero (the holder is absent), so the switch
    triggers after grace_missed elapsed intervals, at interval x grace.
    Dormancy ends unrecoverable with no release; a silent burn emits one
    burn event of what ledger.burn_sats burns; the adversarial switch dumps
    the full position at the trigger epoch. Patient liquidation ignores the
    switch and releases amounts[i] at epochs[i] in tranche order, which the
    TrancheProgram record keeps in epoch order, its amounts nonnegative; it
    takes no other form of program. The replay checks only that the amounts
    sum to the position in satoshis. Only events at or before clock_horizon
    are returned; amounts are whole satoshis, from btc_to_sats(position_btc).
    """
    if not (math.isfinite(position_btc) and position_btc >= 0):
        raise MechanismError(f"position must be finite and nonnegative, got {position_btc}")
    position_sats = btc_to_sats(position_btc)
    if clock_horizon < 0:
        raise MechanismError(f"clock horizon must be nonnegative, got {clock_horizon}")
    kind = terminal.kind
    if kind is _PATIENT_LIQUIDATION:
        if not isinstance(tranche_program, TrancheProgram):
            raise MechanismError("patient liquidation requires a schedule.TrancheProgram, "
                                 f"not {type(tranche_program).__name__}")
        epochs, amounts = tranche_program
        if sum(amounts) != position_sats:
            raise MechanismError(f"tranche amounts sum to {sum(amounts)} sats, "
                                 f"not the position's {position_sats}")
        cut = bisect_right(epochs, clock_horizon)
        rows = zip(epochs[:cut], repeat("release"), amounts[:cut])
        return list(starmap(tuple.__new__, zip(repeat(SimEvent), rows)))

    trigger = config.heartbeat_interval * config.grace_missed
    if trigger > clock_horizon:
        return []
    if kind is _DORMANCY:
        outcome = [SimEvent(trigger, "shards-destroyed"), SimEvent(trigger, "unrecoverable")]
    elif kind is _SILENT_BURN:
        outcome = [SimEvent(trigger, "burn", burn_sats(position_sats, terminal.retention_fraction))]
    else:  # adversarial switch
        outcome = [SimEvent(trigger, "dump", position_sats)]
    return [SimEvent(trigger, "switch-triggered"), *outcome]
