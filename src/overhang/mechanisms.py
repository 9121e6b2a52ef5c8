"""Desk-scale disposition mechanisms on a simulated integer clock.

Covers k-of-n secret sharding over GF(256), absolute and relative timelock
conditions, the dead-man's-switch state machine, and end-to-end disposition
replays. Everything is deterministic: randomness comes from a caller-seeded
generator and time is an explicit epoch counter.
"""

from __future__ import annotations

import enum
import json
import random
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence, TYPE_CHECKING

if TYPE_CHECKING:
    from overhang.decisions import TerminalState
    from overhang.schedule import TrancheProgram

GF_REDUCTION_POLY = 0x11B  # x^8 + x^4 + x^3 + x + 1

MAX_SECRET_LEN = 64


class MechanismError(ValueError):
    """Raised for invalid mechanism parameters or transitions."""


class InsufficientSharesError(MechanismError):
    """Raised when fewer than the threshold number of shares is supplied."""


# ---------------------------------------------------------------------------
# GF(256) arithmetic and Shamir sharding

def _gf_mul(a: int, b: int) -> int:
    result = 0
    while b:
        if b & 1:
            result ^= a
        a <<= 1
        if a & 0x100:
            a ^= GF_REDUCTION_POLY
        b >>= 1
    return result


def _gf_pow(a: int, n: int) -> int:
    result = 1
    for _ in range(n):
        result = _gf_mul(result, a)
    return result


def _gf_inv(a: int) -> int:
    if a == 0:
        raise MechanismError("zero has no inverse in GF(256)")
    # a^254 = a^-1 since the multiplicative group has order 255
    return _gf_pow(a, 254)


@dataclass(frozen=True)
class Share:
    """One shard: evaluation point index and a byte-wise payload."""

    index: int
    payload: bytes

    def __post_init__(self) -> None:
        if not 1 <= self.index <= 255:
            raise MechanismError(f"share index {self.index} outside 1..255")

    def serialize(self) -> str:
        return f"{self.index}:{self.payload.hex()}"

    @classmethod
    def deserialize(cls, line: str) -> "Share":
        index_str, _, hex_payload = line.strip().partition(":")
        return cls(index=int(index_str), payload=bytes.fromhex(hex_payload))


def split(secret: bytes, k: int, n: int, rng: random.Random) -> list[Share]:
    """Split a secret into n shares with reconstruction threshold k.

    Byte-wise Shamir over GF(256): each secret byte is the constant term of
    a degree-(k-1) polynomial with rng-drawn coefficients, evaluated at
    x = 1..n. Deterministic given the rng state.
    """
    if not secret or len(secret) > MAX_SECRET_LEN:
        raise MechanismError(f"secret must be 1..{MAX_SECRET_LEN} bytes")
    if not 1 <= k <= n <= 255:
        raise MechanismError(f"require 1 <= k <= n <= 255, got k={k}, n={n}")
    coeffs = [
        [byte] + [rng.randrange(256) for _ in range(k - 1)] for byte in secret
    ]
    shares = []
    for x in range(1, n + 1):
        payload = bytearray()
        for poly in coeffs:
            acc = 0
            for power, coeff in enumerate(poly):
                acc ^= _gf_mul(coeff, _gf_pow(x, power))
            payload.append(acc)
        shares.append(Share(index=x, payload=bytes(payload)))
    return shares


def reconstruct(shares: Iterable[Share], k: int) -> bytes:
    """Recover the secret from any k distinct shares by interpolation at zero."""
    if k < 1:
        raise MechanismError(f"threshold k must be at least 1, got {k}")
    shares = list(shares)
    indices = [s.index for s in shares]
    if len(set(indices)) != len(indices):
        raise MechanismError("duplicate share indices")
    if len(shares) < k:
        raise InsufficientSharesError(f"need {k} shares, got {len(shares)}")
    subset = shares[:k]
    length = len(subset[0].payload)
    if any(len(s.payload) != length for s in subset):
        raise MechanismError("share payloads have mismatched lengths")
    secret = bytearray()
    for pos in range(length):
        acc = 0
        for i, share_i in enumerate(subset):
            # Lagrange basis at x=0: prod_{j!=i} x_j / (x_i ^ x_j)
            num, den = 1, 1
            for j, share_j in enumerate(subset):
                if i == j:
                    continue
                num = _gf_mul(num, share_j.index)
                den = _gf_mul(den, share_i.index ^ share_j.index)
            weight = _gf_mul(num, _gf_inv(den))
            acc ^= _gf_mul(share_i.payload[pos], weight)
        secret.append(acc)
    return bytes(secret)


# ---------------------------------------------------------------------------
# Timelocks

class TimelockVariant(enum.Enum):
    ABSOLUTE = "absolute"  # CLTV-style: spendable at or after an epoch
    RELATIVE = "relative"  # CSV-style: spendable after a delta since confirmation


@dataclass(frozen=True)
class TimelockCondition:
    variant: TimelockVariant
    value: int

    def __post_init__(self) -> None:
        if self.value < 0:
            raise MechanismError("timelock epoch/delta must be nonnegative")

    @classmethod
    def absolute(cls, epoch: int) -> "TimelockCondition":
        return cls(TimelockVariant.ABSOLUTE, epoch)

    @classmethod
    def relative(cls, delta: int) -> "TimelockCondition":
        return cls(TimelockVariant.RELATIVE, delta)


def timelock_spendable(
    condition: TimelockCondition, now: int, confirmed_at: int = 0
) -> bool:
    """Whether the condition is satisfied at the given simulated epoch."""
    if now < 0:
        raise MechanismError("now must be nonnegative")
    if condition.variant is TimelockVariant.ABSOLUTE:
        return now >= condition.value
    if confirmed_at > now:
        raise MechanismError("confirmed_at must not exceed now")
    return now - confirmed_at >= condition.value


# ---------------------------------------------------------------------------
# Dead-man's switch

class DmsAction(enum.Enum):
    PUBLISH_SHARDS = "publish-shards"
    EXECUTE_BURN = "execute-burn"
    DESTROY_SHARDS = "destroy-shards"


@dataclass(frozen=True)
class DmsConfig:
    heartbeat_interval: int
    grace_missed: int
    action: DmsAction

    def __post_init__(self) -> None:
        if self.heartbeat_interval <= 0:
            raise MechanismError("heartbeat interval must be positive")
        if self.grace_missed < 1:
            raise MechanismError("grace_missed must be at least 1")


class DmsPhase(enum.Enum):
    ARMED = "armed"
    GRACE = "grace"
    TRIGGERED = "triggered"
    UNRECOVERABLE = "unrecoverable"


@dataclass(frozen=True)
class DmsState:
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
    """Advance the switch by one event; terminal states absorb."""
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
        triggered = DmsState(DmsPhase.TRIGGERED, missed=missed)
        if config.action is DmsAction.DESTROY_SHARDS:
            return UNRECOVERABLE
        return triggered
    return DmsState(DmsPhase.GRACE, missed=missed)


# ---------------------------------------------------------------------------
# Disposition replay

@dataclass(frozen=True)
class SimEvent:
    epoch: int
    kind: str
    amount_btc: float = 0.0

    def to_json(self) -> str:
        return json.dumps(
            {"epoch": self.epoch, "event": self.kind, "amount": self.amount_btc}
        )


def simulate_disposition(
    terminal: "TerminalState",
    config: DmsConfig,
    tranche_program: Optional["TrancheProgram"] = None,
    clock_horizon: int = 3650,
    position_btc: float = 0.0,
) -> list[SimEvent]:
    """Replay a terminal disposition over the simulated clock.

    Heartbeats cease at epoch zero (the holder is absent), so the switch
    triggers after grace_missed elapsed intervals. Dormancy ends
    unrecoverable with no release; a silent burn emits one burn event;
    patient liquidation releases tranches as their timelocks mature; the
    adversarial switch dumps the full position at the trigger epoch.
    """
    from overhang.decisions import TerminalStateKind
    from overhang.ledger import sats_to_btc

    kind = terminal.kind
    if kind is TerminalStateKind.PATIENT_LIQUIDATION and tranche_program is None:
        raise MechanismError("patient liquidation requires a tranche program")

    log: list[SimEvent] = []
    trigger_epoch = None
    if kind is not TerminalStateKind.PATIENT_LIQUIDATION:
        state = ARMED
        epoch = 0
        while epoch + config.heartbeat_interval <= clock_horizon:
            epoch += config.heartbeat_interval
            state = dms_step(state, config, DmsEvent.INTERVAL_ELAPSED)
            if state.phase in (DmsPhase.TRIGGERED, DmsPhase.UNRECOVERABLE):
                trigger_epoch = epoch
                log.append(SimEvent(epoch, "switch-triggered"))
                break

    if kind is TerminalStateKind.DORMANCY_NON_RECOVERY:
        if trigger_epoch is not None:
            log.append(SimEvent(trigger_epoch, "shards-destroyed"))
            log.append(SimEvent(trigger_epoch, "unrecoverable"))
    elif kind is TerminalStateKind.SILENT_BURN:
        if trigger_epoch is not None:
            burned = position_btc * (1.0 - terminal.retention_fraction)
            log.append(SimEvent(trigger_epoch, "burn", amount_btc=burned))
    elif kind is TerminalStateKind.ADVERSARIAL_SWITCH:
        if trigger_epoch is not None:
            log.append(SimEvent(trigger_epoch, "dump", amount_btc=position_btc))
    else:  # patient liquidation
        assert tranche_program is not None
        released = set()
        for now in range(clock_horizon + 1):
            for i, (condition, amount_sats) in enumerate(tranche_program.tranches):
                if i in released:
                    continue
                if timelock_spendable(condition, now=now, confirmed_at=0):
                    released.add(i)
                    log.append(SimEvent(now, "release", amount_btc=sats_to_btc(amount_sats)))
    log.sort(key=lambda e: e.epoch)
    return log
