"""Desk-scale disposition mechanisms on a simulated integer clock.

Covers k-of-n secret sharding over GF(256), the dead-man's-switch state
machine, and end-to-end disposition replays; a patient liquidation replays a
schedule's tranche program.
Everything is deterministic: randomness comes from a caller-seeded generator
and time is an explicit epoch counter.
"""

from __future__ import annotations

import enum
import json
import math
import random
from bisect import bisect_right
from functools import reduce
from itertools import repeat, starmap
from operator import index, itemgetter, xor
from typing import Iterable, NamedTuple, Optional

from overhang import checked
from overhang.decisions import TerminalState, TerminalStateKind
from overhang.ledger import btc_to_sats, burn_sats, sats_to_btc
from overhang.schedule import TrancheProgram

GF_REDUCTION_POLY = 0x11B  # x^8 + x^4 + x^3 + x + 1

MAX_SECRET_LEN = 64


class MechanismError(ValueError):
    """Raised for invalid mechanism parameters or transitions."""


class InsufficientSharesError(MechanismError):
    """Raised when fewer than the threshold number of shares is supplied."""


# ---------------------------------------------------------------------------
# GF(256) arithmetic and Shamir sharding

def _gf_tables() -> tuple[list[int], list[int]]:
    """Powers of the generator 3 and their logarithms in GF(256).

    The power table runs to 2 x 255 entries so that a sum of two logarithms
    indexes it without reduction mod 255.
    """
    exp, log = [0] * 510, [0] * 256
    x = 1
    for power in range(255):
        exp[power] = exp[power + 255] = x
        log[x] = power
        x ^= x << 1  # x * 3 = x * 2 + x
        if x & 0x100:
            x ^= GF_REDUCTION_POLY
    return exp, log


_GF_EXP, _GF_LOG = _gf_tables()


def _gf_mul(a: int, b: int) -> int:
    if a == 0 or b == 0:
        return 0
    return _GF_EXP[_GF_LOG[a] + _GF_LOG[b]]


def _gf_inv(a: int) -> int:
    if a == 0:
        raise MechanismError("zero has no inverse in GF(256)")
    return _GF_EXP[255 - _GF_LOG[a]]


@checked
class Share(NamedTuple):
    """One shard: evaluation point index and a byte-wise payload."""

    index: int
    payload: bytes

    def _check(self) -> None:
        try:
            index(self.index)  # a numpy integer passes, a float does not
        except TypeError:
            raise MechanismError(f"non-integer share index {self.index!r}") from None
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
    x = 1..n by Horner's rule. Deterministic given the rng state.
    """
    if not secret or len(secret) > MAX_SECRET_LEN:
        raise MechanismError(f"secret must be 1..{MAX_SECRET_LEN} bytes")
    if not 1 <= k <= n <= 255:
        raise MechanismError(f"require 1 <= k <= n <= 255, got k={k}, n={n}")
    # drawn byte by byte, lowest degree first: this order fixes the seeded output
    coeffs = [
        [byte] + [rng.randrange(256) for _ in range(k - 1)] for byte in secret
    ]
    shares = []
    for x in range(1, n + 1):
        payload = bytearray()
        for poly in coeffs:
            acc = 0
            for coeff in reversed(poly):
                acc = _gf_mul(acc, x) ^ coeff
            payload.append(acc)
        shares.append(Share(index=x, payload=bytes(payload)))
    return shares


def reconstruct(shares: Iterable[Share], k: int) -> bytes:
    """Recover the secret from the first k of the shares by interpolation at zero.

    Every share given must have a distinct index and a payload of the same
    length, 1..MAX_SECRET_LEN bytes.
    """
    if k < 1:
        raise MechanismError(f"threshold k must be at least 1, got {k}")
    shares = list(shares)
    indices = [s.index for s in shares]
    if len(set(indices)) != len(indices):
        raise MechanismError("duplicate share indices")
    if len(shares) < k:
        raise InsufficientSharesError(f"need {k} shares, got {len(shares)}")
    lengths = {len(s.payload) for s in shares}
    if len(lengths) != 1 or not 1 <= min(lengths) <= MAX_SECRET_LEN:
        raise MechanismError(f"share payloads must share one length of 1..{MAX_SECRET_LEN} bytes")
    xs = indices[:k]
    # Lagrange basis at x=0: prod_{j!=i} x_j / (x_i ^ x_j), the same for every byte
    weights = []
    for i, x_i in enumerate(xs):
        num, den = 1, 1
        for j, x_j in enumerate(xs):
            if i != j:
                num = _gf_mul(num, x_j)
                den = _gf_mul(den, x_i ^ x_j)
        weights.append(_gf_mul(num, _gf_inv(den)))
    return bytes(
        reduce(xor, map(_gf_mul, column, weights))
        for column in zip(*(s.payload for s in shares[:k]))
    )


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
        try:
            index(self.heartbeat_interval), index(self.grace_missed)
        except TypeError:
            raise MechanismError("heartbeat interval and grace_missed must be integers") from None
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
    switch and releases each tranche at its unlock epoch, in (epoch, tranche
    index) order; its tranche amounts must be nonnegative and sum to the
    position in satoshis. Only events at or before clock_horizon are
    returned. Event amounts are whole satoshis, from the position in
    satoshis (btc_to_sats).
    """
    if not (math.isfinite(position_btc) and position_btc >= 0):
        raise MechanismError(f"position must be finite and nonnegative, got {position_btc}")
    position_sats = btc_to_sats(position_btc)
    if clock_horizon < 0:
        raise MechanismError(f"clock horizon must be nonnegative, got {clock_horizon}")
    kind = terminal.kind
    if kind is TerminalStateKind.PATIENT_LIQUIDATION:
        if tranche_program is None:
            raise MechanismError("patient liquidation requires a tranche program")
        tranches = tranche_program.tranches
        amounts = list(map(itemgetter(1), tranches))
        if min(amounts, default=0) < 0:
            raise MechanismError("tranche amounts must be nonnegative")
        if sum(amounts) != position_sats:
            raise MechanismError(
                f"tranche amounts sum to {sum(amounts)} sats, not the position's {position_sats}"
            )
        # each lock is the one-tuple (epoch,); a stable sort on the epoch alone
        # keeps tied tranches in index order
        epochs = map(itemgetter(0), map(itemgetter(0), tranches))
        rows = zip(epochs, repeat("release"), amounts)
        events = sorted(starmap(tuple.__new__, zip(repeat(SimEvent), rows)), key=itemgetter(0))
        del events[bisect_right(events, clock_horizon, key=itemgetter(0)):]
        return events

    trigger = config.heartbeat_interval * config.grace_missed
    if trigger > clock_horizon:
        return []
    if kind is TerminalStateKind.DORMANCY_NON_RECOVERY:
        outcome = [SimEvent(trigger, "shards-destroyed"), SimEvent(trigger, "unrecoverable")]
    elif kind is TerminalStateKind.SILENT_BURN:
        outcome = [SimEvent(trigger, "burn", burn_sats(position_sats, terminal.retention_fraction))]
    else:  # adversarial switch
        outcome = [SimEvent(trigger, "dump", position_sats)]
    return [SimEvent(trigger, "switch-triggered"), *outcome]
