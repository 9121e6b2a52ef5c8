"""Monetary-base arithmetic: effective float, position shares, burn accounting.

BTC quantities are held as exact integer satoshis (1 BTC = 1e8 sat) so that
conservation checks under burn arithmetic are exact. Shares and dollar
values are computed in floating point at output time.
"""

from __future__ import annotations

import enum
import math
from decimal import ROUND_HALF_UP, Decimal
from typing import NamedTuple

from overhang import checked

SATS_PER_BTC = 10**8

# Default calibration: 20.01M mined, 3.7M lost (Chainalysis-type adjustment),
# 1.148M position, 80k USD reference price.
DEFAULT_TOTAL_MINED_BTC = 20.01e6
DEFAULT_LOST_ESTIMATE_BTC = 3.7e6
DEFAULT_POSITION_BTC = 1.148e6
DEFAULT_REFERENCE_PRICE_USD = 80_000.0


class LedgerError(ValueError):
    """Raised when ledger fields violate their invariants."""


def btc_to_sats(btc: float) -> int:
    sats = btc * SATS_PER_BTC
    if not math.isfinite(sats):
        raise LedgerError(f"BTC amount {btc} has no finite satoshi value")
    return round(sats)


def sats_to_btc(sats: int) -> float:
    return sats / SATS_PER_BTC


class ShareBasis(enum.Enum):
    NOMINAL = "nominal"
    EFFECTIVE = "effective"


@checked
class SupplyLedger(NamedTuple):
    """Monetary-base state, amounts in integer satoshis."""

    total_mined_sats: int
    lost_estimate_sats: int
    position_sats: int
    reference_price: float

    def _check(self) -> None:
        if self.total_mined_sats < 0 or self.lost_estimate_sats < 0 or self.position_sats < 0:
            raise LedgerError("BTC quantities must be nonnegative")
        if not 0 < self.reference_price < math.inf:
            raise LedgerError("reference price must be positive and finite")
        if self.lost_estimate_sats >= self.total_mined_sats:
            raise LedgerError("lost estimate must be strictly less than total mined")
        if self.position_sats > self.total_mined_sats - self.lost_estimate_sats:
            raise LedgerError("position cannot exceed effective float")

    @classmethod
    def from_btc(
        cls,
        total_mined: float = DEFAULT_TOTAL_MINED_BTC,
        lost_estimate: float = DEFAULT_LOST_ESTIMATE_BTC,
        position: float = DEFAULT_POSITION_BTC,
        reference_price: float = DEFAULT_REFERENCE_PRICE_USD,
    ) -> "SupplyLedger":
        return cls(
            total_mined_sats=btc_to_sats(total_mined),
            lost_estimate_sats=btc_to_sats(lost_estimate),
            position_sats=btc_to_sats(position),
            reference_price=reference_price,
        )

    @property
    def total_mined(self) -> float:
        return sats_to_btc(self.total_mined_sats)

    @property
    def lost_estimate(self) -> float:
        return sats_to_btc(self.lost_estimate_sats)

    @property
    def position(self) -> float:
        return sats_to_btc(self.position_sats)


class BurnOutcome(NamedTuple):
    """Result of sending part of the position to an unspendable output."""

    burned_sats: int
    residual_sats: int
    residual_value: float
    ledger_after: SupplyLedger


def position_share(ledger: SupplyLedger, basis: ShareBasis) -> float:
    """Position as a dimensionless fraction of the chosen supply base."""
    if basis is ShareBasis.NOMINAL:
        return ledger.position_sats / ledger.total_mined_sats
    return ledger.position_sats / (ledger.total_mined_sats - ledger.lost_estimate_sats)


def burn_sats(position_sats: int, retention_fraction: float) -> int:
    """Satoshis burned from a position that keeps a retained fraction.

    The one burn rule, exact at satoshi precision: the residual rounds to a
    whole satoshi and the burn takes the remainder.
    """
    if not 0.0 <= retention_fraction <= 1.0:
        raise LedgerError(f"retention fraction {retention_fraction} outside [0, 1]")
    return position_sats - round(position_sats * retention_fraction)


def apply_burn(ledger: SupplyLedger, retention_fraction: float) -> BurnOutcome:
    """Burn the position except a retained fraction; burned coins leave the base."""
    burned_sats = burn_sats(ledger.position_sats, retention_fraction)
    residual_sats = ledger.position_sats - burned_sats
    ledger_after = SupplyLedger(
        total_mined_sats=ledger.total_mined_sats - burned_sats,
        lost_estimate_sats=ledger.lost_estimate_sats,
        position_sats=residual_sats,
        reference_price=ledger.reference_price,
    )
    return BurnOutcome(
        burned_sats=burned_sats,
        residual_sats=residual_sats,
        residual_value=sats_to_btc(residual_sats) * ledger.reference_price,
        ledger_after=ledger_after,
    )


def format_percent(fraction: float, decimals: int = 1) -> str:
    """Render a fraction as a percentage, rounding half away from zero."""
    quantum = Decimal(1).scaleb(-decimals)
    pct = (Decimal(repr(fraction)) * 100).quantize(quantum, rounding=ROUND_HALF_UP)
    return f"{pct}%"
