import pytest
from hypothesis import given, strategies as st

from overhang.ledger import (
    SATS_PER_BTC,
    LedgerError,
    ShareBasis,
    SupplyLedger,
    apply_burn,
    btc_to_sats,
    format_percent,
    position_share,
)


@pytest.fixture
def default_ledger():
    return SupplyLedger.from_btc()


# The effective float is the base of the effective share.
def test_effective_float_default(default_ledger):
    share = position_share(default_ledger, ShareBasis.EFFECTIVE)
    assert default_ledger.position / share == pytest.approx(16.31e6)


def test_effective_float_zero_lost():
    ledger = SupplyLedger.from_btc(total_mined=20.01e6, lost_estimate=0)
    share = position_share(ledger, ShareBasis.EFFECTIVE)
    assert share == position_share(ledger, ShareBasis.NOMINAL)
    assert ledger.position / share == pytest.approx(20.01e6)


def test_negative_satoshi_quantity_is_invalid():
    with pytest.raises(LedgerError, match="^BTC quantities must be nonnegative$"):
        SupplyLedger(-1, 0, 0, 1.0)


def test_lost_equals_total_is_invalid():
    with pytest.raises(LedgerError):
        SupplyLedger.from_btc(total_mined=10e6, lost_estimate=10e6, position=0)


def test_position_exceeding_float_is_invalid():
    with pytest.raises(LedgerError):
        SupplyLedger.from_btc(total_mined=10e6, lost_estimate=5e6, position=6e6)


@pytest.mark.parametrize("btc", [float("inf"), float("-inf"), float("nan"), 1e301])
def test_btc_without_finite_satoshi_value_rejected(btc):
    with pytest.raises(LedgerError):
        btc_to_sats(btc)
    with pytest.raises(LedgerError):
        SupplyLedger.from_btc(position=btc)


@pytest.mark.parametrize("price", [float("nan"), float("inf"), 0.0, -1.0])
def test_reference_price_must_be_positive_and_finite(price):
    with pytest.raises(LedgerError):
        SupplyLedger.from_btc(reference_price=price)


def test_nominal_share(default_ledger):
    share = position_share(default_ledger, ShareBasis.NOMINAL)
    assert share == pytest.approx(1.148e6 / 20.01e6)
    assert format_percent(share) == "5.7%"


def test_effective_share(default_ledger):
    share = position_share(default_ledger, ShareBasis.EFFECTIVE)
    assert share == pytest.approx(1.148e6 / 16.31e6)
    assert format_percent(share) == "7.0%"


def test_zero_position_share():
    ledger = SupplyLedger.from_btc(position=0)
    assert position_share(ledger, ShareBasis.NOMINAL) == 0
    assert position_share(ledger, ShareBasis.EFFECTIVE) == 0


# A burn that retains the whole position keeps its marked-to-market value.
def test_gross_value(default_ledger):
    assert apply_burn(default_ledger, 1.0).residual_value == pytest.approx(91.84e9)


def test_gross_value_unit_case():
    ledger = SupplyLedger.from_btc(position=1)
    assert apply_burn(ledger, 1.0).residual_value == pytest.approx(80_000)


def test_burn_retention_one_percent(default_ledger):
    outcome = apply_burn(default_ledger, 0.01)
    assert outcome.burned_sats == 1_136_520 * SATS_PER_BTC
    assert outcome.residual_sats == 11_480 * SATS_PER_BTC
    assert outcome.residual_value == pytest.approx(0.9184e9)
    assert outcome.ledger_after.total_mined_sats == (
        default_ledger.total_mined_sats - outcome.burned_sats
    )


def test_burn_noop(default_ledger):
    outcome = apply_burn(default_ledger, 1.0)
    assert outcome.burned_sats == 0
    assert outcome.ledger_after == default_ledger


def test_burn_full(default_ledger):
    outcome = apply_burn(default_ledger, 0.0)
    assert outcome.burned_sats == default_ledger.position_sats
    assert position_share(outcome.ledger_after, ShareBasis.EFFECTIVE) == 0


def test_burn_retention_out_of_range(default_ledger):
    with pytest.raises(LedgerError):
        apply_burn(default_ledger, 1.5)


@given(retention=st.floats(min_value=0, max_value=1))
def test_burn_conserves_coins(retention):
    ledger = SupplyLedger.from_btc()
    outcome = apply_burn(ledger, retention)
    assert outcome.burned_sats + outcome.residual_sats == ledger.position_sats
    # effective float shrinks by exactly the burned amount
    before = ledger.total_mined_sats - ledger.lost_estimate_sats
    after = (
        outcome.ledger_after.total_mined_sats - outcome.ledger_after.lost_estimate_sats
    )
    assert before - after == outcome.burned_sats


@given(lost=st.integers(min_value=0, max_value=18_000_000))
def test_share_basis_ordering(lost):
    ledger = SupplyLedger.from_btc(lost_estimate=float(lost))
    nominal = position_share(ledger, ShareBasis.NOMINAL)
    effective = position_share(ledger, ShareBasis.EFFECTIVE)
    assert effective >= nominal
    assert (effective == nominal) == (lost == 0)


def test_more_lost_coins_raises_effective_share_only():
    low = SupplyLedger.from_btc(lost_estimate=2e6)
    high = SupplyLedger.from_btc(lost_estimate=4e6)
    assert position_share(high, ShareBasis.EFFECTIVE) > position_share(
        low, ShareBasis.EFFECTIVE
    )
    assert position_share(high, ShareBasis.NOMINAL) == position_share(
        low, ShareBasis.NOMINAL
    )


def test_percent_rounding_half_away_from_zero():
    assert format_percent(0.0565) == "5.7%"
    assert format_percent(-0.0565) == "-5.7%"
    assert format_percent(0.0014, decimals=2) == "0.14%"
