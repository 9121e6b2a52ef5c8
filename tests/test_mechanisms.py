import itertools
import json
import random
import re
from array import array

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from scipy import stats

from overhang.decisions import (
    MAX_BURN_RETENTION,
    TerminalState,
    TerminalStateKind,
    supply_effect,
)
from overhang.ledger import SATS_PER_BTC, SupplyLedger, apply_burn, btc_to_sats, sats_to_btc
from overhang.mechanisms import (
    DmsAction,
    DmsConfig,
    DmsEvent,
    DmsPhase,
    DmsState,
    ARMED,
    UNRECOVERABLE,
    MechanismError,
    SimEvent,
    dms_step,
    simulate_disposition,
)
from overhang.schedule import (
    DAYS_PER_YEAR,
    ScheduleError,
    ScheduleParams,
    TimelockCondition,
    TrancheProgram,
    build_uniform_schedule,
    to_tranche_program,
)
from overhang.shamir import (
    GF_REDUCTION_POLY,
    MAX_SECRET_LEN,
    InsufficientSharesError,
    Share,
    ShamirError,
    _gf_mul,
    parse_hex,
    reconstruct,
    split,
)


# --- sharding ---------------------------------------------------------------

def bitwise_gf_mul(a, b):
    """Shift-and-add multiply in GF(256): the reference for the log/exp tables."""
    result = 0
    while b:
        if b & 1:
            result ^= a
        a <<= 1
        if a & 0x100:
            a ^= GF_REDUCTION_POLY
        b >>= 1
    return result


@pytest.fixture(scope="module")
def bitwise_products():
    return [[bitwise_gf_mul(a, b) for b in range(256)] for a in range(256)]


def power_sum_split(secret, k, n, rng, products):
    """Shares as sum_p coeff_p * x**p with coefficients drawn as `split` draws them."""
    coeffs = [[byte] + [rng.randrange(256) for _ in range(k - 1)] for byte in secret]
    shares = []
    for x in range(1, n + 1):
        payload = bytearray()
        for poly in coeffs:
            acc, x_power = 0, 1
            for coeff in poly:
                acc ^= products[coeff][x_power]
                x_power = products[x_power][x]
            payload.append(acc)
        shares.append(Share(index=x, payload=bytes(payload)))
    return shares


def per_byte_reconstruct(shares, k, products):
    """Lagrange interpolation at zero from the first k shares, one byte and one
    product at a time in bitwise arithmetic: the reference for `reconstruct`."""
    xs = [s.index for s in shares[:k]]
    weights = []
    for i, x_i in enumerate(xs):
        num, den = 1, 1
        for j, x_j in enumerate(xs):
            if i != j:
                num = products[num][x_j]
                den = products[den][x_i ^ x_j]
        weights.append(products[num][products[den].index(1)])
    secret = bytearray()
    for column in zip(*(s.payload for s in shares[:k])):
        byte = 0
        for y, weight in zip(column, weights):
            byte ^= products[y][weight]
        secret.append(byte)
    return bytes(secret)


def test_table_multiply_matches_bitwise_on_all_pairs(bitwise_products):
    mismatches = [
        (a, b) for a in range(256) for b in range(256) if _gf_mul(a, b) != bitwise_products[a][b]
    ]
    assert not mismatches


def test_split_matches_power_sum_evaluation(bitwise_products):
    draws = random.Random(20261018)
    for _ in range(250):
        # mostly small shapes with secrets up to the maximum, some up to n = 255
        n = draws.choice([draws.randint(1, 16), draws.randint(1, 16), draws.randint(1, 255)])
        k = draws.randint(1, n)
        secret = draws.randbytes(draws.randint(1, MAX_SECRET_LEN if n <= 16 else 3))
        seed = draws.getrandbits(32)
        expected = power_sum_split(secret, k, n, random.Random(seed), bitwise_products)
        assert split(secret, k, n, random.Random(seed)) == expected


def test_threshold_one_shares_equal_secret():
    secret = b"\x00\xff\x42"
    shares = split(secret, 1, 4, random.Random(1))
    assert all(s.payload == secret for s in shares)


def test_round_trip_three_of_five():
    rng = random.Random(99)
    secret = bytes(rng.randrange(256) for _ in range(32))
    shares = split(secret, 3, 5, rng)
    assert reconstruct(shares[1:4], 3) == secret
    assert reconstruct(shares, 3) == secret


def test_round_trip_randomized():
    rng = random.Random(20260823)
    for _ in range(1000):
        length = rng.randint(1, 16)
        secret = bytes(rng.randrange(256) for _ in range(length))
        n = rng.randint(1, 8)
        k = rng.randint(1, n)
        shares = split(secret, k, n, rng)
        subset = rng.sample(shares, k)
        assert reconstruct(subset, k) == secret


def test_all_k_subsets_agree():
    rng = random.Random(5)
    secret = b"quorum"
    shares = split(secret, 3, 6, rng)
    recovered = {
        reconstruct(subset, 3) for subset in itertools.combinations(shares, 3)
    }
    assert recovered == {secret}


def sharing_cases(count, seed):
    """(secret, k, shares) over k up to 40, n up to 255 and 1..64-byte
    secrets: mostly small shapes, some large; the shares are a shuffled
    subset of k or more."""
    draws = random.Random(seed)
    for _ in range(count):
        n = draws.choice([draws.randint(1, 8), draws.randint(1, 50), draws.randint(1, 255)])
        k = draws.randint(1, min(n, 40))
        secret = draws.randbytes(draws.randint(1, MAX_SECRET_LEN if n <= 50 else 8))
        shares = split(secret, k, n, random.Random(draws.getrandbits(32)))
        shares = draws.sample(shares, draws.randint(k, min(n, k + 5)))
        yield secret, k, shares


def test_reconstruct_matches_the_per_byte_oracle_and_the_secret(bitwise_products):
    for secret, k, shares in sharing_cases(300, 20261020):
        assert reconstruct(shares, k) == per_byte_reconstruct(shares, k, bitwise_products) == secret


def test_a_flipped_byte_in_any_extra_share_names_that_share():
    draws = random.Random(31)
    checked = 0
    for secret, k, shares in sharing_cases(300, 20261021):
        for extra in range(k, len(shares)):
            position, flip = draws.randrange(len(secret)), draws.randint(1, 255)
            payload = bytearray(shares[extra].payload)
            payload[position] ^= flip
            corrupt = list(shares)
            corrupt[extra] = Share(shares[extra].index, bytes(payload))
            with pytest.raises(ShamirError, match=f"^share {shares[extra].index} does not"):
                reconstruct(corrupt, k)
            checked += 1
    assert checked > 300


@given(
    st.integers(1, 255).flatmap(lambda n: st.tuples(
        st.integers(1, min(n, 40)).map(lambda k: (k, n)),
        st.binary(min_size=1, max_size=MAX_SECRET_LEN if n <= 50 else 8),
        st.randoms(use_true_random=False))),
)
def test_reconstruct_recovers_the_secret_from_any_subset_property(case):
    (k, n), secret, draws = case
    shares = split(secret, k, n, draws)
    subset = draws.sample(shares, draws.randint(k, min(n, k + 3)))
    assert reconstruct(subset, k) == secret


def test_with_exactly_k_shares_a_corrupt_share_goes_unseen():
    shares = split(b"secret", 2, 3, random.Random(4))
    corrupt = Share(shares[1].index, bytes([shares[1].payload[0] ^ 1]) + shares[1].payload[1:])
    assert reconstruct([shares[0], corrupt], 2) != b"secret"
    with pytest.raises(ShamirError, match="^share 3 does not lie on the polynomial"):
        reconstruct([shares[0], corrupt, shares[2]], 2)


def test_insufficient_shares():
    shares = split(b"secret", 3, 5, random.Random(2))
    with pytest.raises(InsufficientSharesError):
        reconstruct(shares[:2], 3)


def test_duplicate_indices_rejected():
    shares = split(b"secret", 2, 3, random.Random(3))
    with pytest.raises(ShamirError):
        reconstruct([shares[0], shares[0]], 2)


def test_parameter_validation():
    rng = random.Random(0)
    with pytest.raises(ShamirError):
        split(b"s", 2, 1, rng)
    with pytest.raises(ShamirError):
        split(b"", 1, 1, rng)
    with pytest.raises(ShamirError):
        split(b"x" * 65, 1, 1, rng)
    with pytest.raises(ShamirError):
        Share(index=0, payload=b"x")
    with pytest.raises(ShamirError):
        reconstruct([Share(index=1, payload=b"x")], 0)
    # every share given is checked, not only the first k
    with pytest.raises(ShamirError):
        reconstruct([Share(1, b"ab"), Share(2, b"cd"), Share(3, b"e")], 2)
    with pytest.raises(ShamirError):
        reconstruct([Share(1, b"")], 1)
    with pytest.raises(ShamirError):
        reconstruct([Share(1, b"x" * 65), Share(2, b"x" * 65)], 2)


@pytest.mark.parametrize("secret", ["ab", [1, 300], [1, 2], bytearray(b"ab"), memoryview(b"ab")])
def test_a_secret_that_is_not_bytes_rejected(secret):
    # "ab" once raised a bare TypeError and [1, 300] a bare ValueError
    with pytest.raises(ShamirError, match=f"^secret must be 1..{MAX_SECRET_LEN} bytes$"):
        split(secret, 2, 3, random.Random(0))


@pytest.mark.parametrize("k, n", [(2.0, 3), (True, 3), (2, 3.0), (2, True), ("2", 3),
                                  (np.int64(2), 3), (2, np.uint8(3)), (None, 3)])
def test_non_integer_split_threshold_or_share_count_rejected(k, n):
    # k = 2.0 once raised a bare TypeError from range, and k = True split
    # with k = 1, so that every share carried the secret
    with pytest.raises(ShamirError, match=re.escape(
            f"non-integer threshold k {k!r} or share count n {n!r}")):
        split(b"ab", k, n, random.Random(0))


@pytest.mark.parametrize("k", [2.0, True, np.int64(2), "2", None])
def test_non_integer_reconstruct_threshold_rejected(k):
    # k = 2.0 once raised a bare TypeError from a slice, and k = True asked
    # for "the first True shares"
    shares = split(b"ab", 2, 3, random.Random(0))
    with pytest.raises(ShamirError, match=f"^non-integer threshold k {re.escape(repr(k))}$"):
        reconstruct(shares, k)


@pytest.mark.parametrize("bad", [1.5, 2.0, "1", None, np.int64(1), np.uint8(1), True])
def test_non_integer_share_index_rejected(bad):
    # Share(1.5, b"x") once built, and reconstruct then raised a bare TypeError;
    # Share(True, b"\x01\x02").serialize() wrote "True:0102", which deserialize rejects
    with pytest.raises(ShamirError, match=f"^non-integer share index {re.escape(repr(bad))}$"):
        Share(bad, b"x")


@pytest.mark.parametrize("bad", ["ab", None, 3, 1.5, [256], ["a"], [1.5],
                                 memoryview(array("H", [1, 2])),
                                 bytearray(b"x"), memoryview(b"x"), [120]])
def test_a_payload_that_is_not_bytes_rejected(bad):
    # a str or None once built, and reconstruct then raised a bare TypeError;
    # a payload is bytes, as split and Share.deserialize build it, so a
    # bytes-like or a list of ints is rejected too
    with pytest.raises(ShamirError, match=f"^share payload {re.escape(repr(bad))} is not bytes$"):
        Share(1, bad)


def test_split_deterministic_given_seed():
    a = split(b"secret", 3, 5, random.Random(1234))
    b = split(b"secret", 3, 5, random.Random(1234))
    assert a == b


def test_single_share_reveals_nothing():
    # for k=2 a single share XORed with the secret is uniform over seeds
    secret = b"\x5a"
    counts = [0] * 256
    for seed in range(10_000):
        share = split(secret, 2, 2, random.Random(seed))[0]
        counts[share.payload[0] ^ secret[0]] += 1
    result = stats.chisquare(counts)
    assert result.pvalue > 0.001


def test_share_serialization_round_trip():
    share = Share(index=7, payload=b"\x01\xab")
    assert share.serialize() == "7:01ab"
    assert Share.deserialize("7:01ab") == share


@pytest.mark.parametrize("line", [
    "x:aa", "1:zz", "1", "1:aa:bb", ":aa", "1:a",
    # int() and bytes.fromhex take these, the index:hex form does not
    "1:aa bb", "+2:cc", "1_0:aa", "\u0661:aa", "1 :aa", "1: aa", "-1:aa",
])
def test_malformed_share_line_names_the_line_and_the_form(line):
    with pytest.raises(ShamirError, match=f"^share line {re.escape(repr(line))} is not index:hex$"):
        Share.deserialize(line)


def test_share_line_is_read_after_stripping_surrounding_whitespace():
    assert Share.deserialize(" 07:01AB\n") == Share(7, b"\x01\xab")
    assert Share.deserialize("1:") == (1, b"")  # reconstruct rejects the empty payload


@pytest.mark.parametrize("text, expected", [("", b""), ("00ff", b"\x00\xff"), ("AbCd", b"\xab\xcd")])
def test_parse_hex_reads_pairs_of_ascii_hex_digits(text, expected):
    assert parse_hex(text) == expected


@pytest.mark.parametrize("text", ["zz", "aa bb", " aa", "aa\n", "a", "abc", "\u0661\u0661", "0x00"])
def test_parse_hex_rejects_anything_else(text):
    with pytest.raises(ValueError):
        parse_hex(text)


# --- timelocks --------------------------------------------------------------

def total_btc(program):
    """The position a tranche program releases in full, in BTC."""
    return sats_to_btc(sum(program.amounts))


def program_of(pairs):
    """The TrancheProgram of (unlock epoch, satoshis) pairs."""
    return TrancheProgram(tuple(e for e, _ in pairs), tuple(a for _, a in pairs))


def by_epoch(pairs):
    """The (unlock epoch, satoshis) pairs sorted stably on the epoch, so that
    tied tranches keep their drawn order: an order TrancheProgram accepts."""
    return sorted(pairs, key=lambda pair: pair[0])


def released_at(lock_epoch, horizon):
    """Release epochs of a one-tranche program locked to lock_epoch."""
    program = TrancheProgram((lock_epoch,), (1,))
    events = simulate_disposition(
        TerminalState(TerminalStateKind.PATIENT_LIQUIDATION),
        cfg(),
        tranche_program=program,
        clock_horizon=horizon,
        position_btc=total_btc(program),
    )
    return [event.epoch for event in events]


def test_absolute_timelock_boundary():
    assert TimelockCondition(100).value == 100
    assert released_at(100, 3650) == [100]


def test_absolute_zero_always_spendable():
    assert released_at(0, 0) == [0]


# Case ids keep the names these absolute cases had while a relative variant,
# counted from a confirmation epoch, also existed.
ABSOLUTE_CASES = [(other, value) for other in (0, 40) for value in (1, 7, 365)]


@pytest.mark.parametrize(
    "other_epoch, value",
    ABSOLUTE_CASES,
    ids=[f"{other}-{value}-TimelockVariant.ABSOLUTE" for other, value in ABSOLUTE_CASES],
)
def test_spendable_exactly_from_unlock_epoch(other_epoch, value):
    """A lock releases exactly at its own epoch, not counted from another tranche's."""
    assert released_at(value, value - 1) == []
    assert released_at(value, value) == [value]
    program = program_of(by_epoch([(other_epoch, 1), (value, 2)]))
    events = simulate_disposition(
        TerminalState(TerminalStateKind.PATIENT_LIQUIDATION),
        cfg(),
        tranche_program=program,
        clock_horizon=other_epoch + value,
        position_btc=total_btc(program),
    )
    assert [event.epoch for event in events if event.amount_sats == 2] == [value]


def test_negative_lock_rejected():
    with pytest.raises(ScheduleError, match="timelock epoch must be nonnegative"):
        TimelockCondition(-1)


# --- dead-man's switch ------------------------------------------------------

def cfg(grace=3, action=DmsAction.PUBLISH_SHARDS):
    return DmsConfig(heartbeat_interval=30, grace_missed=grace, action=action)


@pytest.mark.parametrize("interval, grace", [
    (30.5, 3), (30.0, 3), (30, 3.0), ("30", 3),
    (np.int64(2**62), np.int64(4)), (np.uint8(30), 3), (30, np.int32(3)), (True, 3), (30, True),
])
def test_non_integer_switch_clock_rejected(interval, grace):
    # a 30.5-epoch interval once replayed a trigger at epoch 91.5, and an
    # np.int64(2**62) interval with grace 4 wrapped its trigger to epoch 0
    with pytest.raises(MechanismError, match="and grace_missed must be integers$"):
        DmsConfig(interval, grace, DmsAction.PUBLISH_SHARDS)


def test_heartbeat_keeps_armed():
    state = ARMED
    config = cfg()
    for _ in range(100):
        state = dms_step(state, config, DmsEvent.HEARTBEAT)
        assert state.phase is DmsPhase.ARMED


def test_trigger_after_exact_grace_misses():
    for grace in range(1, 6):
        config = cfg(grace=grace)
        state = ARMED
        for miss in range(1, grace + 1):
            state = dms_step(state, config, DmsEvent.INTERVAL_ELAPSED)
            if miss < grace:
                assert state.phase is DmsPhase.GRACE
                assert state.missed == miss
            else:
                assert state.phase is DmsPhase.TRIGGERED


def test_heartbeat_resets_grace():
    config = cfg(grace=3)
    state = dms_step(ARMED, config, DmsEvent.INTERVAL_ELAPSED)
    state = dms_step(state, config, DmsEvent.INTERVAL_ELAPSED)
    state = dms_step(state, config, DmsEvent.HEARTBEAT)
    assert state == ARMED


def test_destroy_shards_trigger_is_unrecoverable():
    config = cfg(grace=1, action=DmsAction.DESTROY_SHARDS)
    state = dms_step(ARMED, config, DmsEvent.INTERVAL_ELAPSED)
    assert state.phase is DmsPhase.UNRECOVERABLE


def test_key_destruction_from_any_state():
    config = cfg()
    for state in (ARMED, DmsState(DmsPhase.GRACE, 1), DmsState(DmsPhase.TRIGGERED, 3)):
        assert dms_step(state, config, DmsEvent.KEY_DESTRUCTION).phase is (
            DmsPhase.UNRECOVERABLE
        )


def test_unrecoverable_absorbs():
    config = cfg()
    state = DmsState(DmsPhase.UNRECOVERABLE)
    for event in (DmsEvent.HEARTBEAT, DmsEvent.INTERVAL_ELAPSED):
        with pytest.raises(MechanismError):
            dms_step(state, config, event)
    assert dms_step(state, config, DmsEvent.KEY_DESTRUCTION).phase is (
        DmsPhase.UNRECOVERABLE
    )


def expected_step(state, grace, action, event):
    """The switch's table, case by case; None where dms_step must raise."""
    if event is DmsEvent.KEY_DESTRUCTION:
        return UNRECOVERABLE
    if state.phase is DmsPhase.UNRECOVERABLE:
        return None
    if state.phase is DmsPhase.TRIGGERED:
        if action is DmsAction.DESTROY_SHARDS:
            return None
        # a published switch stays triggered until a heartbeat re-arms it
        return ARMED if event is DmsEvent.HEARTBEAT else state
    if event is DmsEvent.HEARTBEAT:
        return ARMED
    if state.missed + 1 < grace:
        return DmsState(DmsPhase.GRACE, state.missed + 1)
    if action is DmsAction.DESTROY_SHARDS:
        return UNRECOVERABLE
    return DmsState(DmsPhase.TRIGGERED, state.missed + 1)


def test_switch_table_over_phase_missed_action_and_event():
    cases = itertools.product(range(1, 6), DmsAction, DmsPhase, range(6), DmsEvent)
    stepped = 0
    for grace, action, phase, missed, event in cases:
        if missed > grace:
            continue
        config, state = cfg(grace=grace, action=action), DmsState(phase, missed)
        expected = expected_step(state, grace, action, event)
        if expected is None:
            with pytest.raises(MechanismError, match="no transitions from terminal state"):
                dms_step(state, config, event)
        else:
            assert dms_step(state, config, event) == expected, (grace, action, state, event)
            stepped += 1
    assert stepped > 300


# --- disposition replay -----------------------------------------------------

def annual_program(position=1.148e6, years=10):
    sched = build_uniform_schedule(ScheduleParams(position=position, horizon=years))
    return to_tranche_program(sched, granularity=1)


def test_dormancy_simulation_has_no_spends():
    config = cfg(action=DmsAction.DESTROY_SHARDS)
    events = simulate_disposition(
        TerminalState(TerminalStateKind.DORMANCY_NON_RECOVERY), config
    )
    assert all(e.kind not in ("release", "dump", "burn") for e in events)
    assert events[-1].kind == "unrecoverable"


def test_silent_burn_emits_one_burn():
    config = cfg()
    events = simulate_disposition(
        TerminalState(TerminalStateKind.SILENT_BURN, retention_fraction=0.01),
        config,
        position_btc=1.148e6,
    )
    burns = [e for e in events if e.kind == "burn"]
    assert len(burns) == 1
    assert burns[0].amount_btc == pytest.approx(1_136_520)


def test_liquidation_releases_all_tranches():
    program = annual_program()
    events = simulate_disposition(
        TerminalState(TerminalStateKind.PATIENT_LIQUIDATION),
        cfg(),
        tranche_program=program,
        clock_horizon=4000,
        position_btc=total_btc(program),
    )
    releases = [e for e in events if e.kind == "release"]
    assert len(releases) == 10
    epochs = [e.epoch for e in releases]
    assert epochs == sorted(epochs)
    assert len(set(epochs)) == 10


def test_liquidation_respects_timelocks():
    rng = random.Random(77)
    for _ in range(20):
        years = rng.randint(1, 8)
        program = annual_program(position=rng.uniform(1, 1e6), years=years)
        horizon = rng.randint(0, 365 * years + 100)
        events = simulate_disposition(
            TerminalState(TerminalStateKind.PATIENT_LIQUIDATION),
            cfg(),
            tranche_program=program,
            clock_horizon=horizon,
            position_btc=total_btc(program),
        )
        unlocks = dict(zip(program.epochs, program.amounts))
        for event in events:
            if event.kind == "release":
                assert event.epoch in unlocks
                assert event.epoch <= horizon


def test_short_horizon_releases_nothing():
    sched = build_uniform_schedule(ScheduleParams(position=100.0, horizon=2))
    program = to_tranche_program(sched, granularity=1, start=500)
    events = simulate_disposition(
        TerminalState(TerminalStateKind.PATIENT_LIQUIDATION),
        cfg(),
        tranche_program=program,
        clock_horizon=499,
        position_btc=total_btc(program),
    )
    assert [e for e in events if e.kind == "release"] == []


def test_liquidation_requires_program():
    with pytest.raises(MechanismError):
        simulate_disposition(
            TerminalState(TerminalStateKind.PATIENT_LIQUIDATION), cfg()
        )


def test_adversarial_dumps_at_trigger():
    events = simulate_disposition(
        TerminalState(TerminalStateKind.ADVERSARIAL_SWITCH),
        cfg(grace=2),
        position_btc=1000.0,
        clock_horizon=365,
    )
    dumps = [e for e in events if e.kind == "dump"]
    assert len(dumps) == 1
    assert dumps[0].epoch == 60  # two missed 30-epoch intervals
    assert dumps[0].amount_btc == 1000.0


SWITCH_TERMINALS = (
    TerminalStateKind.DORMANCY_NON_RECOVERY,
    TerminalStateKind.SILENT_BURN,
    TerminalStateKind.ADVERSARIAL_SWITCH,
)


def stepped_trigger(config, horizon):
    """Oracle: step the switch one missed interval at a time up to the horizon."""
    state, epoch = ARMED, 0
    while epoch + config.heartbeat_interval <= horizon:
        epoch += config.heartbeat_interval
        state = dms_step(state, config, DmsEvent.INTERVAL_ELAPSED)
        if state.phase in (DmsPhase.TRIGGERED, DmsPhase.UNRECOVERABLE):
            return epoch
    return None


@given(
    interval=st.integers(1, 400),
    grace=st.integers(1, 15),
    horizon=st.integers(-5, 5000),
    action=st.sampled_from(list(DmsAction)),
    kind=st.sampled_from(SWITCH_TERMINALS),
    retention=st.floats(0.0, MAX_BURN_RETENTION),
    position=st.floats(0.0, 2e6),
)
@example(30, 3, -1, DmsAction.PUBLISH_SHARDS, TerminalStateKind.ADVERSARIAL_SWITCH, 0.0, 1e3)
@example(30, 3, 89, DmsAction.PUBLISH_SHARDS, TerminalStateKind.SILENT_BURN, 0.01, 1e3)
@example(30, 3, 90, DmsAction.DESTROY_SHARDS, TerminalStateKind.DORMANCY_NON_RECOVERY, 0.0, 1e3)
# 3,710,937.5 sat: the float burn position * (1 - retention) is not a whole satoshi
@example(30, 3, 90, DmsAction.PUBLISH_SHARDS, TerminalStateKind.SILENT_BURN, 0.0, 0.037109375)
def test_switch_replay_matches_stepped_switch(
    interval, grace, horizon, action, kind, retention, position
):
    config = DmsConfig(heartbeat_interval=interval, grace_missed=grace, action=action)
    terminal = TerminalState(
        kind, retention_fraction=retention if kind is TerminalStateKind.SILENT_BURN else 0.0
    )
    trigger = stepped_trigger(config, horizon)
    if horizon < 0:
        assert trigger is None
        with pytest.raises(MechanismError):
            simulate_disposition(terminal, config, clock_horizon=horizon, position_btc=position)
        return
    events = simulate_disposition(terminal, config, clock_horizon=horizon, position_btc=position)
    if trigger is None:
        assert events == []
        return
    # the residual rounds to a whole satoshi and the burn takes the rest
    position_sats = round(position * SATS_PER_BTC)
    outcome = {
        TerminalStateKind.DORMANCY_NON_RECOVERY: [("shards-destroyed", 0), ("unrecoverable", 0)],
        TerminalStateKind.SILENT_BURN: [("burn", position_sats - round(position_sats * retention))],
        TerminalStateKind.ADVERSARIAL_SWITCH: [("dump", position_sats)],
    }[kind]
    assert [(e.epoch, e.kind, e.amount_sats) for e in events] == [
        (trigger, name, amount) for name, amount in [("switch-triggered", 0), *outcome]
    ]


def scanned_releases(program, horizon):
    """Oracle: scan every tranche at every epoch and release it once spendable,
    that is once the epoch reaches its unlock epoch."""
    released, log = set(), []
    for now in range(horizon + 1):
        for i, (epoch, amount_sats) in enumerate(zip(program.epochs, program.amounts)):
            if i not in released and now >= epoch:
                released.add(i)
                log.append(SimEvent(now, "release", amount_sats))
    return log


def test_sim_event_is_an_immutable_named_tuple():
    event = SimEvent(5, "release", 7)
    assert repr(event) == "SimEvent(epoch=5, kind='release', amount_sats=7)"
    assert event == (5, "release", 7) and SimEvent(5, "dump") == (5, "dump", 0)
    for field in ("epoch", "kind", "amount_sats"):
        with pytest.raises(AttributeError):
            setattr(event, field, 0)
    assert event.to_json() == '{"epoch": 5, "event": "release", "amount": 7e-08}'
    assert SimEvent(3650, "dump", 114_800_000_000_000).to_json() == (
        '{"epoch": 3650, "event": "dump", "amount": 1148000.0}'
    )
    assert SimEvent(90, "unrecoverable").to_json() == (
        '{"epoch": 90, "event": "unrecoverable", "amount": 0.0}'
    )


def test_tied_tranches_release_in_index_order():
    # amounts out of order within each tie, so a replay that sorted on
    # (epoch, amount) would fail
    program = TrancheProgram((4, 4, 9, 9, 9, 11), (2, 0, 1, 3, 0, 5))
    events = simulate_disposition(
        TerminalState(TerminalStateKind.PATIENT_LIQUIDATION),
        cfg(),
        tranche_program=program,
        clock_horizon=10,
        position_btc=total_btc(program),
    )
    assert [(e.epoch, e.amount_sats) for e in events] == [(4, 2), (4, 0), (9, 1), (9, 3), (9, 0)]
    assert all(type(e) is SimEvent and e.kind == "release" for e in events)
    # the same tranches out of epoch order are not a program
    with pytest.raises(ScheduleError, match="^unlock epochs must not decrease$"):
        TrancheProgram((9, 4, 9, 4, 9, 11), (1, 2, 3, 0, 0, 5))


def test_release_events_equal_the_constructor():
    """The replay builds its events without SimEvent's constructor. They are
    the records the constructor builds, in (epoch, tranche index) order: for a
    program to_tranche_program built, and for as many tranches on a few tied
    epochs, drawn in random order and sorted stably on the epoch."""
    rng = random.Random(28)
    built = to_tranche_program(
        build_uniform_schedule(ScheduleParams(position=1000.5, horizon=4)), granularity=52, start=5)
    # distinct amounts, so a tie released out of index order shows
    pairs = [(rng.randint(0, 40), rng.randint(0, 10**9)) for _ in built.epochs]
    for program in (built, program_of(by_epoch(pairs))):
        in_order = sorted(enumerate(zip(program.epochs, program.amounts)),
                          key=lambda t: (t[1][0], t[0]))
        for horizon in (3650, 400, 20, 0):
            events = simulate_disposition(
                TerminalState(TerminalStateKind.PATIENT_LIQUIDATION),
                cfg(),
                tranche_program=program,
                clock_horizon=horizon,
                position_btc=total_btc(program),
            )
            expected = [SimEvent(epoch, "release", amount)
                        for _, (epoch, amount) in in_order if epoch <= horizon]
            assert events == expected and all(type(ev) is SimEvent for ev in events)


def test_liquidation_replay_matches_epoch_scan():
    rng = random.Random(3650)
    for _ in range(300):
        # 25 tranches of at most 84e12 sats hold at most 21M BTC, where a
        # total in sats survives the trip through BTC exactly
        pairs = [(rng.randint(0, 120), rng.randint(0, 84 * 10**12))
                 for _ in range(rng.randint(0, 25))]
        program = program_of(by_epoch(pairs))
        total_sats = sum(program.amounts)
        assert btc_to_sats(sats_to_btc(total_sats)) == total_sats
        horizon = rng.randint(0, 130)
        events = simulate_disposition(
            TerminalState(TerminalStateKind.PATIENT_LIQUIDATION),
            cfg(),
            tranche_program=program,
            clock_horizon=horizon,
            position_btc=total_btc(program),
        )
        assert events == scanned_releases(program, horizon)
        assert all(type(e) is SimEvent for e in events)


@given(
    # 25 tranches of at most 84e12 sats hold at most 21M BTC (see above);
    # epochs from a small range, so that many tranches tie
    pairs=st.lists(st.tuples(st.integers(0, 30), st.integers(0, 84 * 10**12)), max_size=25)
    .map(by_epoch),
    past=st.integers(-31, 2),
)
def test_liquidation_replay_of_a_nondecreasing_program_matches_epoch_scan(pairs, past):
    """Any program the record accepts replays as the scan does, at every
    horizon from 0 to past its last epoch."""
    program = program_of(pairs)
    horizon = max(0, max(program.epochs, default=0) + past)
    events = simulate_disposition(
        TerminalState(TerminalStateKind.PATIENT_LIQUIDATION),
        cfg(),
        tranche_program=program,
        clock_horizon=horizon,
        position_btc=total_btc(program),
    )
    assert events == scanned_releases(program, horizon)


def test_a_bare_pair_is_checked_as_a_tranche_program():
    """A pair that is not a TrancheProgram is built into one first: out of
    epoch order it raises the record's error, where its release at epoch 9,
    past the horizon, once came before the one at epoch 4."""
    replay = dict(terminal=TerminalState(TerminalStateKind.PATIENT_LIQUIDATION), config=cfg(),
                  clock_horizon=5, position_btc=3e-8)
    with pytest.raises(ScheduleError, match="^unlock epochs must not decrease$"):
        simulate_disposition(tranche_program=((9, 4), (1, 2)), **replay)
    with pytest.raises(ScheduleError, match="^tranche program columns must be tuples$"):
        simulate_disposition(tranche_program=([4, 9], [2, 1]), **replay)
    with pytest.raises(ScheduleError, match="^tranche epochs and amounts must be ints$"):
        simulate_disposition(tranche_program=((np.int64(3), 4.5), (1, 2)), **replay)
    in_order = ((4, 9), (2, 1))
    assert simulate_disposition(tranche_program=in_order, **replay) == simulate_disposition(
        tranche_program=TrancheProgram((4, 9), (2, 1)), **replay) == [SimEvent(4, "release", 2)]


@pytest.mark.parametrize(
    "tranches, position_sats, message",
    [
        (((1, 4), (2, 5)), 10, "tranche amounts sum to 9 sats, not the position's 10"),
        ((), 1, "tranche amounts sum to 0 sats, not the position's 1"),
        # a program built for the position, replayed without passing it
        (((3, 10**8),), 0, "tranche amounts sum to 100000000 sats, not the position's 0"),
    ],
)
def test_liquidation_rejects_a_program_that_does_not_conserve_the_position(
    tranches, position_sats, message
):
    program = program_of(tranches)
    with pytest.raises(MechanismError, match=f"^{message}$"):
        simulate_disposition(
            TerminalState(TerminalStateKind.PATIENT_LIQUIDATION),
            cfg(),
            tranche_program=program,
            position_btc=sats_to_btc(position_sats),
        )


@given(
    position_sats=st.integers(1, 21_000_000 * SATS_PER_BTC),
    kind=st.sampled_from(list(TerminalStateKind)),
    retention=st.floats(0.0, MAX_BURN_RETENTION),
    tranches_per_year=st.integers(1, DAYS_PER_YEAR),
)
@example(114_800_000_000_000, TerminalStateKind.SILENT_BURN, 0.0002, 1)
def test_replay_conserves_satoshis(position_sats, kind, retention, tranches_per_year):
    """Moved plus kept satoshis are the position, and every printed amount is
    a whole number of satoshis."""
    retention = retention if kind is TerminalStateKind.SILENT_BURN else 0.0
    terminal = TerminalState(kind, retention_fraction=retention)
    position = sats_to_btc(position_sats)
    program = None
    if kind is TerminalStateKind.PATIENT_LIQUIDATION:
        sched = build_uniform_schedule(ScheduleParams(position=position, horizon=1))
        program = to_tranche_program(sched, granularity=tranches_per_year)
    events = simulate_disposition(terminal, cfg(), tranche_program=program,
                                  clock_horizon=DAYS_PER_YEAR, position_btc=position)
    moved = sum(e.amount_sats for e in events)
    ledger = SupplyLedger(total_mined_sats=2 * position_sats, lost_estimate_sats=0,
                          position_sats=position_sats, reference_price=1.0)
    kept = {
        TerminalStateKind.DORMANCY_NON_RECOVERY: position_sats,  # never moves
        TerminalStateKind.SILENT_BURN: apply_burn(ledger, retention).residual_sats,
    }.get(kind, 0)
    assert moved + kept == position_sats
    if kind is TerminalStateKind.SILENT_BURN:
        effect = supply_effect(terminal, ledger, bear_bound=-0.25)
        assert effect.delta_effective_float == -events[-1].amount_btc
    for event in events:
        amount = json.loads(event.to_json())["amount"]
        assert btc_to_sats(amount) == event.amount_sats
        assert sats_to_btc(btc_to_sats(amount)) == amount


@pytest.mark.parametrize(
    "position, horizon",
    [(float("inf"), 3650), (float("nan"), 3650), (-5.0, 3650), (1000.0, -1)],
)
def test_replay_rejects_nonfinite_negative_position_and_negative_horizon(position, horizon):
    with pytest.raises(MechanismError):
        simulate_disposition(
            TerminalState(TerminalStateKind.ADVERSARIAL_SWITCH),
            cfg(),
            clock_horizon=horizon,
            position_btc=position,
        )
