import itertools
import random

import pytest
from scipy import stats

from overhang.decisions import TerminalState, TerminalStateKind
from overhang.mechanisms import (
    DmsAction,
    DmsConfig,
    DmsEvent,
    DmsPhase,
    DmsState,
    ARMED,
    InsufficientSharesError,
    MechanismError,
    Share,
    TimelockCondition,
    dms_step,
    reconstruct,
    simulate_disposition,
    split,
    timelock_spendable,
)
from overhang.schedule import ScheduleParams, build_uniform_schedule, to_tranche_program


# --- sharding ---------------------------------------------------------------

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


def test_insufficient_shares():
    shares = split(b"secret", 3, 5, random.Random(2))
    with pytest.raises(InsufficientSharesError):
        reconstruct(shares[:2], 3)


def test_duplicate_indices_rejected():
    shares = split(b"secret", 2, 3, random.Random(3))
    with pytest.raises(MechanismError):
        reconstruct([shares[0], shares[0]], 2)


def test_parameter_validation():
    rng = random.Random(0)
    with pytest.raises(MechanismError):
        split(b"s", 2, 1, rng)
    with pytest.raises(MechanismError):
        split(b"", 1, 1, rng)
    with pytest.raises(MechanismError):
        split(b"x" * 65, 1, 1, rng)
    with pytest.raises(MechanismError):
        Share(index=0, payload=b"x")
    with pytest.raises(MechanismError):
        reconstruct([Share(index=1, payload=b"x")], 0)


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


# --- timelocks --------------------------------------------------------------

def test_absolute_timelock_boundary():
    condition = TimelockCondition.absolute(100)
    assert not timelock_spendable(condition, now=99)
    assert timelock_spendable(condition, now=100)


def test_relative_timelock():
    condition = TimelockCondition.relative(10)
    assert not timelock_spendable(condition, now=59, confirmed_at=50)
    assert timelock_spendable(condition, now=60, confirmed_at=50)


def test_absolute_zero_always_spendable():
    assert timelock_spendable(TimelockCondition.absolute(0), now=0)


def test_negative_lock_rejected():
    with pytest.raises(MechanismError):
        TimelockCondition.absolute(-1)


# --- dead-man's switch ------------------------------------------------------

def cfg(grace=3, action=DmsAction.PUBLISH_SHARDS):
    return DmsConfig(heartbeat_interval=30, grace_missed=grace, action=action)


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
    events = simulate_disposition(
        TerminalState(TerminalStateKind.PATIENT_LIQUIDATION),
        cfg(),
        tranche_program=annual_program(),
        clock_horizon=4000,
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
        )
        unlocks = {cond.value: amt for cond, amt in program.tranches}
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
