"""End-to-end acceptance checks; each test prints one pass line on success."""

import itertools
import math
import random

import numpy as np
import pytest
from scipy import optimize

from overhang.decisions import (
    MarketSign,
    TerminalState,
    TerminalStateKind,
    consistency_matrix,
    rank_terminal_states,
    supply_effect,
)
from overhang.frontier import ExecutionModel, cost_of, optimal_trajectory
from overhang.impact import ElasticityModel, permanent_impact, relative_impact_with_growth
from overhang.ledger import SATS_PER_BTC, SupplyLedger, apply_burn, format_percent
from overhang.mechanisms import (
    ARMED,
    DmsAction,
    DmsConfig,
    DmsEvent,
    DmsPhase,
    dms_step,
)
from overhang.scenarios import builtin_scenarios, run_scenario, sensitivity_sweep
from overhang.schedule import ScheduleParams, build_uniform_schedule
from overhang.shamir import InsufficientSharesError, reconstruct, split


def report(line):
    print(f"PASS {line}")


def test_criterion_1_reference_impact_table():
    expected = {1.5: "-4.4%", 0.7: "-9.2%", 0.3: "-20.2%"}
    for eps, reported in expected.items():
        value = permanent_impact(0.07, ElasticityModel(eps))
        independent = math.exp(-math.log(1.07) / eps) - 1
        assert format_percent(value) == reported
        assert abs(value - independent) < 5e-4
    report("criterion 1: elasticity table reproduces -4.4% / -9.2% / -20.2%")


def test_criterion_2_scenario_totals():
    ledger = SupplyLedger.from_btc()
    published = {"A": (-0.06, -0.05), "B": (-0.12, -0.11), "C": (-0.25, -0.23)}
    for scenario in builtin_scenarios():
        result = run_scenario(scenario, ledger)
        low, high = published[scenario.name]
        assert abs(result.total[0] - low) <= 0.006
        assert abs(result.total[1] - high) <= 0.006
    report("criterion 2: scenario totals within 0.6pp of published bands")


def test_criterion_3_pace_arithmetic():
    cases = {10: 114_800, 12: 95_666.66666667, 5: 229_600}
    for horizon, annual in cases.items():
        sched = build_uniform_schedule(ScheduleParams(position=1.148e6, horizon=horizon))
        assert float(sched.annual_btc) == pytest.approx(annual, abs=0.01)
        assert sched.annual_btc * horizon * SATS_PER_BTC == sched.position_sats
    ten = build_uniform_schedule(ScheduleParams(position=1.148e6, horizon=10))
    assert float(ten.daily_btc) == pytest.approx(314.5, abs=0.05)
    report("criterion 3: pace arithmetic exact at satoshi precision, ~315 BTC/day")


def test_criterion_4_participation_backout():
    expected = {12: "0.14%", 10: "0.17%", 5: "0.34%"}
    for horizon, rate in expected.items():
        sched = build_uniform_schedule(
            ScheduleParams(position=1.148e6, horizon=horizon, reference_daily_volume=15e9)
        )
        assert format_percent(sched.participation, decimals=2) == rate
    report("criterion 4: 15e9 reference volume reproduces 0.14% / 0.17% / 0.34%")


def test_criterion_5_demand_growth_invariance():
    rng = random.Random(8_675_309)
    model = ElasticityModel(0.7)
    reference = permanent_impact(0.07, model)
    for _ in range(100):
        path = [math.exp(rng.uniform(-0.5, 0.5)) for _ in range(rng.randint(1, 30))]
        value = relative_impact_with_growth(0.07, model, path)
        assert abs(value - reference) / abs(reference) < 1e-9
    report("criterion 5: growth invariance holds to 1e-9 over 100 random paths")


def test_criterion_6_burn_arithmetic():
    ledger = SupplyLedger.from_btc()
    outcome = apply_burn(ledger, 0.01)
    assert outcome.burned_sats == 1_136_520 * SATS_PER_BTC
    assert outcome.residual_value == pytest.approx(0.92e9, rel=0.01)
    report("criterion 6: 1% retention burns 1,136,520 BTC exactly, ~$0.92e9 residual")


def test_criterion_7_frontier_oracle():
    rng = random.Random(31337)
    for _ in range(20):
        model = ExecutionModel(
            total_units=rng.uniform(10, 200),
            periods=rng.randint(2, 5),
            period_length=rng.uniform(0.5, 2.0),
            volatility=rng.uniform(100, 2000),
            permanent_coeff=rng.uniform(0.0, 0.2),
            temporary_coeff=rng.uniform(0.5, 2.0),
            risk_aversion=rng.choice([0.0, 1e-7, 1e-6]),
        )
        trajectory = optimal_trajectory(model)
        objective = (
            trajectory.expected_cost + model.risk_aversion * trajectory.cost_variance
        )

        def oracle(interior, model=model):
            holdings = np.concatenate(([model.total_units], interior, [0.0]))
            expected, variance = cost_of(holdings, model)
            return expected + model.risk_aversion * variance

        start = model.total_units * (1 - np.arange(1, model.periods) / model.periods)
        best = optimize.minimize(oracle, start, method="BFGS", tol=1e-14).fun
        assert objective <= best * (1 + 1e-6) + 1e-9

    linear_model = ExecutionModel(total_units=100.0, periods=10, risk_aversion=0.0)
    linear = optimal_trajectory(linear_model).holdings
    for j, x in enumerate(linear):
        assert abs(x - 100 * (1 - j / 10)) < 1e-9
    report("criterion 7: closed form beats descent oracle; lambda=0 is linear")


def test_criterion_8_sharding_properties():
    rng = random.Random(2026)
    for _ in range(1000):
        secret = bytes(rng.randrange(256) for _ in range(rng.randint(1, 12)))
        n = rng.randint(1, 7)
        k = rng.randint(1, n)
        shares = split(secret, k, n, rng)
        assert reconstruct(rng.sample(shares, k), k) == secret
        if k > 1:
            with pytest.raises(InsufficientSharesError):
                reconstruct(shares[: k - 1], k)
    shares = split(b"agree", 3, 6, random.Random(1))
    outputs = {reconstruct(s, 3) for s in itertools.combinations(shares, 3)}
    assert outputs == {b"agree"}
    report("criterion 8: 1000 sharding round-trips, subset agreement, quorum errors")


def test_criterion_9_dms_exhaustive():
    for grace in range(1, 6):
        config = DmsConfig(heartbeat_interval=1, grace_missed=grace,
                           action=DmsAction.PUBLISH_SHARDS)
        state = ARMED
        for miss in range(1, grace + 1):
            state = dms_step(state, config, DmsEvent.INTERVAL_ELAPSED)
            assert (state.phase is DmsPhase.TRIGGERED) == (miss == grace)
        # heartbeat reset from every grace depth
        for depth in range(1, grace):
            resumed = ARMED
            for _ in range(depth):
                resumed = dms_step(resumed, config, DmsEvent.INTERVAL_ELAPSED)
            assert dms_step(resumed, config, DmsEvent.HEARTBEAT) == ARMED
        # unrecoverable absorbs
        dead = dms_step(state, config, DmsEvent.KEY_DESTRUCTION)
        assert dead.phase is DmsPhase.UNRECOVERABLE
        assert dms_step(dead, config, DmsEvent.KEY_DESTRUCTION).phase is (
            DmsPhase.UNRECOVERABLE
        )
    report("criterion 9: dead-man's switch exhaustively correct for grace <= 5")


def test_criterion_10_decision_ordering():
    matrix = consistency_matrix()
    ranking = rank_terminal_states(matrix)
    assert ranking == [
        TerminalStateKind.DORMANCY_NON_RECOVERY,
        TerminalStateKind.SILENT_BURN,
        TerminalStateKind.ADVERSARIAL_SWITCH,
        TerminalStateKind.PATIENT_LIQUIDATION,
    ]
    ledger = SupplyLedger.from_btc()
    for kind in ranking[:2]:
        effect = supply_effect(TerminalState(kind), ledger, bear_bound=-0.25)
        assert effect.market_sign is not MarketSign.BEARISH
    report("criterion 10: terminal-state ordering and non-bearish top two")


def test_criterion_11_sweep_bound():
    summary = sensitivity_sweep(SupplyLedger.from_btc())
    assert summary.max_abs_total <= 0.26
    assert summary.min_abs_total >= 0.04
    report(
        "criterion 11: sweep bound "
        f"[{summary.min_abs_total:.3f}, {summary.max_abs_total:.3f}] within [0.04, 0.26]"
    )
