import dataclasses
import math
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import optimize

import overhang.frontier
from overhang.frontier import (
    MAX_PERIODS,
    SERIES_BELOW,
    SERIES_TERMS,
    ExecutionModel,
    FrontierError,
    FrontierPoint,
    cost_of,
    frontier,
    optimal_trajectory,
)


def desk_model(**overrides):
    params = dict(
        total_units=100.0,
        periods=10,
        period_length=1.0,
        volatility=1600.0,  # 0.02 * 80k
        permanent_coeff=0.1,
        temporary_coeff=1.0,
        risk_aversion=0.0,
    )
    params.update(overrides)
    return ExecutionModel(**params)


def brute_force_min(model):
    """Descent oracle: minimize E + lambda*V over the interior holdings."""

    def objective(interior):
        holdings = np.concatenate(([model.total_units], interior, [0.0]))
        expected, variance = cost_of(holdings, model)
        return expected + model.risk_aversion * variance

    linear = model.total_units * (
        1 - np.arange(1, model.periods) / model.periods
    )
    result = optimize.minimize(objective, linear, method="BFGS", tol=1e-14)
    return result.fun


def test_risk_neutral_is_linear():
    trajectory = optimal_trajectory(desk_model(periods=4))
    assert trajectory.holdings == pytest.approx((100, 75, 50, 25, 0))


def test_risk_averse_is_front_loaded():
    model = desk_model(periods=8, risk_aversion=1e-4)
    trajectory = optimal_trajectory(model)
    linear = [100 * (1 - j / 8) for j in range(9)]
    for j in range(1, 8):
        assert trajectory.holdings[j] < linear[j]


def test_ill_posed_model_rejected():
    with pytest.raises(FrontierError):
        desk_model(temporary_coeff=0.04, permanent_coeff=0.1)


def test_matches_brute_force_oracle():
    rng = random.Random(7)
    for _ in range(20):
        model = desk_model(
            total_units=rng.uniform(10, 500),
            periods=rng.randint(2, 5),
            period_length=rng.uniform(0.5, 2.0),
            volatility=rng.uniform(100, 3000),
            permanent_coeff=rng.uniform(0.0, 0.2),
            temporary_coeff=rng.uniform(0.5, 2.0),
            risk_aversion=rng.choice([0.0, 1e-7, 1e-6, 1e-5]),
        )
        trajectory = optimal_trajectory(model)
        (point,) = frontier(model, [model.risk_aversion])
        oracle = brute_force_min(model)
        for expected, variance in [(trajectory.expected_cost, trajectory.cost_variance),
                                   (point.expected_cost, point.cost_variance)]:
            assert expected + model.risk_aversion * variance <= oracle * (1 + 1e-6) + 1e-9


def test_lambda_to_zero_limit_is_linear():
    model = desk_model(periods=10, volatility=1.0, risk_aversion=1e-12)
    trajectory = optimal_trajectory(model)
    linear = [100 * (1 - j / 10) for j in range(11)]
    assert max(abs(a - b) for a, b in zip(trajectory.holdings, linear)) < 1e-6


def test_scale_equivariance():
    base = optimal_trajectory(desk_model(risk_aversion=1e-6))
    scaled = optimal_trajectory(desk_model(total_units=300.0, risk_aversion=1e-6))
    for a, b in zip(base.holdings, scaled.holdings):
        assert b == pytest.approx(3 * a, rel=1e-12, abs=1e-9)
    assert scaled.expected_cost == pytest.approx(9 * base.expected_cost, rel=1e-12)
    assert scaled.cost_variance == pytest.approx(9 * base.cost_variance, rel=1e-12)


def test_optimality_against_perturbations():
    model = desk_model(periods=6, risk_aversion=1e-6)
    trajectory = optimal_trajectory(model)
    best = trajectory.expected_cost + model.risk_aversion * trajectory.cost_variance
    rng = np.random.default_rng(42)
    holdings = np.array(trajectory.holdings)
    for _ in range(100):
        noise = rng.normal(scale=2.0, size=len(holdings))
        noise[0] = noise[-1] = 0.0
        expected, variance = cost_of(holdings + noise, model)
        assert best <= expected + model.risk_aversion * variance + 1e-9


def test_frontier_monotone_and_convex():
    lambdas = [1e-9 * 3**k for k in range(20)]
    points = frontier(desk_model(), lambdas)
    costs = [p.expected_cost for p in points]
    variances = [p.cost_variance for p in points]
    assert costs == sorted(costs)
    assert variances == sorted(variances, reverse=True)
    # variance as a function of cost is convex along the frontier
    for i in range(1, len(points) - 1):
        dc1 = costs[i] - costs[i - 1]
        dc2 = costs[i + 1] - costs[i]
        if dc1 <= 0 or dc2 <= 0:
            continue
        slope1 = (variances[i] - variances[i - 1]) / dc1
        slope2 = (variances[i + 1] - variances[i]) / dc2
        assert slope2 >= slope1 - 1e-9


def test_frontier_determinism_and_edge_cases():
    points = frontier(desk_model(), [1e-6, 1e-6])
    assert points[0] == points[1]
    with pytest.raises(FrontierError):
        frontier(desk_model(), [])


def test_cost_of_zero_volatility_linear():
    model = desk_model(volatility=0.0)
    linear = [100 * (1 - j / 10) for j in range(11)]
    expected, variance = cost_of(linear, model)
    assert variance == 0.0
    trades_sq = 10 * 10.0**2
    eta_tilde = model.adjusted_temporary
    assert expected == pytest.approx(0.5 * 0.1 * 100**2 + eta_tilde * trades_sq)


def test_cost_of_immediate_liquidation():
    model = desk_model(periods=3)
    expected, variance = cost_of([100, 0, 0, 0], model)
    assert variance == 0.0
    assert expected == pytest.approx(
        0.5 * model.permanent_coeff * 100**2 + model.adjusted_temporary * 100**2
    )


def test_cost_of_rejects_bad_endpoints():
    # The tolerance is relative to the total: an absolute 1e-8 once priced a
    # path of zeros at a total of 1e-200, and a path that ends at 5e-9.
    for holdings, model in [([90, 50, 20, 0], desk_model(periods=3)),
                            ([0.0, 0.0, 0.0], ExecutionModel(1e-200, 2, volatility=1.0)),
                            ([1e-9, 5e-10, 5e-9], ExecutionModel(1e-9, 2, volatility=1.0))]:
        with pytest.raises(FrontierError, match="^trajectory must start at total_units and end at zero$"):
            cost_of(holdings, model)


def test_cost_of_rejects_a_path_of_the_wrong_length():
    with pytest.raises(FrontierError, match=r"^expected 3 holdings values, got \(2,\)$"):
        cost_of([100, 0], ExecutionModel(100.0, 2))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("at", [0, 1, 3])
def test_cost_of_rejects_a_non_finite_holding(bad, at):
    """An inadmissible path raises rather than costing NaN or inf: a
    non-finite interior holding as well as a non-finite endpoint."""
    holdings = [100.0, 50.0, 20.0, 0.0]
    holdings[at] = bad
    with pytest.raises(FrontierError, match="holdings must be finite"):
        cost_of(holdings, desk_model(periods=3))


def test_cost_of_rejects_a_cost_past_the_float_range():
    """A finite path whose cost leaves the float range raises; frontier()
    keeps such a point, which the CLI turns into exit 4."""
    with pytest.raises(FrontierError, match="not a finite float"):  # the trades' squares
        cost_of([100, 1e300, 0], ExecutionModel(100.0, 2, volatility=1.0))
    model = ExecutionModel(100.0, 2, volatility=1e200)  # σ²τΣx² overflows: the variance alone
    with pytest.raises(FrontierError, match="not a finite float"):
        cost_of([100, 50, 0], model)
    (point,) = frontier(model, [0.0])
    assert math.isfinite(point.expected_cost) and point.cost_variance == math.inf


def test_a_path_that_holds_nothing_has_zero_variance_at_any_sigma():
    """The variance σ²τ·Σx², a product of mantissas scaled once, of a path
    that sells everything in its first period is exactly 0 where σ²τ = 1e600
    would overflow to inf, and inf·0 make it NaN; the same path at a finite σ
    keeps its bits."""
    for volatility in (1e300, 1600.0):
        model = ExecutionModel(100.0, 2, volatility=volatility)
        assert bits(cost_of([100, 0, 0], model)) == bits((10000.0, 0.0))
    (point,) = frontier(ExecutionModel(100.0, 2, volatility=1e300), [1e6])
    assert bits([point.expected_cost, point.cost_variance]) == bits([10000.0, 0.0])


def test_frontier_point_is_a_slotted_frozen_dataclass():
    """frontier() builds its points without __init__; dataclasses.replace and
    asdict, which the CLI and the benchmark's planted fault use, still work."""
    point = frontier(desk_model(), [1e-6])[0]
    assert not hasattr(point, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        point.expected_cost = 0.0
    nan = dataclasses.replace(point, expected_cost=math.nan)
    assert type(nan) is FrontierPoint and math.isnan(nan.expected_cost)
    assert (nan.risk_aversion, nan.cost_variance) == (point.risk_aversion, point.cost_variance)
    assert dataclasses.asdict(point) == {"risk_aversion": 1e-6, "expected_cost": point.expected_cost,
                                         "cost_variance": point.cost_variance}
    assert point == FrontierPoint(1e-6, point.expected_cost, point.cost_variance)


def exact_trajectory(model):
    """The closed form and its cost in 50-digit arithmetic, with κτ =
    2·asinh(√stiffness/2) taken exactly from the model's floats."""
    n = model.periods
    tau = model.period_length
    with mpmath.workdps(50):
        x_total = mpmath.mpf(model.total_units)
        stiffness = (mpmath.mpf(model.risk_aversion) * mpmath.mpf(model.volatility) ** 2
                     * mpmath.mpf(tau) ** 2 / mpmath.mpf(model.adjusted_temporary))
        if stiffness == 0:
            holdings = [x_total * (n - j) / n for j in range(n + 1)]
        else:
            kappa_tau = 2 * mpmath.asinh(mpmath.sqrt(stiffness) / 2)
            # sinh(κτm) for m = 0..n from running powers of e^κτ and e^−κτ,
            # a multiply each instead of a 50-digit sinh each; their
            # difference cancels about −log10(κτ) digits, carried in extra
            with mpmath.extradps(max(0, int(-mpmath.log10(kappa_tau)))):
                up, down = [mpmath.mpf(1)], [mpmath.mpf(1)]
                grow, shrink = mpmath.exp(kappa_tau), mpmath.exp(-kappa_tau)
                for _ in range(n):
                    up.append(up[-1] * grow)
                    down.append(down[-1] * shrink)
                unit = x_total / (up[n] - down[n])
                holdings = [(up[n - j] - down[n - j]) * unit for j in range(n + 1)]
        trades = [a - b for a, b in zip(holdings, holdings[1:])]
        expected = (mpmath.mpf(model.permanent_coeff) * x_total**2 / 2
                    + mpmath.mpf(model.adjusted_temporary) / tau * mpmath.fdot(trades, trades))
        variance = (mpmath.mpf(model.volatility) ** 2 * tau
                    * mpmath.fdot(holdings[1:], holdings[1:]))
        return [float(h) for h in holdings], float(expected), float(variance)


def assert_close(model, got_values, want_values):
    """Relative error at most 1e-12; below x·1e-300, where float exponents run
    out of mantissa, an absolute error of that size."""
    floor = model.total_units * 1e-300
    for got, want in zip(got_values, want_values, strict=True):
        assert math.isfinite(got)
        assert abs(got - want) <= 1e-12 * max(abs(want), floor), (got, want)


def assert_matches_exact(model, holdings, expected, variance):
    exact_holdings, exact_expected, exact_variance = exact_trajectory(model)
    assert_close(model, [*holdings, expected, variance],
                 [*exact_holdings, exact_expected, exact_variance])


def bits(values):
    """Exact float identity, NaN matching NaN."""
    return [float(v).hex() for v in values]


def ulps_apart(model, got, want):
    """|got − want| in ulps of want; below x·1e-300, as in assert_close, in
    ulps of that floor."""
    return abs(got - want) / math.ulp(max(abs(want), model.total_units * 1e-300))


def assert_frontier_matches_exact(model, lambdas):
    """Each point's E and V lie within 32 ulps of the 50-digit closed form at
    its λ, or are inf where that is past the float range, never NaN; they are
    bit-identical to its λ's point alone, so duplicates agree, and to the
    optimal trajectory's at that λ, and where both are finite they are near
    cost_of's sums over the trajectory's holdings."""
    points = frontier(model, lambdas)
    assert [p.risk_aversion for p in points] == lambdas
    checked = {}
    for lam, point in zip(lambdas, points):
        got = [point.expected_cost, point.cost_variance]
        (alone,) = frontier(model, [lam])
        assert bits(got) == bits([alone.expected_cost, alone.cost_variance]), (lam, lambdas)
        if lam in checked:
            continue
        variant = model._replace(risk_aversion=lam)
        _, *exact = exact_trajectory(variant)
        for g, want in zip(got, exact):
            assert g == want if math.isinf(want) else ulps_apart(variant, g, want) <= 32, (
                lam, got, exact)
        trajectory = optimal_trajectory(variant)
        assert bits(got) == bits([trajectory.expected_cost, trajectory.cost_variance]), lam
        if all(map(math.isfinite, got)):
            assert_near_the_summed_path(variant, got, trajectory.holdings)
        checked[lam] = got


def assert_near_the_summed_path(model, got, holdings):
    """E and V within 1e-12 of cost_of's sums over the holdings, give or take
    the holdings' own rounding: where np.exp is subnormal or 0, a holding is
    up to d = (X + 1)·2^-1074 off, which moves Σn_k² by up to 4(X + n·d)·d
    and Σx_k² by up to (2·Σx_k + n·d)·d; and the two roundings of a subnormal."""
    n, tau, x_total = model.periods, Fraction(model.period_length), Fraction(model.total_units)
    off = (x_total + 1) / 2**1074
    slack = (Fraction(model.adjusted_temporary) / tau * 4 * (x_total + n * off) * off,
             Fraction(model.volatility) ** 2 * tau * (2 * sum(map(Fraction, holdings[1:]))
                                                      + n * off) * off)
    for g, summed, extra in zip(got, cost_of(holdings, model), map(rounded, slack)):
        assert abs(g - summed) <= 1e-12 * abs(summed) + extra + 2**-1073, (got, summed)


@settings(max_examples=100)
@given(
    periods=st.sampled_from([1, 2, 10, 200, 2000]) | st.integers(1, 400),
    total=st.floats(1.0, 1e4) | st.floats(-300, 300).map(lambda e: 10.0**e),
    volatility=(st.sampled_from([0.0, 1.0, 1600.0, 1.041180171578257e-161]) | st.floats(0.0, 5e3)
                | st.floats(-300, 300).map(lambda e: 10.0**e)),
    tau=st.floats(0.25, 4.0) | st.floats(-300, 300).map(lambda e: 10.0**e),
    lambdas=st.lists(st.just(0.0) | st.floats(-12, 0).map(lambda e: 10.0**e),
                     min_size=1, max_size=30),
    repeats=st.integers(0, 5),
    order=st.randoms(use_true_random=False),
)
@example(periods=200, total=100.0, volatility=1600.0, tau=1.0,
         lambdas=[1e-2, 0.0, 1e-8, 1e-2, 1e-5], repeats=2, order=random.Random(0))
# sinh(κτn) overflows, and x·sinh(κτn) with it
@example(periods=200, total=1e4, volatility=1.0, tau=1.0,
         lambdas=[0.95 * 2 * (math.cosh(3.515) - 1)], repeats=0, order=random.Random(0))
@example(periods=200, total=1.0, volatility=1.0, tau=1.0, lambdas=[2 * (math.cosh(3.56) - 1)],
         repeats=0, order=random.Random(0))
# 1 + stiffness/2 rounds to 1, so arccosh would give κτ = 0
@example(periods=10, total=1.0, volatility=1e-21, tau=1.0, lambdas=[0.1, 0.0], repeats=0,
         order=random.Random(0))
# a subnormal stiffness: κτ ≈ 1e-161, whose cube underflows
@example(periods=10, total=1.0, volatility=1.041180171578257e-161, tau=1.0, lambdas=[1.0],
         repeats=0, order=random.Random(0))
# (2n − 1)·κτ either side of SERIES_BELOW
@example(periods=10, total=100.0, volatility=1.0, tau=1.0,
         lambdas=[0.95 * 4 * math.sinh(z / 19 / 2) ** 2 for z in (1.999, 2.0, 2.001, 1e-3)],
         repeats=2, order=random.Random(0))
# a century of daily periods: the largest n, from the linear to the steepest path
@example(periods=MAX_PERIODS, total=100.0, volatility=1600.0, tau=1.0, lambdas=[0.0, 1e-12, 1.0],
         repeats=1, order=random.Random(0))
# σ² alone is subnormal, but the variance is a normal float: 0.27% off as σ²·(τ·Σx²)
@example(periods=10, total=1e10, volatility=1.041180171578257e-161, tau=1.0, lambdas=[0.0, 1.0],
         repeats=0, order=random.Random(0))
# σ² alone overflows, but the variance, 2.85e300, is a float
@example(periods=10, total=1e-10, volatility=1e160, tau=1.0, lambdas=[0.0], repeats=0,
         order=random.Random(0))
# τ·Σx² alone underflows to 0, σ² overflows, and σ²·τ·Σx² = 2.85
@example(periods=10, total=1e-150, volatility=1e200, tau=1e-100, lambdas=[0.0], repeats=0,
         order=random.Random(0))
# τ·Σx² alone is subnormal, but the variance, 2.85e-10, is a normal float
@example(periods=10, total=1e-150, volatility=1e150, tau=1e-10, lambdas=[0.0], repeats=0,
         order=random.Random(0))
# τ·Σx² alone overflows, σ² underflows to 0, and σ²·τ·Σx² = 2.85e-80
@example(periods=10, total=1e10, volatility=1e-200, tau=1e300, lambdas=[0.0], repeats=0,
         order=random.Random(0))
# λ(στ)² = 1e310 overflows: κτ = inf, the immediate-liquidation limit; at λ = 1,
# Σx² ≈ 9e-597 is past the float range, but the variance, 9.025e-297, is a float
@example(periods=10, total=100.0, volatility=1e150, tau=1.0, lambdas=[1e10, 1.0, 0.0], repeats=0,
         order=random.Random(0))
# λ = 0 where στ = 1e400 is past the float range: zero stiffness, not NaN, and
# the linear path, whose variance, 2.85e300, is a float
@example(periods=10, total=1e-150, volatility=1e200, tau=1e200, lambdas=[0.0], repeats=0,
         order=random.Random(0))
# (στ)² = 1e-312 alone is subnormal, but the stiffness λ(στ)²/η̃ is a normal float
@example(periods=200, total=100.0, volatility=1e-156, tau=1.0, lambdas=[1e308], repeats=0,
         order=random.Random(0))
# X² = 1e-400 alone underflows, but E ≈ 1e-101 is a normal float
@example(periods=10, total=1e-200, volatility=1600.0, tau=1e-300, lambdas=[0.0, 1e-9],
         repeats=0, order=random.Random(0))
# X² = 1e400 alone overflows, but E ≈ 1e99 is a float
@example(periods=10, total=1e200, volatility=0.0, tau=1e300, lambdas=[0.0], repeats=0,
         order=random.Random(0))
# E and V are past the float range: inf, not NaN
@example(periods=10, total=1e200, volatility=1600.0, tau=1.0, lambdas=[0.0, 1e-6], repeats=0,
         order=random.Random(0))
# the stiffness, about 1e310, is past the float range, but the variance, 9.025e-315
# here and 3.5e-168 below, is a float: e^−κτ is taken from the stiffness over 4^k
@example(periods=2, total=1.0, volatility=1e151, tau=1e4, lambdas=[1.0], repeats=0,
         order=random.Random(0))
@example(periods=2, total=1e146, volatility=1600.0, tau=1e151, lambdas=[1.0], repeats=0,
         order=random.Random(0))
# x·expm1(−2κτ) ≈ 2e-318 would be subnormal: the holdings take the expm1 ratio first
@example(periods=2, total=1e-158, volatility=1.0, tau=1e-160, lambdas=[1.0], repeats=0,
         order=random.Random(0))
def test_frontier_matches_the_50_digit_closed_form_and_the_summed_path(
    periods, total, volatility, tau, lambdas, repeats, order
):
    lambdas = lambdas + lambdas[:repeats]
    order.shuffle(lambdas)
    model = desk_model(total_units=total, periods=periods, volatility=volatility,
                       period_length=tau, permanent_coeff=0.1 / tau)
    assert_frontier_matches_exact(model, lambdas)


@pytest.mark.parametrize("periods", [1, 2, 10, 200])
def test_frontier_matches_the_50_digit_closed_form_on_random_models(periods):
    # Full-mantissa draws: a rounding change shows on only a few percent of
    # points, which the short values hypothesis favours seldom reach.
    rng = random.Random(periods)
    for _ in range(100):
        tau = rng.uniform(0.25, 4.0)
        model = desk_model(total_units=rng.uniform(1.0, 1e4), periods=periods,
                           volatility=rng.uniform(0.0, 5e3), period_length=tau,
                           permanent_coeff=rng.uniform(0.0, 0.2) / tau)
        lambdas = [0.0] + [10 ** rng.uniform(-12, 0) for _ in range(9)]
        lambdas += rng.sample(lambdas, 3)
        rng.shuffle(lambdas)
        assert_frontier_matches_exact(model, lambdas)


@pytest.mark.parametrize("periods", [2, 10, 200, MAX_PERIODS])
def test_a_point_is_the_same_alone_or_among_others_either_side_of_the_series(periods):
    # The held units' series sums SERIES_TERMS terms at every κτ, so a point's
    # bits do not depend on the largest M·κτ among the others in its call.
    m = 2 * periods - 1
    model = desk_model(total_units=100.0, periods=periods, volatility=1.0)
    rng = random.Random(periods)
    targets = [1e-12, 1e-3, 0.5, 1.9, 1.999, SERIES_BELOW, 2.001, 3.0, 50.0]
    targets += [10 ** rng.uniform(-6, 1) for _ in range(40)]
    lambdas = [0.0, 1.0] + [4 * math.sinh(z / m / 2) ** 2 * model.adjusted_temporary
                            for z in targets]
    for batch in (lambdas, lambdas[::-1], [lambdas[0], lambdas[-1]]):
        for lam, point in zip(batch, frontier(model, batch)):
            (alone,) = frontier(model, [lam])
            assert bits([point.expected_cost, point.cost_variance]) == bits(
                [alone.expected_cost, alone.cost_variance]), lam


def test_the_series_terms_cover_every_kappa_tau_below_the_threshold():
    # term k + 1 over the first, at most 6.75·(Mκτ)^2k/(2k + 3)!, at the
    # largest Mκτ the series takes; the terms after it fall faster still
    assert 6.75 * SERIES_BELOW ** (2 * SERIES_TERMS) / math.factorial(2 * SERIES_TERMS + 3) < 2.0**-60
    for m in (3, 19, 399, 2 * MAX_PERIODS - 1):
        with mpmath.workdps(60):
            a = mpmath.mpf(SERIES_BELOW) / m
            first = m * (m**2 - 1) * a**3 / 6
            tail = mpmath.sinh(m * a) - m * mpmath.sinh(a) - mpmath.fsum(
                m * (m ** (2 * k) - 1) * a ** (2 * k + 1) / mpmath.factorial(2 * k + 1)
                for k in range(1, SERIES_TERMS + 1))
        assert 0 <= tail < 2.0**-60 * first


@pytest.mark.parametrize(
    "overrides",
    [
        {"total_units": math.inf},
        {"total_units": math.nan},
        {"volatility": math.inf},
        {"period_length": math.nan},
        {"permanent_coeff": math.nan},
        {"temporary_coeff": math.nan},
        {"risk_aversion": math.nan},
        {"risk_aversion": math.inf},
    ],
)
def test_nonfinite_model_parameters_rejected(overrides):
    with pytest.raises(FrontierError):
        desk_model(**overrides)


@pytest.mark.parametrize("field", ["total_units", "period_length", "volatility",
                                   "permanent_coeff", "temporary_coeff", "risk_aversion"])
@pytest.mark.parametrize("value", [True, False, "1", None])
def test_model_parameters_that_are_not_real_numbers_rejected(field, value):
    # True once built a one-unit model, and risk_aversion=True priced λ = 1;
    # a str raised math.isfinite's TypeError
    with pytest.raises(FrontierError, match="must be real numbers"):
        desk_model(**{field: value})


@pytest.mark.parametrize("periods", [0, MAX_PERIODS + 1, 10_000_000_000_000])
def test_periods_out_of_range_rejected(periods):
    # raised in the model, before any array of that size is built
    with pytest.raises(FrontierError):
        desk_model(periods=periods)


@pytest.mark.parametrize("periods", [10.5, 10.0, "10", None, np.int64(200), np.uint8(10), True])
def test_non_integer_periods_rejected(periods):
    # 10.5 periods once gave a trajectory of 12 holdings, and np.int64(200)
    # periods a frontier variance 1.3e-6 relative off the int model's
    with pytest.raises(FrontierError, match=f"^non-integer periods {re.escape(repr(periods))}$"):
        desk_model(periods=periods)


@pytest.mark.parametrize("lambdas", [[math.nan], [0.0, math.inf], [1e-6, -1e-6]])
def test_frontier_rejects_nonfinite_or_negative_lambdas(lambdas):
    with pytest.raises(FrontierError):
        frontier(desk_model(), lambdas)


# frontier() reads its risk aversions, and cost_of its holdings, one way
READERS = {"frontier": lambda values: frontier(ExecutionModel(100.0, 2), values),
           "cost_of": lambda values: cost_of(values, ExecutionModel(100.0, 2))}


@pytest.mark.parametrize("lambdas", [[[1e-6], [1e-5]], [[1e-6, 1e-5]], "12", {1e-6},
                                     [[1e-6], [1e-5, 1.0]]])
@pytest.mark.parametrize("read", READERS)
def test_frontier_rejects_lambdas_that_are_not_one_flat_sequence(lambdas, read):
    # a column of risk aversions once gave points whose costs were lists, a
    # set raised a bare TypeError, and a ragged list numpy's bare ValueError
    with pytest.raises(FrontierError, match="flat sequence"):
        READERS[read](lambdas)


@pytest.mark.parametrize("lambdas", [
    ["1e-6", True],  # once points whose risk aversions were the str and True
    ["1e-6"],
    [b"1"],
    [1e-6, None],
    [Fraction(1, 10**6)],
    [1j],  # once a bare TypeError
    np.array([1e-6, 1j]),
    [True, False],
    np.array([True]),
    ["100", "50", "0"],  # cost_of once priced these holdings as numbers
])
@pytest.mark.parametrize("read", READERS)
def test_frontier_rejects_lambdas_that_are_not_real_numbers(lambdas, read):
    with pytest.raises(FrontierError, match="must be real numbers"):
        READERS[read](lambdas)


def test_a_mixed_call_takes_the_linear_and_the_series_branches(monkeypatch):
    # The call's smallest stiffness and M·κτ decide whether either branch
    # runs, so a λ of 0 and an M·κτ below SERIES_BELOW among larger λ must
    # each still take theirs: the linear path's sums, and the series.
    model = desk_model(volatility=1.0)
    m = 2 * model.periods - 1
    small = 4 * math.sinh(1.0 / m / 2) ** 2 * model.adjusted_temporary  # M·κτ = 1
    lambdas = [0.1, 0.0, 3.0, small, 0.5]
    summed = []
    held_series = overhang.frontier._held_series
    monkeypatch.setattr(overhang.frontier, "_held_series",
                        lambda a, n: summed.append(len(a)) or held_series(a, n))
    points = frontier(model, lambdas)
    assert summed == [2]  # λ = 0 and the small λ
    x, n = model.total_units, model.periods
    linear = (0.5 * model.permanent_coeff * x**2 + model.adjusted_temporary * (x * (x / n)),
              model.volatility**2 * x**2 * (n - 1) * (2 * n - 1) / (6 * n))
    assert points[1].expected_cost == linear[0]
    assert points[1].cost_variance == pytest.approx(linear[1], rel=1e-15)
    monkeypatch.undo()
    assert_frontier_matches_exact(model, lambdas)


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads Linux VmHWM")
def test_many_lambdas_at_a_century_of_periods_stay_in_bounded_memory():
    # 500 risk aversions at 36,500 periods peaked at about 446 MB as one
    # holdings array, and at about 45 MB in blocks of it; priced in closed form
    # without a path, they peak at about what the interpreter and numpy take.
    # The probe reads its own VmHWM: a child's ru_maxrss keeps the high-water
    # mark of the process it was forked from, here pytest's.
    probe = (
        "from overhang.frontier import ExecutionModel, frontier\n"
        "model = ExecutionModel(total_units=100.0, periods=36_500, volatility=1600.0,"
        " permanent_coeff=0.1)\n"
        "points = frontier(model, [1e-8 * 1.01**i for i in range(500)])\n"
        "assert len(points) == 500\n"
        "print(next(line.split()[1] for line in open('/proc/self/status')"
        " if line.startswith('VmHWM:')))\n"
    )
    package_root = Path(overhang.frontier.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(package_root))
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    peak_mb = int(result.stdout) / 1024  # VmHWM is in kB
    assert peak_mb < 60


@settings(max_examples=60)
@given(
    periods=st.sampled_from([1, 10, 200, 2000]),
    total=st.floats(1.0, 1e4),
    volatility=st.sampled_from([1.0, 1600.0]) | st.floats(0.0, 5e3),
    tau=st.floats(0.25, 4.0),
    lam=st.just(0.0) | st.floats(-12, 0).map(lambda e: 10.0**e),
)
@example(periods=200, total=100.0, volatility=1600.0, tau=1.0, lam=1e-2)
@example(periods=2000, total=100.0, volatility=1600.0, tau=1.0, lam=1.0)
@example(periods=10, total=1.0, volatility=1e-21, tau=1.0, lam=0.1)
# sinh(κτn) overflows while every x·sinh(κτ(n−j)) stays finite: the parent
# printed this row as finite, with zeros where x·e^(−κτj) belongs.
@example(periods=200, total=1.0, volatility=1.0, tau=1.0, lam=2 * (math.cosh(3.56) - 1))
# a small stiffness: κτ = arccosh(1 + stiffness/2) loses its low digits, and
# the holdings were 1e-12 off in relative terms
@example(periods=2000, total=100.0, volatility=1600.0, tau=1.0, lam=1e-12)
# a subnormal stiffness, whose κτ the 50-digit e^κτ − e^−κτ would lose
@example(periods=10, total=1.0, volatility=1.041180171578257e-161, tau=1.0, lam=1.0)
def test_trajectory_matches_50_digit_closed_form(periods, total, volatility, tau, lam):
    model = desk_model(total_units=total, periods=periods, volatility=volatility,
                       period_length=tau, permanent_coeff=0.0, risk_aversion=lam)
    trajectory = optimal_trajectory(model)
    assert_matches_exact(model, trajectory.holdings, trajectory.expected_cost,
                         trajectory.cost_variance)
    assert all(a >= b for a, b in zip(trajectory.holdings, trajectory.holdings[1:]))


def reference_optimal_holdings(model, lambdas):
    """The optimal holdings as one expression at _priced's κτ, one row per
    risk aversion, into fresh arrays: the reference for optimal_trajectory's
    holdings at each λ alone. κτ itself is checked by the 50-digit tests of
    the costs."""
    n = model.periods
    x_total = model.total_units
    j = np.arange(n + 1)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        kappa_tau, _, _ = overhang.frontier._priced(model, lambdas)
        linear = kappa_tau == 0
        kappa_tau = kappa_tau[:, np.newaxis]
        holdings = (x_total * np.exp(-kappa_tau * j)
                    * (np.expm1(-2 * kappa_tau * (n - j)) / np.expm1(-2 * kappa_tau * n)))
    holdings[linear] = x_total * (1 - j / n)
    holdings[:, 0] = x_total
    holdings[:, -1] = 0.0
    return holdings


def assert_holdings_match_the_reference(model, lambdas):
    """Each λ's path bit-identical to the reference's row, and how many paths
    reach +0.0 before their last period: where −κτj is below about −745.13,
    np.exp is +0.0."""
    values = np.array(lambdas, dtype=float)
    underflowed = 0
    for lam, row in zip(values, reference_optimal_holdings(model, values)):
        path = np.array(optimal_trajectory(model._replace(risk_aversion=float(lam))).holdings)
        assert path.tobytes() == row.tobytes(), lam
        underflowed += bool(row[1:-1].size) and row[-2] == 0.0 < row[1]
    return underflowed


@settings(max_examples=200)
@given(
    periods=st.sampled_from([1, 2, 10, 200, 2000]),
    total=st.floats(1.0, 1e4),
    volatility=st.sampled_from([0.0, 1.0, 1600.0, 1e160]) | st.floats(0.0, 5e3),
    tau=st.floats(0.25, 4.0),
    edge=st.floats(0.0, 0.999999),
    lambdas=st.lists(st.just(0.0) | st.floats(-12, 10).map(lambda e: 10.0**e),
                     min_size=1, max_size=20),
)
# −κτj falls below −745.13 past j ≈ 73: np.exp gives +0.0 there
@example(periods=200, total=100.0, volatility=1600.0, tau=1.0, edge=0.05,
         lambdas=[1e-2, 0.0, 1e-8])
# −κτn stays above −745.13: every exp is positive
@example(periods=10, total=100.0, volatility=1600.0, tau=1.0, edge=0.05, lambdas=[1e-6, 0.0])
# γτ/2 just under η: a tiny adjusted η and a huge stiffness
@example(periods=200, total=1.0, volatility=1e160, tau=1.0, edge=0.999999, lambdas=[1e10, 1.0])
def test_optimal_holdings_match_the_one_expression_reference(
    periods, total, volatility, tau, edge, lambdas
):
    # edge is γτ/2 as a share of η = 1, the ill-posed limit
    model = desk_model(total_units=total, periods=periods, volatility=volatility,
                       period_length=tau, permanent_coeff=2 * edge / tau)
    assert_holdings_match_the_reference(model, lambdas)


def test_optimal_holdings_match_the_reference_on_random_models_either_side_of_exp_underflow():
    # Full-mantissa draws, some of whose paths reach exp's zeros.
    rng = random.Random(26)
    underflowed = paths = 0
    for _ in range(300):
        tau = rng.uniform(0.25, 4.0)
        model = desk_model(total_units=rng.uniform(1.0, 1e4), periods=rng.randint(1, 400),
                           volatility=10 ** rng.uniform(-3, 160), period_length=tau,
                           permanent_coeff=2 * rng.uniform(0.0, 0.999999) / tau)
        lambdas = [0.0] + [10 ** rng.uniform(-12, 10) for _ in range(rng.randint(0, 8))]
        underflowed += assert_holdings_match_the_reference(model, lambdas)
        paths += len(lambdas)
    assert 0 < underflowed < paths


def reference_row_costs(holdings, model):
    """The costs of each row of a (rows, periods + 1) holdings array, the
    reference for cost_of's on each row alone: the expected cost
    γX²/2 + (η̃/τ)·Σn_k² and the variance σ²τ·Σx_k², each exact over the
    row's floats and rounded once, inf past the float range."""
    gamma, eta, tau, sigma, x_total = map(Fraction, (
        model.permanent_coeff, model.adjusted_temporary, model.period_length, model.volatility,
        model.total_units))
    fixed, rate, scale = gamma * x_total**2 / 2, eta / tau, sigma**2 * tau
    costs = []
    for row in holdings.tolist():
        row = list(map(Fraction, row))
        exact = (fixed + rate * sum((a - b) ** 2 for a, b in zip(row, row[1:])),
                 scale * sum(x**2 for x in row[1:]))
        costs.append([rounded(value) for value in exact])
    return zip(*costs)


def rounded(value):
    """An exact value as the nearest float: inf past the float range."""
    try:
        return float(value)
    except OverflowError:
        return math.inf


@pytest.mark.parametrize("seed", range(8))
def test_path_costs_match_the_diff_and_sum_reference(seed):
    """Random models, among them 200-period paths whose large risk aversions
    underflow the holdings and volatilities near the float range, give
    cost_of the reference's expected cost and variance within periods + 8
    ulps (a rounding per trade, per square and per sum of nonnegative terms,
    at most eight in the factors' products, their scaling and E's one sum),
    optimal paths and arbitrary ones alike, or raise where those costs are
    not finite."""
    rng = np.random.default_rng(seed)
    for periods in (1, 10, 50, 200):
        for volatility in (0.0, 1.0, 1600.0, rng.uniform(0, 5e3), 1e150, 1e155, 1e300):
            model = desk_model(total_units=float(rng.uniform(1, 1e4)), periods=periods,
                               volatility=volatility, period_length=float(rng.uniform(0.25, 4)))
            lambdas = np.concatenate(([0.0, 1e-2, 1.0, 1e6], 10.0 ** rng.uniform(-12, 2, 12)))
            rows = [reference_optimal_holdings(model, lambdas),
                    rng.normal(0, 1e3, (5, periods + 1)),
                    rng.choice([0.0, 1.0, -2.5, 1e160, -1e200], (5, periods + 1))]
            for holdings in rows:
                holdings[:, 0], holdings[:, -1] = model.total_units, 0.0
                for path, expected, variance in zip(holdings, *reference_row_costs(holdings, model)):
                    if math.isfinite(expected) and math.isfinite(variance):
                        for got, want in zip(cost_of(path, model), (expected, variance)):
                            assert abs(got - want) <= (periods + 8) * math.ulp(want), (got, want)
                    else:
                        with pytest.raises(FrontierError, match="not a finite float"):
                            cost_of(path, model)


def test_frontier_points_are_the_same_for_a_list_and_an_array_of_lambdas():
    # Each point holds the Python float its cost was priced at: an array once
    # leaked np.float64 risk aversions, and a list's ints stayed ints.
    model = desk_model(periods=50)
    lambdas = [0.0, 1e-8, 1e-6, 1e-4, 1e-2, 1.0]
    from_list = frontier(model, lambdas)
    for same in (np.array(lambdas), [0, *lambdas[1:-1], 1]):
        points = frontier(model, same)
        assert from_list == points
        for a, b, lam in zip(from_list, points, lambdas):
            assert a.risk_aversion == b.risk_aversion == lam
            assert type(a.risk_aversion) is type(b.risk_aversion) is float
            assert bits([a.expected_cost, a.cost_variance]) == bits([b.expected_cost, b.cost_variance])
