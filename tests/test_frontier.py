import dataclasses
import math
import random

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import optimize

from overhang.frontier import (
    ExecutionModel,
    FrontierError,
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
        objective = trajectory.expected_cost + model.risk_aversion * trajectory.cost_variance
        oracle = brute_force_min(model)
        assert objective <= oracle * (1 + 1e-6) + 1e-9


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
    model = desk_model(periods=3)
    with pytest.raises(FrontierError):
        cost_of([90, 50, 20, 0], model)


def scalar_trajectory(model):
    """The closed form for one risk aversion on scalar numpy values, with its
    cost and whether its sinh ratio broke down: the reference for the
    row-wise kernel behind frontier wherever it did not."""
    n = model.periods
    x_total = model.total_units
    tau = model.period_length
    j = np.arange(n + 1)
    stiffness = (
        model.risk_aversion * model.volatility**2 * tau**2 / model.adjusted_temporary
    )
    broke = False
    if stiffness <= 0:
        holdings = x_total * (1 - j / n)
    else:
        kappa_tau = np.arccosh(1 + stiffness / 2)
        scale = np.sinh(kappa_tau * n)
        holdings = x_total * np.sinh(kappa_tau * (n - j)) / scale
        # A zero scale (κτ rounded to 0) leaves NaN. An infinite one leaves NaN
        # or, where the numerator stayed finite, a wrong zero. An infinite
        # numerator leaves inf or NaN.
        broke = not 0 < scale < np.inf or not np.isfinite(holdings[1:]).all()
    holdings[0] = x_total
    holdings[-1] = 0.0
    trades = -np.diff(holdings)
    expected = (
        0.5 * model.permanent_coeff * model.total_units**2
        + model.adjusted_temporary / tau * float(np.sum(trades**2))
    )
    variance = model.volatility**2 * tau * float(np.sum(holdings[1:] ** 2))
    return holdings, expected, variance, broke


def exact_trajectory(model):
    """The closed form and its cost in 50-digit arithmetic.

    κτ is the float the kernel computes, arccosh(1 + stiffness/2): so this
    measures how the holdings are evaluated from κτ. (That float itself
    carries a relative error of order ε/stiffness for a small stiffness.)
    """
    n = model.periods
    tau = model.period_length
    with mpmath.workdps(50):
        x_total = mpmath.mpf(model.total_units)
        stiffness = (
            model.risk_aversion * model.volatility**2 * tau**2 / model.adjusted_temporary
        )
        kappa_tau = mpmath.mpf(float(np.arccosh(1 + np.float64(stiffness) / 2)))
        if kappa_tau == 0:
            holdings = [x_total * (n - j) / n for j in range(n + 1)]
        else:
            # sinh(κτm) for m = 0..n from running powers of e^κτ and e^−κτ,
            # a multiply each instead of a 50-digit sinh each
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


def assert_matches_exact(model, holdings, expected, variance):
    """Relative error at most 1e-12; below x·1e-300, where float exponents run
    out of mantissa, an absolute error of that size."""
    exact_holdings, exact_expected, exact_variance = exact_trajectory(model)
    floor = model.total_units * 1e-300
    for got, want in zip([*holdings, expected, variance],
                         [*exact_holdings, exact_expected, exact_variance]):
        assert math.isfinite(got)
        assert abs(got - want) <= 1e-12 * max(abs(want), floor), (got, want)


def bits(values):
    """Exact float identity, NaN matching NaN."""
    return [float(v).hex() for v in values]


def assert_frontier_matches_closed_form(model, lambdas):
    points = frontier(model, lambdas)
    assert [p.risk_aversion for p in points] == lambdas
    for lam, point in zip(lambdas, points):
        variant = dataclasses.replace(model, risk_aversion=lam)
        holdings, expected, variance, broke = scalar_trajectory(variant)
        trajectory = optimal_trajectory(variant)
        if broke:  # the 50-digit closed form is the reference for this row
            holdings = trajectory.holdings
            expected, variance = trajectory.expected_cost, trajectory.cost_variance
            assert_matches_exact(variant, holdings, expected, variance)
        assert bits([point.expected_cost, point.cost_variance]) == bits([expected, variance])
        assert bits(trajectory.holdings) == bits(holdings)
        assert bits([trajectory.expected_cost, trajectory.cost_variance]) == bits(
            [expected, variance]
        )


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@settings(max_examples=100, deadline=None)
@given(
    periods=st.sampled_from([1, 10, 200]),
    total=st.floats(1.0, 1e4),
    volatility=st.sampled_from([0.0, 1.0, 1600.0]) | st.floats(0.0, 5e3),
    tau=st.floats(0.25, 4.0),
    lambdas=st.lists(st.just(0.0) | st.floats(-12, -1).map(lambda e: 10.0**e),
                     min_size=1, max_size=30),
    repeats=st.integers(0, 5),
    order=st.randoms(use_true_random=False),
)
@example(periods=200, total=100.0, volatility=1600.0, tau=1.0,
         lambdas=[1e-2, 0.0, 1e-8, 1e-2, 1e-5], repeats=2, order=random.Random(0))
# x·sinh(κτn) overflows but sinh(κτn) does not: only column 0, which is set
# to x anyway, leaves the float range, so the row keeps the scalar path's bits
@example(periods=200, total=1e4, volatility=1.0, tau=1.0,
         lambdas=[0.95 * 2 * (math.cosh(3.515) - 1)], repeats=0, order=random.Random(0))
# 1 + stiffness/2 rounds to 1, so κτ is 0: the scalar path's 0/0 is NaN
@example(periods=10, total=1.0, volatility=1e-21, tau=1.0, lambdas=[0.1, 0.0], repeats=0,
         order=random.Random(0))
def test_frontier_matches_per_lambda_closed_form(
    periods, total, volatility, tau, lambdas, repeats, order
):
    lambdas = lambdas + lambdas[:repeats]
    order.shuffle(lambdas)
    model = desk_model(total_units=total, periods=periods, volatility=volatility,
                       period_length=tau, permanent_coeff=0.1 / tau)
    assert_frontier_matches_closed_form(model, lambdas)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("periods", [1, 10, 200])
def test_frontier_matches_per_lambda_closed_form_on_random_models(periods):
    # Full-mantissa draws: a rounding change shows on only a few percent of
    # points, which the short values hypothesis favours seldom reach.
    rng = random.Random(periods)
    for _ in range(100):
        tau = rng.uniform(0.25, 4.0)
        model = desk_model(total_units=rng.uniform(1.0, 1e4), periods=periods,
                           volatility=rng.uniform(0.0, 5e3), period_length=tau,
                           permanent_coeff=rng.uniform(0.0, 0.2) / tau)
        lambdas = [0.0] + [10 ** rng.uniform(-12, -1) for _ in range(9)]
        lambdas += rng.sample(lambdas, 3)
        rng.shuffle(lambdas)
        assert_frontier_matches_closed_form(model, lambdas)


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


@pytest.mark.parametrize("lambdas", [[math.nan], [0.0, math.inf], [1e-6, -1e-6]])
def test_frontier_rejects_nonfinite_or_negative_lambdas(lambdas):
    with pytest.raises(FrontierError):
        frontier(desk_model(), lambdas)


@settings(max_examples=60, deadline=None)
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
def test_trajectory_matches_50_digit_closed_form(periods, total, volatility, tau, lam):
    model = desk_model(total_units=total, periods=periods, volatility=volatility,
                       period_length=tau, permanent_coeff=0.0, risk_aversion=lam)
    trajectory = optimal_trajectory(model)
    assert_matches_exact(model, trajectory.holdings, trajectory.expected_cost,
                         trajectory.cost_variance)
    assert all(a >= b for a, b in zip(trajectory.holdings, trajectory.holdings[1:]))
