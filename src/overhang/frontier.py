"""Discrete-time optimal liquidation: mean-variance efficient trajectories.

Linear permanent/temporary impact with arithmetic price noise. Minimizing
expected cost plus risk_aversion times variance over admissible holdings
paths gives the hyperbolic-sine profile in closed form; risk_aversion = 0
degenerates to the linear (uniform-pace) trajectory.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np


class FrontierError(ValueError):
    """Raised for ill-posed execution models or inadmissible trajectories."""


@dataclass(frozen=True)
class ExecutionModel:
    total_units: float
    periods: int
    period_length: float = 1.0
    volatility: float = 0.0
    permanent_coeff: float = 0.0
    temporary_coeff: float = 1.0
    risk_aversion: float = 0.0

    def __post_init__(self) -> None:
        if self.total_units <= 0:
            raise FrontierError("total_units must be positive")
        if self.periods < 1:
            raise FrontierError("periods must be at least 1")
        if self.period_length <= 0:
            raise FrontierError("period_length must be positive")
        if self.volatility < 0 or self.permanent_coeff < 0 or self.risk_aversion < 0:
            raise FrontierError("volatility, impact, and risk aversion must be nonnegative")
        if self.adjusted_temporary <= 0:
            raise FrontierError(
                "ill-posed model: temporary_coeff must exceed permanent_coeff * tau / 2"
            )

    @property
    def adjusted_temporary(self) -> float:
        return self.temporary_coeff - self.permanent_coeff * self.period_length / 2


@dataclass(frozen=True)
class Trajectory:
    holdings: tuple[float, ...]
    expected_cost: float
    cost_variance: float


@dataclass(frozen=True)
class FrontierPoint:
    risk_aversion: float
    expected_cost: float
    cost_variance: float


def cost_of(holdings: Sequence[float], model: ExecutionModel) -> tuple[float, float]:
    """Expected cost and variance of an arbitrary admissible holdings path.

    E = (gamma/2) X^2 + (eta_tilde/tau) sum n_k^2,  V = sigma^2 tau sum x_k^2
    where n_k are period trades and x_k the post-trade holdings.
    """
    x = np.asarray(holdings, dtype=float)
    if x.shape != (model.periods + 1,):
        raise FrontierError(
            f"expected {model.periods + 1} holdings values, got {x.shape}"
        )
    if not np.isclose(x[0], model.total_units) or not np.isclose(x[-1], 0.0):
        raise FrontierError("trajectory must start at total_units and end at zero")
    tau = model.period_length
    trades = -np.diff(x)
    expected = (
        0.5 * model.permanent_coeff * model.total_units**2
        + model.adjusted_temporary / tau * float(np.sum(trades**2))
    )
    variance = model.volatility**2 * tau * float(np.sum(x[1:] ** 2))
    return expected, variance


def optimal_trajectory(model: ExecutionModel) -> Trajectory:
    """Closed-form minimizer of expected cost + risk_aversion * variance."""
    n = model.periods
    x_total = model.total_units
    tau = model.period_length
    j = np.arange(n + 1)
    stiffness = (
        model.risk_aversion * model.volatility**2 * tau**2 / model.adjusted_temporary
    )
    if stiffness <= 0:
        holdings = x_total * (1 - j / n)
    else:
        kappa_tau = np.arccosh(1 + stiffness / 2)
        holdings = x_total * np.sinh(kappa_tau * (n - j)) / np.sinh(kappa_tau * n)
    holdings[0] = x_total
    holdings[-1] = 0.0
    expected, variance = cost_of(holdings, model)
    return Trajectory(
        holdings=tuple(holdings), expected_cost=expected, cost_variance=variance
    )


def frontier(model: ExecutionModel, lambdas: Sequence[float]) -> list[FrontierPoint]:
    """Evaluate the efficient frontier at the given risk-aversion values."""
    if len(lambdas) == 0:
        raise FrontierError("lambdas must be non-empty")
    points = []
    for lam in lambdas:
        trajectory = optimal_trajectory(replace(model, risk_aversion=lam))
        points.append(
            FrontierPoint(
                risk_aversion=lam,
                expected_cost=trajectory.expected_cost,
                cost_variance=trajectory.cost_variance,
            )
        )
    return points
