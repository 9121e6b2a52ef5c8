"""Discrete-time optimal liquidation: mean-variance efficient trajectories.

Linear permanent/temporary impact with arithmetic price noise. Minimizing
expected cost plus risk_aversion times variance over admissible holdings
paths gives the hyperbolic-sine profile in closed form (Almgren & Chriss,
2000), evaluated here in one form that stays finite for every κτ; zero
stiffness degenerates to the linear (uniform-pace) trajectory. The frontier
evaluates all its risk aversions in one array pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

MAX_PERIODS = 100 * 365  # a century of daily periods


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
        if not all(map(math.isfinite, (
            self.total_units, self.period_length, self.volatility,
            self.permanent_coeff, self.temporary_coeff, self.risk_aversion,
        ))):
            raise FrontierError("model parameters must be finite")
        if self.total_units <= 0:
            raise FrontierError("total_units must be positive")
        if self.periods < 1:
            raise FrontierError("periods must be at least 1")
        if self.periods > MAX_PERIODS:
            raise FrontierError(f"periods must be at most {MAX_PERIODS}")
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
        raise FrontierError(f"expected {model.periods + 1} holdings values, got {x.shape}")
    if not np.isclose(x[0], model.total_units) or not np.isclose(x[-1], 0.0):
        raise FrontierError("trajectory must start at total_units and end at zero")
    expected, variance = _row_costs(x[np.newaxis], model)
    return float(expected[0]), float(variance[0])


def _row_costs(holdings: np.ndarray, model: ExecutionModel) -> tuple[np.ndarray, np.ndarray]:
    """cost_of for each row of a (rows, periods + 1) holdings array; a cost
    past the float range is inf or NaN, without a warning."""
    tau = model.period_length
    with np.errstate(over="ignore", invalid="ignore"):
        trades = -np.diff(holdings, axis=1)
        expected = (
            0.5 * model.permanent_coeff * model.total_units**2
            + model.adjusted_temporary / tau * np.sum(trades**2, axis=1)
        )
        variance = model.volatility**2 * tau * np.sum(holdings[:, 1:] ** 2, axis=1)
    return expected, variance


def _optimal_holdings(model: ExecutionModel, lambdas: np.ndarray) -> np.ndarray:
    """Closed-form optimal holdings, one row per risk aversion in `lambdas`.

    Each row is x·sinh(κτ(n−j))/sinh(κτn) written with decaying exponentials,
    x·exp(−κτj)·expm1(−2κτ(n−j))/expm1(−2κτn), finite for every κτ; κτ is
    2·arcsinh(√stiffness/2), which is arccosh(1 + stiffness/2) without
    rounding a small stiffness away. Zero-stiffness rows are linear. Every
    operation is elementwise, so each row is bit-identical to evaluating its
    risk aversion alone.
    """
    if not np.all(np.isfinite(lambdas) & (lambdas >= 0)):
        raise FrontierError("risk aversion must be finite and nonnegative")
    n = model.periods
    x_total = model.total_units
    tau = model.period_length
    j = np.arange(n + 1)
    # An overflowed stiffness gives κτ = inf, the immediate-liquidation row;
    # its NaN endpoints and the zero-stiffness rows' 0/0 are overwritten.
    with np.errstate(over="ignore", invalid="ignore"):
        stiffness = lambdas * model.volatility**2 * tau**2 / model.adjusted_temporary
        kappa_tau = 2 * np.arcsinh(np.sqrt(stiffness) / 2)[:, np.newaxis]
        holdings = (x_total * np.exp(-kappa_tau * j) * np.expm1(-2 * kappa_tau * (n - j))
                    / np.expm1(-2 * kappa_tau * n))
    holdings[stiffness == 0] = x_total * (1 - j / n)
    holdings[:, 0] = x_total
    holdings[:, -1] = 0.0
    return holdings


def optimal_trajectory(model: ExecutionModel) -> Trajectory:
    """Closed-form minimizer of expected cost + risk_aversion * variance."""
    holdings = _optimal_holdings(model, np.array([model.risk_aversion], dtype=float))
    expected, variance = _row_costs(holdings, model)
    return Trajectory(
        holdings=tuple(holdings[0]),
        expected_cost=float(expected[0]),
        cost_variance=float(variance[0]),
    )


def frontier(model: ExecutionModel, lambdas: Sequence[float]) -> list[FrontierPoint]:
    """Evaluate the efficient frontier at the given risk-aversion values."""
    if len(lambdas) == 0:
        raise FrontierError("lambdas must be non-empty")
    holdings = _optimal_holdings(model, np.asarray(lambdas, dtype=float))
    expected, variance = _row_costs(holdings, model)
    return [
        FrontierPoint(risk_aversion=lam, expected_cost=e, cost_variance=v)
        for lam, e, v in zip(lambdas, expected.tolist(), variance.tolist())
    ]
