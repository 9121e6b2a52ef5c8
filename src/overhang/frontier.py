"""Discrete-time optimal liquidation: mean-variance efficient trajectories.

Linear permanent/temporary impact with arithmetic price noise. Minimizing
expected cost plus risk_aversion times variance over admissible holdings
paths gives the hyperbolic-sine profile in closed form; risk_aversion = 0
degenerates to the linear (uniform-pace) trajectory. The frontier evaluates
all its risk aversions in one array pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
        if not all(map(math.isfinite, (
            self.total_units, self.period_length, self.volatility,
            self.permanent_coeff, self.temporary_coeff, self.risk_aversion,
        ))):
            raise FrontierError("model parameters must be finite")
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
    expected, variance = _row_costs(x[np.newaxis], model)
    return float(expected[0]), float(variance[0])


def _row_costs(holdings: np.ndarray, model: ExecutionModel) -> tuple[np.ndarray, np.ndarray]:
    """cost_of for each row of a (rows, periods + 1) holdings array."""
    tau = model.period_length
    trades = -np.diff(holdings, axis=1)
    expected = (
        0.5 * model.permanent_coeff * model.total_units**2
        + model.adjusted_temporary / tau * np.sum(trades**2, axis=1)
    )
    variance = model.volatility**2 * tau * np.sum(holdings[:, 1:] ** 2, axis=1)
    return expected, variance


def _optimal_holdings(model: ExecutionModel, lambdas: np.ndarray) -> np.ndarray:
    """Closed-form optimal holdings, one row per risk aversion in `lambdas`.

    Rows whose κτ is zero (zero stiffness, or one too small to move
    1 + stiffness/2) are linear, the rest follow the sinh profile; both keep
    the operation order of the scalar closed form, so each row is
    bit-identical to evaluating its risk aversion alone. Where sinh overflows
    (κτn past about 710, or x·sinh(κτ(n−j)) past the float range) the row is
    the same ratio written with decaying exponentials,
    x·exp(−κτj)·expm1(−2κτ(n−j))/expm1(−2κτn), which stays finite.
    """
    if not np.all(np.isfinite(lambdas) & (lambdas >= 0)):
        raise FrontierError("risk aversion must be finite and nonnegative")
    n = model.periods
    x_total = model.total_units
    tau = model.period_length
    j = np.arange(n + 1)
    stiffness = lambdas * model.volatility**2 * tau**2 / model.adjusted_temporary
    kappa_tau = np.arccosh(1 + stiffness / 2)
    holdings = np.empty((len(lambdas), n + 1))
    linear = kappa_tau == 0
    holdings[linear] = x_total * (1 - j / n)
    kappa_tau = kappa_tau[~linear][:, np.newaxis]
    # sinh may overflow here; `overflowed` marks those rows to rewrite, so
    # numpy's warning would only be noise on stderr.
    with np.errstate(over="ignore", invalid="ignore"):
        scale = np.sinh(kappa_tau * n)
        curved = x_total * np.sinh(kappa_tau * (n - j)) / scale
        overflowed = np.isinf(scale[:, 0]) | np.isinf(curved[:, 1:]).any(axis=1)
        kt = kappa_tau[overflowed]
        curved[overflowed] = (x_total * np.exp(-kt * j) * np.expm1(-2 * kt * (n - j))
                              / np.expm1(-2 * kt * n))
    holdings[~linear] = curved
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
