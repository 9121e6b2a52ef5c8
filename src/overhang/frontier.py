"""Discrete-time optimal liquidation: mean-variance efficient trajectories.

Linear permanent/temporary impact with arithmetic price noise. Minimizing
expected cost plus risk_aversion times variance over admissible holdings
paths gives the hyperbolic-sine profile in closed form (Almgren & Chriss,
2000), evaluated here in one form that stays finite for every κτ; zero
stiffness degenerates to the linear (uniform-pace) trajectory. The frontier
evaluates its risk aversions in array passes of at most FRONTIER_BLOCK_CELLS
holdings values, written into two buffers of at most 8 MB that every pass
reuses, so its memory is bounded at any number of them.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import repeat
from typing import NamedTuple, Sequence

import numpy as np

from overhang import checked

MAX_PERIODS = 100 * 365  # a century of daily periods
# Holdings values (risk aversions x (periods + 1)) that one frontier pass
# evaluates, in two buffers of at most 8 MB: a 200 x 201 frontier is one pass,
# and a century of daily periods takes 28 risk aversions a pass.
FRONTIER_BLOCK_CELLS = 2**20
# np.exp is +0.0 for every argument below about -745.13 and takes a slow path
# to say so; an argument below this is set to 0 and its result to +0.0 instead.
EXP_ZERO_BELOW = -746.0


class FrontierError(ValueError):
    """Raised for ill-posed execution models or inadmissible trajectories."""


@checked
class ExecutionModel(NamedTuple):
    total_units: float
    periods: int
    period_length: float = 1.0
    volatility: float = 0.0
    permanent_coeff: float = 0.0
    temporary_coeff: float = 1.0
    risk_aversion: float = 0.0

    def _check(self) -> None:
        try:
            operator.index(self.periods)  # a numpy integer passes, a float does not
        except TypeError:
            raise FrontierError(f"non-integer periods {self.periods!r}") from None
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


class Trajectory(NamedTuple):
    holdings: tuple[float, ...]
    expected_cost: float
    cost_variance: float


@dataclass(frozen=True, slots=True)
class FrontierPoint:
    risk_aversion: float
    expected_cost: float
    cost_variance: float


def cost_of(holdings: Sequence[float], model: ExecutionModel) -> tuple[float, float]:
    """Expected cost and variance of an arbitrary admissible holdings path:
    finite holdings from total_units down to zero, whose cost and variance
    are finite floats too.

    E = (gamma/2) X^2 + (eta_tilde/tau) sum n_k^2,  V = sigma^2 tau sum x_k^2
    where n_k are period trades and x_k the post-trade holdings.
    """
    x = np.asarray(holdings, dtype=float)
    if x.shape != (model.periods + 1,):
        raise FrontierError(f"expected {model.periods + 1} holdings values, got {x.shape}")
    if not np.isfinite(x).all():
        raise FrontierError("holdings must be finite")
    if not np.isclose(x[0], model.total_units) or not np.isclose(x[-1], 0.0):
        raise FrontierError("trajectory must start at total_units and end at zero")
    expected, variance = _row_costs(x[np.newaxis], model, np.empty(model.periods))
    costs = float(expected[0]), float(variance[0])
    if not all(map(math.isfinite, costs)):
        raise FrontierError(f"the path's cost or variance is not a finite float: {costs}")
    return costs


def _row_costs(holdings: np.ndarray, model: ExecutionModel,
               work: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """cost_of for each row of a (rows, periods + 1) holdings array; a cost
    past the float range is inf or NaN, without a warning. The trades are
    -np.diff and the sums np.add.reduce, the reduction np.sum wraps, without
    either wrapper's per-call work; each squared term is written into the
    flat buffer `work`, of at least rows * periods values."""
    tau = model.period_length
    sigma = model.volatility
    try:
        sigma_squared_tau = sigma**2 * tau
    except OverflowError:  # σ² alone leaves the float range; σ²τ may not
        sigma_squared_tau = sigma * (sigma * tau)
    squares = work[:len(holdings) * model.periods].reshape(len(holdings), model.periods)
    with np.errstate(over="ignore", invalid="ignore"):
        np.square(np.subtract(holdings[:, :-1], holdings[:, 1:], out=squares), out=squares)
        expected = (
            0.5 * model.permanent_coeff * model.total_units**2
            + model.adjusted_temporary / tau * np.add.reduce(squares, axis=1)
        )
        held = np.add.reduce(np.square(holdings[:, 1:], out=squares), axis=1)
        variance = sigma_squared_tau * held
    if math.isinf(sigma_squared_tau):  # inf·0 is NaN; a path that holds nothing has no variance
        np.putmask(variance, held == 0, 0.0)
    return expected, variance


def _optimal_holdings(model: ExecutionModel, lambdas: np.ndarray,
                      out: np.ndarray, work: np.ndarray) -> np.ndarray:
    """Closed-form optimal holdings, one row per risk aversion in `lambdas`.

    Each row is x·sinh(κτ(n−j))/sinh(κτn) written with decaying exponentials,
    x·exp(−κτj)·expm1(−2κτ(n−j))/expm1(−2κτn), finite for every κτ; κτ is
    2·arcsinh(√stiffness/2), which is arccosh(1 + stiffness/2) without
    rounding a small stiffness away. Zero-stiffness rows are linear. Every
    operation is elementwise, so each row is bit-identical to evaluating its
    risk aversion alone. The rows are written into the flat buffer `out`, with
    `work` as scratch, each of at least len(lambdas) * (periods + 1) values.
    """
    n = model.periods
    x_total = model.total_units
    tau = model.period_length
    j = np.arange(n + 1)
    holdings = out[:len(lambdas) * (n + 1)].reshape(len(lambdas), n + 1)
    scratch = work[:holdings.size].reshape(holdings.shape)
    # σ·τ is squared as one product, so a huge σ and a tiny τ do not meet as
    # inf·0; past the float range the square is inf and λ·στ goes first. An
    # overflowed stiffness gives κτ = inf, the immediate-liquidation row; its
    # NaN endpoints and the zero-stiffness rows' 0/0 are overwritten.
    with np.errstate(over="ignore", invalid="ignore"):
        sigma_tau = np.float64(model.volatility * tau)
        square = sigma_tau**2
        scaled = lambdas * square if math.isfinite(square) else lambdas * sigma_tau * sigma_tau
        stiffness = scaled / model.adjusted_temporary
        kappa_tau = 2 * np.arcsinh(np.sqrt(stiffness) / 2)[:, np.newaxis]
        # x·exp(−κτj)·expm1(−2κτ(n−j))/expm1(−2κτn), one step at a time; the
        # last column, −κτn, holds each row's smallest exp argument
        np.multiply(-kappa_tau, j, out=holdings)
        if np.minimum.reduce(holdings[:, -1]) < EXP_ZERO_BELOW:
            zero = holdings < EXP_ZERO_BELOW
            np.putmask(holdings, zero, 0.0)
            np.exp(holdings, out=holdings)
            np.putmask(holdings, zero, 0.0)
        else:
            np.exp(holdings, out=holdings)
        np.multiply(x_total, holdings, out=holdings)
        minus_2kt = -2 * kappa_tau
        np.expm1(np.multiply(minus_2kt, n - j, out=scratch), out=scratch)
        np.multiply(holdings, scratch, out=holdings)
        np.divide(holdings, np.expm1(minus_2kt * n), out=holdings)
    linear = stiffness == 0
    if linear.any():
        holdings[linear] = x_total * (1 - j / n)
    holdings[:, 0] = x_total
    holdings[:, -1] = 0.0
    return holdings


def optimal_trajectory(model: ExecutionModel) -> Trajectory:
    """Closed-form minimizer of expected cost + risk_aversion * variance."""
    out, work = np.empty(model.periods + 1), np.empty(model.periods + 1)
    holdings = _optimal_holdings(model, np.array([model.risk_aversion], dtype=float), out, work)
    expected, variance = _row_costs(holdings, model, work)
    return Trajectory(
        holdings=tuple(holdings[0].tolist()),
        expected_cost=float(expected[0]),
        cost_variance=float(variance[0]),
    )


def frontier(model: ExecutionModel, lambdas: Sequence[float]) -> list[FrontierPoint]:
    """Evaluate the efficient frontier at the given risk-aversion values."""
    if len(lambdas) == 0:
        raise FrontierError("lambdas must be non-empty")
    values = np.asarray(lambdas, dtype=float)
    if values.ndim != 1:
        raise FrontierError("lambdas must be a flat sequence of risk aversions")
    if not np.all(np.isfinite(values) & (values >= 0)):
        raise FrontierError("risk aversion must be finite and nonnegative")
    block = max(1, FRONTIER_BLOCK_CELLS // (model.periods + 1))
    out, work = np.empty((2, min(block, len(values)) * (model.periods + 1)))
    expected: list[float] = []
    variance: list[float] = []
    for first in range(0, len(values), block):
        holdings = _optimal_holdings(model, values[first:first + block], out, work)
        block_expected, block_variance = _row_costs(holdings, model, work)
        expected += block_expected.tolist()
        variance += block_variance.tolist()
    # FrontierPoint's frozen __init__ without a frame per point (any() drains each map)
    points = list(map(object.__new__, repeat(FrontierPoint, len(values))))
    for field, column in zip(FrontierPoint.__dataclass_fields__, (lambdas, expected, variance)):
        any(map(object.__setattr__, points, repeat(field), column))
    return points
