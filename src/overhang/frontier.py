"""Discrete-time optimal liquidation: mean-variance efficient trajectories.

Linear permanent/temporary impact with arithmetic price noise. Minimizing
expected cost plus risk_aversion times variance over admissible holdings
paths gives the hyperbolic-sine profile in closed form (Almgren & Chriss,
2000), built here as one path at the model's risk aversion, in one form that
stays finite for every κτ; zero stiffness degenerates to the linear
(uniform-pace) trajectory. Its cost and variance, like each frontier point's,
come from their closed forms, without the path, so the frontier's work and
memory grow with the number of risk aversions alone, at any number of
periods; cost_of sums any path's from its trades and holdings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import count, repeat
from typing import NamedTuple, Sequence

import numpy as np

from overhang import checked

MAX_PERIODS = 100 * 365  # a century of daily periods
# Below this (2·periods − 1)·κτ the frontier sums the held units' series: the
# closed form's difference sinh(Mκτ) − M·sinh(κτ) would cancel its digits.
SERIES_BELOW = 2.0
# Terms of that series, the same for every κτ. With M = 2·periods − 1 ≥ 3,
# term k is at most 6.75·(Mκτ)^(2k−2)/(2k + 1)! of the first, because
# (M^2k − 1)/(M² − 1) ≤ (9/8)·M^(2k−2); past this many terms, that bound at
# Mκτ = SERIES_BELOW is below 2^-60.
SERIES_TERMS = next(k for k in count(1)
                    if 6.75 * SERIES_BELOW ** (2 * k) / math.factorial(2 * k + 3) < 2.0**-60)


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
        if type(self.periods) is not int:  # a bool, a float or a numpy integer is not
            raise FrontierError(f"non-integer periods {self.periods!r}")
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
    k = np.frexp(np.max(np.abs(x[1:])))[1]  # Σx_k² = 4^k·Σ(x_k/2^k)², no square past 1
    mantissa, exp = np.frexp(np.sum(np.ldexp(x[1:], -k) ** 2))
    with np.errstate(over="ignore"):
        costs = tuple(map(float, _costs(model, np.sum(np.diff(x) ** 2), mantissa, exp + 2 * k)))
    if not all(map(math.isfinite, costs)):
        raise FrontierError(f"the path's cost or variance is not a finite float: {costs}")
    return costs


def _costs(model: ExecutionModel, traded: np.ndarray | float, held: np.ndarray | float,
           held_exp: np.ndarray | int) -> tuple[np.ndarray | float, np.ndarray | float]:
    """E and V from Σn_k² and Σx_k² = held·2^held_exp, held in [1/32, 1) or 0,
    one per path; a cost past the float range is inf or NaN, without a warning.
    V = σ²τ·Σx_k² is the product of the mantissas of σ, σ, τ and held, scaled
    once by their summed exponents, so no partial product leaves the range."""
    sigma_m, sigma_exp = math.frexp(model.volatility)
    tau_m, tau_exp = math.frexp(model.period_length)
    with np.errstate(over="ignore", invalid="ignore"):
        expected = (
            0.5 * model.permanent_coeff * model.total_units**2
            + model.adjusted_temporary / model.period_length * traded
        )
        variance = np.ldexp(sigma_m * sigma_m * tau_m * held, held_exp + (2 * sigma_exp + tau_exp))
    return expected, variance


def _kappa_tau(model: ExecutionModel,
               lambdas: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each risk aversion's stiffness λ(στ)²/η̃, its square root and κτ =
    2·arcsinh(√stiffness/2), which is arccosh(1 + stiffness/2) without
    rounding a small stiffness away.

    σ·τ is squared as one product, so a huge σ and a tiny τ do not meet as
    inf·0; past the float range the square is inf and λ·στ goes first. An
    overflowed stiffness gives κτ = inf, the immediate-liquidation limit.
    Callers ignore numpy's overflow and invalid warnings around it."""
    sigma_tau = np.float64(model.volatility * model.period_length)
    square = sigma_tau**2
    scaled = lambdas * square if math.isfinite(square) else lambdas * sigma_tau * sigma_tau
    stiffness = scaled / model.adjusted_temporary
    root = np.sqrt(stiffness)
    return stiffness, root, 2 * np.arcsinh(root / 2)


def _optimal_holdings(model: ExecutionModel) -> np.ndarray:
    """Closed-form optimal holdings at the model's risk aversion:
    x·sinh(κτ(n−j))/sinh(κτn) written with decaying exponentials,
    x·exp(−κτj)·expm1(−2κτ(n−j))/expm1(−2κτn), finite for every κτ; where
    −κτj falls below about −745.13, np.exp is +0.0. Zero stiffness gives the
    linear path.
    """
    n = model.periods
    x_total = model.total_units
    j = np.arange(n + 1)
    # Immediate liquidation's NaN endpoints are overwritten.
    with np.errstate(over="ignore", invalid="ignore"):
        stiffness, _, kappa_tau = _kappa_tau(model, model.risk_aversion)
        if stiffness == 0:
            holdings = x_total * (1 - j / n)
        else:
            minus_2kt = -2 * kappa_tau
            holdings = (x_total * np.exp(-kappa_tau * j) * np.expm1(minus_2kt * (n - j))
                        / np.expm1(minus_2kt * n))
    holdings[0] = x_total
    holdings[-1] = 0.0
    return holdings


def optimal_trajectory(model: ExecutionModel) -> Trajectory:
    """Closed-form minimizer of expected cost + risk_aversion * variance,
    priced as frontier() prices its point at the model's risk aversion."""
    costs = _costs(model, *_optimal_sums(model, np.array([model.risk_aversion])))
    return Trajectory(tuple(_optimal_holdings(model).tolist()), *(c.item() for c in costs))


def _held_series(kappa_tau: np.ndarray, n: int) -> np.ndarray:
    """Σx_k²/X² where (2n − 1)·κτ < SERIES_BELOW, from the series
    sinh(Mκτ) − M·sinh(κτ) = Σ_{k≥1} M(M^2k − 1)·κτ^(2k+1)/(2k+1)!, M = 2n − 1,
    whose terms are all positive, over 4·sinh(κτ)·sinh²(nκτ) with κτ³ divided
    out of both, so that a tiny κτ does not underflow. Every κτ sums the same
    SERIES_TERMS terms, so a point does not depend on the others in its call."""
    m = 2 * n - 1
    square = kappa_tau * kappa_tau
    series = np.zeros_like(kappa_tau)
    for k in range(SERIES_TERMS, 0, -1):
        series = series * square + m * (m ** (2 * k) - 1) / math.factorial(2 * k + 1)
    return series / (4 * (np.sinh(kappa_tau) / kappa_tau) * (np.sinh(n * kappa_tau) / kappa_tau) ** 2)


def _optimal_sums(model: ExecutionModel, lambdas: np.ndarray) -> tuple[np.ndarray, ...]:
    """Σn_k² and Σx_k² of the optimal path at each risk aversion, in closed
    form (Almgren & Chriss, 2000). With a = κτ, n = periods and M = 2n − 1:

        Σn_k²/X² = tanh(a/2)·[coth(na) + n·sinh(a)/sinh²(na)]
        Σx_k²/X² = [sinh(Ma) − M·sinh(a)] / [4·sinh(a)·sinh²(na)]

    each written in decaying exponentials, so that they stay finite for every
    κτ, and with no product of two small numbers, so that a tiny κτ keeps its
    digits. Σx_k² is (X·q)² times the rest, with q = e^−κτ taken from the
    stiffness s as 2/(2 + s + √s·√(s + 4)), the root of q + 1/q = 2 + s:
    exp(−κτ) would scale κτ's own rounding by κτ. Zero stiffness gives the
    linear path's X²/n and X²(n − 1)(2n − 1)/(6n), and one period one trade
    of X. Σn_k² is X·(X·Σ); Σx_k² goes to _costs as (X·q)·((X·q)·Σ) over the
    mantissas of X, q and Σ, and their summed binary exponents.
    """
    x_total = model.total_units
    n = model.periods
    m = 2 * n - 1
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        stiffness, root, a = _kappa_tau(model, lambdas)
        if n == 1:  # one trade of X, after which nothing is held
            return np.full_like(a, x_total * x_total), np.zeros_like(a), 0
        decay = 2 / ((2 + stiffness) + root * np.sqrt(stiffness + 4))
        e1 = np.expm1(-2 * a)
        en = np.expm1(-2 * n * a)
        traded = np.tanh(a / 2) / -en * ((2 + en) + 2 * n * np.exp(-m * a) * (e1 / en))
        held = (np.expm1(-2 * m * a) - m * np.exp(-(m - 1) * a) * e1) / (e1 * en * en)
        small = m * a < SERIES_BELOW
        if small.any():
            held[small] = _held_series(a[small], n) / (decay[small] * decay[small])
        linear = stiffness == 0
        if linear.any():
            traded[linear] = 1 / n
            held[linear] = (n - 1) * (2 * n - 1) / (6 * n)
        x_m, x_exp = math.frexp(x_total)
        (q, q_exp), (held, held_exp) = np.frexp(decay), np.frexp(held)
        scaled = x_m * q  # in [1/4, 1)
        return x_total * (x_total * traded), scaled * (scaled * held), 2 * (x_exp + q_exp) + held_exp


def frontier(model: ExecutionModel, lambdas: Sequence[float]) -> list[FrontierPoint]:
    """Evaluate the efficient frontier at the given risk-aversion values: each
    point's E and V from the closed-form sums of _optimal_sums, in
    O(len(lambdas)) work and memory at any number of periods."""
    if len(lambdas) == 0:
        raise FrontierError("lambdas must be non-empty")
    values = np.asarray(lambdas, dtype=float)
    if values.ndim != 1:
        raise FrontierError("lambdas must be a flat sequence of risk aversions")
    if not (np.isfinite(values) & (values >= 0)).all():
        raise FrontierError("risk aversion must be finite and nonnegative")
    expected, variance = _costs(model, *_optimal_sums(model, values))
    # FrontierPoint's frozen __init__ without a frame per point (any() drains each map)
    points = list(map(object.__new__, repeat(FrontierPoint, len(values))))
    for field, column in zip(FrontierPoint.__dataclass_fields__,
                             (lambdas, expected.tolist(), variance.tolist())):
        any(map(object.__setattr__, points, repeat(field), column))
    return points
