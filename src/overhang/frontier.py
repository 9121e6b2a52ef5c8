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
        reals = (self.total_units, self.period_length, self.volatility,
                 self.permanent_coeff, self.temporary_coeff, self.risk_aversion)
        try:  # one pass: a bool is not a number here, as for periods
            finite = all(type(v) is not bool and math.isfinite(v) for v in reals)
        except TypeError:  # a str or None has no finiteness
            raise FrontierError(f"model parameters must be real numbers: {reals!r}") from None
        if not finite:
            if bool in map(type, reals):
                raise FrontierError(f"model parameters must be real numbers, not bools: {reals!r}")
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


# The __set__ of each field's slot, in field order, for frontier() to fill points.
_SET_POINT_FIELDS = tuple(getattr(FrontierPoint, field).__set__
                          for field in FrontierPoint.__dataclass_fields__)


def _reals(values: Sequence[float], name: str, items: str) -> np.ndarray:
    """values as a float array if numpy reads them as one flat, non-empty array
    of ints or floats; a str, bytes, object, complex or bool array raises FrontierError."""
    array = np.asarray(values)
    if array.ndim != 1:
        raise FrontierError(f"{name} must be a flat sequence of {items}")
    if array.size == 0:
        raise FrontierError(f"{name} must be non-empty")
    if array.dtype.kind not in "iuf":
        raise FrontierError(f"{items} must be real numbers, not {array.dtype}")
    return array.astype(float, copy=False)


def cost_of(holdings: Sequence[float], model: ExecutionModel) -> tuple[float, float]:
    """Expected cost and variance of an arbitrary admissible holdings path:
    periods + 1 finite holdings, read as frontier() reads its risk aversions,
    from total_units down to zero, each endpoint within 1e-8·total_units, whose
    cost and variance are finite floats too.

    E = (gamma/2) X^2 + (eta_tilde/tau) sum n_k^2,  V = sigma^2 tau sum x_k^2
    where n_k are period trades and x_k the post-trade holdings.
    """
    x = _reals(holdings, "holdings", "holdings values")
    if x.shape != (model.periods + 1,):
        raise FrontierError(f"expected {model.periods + 1} holdings values, got {x.shape}")
    if not np.isfinite(x).all():
        raise FrontierError("holdings must be finite")
    with np.errstate(over="ignore"):
        if max(abs(x[0] - model.total_units), abs(x[-1])) > 1e-8 * model.total_units:
            raise FrontierError("trajectory must start at total_units and end at zero")
        costs = tuple(map(float, _costs(model, *_squares(np.diff(x)), *_squares(x[1:]))))
    if not all(map(math.isfinite, costs)):
        raise FrontierError(f"the path's cost or variance is not a finite float: {costs}")
    return costs


def _squares(values: np.ndarray) -> tuple[float, int]:
    """Σv² as Σ(v/2^k)² and 2k, with 2^k at the largest |v|: no square leaves the float range."""
    k = np.frexp(np.max(np.abs(values)))[1]
    return np.sum(np.ldexp(values, -k) ** 2), 2 * k


def _costs(model: ExecutionModel, traded: np.ndarray | float, traded_exp: int,
           held: np.ndarray | float, held_exp: np.ndarray | int) -> tuple[np.ndarray, np.ndarray]:
    """E = γX²/2 + (η̃/τ)·Σn_k² and V = σ²τ·Σx_k² from Σn_k² = traded·2^traded_exp
    and Σx_k² = held·2^held_exp, one per path; past the float range, inf. Each
    term multiplies its factors' binary mantissas in the order written and is
    scaled once by their summed exponents: no partial product leaves the range."""
    (x_m, x_exp), (gamma_m, gamma_exp), (eta_m, eta_exp), (tau_m, tau_exp), (sigma_m, sigma_exp) = (
        map(math.frexp, (model.total_units, model.permanent_coeff, model.adjusted_temporary,
                         model.period_length, model.volatility)))
    expected = (np.ldexp(gamma_m * (x_m * x_m), gamma_exp + 2 * x_exp - 1)
                + np.ldexp(eta_m / tau_m * traded, traded_exp + (eta_exp - tau_exp)))
    variance = np.ldexp(sigma_m * sigma_m * tau_m * held, held_exp + (2 * sigma_exp + tau_exp))
    return expected, variance


def _priced(model: ExecutionModel, lambdas: np.ndarray) -> tuple[np.ndarray, ...]:
    """κτ, E and V of the optimal path at each risk aversion, in closed form
    (Almgren & Chriss, 2000), with no path built.

    The stiffness s = λ(στ)²/η̃ is the product of the mantissas of λ, σ, τ and
    η̃, scaled as _costs scales its terms, so λ = 0 gives s = 0 at any στ. It is
    carried as t·4^k: k is 0 below s = 2^1000 and keeps t below 2^1001 above
    it, so that t, and the e^−κτ taken from it, stay in range. κτ =
    2·arcsinh(√s/2), which is arccosh(1 + s/2) without rounding a small s
    away, is inf only past √s = 2^1024. With a = κτ, n = periods and M = 2n − 1:

        Σn_k²/X² = tanh(a/2)·[coth(na) + n·sinh(a)/sinh²(na)]
        Σx_k²/X² = [sinh(Ma) − M·sinh(a)] / [4·sinh(a)·sinh²(na)]

    each written in decaying exponentials, so that they stay finite for every
    κτ, and with no product of two small numbers, so that a tiny κτ keeps its
    digits. Σx_k² is (X·q)² times the rest, with q = e^−κτ = p/4^k and p, the
    decay, taken from t as 2/(2 + t + √t·√(t + 4)), the root of p + 1/p = 2 + t:
    exp(−κτ) would scale κτ's own rounding by κτ. Zero stiffness gives the
    linear path's X²/n and X²(n − 1)(2n − 1)/(6n), and one period one trade
    of X. Each sum goes to _costs as a product of mantissas and its exponent:
    Σn_k² as X·(X·Σ), Σx_k² as (X·p)·((X·p)·Σ).
    """
    (x_m, x_exp), (sigma_m, sigma_exp), (tau_m, tau_exp), (eta_m, eta_exp) = map(
        math.frexp, (model.total_units, model.volatility, model.period_length,
                     model.adjusted_temporary))
    lambda_m, lambda_exp = np.frexp(lambdas)
    sigma_tau = sigma_m * tau_m
    product = lambda_m * (sigma_tau * sigma_tau) / eta_m
    exp = lambda_exp + (2 * (sigma_exp + tau_exp) - eta_exp)
    k = np.where(product == 0, 0, np.maximum(exp - 999, 0) >> 1) if exp.max() > 999 else 0
    stiffness = np.ldexp(product, exp - 2 * k)
    root = np.sqrt(stiffness)
    a = 2 * np.arcsinh(np.ldexp(root, k - 1))
    decay = 2 / ((2 + stiffness) + root * np.sqrt(stiffness + 4))
    n = model.periods
    m = 2 * n - 1
    if n == 1:  # one trade of X, after which nothing is held
        traded, held = np.ones_like(a), np.zeros_like(a)
    else:
        e1 = np.expm1(-2 * a)
        en = np.expm1(-2 * n * a)
        traded = np.tanh(a / 2) / -en * ((2 + en) + 2 * n * np.exp(-m * a) * (e1 / en))
        held = (np.expm1(-2 * m * a) - m * np.exp(-(m - 1) * a) * e1) / (e1 * en * en)
        if m * a.min() < SERIES_BELOW:
            small = m * a < SERIES_BELOW
            held[small] = _held_series(a[small], n) / (decay[small] * decay[small])
        if stiffness.min() == 0:
            linear = stiffness == 0
            traded[linear] = 1 / n
            held[linear] = (n - 1) * (2 * n - 1) / (6 * n)
    (q, q_exp), (held, held_exp) = np.frexp(decay), np.frexp(held)
    scaled = x_m * q  # in [1/4, 1)
    return a, *_costs(model, x_m * (x_m * traded), 2 * x_exp,
                      scaled * (scaled * held), 2 * (x_exp - 2 * k + q_exp) + held_exp)


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


def optimal_trajectory(model: ExecutionModel) -> Trajectory:
    """Closed-form minimizer of expected cost + risk_aversion * variance,
    priced by _priced as frontier() prices its point at the model's risk
    aversion. At positive κτ its holdings are x·sinh(κτ(n−j))/sinh(κτn)
    written with decaying exponentials, x·exp(−κτj)·(expm1(−2κτ(n−j))/expm1(−2κτn)),
    finite for every κτ, the ratio first so that no product of x and a tiny
    expm1 goes subnormal; where −κτj falls below about −745.13, np.exp is
    +0.0. κτ = 0, zero stiffness, gives the linear path."""
    n = model.periods
    x_total = model.total_units
    j = np.arange(n + 1)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # Python floats: unpacking a one-element array costs about 0.5 µs a value
        kappa_tau, expected, variance = (
            v.item() for v in _priced(model, np.array([model.risk_aversion])))
        if kappa_tau == 0:
            holdings = x_total * (1 - j / n)
        else:  # immediate liquidation's NaN endpoints are overwritten
            minus_2kt = -2 * kappa_tau
            holdings = (x_total * np.exp(-kappa_tau * j)
                        * (np.expm1(minus_2kt * (n - j)) / np.expm1(minus_2kt * n)))
    holdings[0] = x_total
    holdings[-1] = 0.0
    return Trajectory(tuple(holdings.tolist()), expected, variance)


def frontier(model: ExecutionModel, lambdas: Sequence[float]) -> list[FrontierPoint]:
    """Evaluate the efficient frontier at the given risk-aversion values: each
    point's E and V from _priced's closed forms, in O(len(lambdas)) work and
    memory at any number of periods, and inf, never NaN, only where it is past
    the float range. lambdas is one flat, non-empty sequence or array of
    finite, nonnegative ints or floats, as numpy reads it; each point holds
    its λ as a Python float."""
    values = _reals(lambdas, "lambdas", "risk aversions")
    if not 0 <= values.min() <= values.max() < math.inf:  # a NaN fails every comparison
        raise FrontierError("risk aversion must be finite and nonnegative")
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        _, expected, variance = _priced(model, values)
    # Each slot's member descriptor fills a frozen point without its
    # __setattr__, which raises, or its __init__, a frame per point; any()
    # drains each map. A point's risk aversion is the float it was priced at.
    points = list(map(object.__new__, repeat(FrontierPoint, len(values))))
    for set_field, column in zip(_SET_POINT_FIELDS,
                                 (values.tolist(), expected.tolist(), variance.tolist())):
        any(map(set_field, points, column))
    return points
