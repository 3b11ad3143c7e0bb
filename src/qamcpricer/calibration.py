"""Per-maturity NIG calibration to option mids.

Minimizes the Tikhonov-regularized weighted least squares

    J(theta) = sum_m w_m (V_m(theta) - mid_m)^2 + lambda ||theta - theta0||^2

over theta = (alpha, beta, delta) with mu fixed to 0 (prices do not depend on
the location parameter).  J is the squared norm of the stacked residual

    r = [sqrt(w) (V(theta) - mid); sqrt(lambda) (theta - theta0)],

which a box-constrained Levenberg-Marquardt fit (Moré, "The
Levenberg-Marquardt algorithm: implementation and theory", LNM 630, 1978)
minimizes with the exact residual Jacobian: dV/dtheta comes out of the same
quadrature pass as the prices.  Admissibility (beta^2 < alpha^2 and
(beta+1)^2 < alpha^2 with alpha > 0) reduces to alpha - beta >= 1 and
alpha + beta >= 0, so the fit runs in z = (u, v, delta) with
u = alpha - beta - 1 and v = alpha + beta, where both become lower bounds
(with a small margin).  The fit keeps every trial point strictly inside its
box, so every priced point is admissible.  The start (the point of a small
lattice with the least ||r||^2), the fit and the report read this one residual.
The lattice is scored off one stacked pricing batch, each point's prices and
score bit for bit those of its own batch.  A point whose S(T) overflows on its
pricing interval is not priced: a lattice point there is left unscored, and a
trial step there is a rejected step.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .black_scholes import BSInputs, implied_vol
from .errors import CalibrationError, ValidationError
from .market_data import MarketSlice, OptionQuote
from .nig import ExpNIGModel, NIGParams, price_european_batch

__all__ = [
    "CalibrationConfig",
    "CalibrationResult",
    "DEFAULT_GRID",
    "grid_init",
    "bs_prior",
    "calibrate",
]

ADMISSIBILITY_MARGIN = 1e-6

# Spread floor (currency) keeping inverse-spread weights finite on zero-spread
# synthetic quotes.
SPREAD_FLOOR = 1e-4

DEFAULT_GRID = {
    "alpha": (2.0, 4.0, 6.0, 8.0),
    "beta": (-4.0, -2.0, 0.0),
    "delta": (0.1, 0.2, 0.4),
}

# Box on z = (u, v, delta), u = alpha - beta - 1 and v = alpha + beta: the
# lower bounds are admissibility, and the box maps into alpha in [0.5, 30],
# beta in [-15, 14.5].  One tolerance serves the fit's stopping tests, and
# MAX_ITERATIONS caps its evaluations.
BOUNDS = ((ADMISSIBILITY_MARGIN, ADMISSIBILITY_MARGIN, 1e-3), (29.0, 30.0, 5.0))
TOLERANCE = 1e-12
MAX_ITERATIONS = 500

# Levenberg-Marquardt damping: its start, its factor on an accepted step and
# on a rejected one, and the share of the distance to the box a step may cover.
_DAMPING_START, _DAMPING_DOWN, _DAMPING_UP = 1e-3, 0.1, 10.0
_TO_BOUNDARY = 0.995

# d theta / d z, constant: theta = ((u + v + 1) / 2, (v - u - 1) / 2, delta).
_THETA_OF_Z = np.array([[0.5, 0.5, 0.0], [-0.5, 0.5, 0.0], [0.0, 0.0, 1.0]])


def _theta(z) -> np.ndarray:
    u, v, delta = z
    return np.array([0.5 * (u + v + 1.0), 0.5 * (v - u - 1.0), delta])


def _z(theta) -> np.ndarray:
    alpha, beta, delta = theta
    return np.array([alpha - beta - 1.0, alpha + beta, delta])


@dataclass(frozen=True)
class CalibrationConfig:
    regularization: float = 5e-7
    weights_rule: str = "inverse-bid-ask"  # or "uniform"

    def __post_init__(self):
        if not 0 <= self.regularization < np.inf:
            raise ValidationError(f"regularization must be finite and >= 0, got {self.regularization}")
        if self.weights_rule not in ("inverse-bid-ask", "uniform"):
            raise ValidationError(f"unknown weights rule {self.weights_rule!r}")


@dataclass(frozen=True)
class CalibrationResult:
    theta: NIGParams
    objective: float
    rmse_bp: float
    max_err_bp: float
    iterations: int


def quote_weights(quotes: list[OptionQuote], rule: str) -> np.ndarray:
    """Per-quote weights: chi-square style 1/spread^2 (floored), or uniform."""
    if rule == "uniform":
        return np.ones(len(quotes))
    spreads = np.array([max(q.spread, SPREAD_FLOOR) for q in quotes])
    return 1.0 / spreads**2


def _inside(z) -> bool:
    """Whether z = (u, v, delta) lies strictly inside BOUNDS: the one admissibility rule."""
    lower, upper = BOUNDS
    return all(lo < x < hi for lo, x, hi in zip(lower, z, upper))


def _usable_quotes(slice_: MarketSlice) -> list[OptionQuote]:
    # Zero-bid quotes are stale (zero-spread synthetic quotes stay usable).
    return [q for q in slice_.quotes if q.bid > 0.0 or q.spread == 0.0]


def _model_prices(theta, slice_: MarketSlice, quotes: list[OptionQuote], *, gradient: bool):
    """Model prices of the quotes at theta, and with ``gradient`` their theta-derivatives.

    ``theta`` is one point, or a stack of points (shape (points, 3)) priced
    as one stacked batch, one row per point.  None at a point whose S(T)
    overflows on its pricing interval (``ExpNIGModel.priceable``), and a
    row of NaN for such a point of a stack.
    """
    strikes, kinds = [q.strike for q in quotes], [q.kind for q in quotes]
    if np.ndim(theta) == 1:
        model = ExpNIGModel(NIGParams(theta[0], theta[1], theta[2], 0.0), slice_)
        return price_european_batch(model, strikes, kinds, gradient=gradient) if model.priceable else None
    models = [ExpNIGModel(NIGParams(row[0], row[1], row[2], 0.0), slice_) for row in theta]
    priceable = np.array([model.priceable for model in models], dtype=bool)
    prices = np.full((len(models), len(quotes)), np.nan)
    if priceable.any():
        prices[priceable] = price_european_batch([m for m, ok in zip(models, priceable) if ok], strikes, kinds)
    return prices


@dataclass(frozen=True, eq=False)
class _Residual:
    """The stacked residual r(z) of one slice, with ||r||^2 = J(theta(z)).

    ``residual(z)`` returns r off one pricing batch, and
    ``residual(z, gradient=True)`` the pair (r, dr/dz) off one batch that
    also returns the price derivatives; both are None at a z whose S(T)
    overflows on its pricing interval.  ``scores(zs)`` gives ||r||^2 at
    many points off one stacked batch.  The usable quotes, their weights
    and the prior are fixed per slice, so they are computed once and not at
    each evaluation; ``root_w`` (sqrt of the weights) serves the report too.
    """

    slice_: MarketSlice
    quotes: list[OptionQuote]
    mids: np.ndarray
    prior: np.ndarray
    root_w: np.ndarray
    root_lam: float

    def _stack(self, prices, theta) -> np.ndarray:
        return np.concatenate([self.root_w * (prices - self.mids), self.root_lam * (theta - self.prior)])

    def __call__(self, z, gradient=False):
        theta = _theta(z)
        priced = _model_prices(theta, self.slice_, self.quotes, gradient=gradient)
        if priced is None:
            return None
        if not gradient:
            return self._stack(priced, theta)
        jacobian = np.vstack([(self.root_w[:, None] * priced[1]) @ _THETA_OF_Z, self.root_lam * _THETA_OF_Z])
        return self._stack(priced[0], theta), jacobian

    def scores(self, zs) -> np.ndarray:
        """||r(z)||^2 at each z of ``zs``, NaN where S(T) overflows, off one stacked batch.

        Each score has the bits of ``r @ r`` for ``r = residual(z)``.
        """
        thetas = np.array([_theta(z) for z in zs]).reshape(-1, 3)
        prices = _model_prices(thetas, self.slice_, self.quotes, gradient=False)
        return np.array([r @ r for r in map(self._stack, prices, thetas)])


def _least_squares(slice_: MarketSlice, config: CalibrationConfig) -> _Residual:
    """The stacked residual of one slice in z (see ``_Residual``)."""
    quotes = _usable_quotes(slice_)
    if len(quotes) < 3:
        raise ValidationError("calibration needs at least 3 usable quotes")
    return _Residual(
        slice_,
        quotes,
        np.array([q.mid for q in quotes]),
        np.asarray(bs_prior(slice_), dtype=float),
        np.sqrt(quote_weights(quotes, config.weights_rule)),
        np.sqrt(config.regularization),
    )


def _levenberg_marquardt(residual, z) -> tuple[np.ndarray, np.ndarray, int]:
    """Minimize ||r(z)||^2 inside BOUNDS from z: the minimizer, r there and the evaluation count.

    ``residual(z, gradient=True)`` returns r and its Jacobian dr/dz, or None
    where it cannot price z (S(T) overflows on the pricing interval).

    Levenberg-Marquardt with Marquardt's scaling: each step solves
    (J^T J + damping D) s = -J^T r, D the diagonal of J^T J floored at eps
    times its largest entry.  A component whose step would cross its bound
    while the gradient pushes it there is held at _TO_BOUNDARY of the way
    and the others are solved again; every component is cut the same way,
    and one that rounding would put on its bound stays where it is, so
    every evaluated z lies strictly inside.  A step that lowers ||r||^2
    is taken and the damping falls; otherwise, an unpriceable trial
    included, the damping rises and the Jacobian already held at z serves
    the next solve.  The fit stops at a
    step below TOLERANCE relative to z, at a taken step that lowers ||r||^2
    by at most TOLERANCE relative, or at MAX_ITERATIONS evaluations, the
    start counting as one.
    """
    lower, upper = (np.array(b, dtype=float) for b in BOUNDS)
    r, jz = residual(z, gradient=True)
    cost, evaluations, damping = r @ r, 1, _DAMPING_START
    while evaluations < MAX_ITERATIONS:
        normal, gradient = jz.T @ jz, jz.T @ r
        diagonal = np.diag(normal)
        scale = np.maximum(diagonal, np.finfo(float).eps * diagonal.max())
        system = normal + damping * np.diag(scale)
        low, high = _TO_BOUNDARY * (lower - z), _TO_BOUNDARY * (upper - z)
        step, free = np.zeros(3), np.ones(3, dtype=bool)
        while free.any():
            coupling = normal[np.ix_(free, ~free)] @ step[~free]
            step[free] = np.linalg.solve(system[np.ix_(free, free)], -gradient[free] - coupling)
            blocked = ((step < low) & (gradient > 0.0)) | ((step > high) & (gradient < 0.0))
            if not blocked.any():
                break
            step, free = np.clip(step, low, high), free & ~blocked
        trial = z + np.clip(step, low, high)
        trial = np.where((trial > lower) & (trial < upper), trial, z)
        if np.linalg.norm(trial - z) <= TOLERANCE * (TOLERANCE + np.linalg.norm(z)):
            break
        priced = residual(trial, gradient=True)
        evaluations += 1
        cost_trial = np.inf if priced is None else priced[0] @ priced[0]
        if cost_trial < cost:
            converged = cost - cost_trial <= TOLERANCE * cost
            z, (r, jz), cost = trial, priced, cost_trial
            damping *= _DAMPING_DOWN
            if converged:
                break
        else:
            damping *= _DAMPING_UP
    return z, r, evaluations


def bs_prior(slice_: MarketSlice) -> tuple[float, float, float]:
    """Map the ATM implied vol to a symmetric NIG prior.

    beta0 = 0 and delta0 = alpha0 * sigma_ATM^2, which matches the NIG
    variance delta t / alpha to sigma_ATM^2 T; alpha0 = 10 is a fixed scale.
    """
    quotes = _usable_quotes(slice_)
    if not quotes:
        raise ValidationError("no quotes to locate the ATM strike")
    atm = min(quotes, key=lambda q: abs(q.strike - slice_.forward))
    inputs = BSInputs(
        slice_.spot, atm.strike, slice_.expiry, slice_.rate, slice_.dividend_yield, 0.2
    )
    sigma_atm = implied_vol(atm.mid, inputs, atm.kind)
    return (10.0, 0.0, 10.0 * sigma_atm**2)


def grid_init(residual) -> tuple[float, float, float]:
    """The DEFAULT_GRID point p with the lowest ||r(z(p))||^2.

    ``residual`` is the slice's stacked residual as ``_least_squares``
    returns it.  Only points strictly inside BOUNDS are scored, all of them
    off one stacked plain pricing batch (``_Residual.scores``), and a point
    whose S(T) overflows on its pricing interval is left unscored.
    Deterministic for a fixed residual.
    """
    lattice = itertools.product(*(DEFAULT_GRID[name] for name in ("alpha", "beta", "delta")))
    points = [p for p in lattice if _inside(_z(p))]
    scores = residual.scores([_z(p) for p in points])
    if np.isnan(scores).all():  # no point, or none priceable
        raise ValidationError("initialization lattice empty after admissibility filtering")
    return points[int(np.nanargmin(scores))]


def calibrate(slice_: MarketSlice, config: CalibrationConfig | None = None) -> CalibrationResult:
    """Box-constrained Levenberg-Marquardt fit of (alpha, beta, delta) with mu = 0.

    Least squares on the stacked residual in z = (u, v, delta), from the
    grid start (see ``_levenberg_marquardt``).
    Every priced point lies strictly inside the box, hence is admissible.
    Each evaluation is one pricing batch that returns the residual with its
    closed-form Jacobian (see ``price_european_batch(..., gradient=True)``);
    a rejected step reuses the Jacobian it holds.  The objective and errors
    are read off r at the optimum; the fit re-prices the start bit for bit and
    takes only steps that lower ||r||^2, so the objective is at most the
    start's lattice score.  ``iterations`` counts the fit's evaluations, the
    start included.
    """
    config = config or CalibrationConfig()
    residual = _least_squares(slice_, config)
    start = grid_init(residual)
    z, r, evaluations = _levenberg_marquardt(residual, _z(start))
    theta = _theta(z)
    if not _inside(z):
        raise CalibrationError(f"optimizer left the admissible set at {theta}")
    err_bp = np.abs(r[: residual.root_w.size]) / residual.root_w / slice_.spot * 1e4
    return CalibrationResult(
        theta=NIGParams(theta[0], theta[1], theta[2], 0.0),
        objective=float(r @ r),
        rmse_bp=float(np.sqrt(np.mean(err_bp**2))),
        max_err_bp=float(np.max(err_bp)),
        iterations=evaluations,
    )
