"""Per-maturity NIG calibration to option mids.

Minimizes the Tikhonov-regularized weighted least squares

    J(theta) = sum_m w_m (V_m(theta) - mid_m)^2 + lambda ||theta - theta0||^2

over theta = (alpha, beta, delta) with mu fixed to 0 (prices do not depend on
the location parameter).  J is the squared norm of the stacked residual

    r = [sqrt(w) (V(theta) - mid); sqrt(lambda) (theta - theta0)],

which a bound-constrained Gauss-Newton (trust-region-reflective) fit
minimizes with the exact residual Jacobian: dV/dtheta comes out of the same
quadrature pass as the prices.  Admissibility (beta^2 < alpha^2 and
(beta+1)^2 < alpha^2 with alpha > 0) reduces to alpha - beta >= 1 and
alpha + beta >= 0, so the fit runs in z = (u, v, delta) with
u = alpha - beta - 1 and v = alpha + beta, where both become lower bounds
(with a small margin).  The fit keeps every trial point strictly inside its
box, so every priced point is admissible.  Initialization is a grid search
over a small lattice of plausible starting points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import least_squares

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
# beta in [-15, 14.5].  One tolerance serves the fit's three stopping tests,
# and MAX_ITERATIONS caps its evaluations.
BOUNDS = ((ADMISSIBILITY_MARGIN, ADMISSIBILITY_MARGIN, 1e-3), (29.0, 30.0, 5.0))
TOLERANCE = 1e-12
MAX_ITERATIONS = 500

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
        if self.regularization < 0:
            raise ValidationError("regularization must be >= 0")
        if self.weights_rule not in ("inverse-bid-ask", "uniform"):
            raise ValidationError(f"unknown weights rule {self.weights_rule!r}")


@dataclass(frozen=True)
class CalibrationResult:
    theta: NIGParams
    objective: float
    rmse_bp: float
    max_err_bp: float
    iterations: int
    start: tuple[float, float, float]

    def __post_init__(self):
        if self.objective < -1e-12:
            raise ValidationError("objective must be nonnegative")


def quote_weights(quotes: list[OptionQuote], rule: str) -> np.ndarray:
    """Per-quote weights: chi-square style 1/spread^2 (floored), or uniform."""
    if rule == "uniform":
        return np.ones(len(quotes))
    spreads = np.array([max(q.spread, SPREAD_FLOOR) for q in quotes])
    return 1.0 / spreads**2


def _admissible(theta) -> bool:
    alpha, beta, delta = theta
    return (
        alpha > 0
        and delta > 0
        and alpha - beta >= 1.0 + ADMISSIBILITY_MARGIN
        and alpha + beta >= ADMISSIBILITY_MARGIN
    )


def _usable_quotes(slice_: MarketSlice) -> list[OptionQuote]:
    # Zero-bid quotes are stale (zero-spread synthetic quotes stay usable).
    return [q for q in slice_.quotes if q.bid > 0.0 or q.spread == 0.0]


def _model_prices(theta, slice_: MarketSlice, quotes: list[OptionQuote], *, gradient: bool):
    """Model prices of the quotes at theta, and with ``gradient`` their theta-derivatives."""
    params = NIGParams(theta[0], theta[1], theta[2], 0.0)
    model = ExpNIGModel(params, slice_)
    return price_european_batch(model, [q.strike for q in quotes], [q.kind for q in quotes], gradient=gradient)


def _least_squares(slice_: MarketSlice, config: CalibrationConfig):
    """J(theta) of one slice as ``fun``, and its stacked residual in z with the Jacobian.

    ``fun(theta)`` returns (J, residuals) off one pricing batch.
    ``residual(z)`` returns r with ||r||^2 = J(theta(z)) off one pricing batch
    with the gradient, and keeps dr/dz for ``jac(z)`` at the same z (the fit
    asks for the Jacobian only at the point it has just evaluated; any other
    z is priced anew).  The usable quotes, their weights and the prior are
    fixed per slice, so they are computed once here and not at each
    evaluation.
    """
    quotes = _usable_quotes(slice_)
    if not quotes:
        raise ValidationError("no usable quotes")
    weights = quote_weights(quotes, config.weights_rule)
    mids = np.array([q.mid for q in quotes])
    prior = np.asarray(bs_prior(slice_), dtype=float)
    lam = config.regularization
    root_w, root_lam = np.sqrt(weights), np.sqrt(lam)
    penalty_jac = root_lam * _THETA_OF_Z
    last = {}

    def fun(theta):
        resid = _model_prices(theta, slice_, quotes, gradient=False) - mids
        return float(np.dot(weights, resid**2) + lam * np.sum((theta - prior) ** 2)), resid

    def residual(z):
        theta = _theta(z)
        prices, d_prices = _model_prices(theta, slice_, quotes, gradient=True)
        last["z"] = np.array(z, dtype=float)
        last["jac"] = np.vstack([(root_w[:, None] * d_prices) @ _THETA_OF_Z, penalty_jac])
        return np.concatenate([root_w * (prices - mids), root_lam * (theta - prior)])

    def jac(z):
        if not np.array_equal(z, last.get("z")):
            residual(z)
        return last["jac"]

    return fun, residual, jac


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


def grid_init(slice_: MarketSlice, config: CalibrationConfig) -> tuple[tuple[float, float, float], float]:
    """DEFAULT_GRID point with the lowest objective, and that objective.

    Deterministic for a fixed config.
    """
    points = [
        (a, b, d)
        for a in DEFAULT_GRID["alpha"]
        for b in DEFAULT_GRID["beta"]
        for d in DEFAULT_GRID["delta"]
        if _admissible((a, b, d))
    ]
    if not points:
        raise ValidationError("initialization lattice empty after admissibility filtering")
    fun, _, _ = _least_squares(slice_, config)
    scores = [fun(np.asarray(p, dtype=float))[0] for p in points]
    best = int(np.argmin(scores))
    return points[best], scores[best]


def calibrate(slice_: MarketSlice, config: CalibrationConfig | None = None) -> CalibrationResult:
    """Bound-constrained Gauss-Newton fit of (alpha, beta, delta) with mu = 0.

    Trust-region-reflective least squares on the stacked residual in
    z = (u, v, delta), from the grid start.  Every priced point lies strictly
    inside the box, hence is admissible.  Each evaluation is one pricing
    batch that returns the residual with its closed-form Jacobian (see
    ``price_european_batch(..., gradient=True)``); the final theta is priced
    once more for the objective and the residuals.  ``iterations`` counts
    the fit's evaluations.
    """
    config = config or CalibrationConfig()
    quotes = _usable_quotes(slice_)
    if len(quotes) < 3:
        raise ValidationError("calibration needs at least 3 usable quotes")
    fun, residual, jac = _least_squares(slice_, config)
    start, start_value = grid_init(slice_, config)
    result = least_squares(
        residual,
        _z(start),
        jac=jac,
        bounds=BOUNDS,
        method="trf",
        x_scale="jac",
        ftol=TOLERANCE,
        xtol=TOLERANCE,
        gtol=TOLERANCE,
        max_nfev=MAX_ITERATIONS,
    )
    theta = _theta(result.x)
    if not _admissible(theta):
        raise CalibrationError(f"optimizer left the admissible set at {theta}")
    value, resid = fun(theta)
    if value > start_value + 1e-12:
        raise CalibrationError("optimizer failed to improve on the grid start")
    err_bp = np.abs(resid) / slice_.spot * 1e4
    return CalibrationResult(
        theta=NIGParams(theta[0], theta[1], theta[2], 0.0),
        objective=value,
        rmse_bp=float(np.sqrt(np.mean(err_bp**2))),
        max_err_bp=float(np.max(err_bp)),
        iterations=int(result.nfev),
        start=tuple(float(s) for s in start),
    )
