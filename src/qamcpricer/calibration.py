"""Per-maturity NIG calibration to option mids.

Minimizes the Tikhonov-regularized weighted least squares

    J(theta) = sum_m w_m (V_m(theta) - mid_m)^2 + lambda ||theta - theta0||^2

over theta = (alpha, beta, delta) with mu fixed to 0 (prices do not depend on
the location parameter).  Admissibility (beta^2 < alpha^2 and
(beta+1)^2 < alpha^2 with alpha > 0) reduces to the linear constraints
alpha - beta >= 1 and alpha + beta >= 0, enforced with a small margin at
every iterate of a trust-region optimizer.  The optimizer gets the exact
gradient of J, 2 sum_m w_m (V_m - mid_m) dV_m/dtheta + 2 lambda (theta - theta0),
where dV/dtheta comes out of the same quadrature pass as the prices.
Initialization is a grid search over a small lattice of plausible starting
points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import LinearConstraint, minimize

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

# Box bounds on (alpha, beta, delta) and the trust-region stopping rule.
BOUNDS = ((0.5, 30.0), (-15.0, 15.0), (1e-3, 5.0))
GTOL = 1e-10
XTOL = 1e-12
MAX_ITERATIONS = 500


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
    """J(theta) of one slice as (fun, fun_and_grad), one pricing batch per call.

    ``fun(theta)`` returns (J, residuals) and ``fun_and_grad(theta)`` returns
    (J, grad J); both compute J by the same arithmetic.  The usable quotes,
    their weights and the prior are fixed per slice, so they are computed
    once here and not at each evaluation.
    """
    quotes = _usable_quotes(slice_)
    if not quotes:
        raise ValidationError("no usable quotes")
    weights = quote_weights(quotes, config.weights_rule)
    mids = np.array([q.mid for q in quotes])
    prior = np.asarray(bs_prior(slice_), dtype=float)
    lam = config.regularization

    def value(theta, resid):
        return float(np.dot(weights, resid**2) + lam * np.sum((theta - prior) ** 2))

    def fun(theta):
        resid = _model_prices(theta, slice_, quotes, gradient=False) - mids
        return value(theta, resid), resid

    def fun_and_grad(theta):
        prices, d_prices = _model_prices(theta, slice_, quotes, gradient=True)
        resid = prices - mids
        grad = 2.0 * ((weights * resid) @ d_prices + lam * (theta - prior))
        return value(theta, resid), grad

    return fun, fun_and_grad


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
    fun, _ = _least_squares(slice_, config)
    scores = [fun(np.asarray(p, dtype=float))[0] for p in points]
    best = int(np.argmin(scores))
    return points[best], scores[best]


def calibrate(slice_: MarketSlice, config: CalibrationConfig | None = None) -> CalibrationResult:
    """Constrained trust-region fit of (alpha, beta, delta) with mu = 0.

    Admissibility holds at every accepted iterate (linear constraints with
    keep_feasible), and only iterates are priced.  Each evaluation is one
    pricing batch that returns J(theta) with its closed-form gradient (see
    ``price_european_batch(..., gradient=True)``); the final theta is
    priced once more for the objective and the residuals.
    """
    config = config or CalibrationConfig()
    quotes = _usable_quotes(slice_)
    if len(quotes) < 3:
        raise ValidationError("calibration needs at least 3 usable quotes")
    fun, fun_and_grad = _least_squares(slice_, config)
    start, start_value = grid_init(slice_, config)
    constraints = LinearConstraint(
        np.array([[1.0, -1.0, 0.0], [1.0, 1.0, 0.0]]),
        lb=[1.0 + ADMISSIBILITY_MARGIN, ADMISSIBILITY_MARGIN],
        ub=[np.inf, np.inf],
        keep_feasible=True,
    )
    result = minimize(
        fun_and_grad,
        np.asarray(start, dtype=float),
        jac=True,
        method="trust-constr",
        bounds=BOUNDS,
        constraints=[constraints],
        options={"gtol": GTOL, "xtol": XTOL, "maxiter": MAX_ITERATIONS},
    )
    theta = np.asarray(result.x, dtype=float)
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
        iterations=int(result.niter),
        start=tuple(float(s) for s in start),
    )
