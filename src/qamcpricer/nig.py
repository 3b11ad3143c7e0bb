"""Normal Inverse Gaussian distribution and the exponential-NIG asset model.

The NIG(alpha, beta, delta, mu) density is

    f(x) = (alpha delta / pi) exp(delta g + beta (x - mu))
           K1(alpha sqrt(delta^2 + (x - mu)^2)) / sqrt(delta^2 + (x - mu)^2),

with g = sqrt(alpha^2 - beta^2).  Time-t increments of the NIG Levy process
follow NIG(alpha, beta, delta*t, mu*t).  The exponential model prices the
asset as S(T) = S0 exp((r - q + omega) T + X(T)) where omega is the
martingale adjustment making the discounted asset a martingale.

European prices are computed by quadrature of the payoff against the density
(the tests cross-check them with a Fourier-cosine pricer).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np
from scipy.special import k0e, k1e

from .errors import DomainError
from .numerics import QuadratureRule, gauss_legendre_panels, integrate

if TYPE_CHECKING:  # pragma: no cover
    from .market_data import MarketSlice

__all__ = [
    "NIGParams",
    "ExpNIGModel",
    "nig_pdf",
    "nig_cdf",
    "martingale_adjustment",
    "nig_cumulants",
    "cumulant_interval",
    "widened_interval",
    "support_interval",
    "price_european_batch",
]

# Panel count for composite Gauss-Legendre over NIG supports: the density is
# analytic but sharply peaked relative to its tail-complete support, so a
# single wide panel loses spectral accuracy.
_PRICING_PANELS = 24


@dataclass(frozen=True)
class NIGParams:
    """NIG parameter vector with the admissibility constraints

    alpha > 0, delta > 0, beta^2 < alpha^2, (beta + 1)^2 < alpha^2.

    The last constraint keeps exp(X) integrable so the martingale adjustment
    exists.
    """

    alpha: float
    beta: float
    delta: float
    mu: float = 0.0

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.alpha, self.beta, self.delta, self.mu)):
            raise DomainError("NIG parameters must be finite")
        if self.alpha <= 0 or self.delta <= 0:
            raise DomainError("alpha and delta must be positive")
        if self.beta**2 >= self.alpha**2:
            raise DomainError("admissibility requires beta^2 < alpha^2")
        if (self.beta + 1.0) ** 2 >= self.alpha**2:
            raise DomainError("admissibility requires (beta + 1)^2 < alpha^2")

    @property
    def gamma(self) -> float:
        return math.sqrt(self.alpha**2 - self.beta**2)


def nig_pdf(x, p: NIGParams, t: float = 1.0):
    """Density of NIG(alpha, beta, delta*t, mu*t) evaluated at x.

    Exponents are combined with the scaled Bessel kernel so the value stays
    accurate deep into the tails instead of underflowing prematurely.
    """
    if t <= 0:
        raise DomainError("time scale t must be positive")
    x_arr = np.asarray(x, dtype=float)
    dt = p.delta * t
    mt = p.mu * t
    dx = x_arr - mt
    s = np.sqrt(dt * dt + dx * dx)
    z = p.alpha * s
    # K1(z) = k1e(z) exp(-z); fold exp(-z) into the main exponent.
    expo = dt * p.gamma + p.beta * dx - z
    out = (p.alpha * dt / math.pi) * np.exp(expo) * k1e(z) / s
    return float(out) if np.isscalar(x) else out


def martingale_adjustment(p: NIGParams) -> float:
    """Drift correction omega with E[exp(omega t + X(t))] = 1."""
    inner = p.alpha**2 - (p.beta + 1.0) ** 2
    if inner <= 0:
        raise DomainError("martingale adjustment requires (beta + 1)^2 < alpha^2")
    return -p.mu + p.delta * (math.sqrt(inner) - p.gamma)


def nig_cumulants(p: NIGParams, t: float = 1.0) -> tuple[float, float, float]:
    """First, second, and fourth cumulants of NIG(alpha, beta, delta*t, mu*t)."""
    g = p.gamma
    dt = p.delta * t
    c1 = p.mu * t + dt * p.beta / g
    c2 = dt * p.alpha**2 / g**3
    c4 = 3.0 * dt * p.alpha**2 * (p.alpha**2 + 4.0 * p.beta**2) / g**7
    return c1, c2, c4


def cumulant_interval(p: NIGParams, t: float = 1.0, width: float = 10.0) -> tuple[float, float]:
    """Symmetric truncation interval [c1 - width*s, c1 + width*s], s = sqrt(c2 + sqrt(c4))."""
    c1, c2, c4 = nig_cumulants(p, t)
    half = width * math.sqrt(c2 + math.sqrt(c4))
    return c1 - half, c1 + half


def _far_anchors(p: NIGParams, t: float) -> tuple[float, float]:
    # Points far enough out that the mass beyond is ~1e-25 or less.
    c1, c2, c4 = nig_cumulants(p, t)
    scale = math.sqrt(c2 + math.sqrt(c4))
    left_rate = p.alpha + p.beta   # left tail decays like exp((alpha+beta)x)
    right_rate = p.alpha - p.beta
    lo = c1 - max(10.0 * scale, 1.0) - 70.0 / left_rate
    hi = c1 + max(10.0 * scale, 1.0) + 70.0 / right_rate
    return lo, hi


def nig_cdf(x, p: NIGParams, t: float = 1.0):
    """CDF by cumulative quadrature of the density (no closed form exists).

    Vectorized: query points are merged with a fine base grid, each resulting
    segment is integrated with a 16-node Gauss-Legendre rule, and segment
    masses are accumulated.
    """
    scalar = np.isscalar(x)
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    lo, hi = _far_anchors(p, t)
    queries = np.clip(x_arr.ravel(), lo, hi)
    edges = np.union1d(np.linspace(lo, hi, 512), queries)
    rule = QuadratureRule.gauss_legendre(16)
    nodes, half = gauss_legendre_panels(edges, rule)
    vals = nig_pdf(nodes.ravel(), p, t).reshape(nodes.shape)
    cum = np.concatenate([[0.0], np.cumsum(half * (vals @ rule.weights))])
    out = cum[np.searchsorted(edges, queries)]
    out = out.reshape(x_arr.shape)
    return float(out[0]) if scalar else out


@lru_cache(maxsize=4096)
def widened_interval(p: NIGParams, t: float, left_eps: float, right_eps: float) -> tuple[float, float]:
    """Cumulant interval from width 10, widened by +2 until the tails pass.

    The tails pass when the quadrature mass left of a is <= left_eps and the
    mass right of b is <= right_eps.  NIG tails decay exponentially, so this
    terminates; width 60 is the stop regardless.
    """
    lo, hi = _far_anchors(p, t)
    width = 10.0
    while True:
        a, b = cumulant_interval(p, t, width)
        if width >= 60.0:
            return a, b
        left = integrate(lambda y: nig_pdf(y, p, t), (lo, a)) if a > lo else 0.0
        right = integrate(lambda y: nig_pdf(y, p, t), (b, hi)) if b < hi else 0.0
        if left <= left_eps and right <= right_eps:
            return a, b
        width += 2.0


def support_interval(
    p: NIGParams, t: float = 1.0, tail_eps: float = 1e-8
) -> tuple[float, float]:
    """Tight asymmetric support: smallest [a, b] with <= tail_eps/2 mass per side.

    Solved by bisection on quadrature tail masses.  NIG tails are asymmetric
    (rates alpha+beta on the left, alpha-beta on the right), so per-side
    bounds avoid padding the thin tail to match the fat one.
    """
    if not (0.0 < tail_eps < 1.0):
        raise DomainError("tail_eps must lie in (0, 1)")
    c1, c2, c4 = nig_cumulants(p, t)
    lo_anchor, hi_anchor = _far_anchors(p, t)
    target = 0.5 * tail_eps

    def left_mass(a):
        return integrate(lambda y: nig_pdf(y, p, t), (lo_anchor, a))

    def right_mass(b):
        return integrate(lambda y: nig_pdf(y, p, t), (b, hi_anchor))

    # Largest a (smallest b) whose one-sided mass stays below target; the
    # returned endpoint is always on the safe side of the bisection.
    lo, hi = lo_anchor + 1e-12, c1
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if left_mass(mid) > target:
            hi = mid
        else:
            lo = mid
        if hi - lo < 1e-3:
            break
    a = lo

    lo, hi = c1, hi_anchor - 1e-12
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if right_mass(mid) > target:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-3:
            break
    b = hi
    return a, b


@dataclass(frozen=True)
class ExpNIGModel:
    """Exponential NIG asset model: NIG parameters plus a market slice.

    ``slice_`` must expose spot, rate, dividend_yield, expiry, and
    discount_factor (see market_data.MarketSlice).
    """

    params: NIGParams
    slice_: "MarketSlice"

    @property
    def drift(self) -> float:
        """(r - q + omega) T: total log-drift of S(T)/S0 beyond the NIG increment."""
        s = self.slice_
        return (s.rate - s.dividend_yield + martingale_adjustment(self.params)) * s.expiry

    def price_at(self, x):
        """Map a log-return node x to the terminal asset price."""
        return self.slice_.spot * np.exp(self.drift + np.asarray(x, dtype=float))

    def log_strike(self, strike: float) -> float:
        """Payoff kink location in x-space."""
        return math.log(strike / self.slice_.spot) - self.drift


def price_european_batch(model: ExpNIGModel, strikes, kinds, gradient: bool = False):
    """European prices of many (strike, kind) pairs off one density evaluation.

    Discounted quadrature of each payoff against the density on the pricing
    interval: the cumulant rule (width 10), widened by +2 until each tail
    holds at most 1e-11 mass.  One composite Gauss-Legendre grid has every
    payoff kink among its panel edges, so each quote's integral is an exact
    sub-sum of the shared nodes and sees an analytic integrand per panel.
    A single quote is a batch of one.  The result is independent of the
    location parameter mu.  Tails too heavy for a finite S(T) on the
    interval are a DomainError.

    With ``gradient=True`` the result is ``(prices, d_prices)``, where row m
    of ``d_prices`` is d price_m / d(alpha, beta, delta) of the quadrature
    sum itself, off the same density pass.  A parameter moves each term
    w payoff(S(T)) f(x) through the density, through S(T) = S0 exp(drift + x),
    and through its node and weight: the panel edges are the interval ends,
    which scale with the cumulants, and the kinks, which move against the
    drift.  So the gradient is that of the computed prices wherever the
    interval's width step is locally constant, in tails slow or not.
    """
    strikes = np.asarray(strikes, dtype=float)
    if strikes.ndim != 1 or len(kinds) != strikes.size:
        raise DomainError("strikes must be a flat vector with one kind per strike")
    if np.any(strikes <= 0):
        raise DomainError("strikes must be positive")
    p = model.params
    t = model.slice_.expiry
    spot = model.slice_.spot
    drift = model.drift
    a, b = widened_interval(p, t, 1e-11, 1e-11)
    if math.log(spot) + drift + b >= math.log(np.finfo(float).max):
        raise DomainError(f"S(T) overflows on the pricing interval [{a:.6g}, {b:.6g}] of {p}")
    # Payoff kinks in x-space (ExpNIGModel.log_strike), one drift per batch.
    x_stars = [math.log(strike / spot) - drift for strike in strikes]
    kinks = np.array(sorted({x_star for x_star in x_stars if a < x_star < b}))
    panel_edges = np.linspace(a, b, _PRICING_PANELS + 1)
    edges, first = np.unique(np.concatenate([panel_edges, kinks]), return_index=True)

    rule = QuadratureRule.gauss_legendre(64)
    nodes, half = gauss_legendre_panels(edges, rule)
    x = nodes.ravel()
    w = (half[:, None] * rule.weights[None, :]).ravel()
    dens = nig_pdf(x, p, t)
    s_vals = model.price_at(x)
    df = model.slice_.discount_factor
    if gradient:
        scores, slope = _log_density_scores(x, p, t)
        d_drift = _drift_gradient(p, t)
        # Nodes and weights move with the panel edges: the interval's edges
        # with its ends, the kinks log(K / S0) - drift against the drift.
        d_a, d_b = _interval_gradient(p, t, a, b)
        frac = np.linspace(0.0, 1.0, _PRICING_PANELS + 1)[:, None]
        d_edges = np.concatenate([d_a + frac * (d_b - d_a), np.tile(-d_drift, (kinks.size, 1))])[first]
        d_mid = 0.5 * (d_edges[1:] + d_edges[:-1])[:, None, :]
        d_half = 0.5 * (d_edges[1:] - d_edges[:-1])[:, None, :]
        d_x = (d_mid + d_half * rule.nodes[None, :, None]).reshape(-1, 3)
        d_w = (d_half * rule.weights[None, :, None]).reshape(-1, 3)
        # d(w payoff f) / d theta per node is u - K v for a call and K v - u
        # for a put (d payoff / d drift = +-S(T)), so a quote's gradient is a
        # suffix (call) or prefix (put) sum of u and v.
        s_dens = s_vals * dens
        u = s_dens[:, None] * d_w + (w * s_dens)[:, None] * (scores + (1.0 + slope)[:, None] * d_x + d_drift)
        v = dens[:, None] * d_w + (w * dens)[:, None] * (scores + slope[:, None] * d_x)
        uv = np.hstack([u, v])
        none = np.zeros((1, 6))
        prefix = np.vstack([none, np.cumsum(uv, axis=0)])
        suffix = np.vstack([np.cumsum(uv[::-1], axis=0)[::-1], none])

    # x increases, so each payoff's support is a run of nodes.
    out = np.zeros(strikes.size)
    d_out = np.zeros((strikes.size, 3))
    for i, (strike, kind, x_star) in enumerate(zip(strikes, kinds, x_stars)):
        if kind == "C":
            lo = np.searchsorted(x, max(a, min(x_star, b)), side="left")
            run = slice(lo, None)
            payoff = s_vals[run] - strike
        elif kind == "P":
            hi = np.searchsorted(x, min(b, max(x_star, a)), side="right")
            run = slice(0, hi)
            payoff = strike - s_vals[run]
        else:
            raise DomainError(f"unknown option kind {kind!r}")
        if (kind == "C" and x_star >= b) or (kind == "P" and x_star <= a):
            continue
        out[i] = df * float(np.dot(w[run], payoff * dens[run]))
        if gradient:
            if kind == "C":
                d_out[i] = df * (suffix[lo, :3] - strike * suffix[lo, 3:])
            else:
                d_out[i] = df * (strike * prefix[hi, 3:] - prefix[hi, :3])
    return (out, d_out) if gradient else out


def _log_density_scores(x: np.ndarray, p: NIGParams, t: float) -> tuple[np.ndarray, np.ndarray]:
    """d log f / d(alpha, beta, delta) at fixed x, shape (nodes, 3), and d log f / dx.

    f is the NIG(alpha, beta, delta t, mu t) density.  With dx = x - mu t,
    q = sqrt((delta t)^2 + dx^2), g = sqrt(alpha^2 - beta^2) and
    R = K0(alpha q) / K1(alpha q) (from K1' = -K0 - K1/z):

        d_alpha log f = -q R + delta t alpha / g
        d_beta  log f = dx - delta t beta / g
        d_delta log f = t (1/(delta t) - alpha delta t R / q - 2 delta t / q^2 + g)
        d_x     log f = beta - alpha dx R / q - 2 dx / q^2
    """
    alpha, beta, delta = p.alpha, p.beta, p.delta
    g = p.gamma
    dt = delta * t
    dx = x - p.mu * t
    q = np.sqrt(dt * dt + dx * dx)
    ratio = k0e(alpha * q) / k1e(alpha * q)  # the exp(-z) scalings cancel
    scores = np.empty((x.size, 3))
    scores[:, 0] = -q * ratio + dt * alpha / g
    scores[:, 1] = dx - dt * beta / g
    scores[:, 2] = t * (1.0 / dt - alpha * dt * ratio / q - 2.0 * dt / (q * q) + g)
    slope = beta - alpha * dx * ratio / q - 2.0 * dx / (q * q)
    return scores, slope


def _drift_gradient(p: NIGParams, t: float) -> np.ndarray:
    """d drift / d(alpha, beta, delta) of the exponential model at expiry t.

    The drift is (r - q + omega) t with omega = -mu + delta (g1 - g),
    g1 = sqrt(alpha^2 - (beta + 1)^2) and g = sqrt(alpha^2 - beta^2).
    """
    alpha, beta, delta = p.alpha, p.beta, p.delta
    g = p.gamma
    g1 = math.sqrt(alpha**2 - (beta + 1.0) ** 2)
    return t * np.array([delta * alpha * (1.0 / g1 - 1.0 / g), delta * (beta / g - (beta + 1.0) / g1), g1 - g])


def _interval_gradient(p: NIGParams, t: float, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    """d(a, b) / d(alpha, beta, delta) of a cumulant interval [a, b] at fixed width.

    a, b = c1 -+ width * s with s = sqrt(c2 + sqrt(c4)), so both ends move by
    d c1 -+ ((b - a) / 2) d log s.
    """
    alpha, beta, delta = p.alpha, p.beta, p.delta
    g2 = p.gamma**2
    dt = delta * t
    _, c2, c4 = nig_cumulants(p, t)
    d_c1 = np.array([-dt * alpha * beta, dt * alpha**2, t * beta * g2]) / (g2 * p.gamma)
    d_log_c2 = np.array([2.0 / alpha - 3.0 * alpha / g2, 3.0 * beta / g2, 1.0 / delta])
    mix = alpha**2 + 4.0 * beta**2
    d_log_c4 = np.array(
        [2.0 / alpha + 2.0 * alpha / mix - 7.0 * alpha / g2, 8.0 * beta / mix + 7.0 * beta / g2, 1.0 / delta]
    )
    root_c4 = math.sqrt(c4)
    d_log_s = (c2 * d_log_c2 + 0.5 * root_c4 * d_log_c4) / (2.0 * (c2 + root_c4))
    half = 0.5 * (b - a)
    return d_c1 - half * d_log_s, d_c1 + half * d_log_s
