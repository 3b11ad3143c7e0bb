"""Normal Inverse Gaussian distribution and the exponential-NIG asset model.

The NIG(alpha, beta, delta, mu) density is

    f(x) = (alpha delta / pi) exp(delta g + beta (x - mu))
           K1(alpha sqrt(delta^2 + (x - mu)^2)) / sqrt(delta^2 + (x - mu)^2),

with g = sqrt(alpha^2 - beta^2).  Time-t increments of the NIG Levy process
follow NIG(alpha, beta, delta*t, mu*t).  The exponential model prices the
asset as S(T) = S0 exp((r - q + omega) T + X(T)) where omega is the
martingale adjustment making the discounted asset a martingale.

European prices are computed two independent ways (a cross-validating oracle
pair): quadrature of the payoff against the density, and a Fourier-cosine
expansion driven by the characteristic exponent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np
from scipy.special import k1e

from .errors import DomainError
from .numerics import QuadratureRule, gauss_legendre_panels, integrate

if TYPE_CHECKING:  # pragma: no cover
    from .market_data import MarketSlice

__all__ = [
    "NIGParams",
    "ExpNIGModel",
    "nig_pdf",
    "nig_cdf",
    "nig_char_exponent",
    "martingale_adjustment",
    "nig_cumulants",
    "cumulant_interval",
    "widened_interval",
    "support_interval",
    "price_european_batch",
    "price_european_cos",
    "sample_nig",
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

    def with_mu(self, mu: float) -> "NIGParams":
        return NIGParams(self.alpha, self.beta, self.delta, mu)


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


def nig_char_exponent(u, p: NIGParams):
    """Levy symbol: log of the unit-time characteristic function.

    theta(u) = i mu u - delta (sqrt(alpha^2 - (beta + iu)^2) - sqrt(alpha^2 - beta^2)),
    principal branch; theta(0) = 0.
    """
    u_arr = np.asarray(u, dtype=complex)
    root = np.sqrt(p.alpha**2 - (p.beta + 1j * u_arr) ** 2)
    out = 1j * p.mu * u_arr - p.delta * (root - p.gamma)
    return complex(out) if np.isscalar(u) else out


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
        left = integrate(lambda y: nig_pdf(y, p, t), (lo, a), panels=8) if a > lo else 0.0
        right = integrate(lambda y: nig_pdf(y, p, t), (b, hi), panels=8) if b < hi else 0.0
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
        return integrate(lambda y: nig_pdf(y, p, t), (lo_anchor, a), panels=8)

    def right_mass(b):
        return integrate(lambda y: nig_pdf(y, p, t), (b, hi_anchor), panels=8)

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


def price_european_batch(model: ExpNIGModel, strikes, kinds) -> np.ndarray:
    """European prices of many (strike, kind) pairs off one density evaluation.

    Discounted quadrature of each payoff against the density on the pricing
    interval: the cumulant rule (width 10), widened by +2 until each tail
    holds at most 1e-11 mass.  One composite Gauss-Legendre grid has every
    payoff kink among its panel edges, so each quote's integral is an exact
    sub-sum of the shared nodes and sees an analytic integrand per panel.
    A single quote is a batch of one.  The result is independent of the
    location parameter mu.
    """
    strikes = np.asarray(strikes, dtype=float)
    if strikes.ndim != 1 or len(kinds) != strikes.size:
        raise DomainError("strikes must be a flat vector with one kind per strike")
    if np.any(strikes <= 0):
        raise DomainError("strikes must be positive")
    p = model.params
    t = model.slice_.expiry
    a, b = widened_interval(p, t, 1e-11, 1e-11)
    kinks = np.array(sorted({model.log_strike(k) for k in strikes if a < model.log_strike(k) < b}))
    edges = np.unique(np.concatenate([np.linspace(a, b, _PRICING_PANELS + 1), kinks]))

    rule = QuadratureRule.gauss_legendre(64)
    nodes, half = gauss_legendre_panels(edges, rule)
    x = nodes.ravel()
    w = (half[:, None] * rule.weights[None, :]).ravel()
    dens = nig_pdf(x, p, t)
    s_vals = model.price_at(x)
    df = model.slice_.discount_factor

    out = np.empty(strikes.size)
    for i, (strike, kind) in enumerate(zip(strikes, kinds)):
        x_star = model.log_strike(strike)
        if kind == "C":
            mask = x >= max(a, min(x_star, b))
            payoff = s_vals[mask] - strike
        elif kind == "P":
            mask = x <= min(b, max(x_star, a))
            payoff = strike - s_vals[mask]
        else:
            raise DomainError(f"unknown option kind {kind!r}")
        out[i] = df * float(np.dot(w[mask], payoff * dens[mask]))
        if (kind == "C" and x_star >= b) or (kind == "P" and x_star <= a):
            out[i] = 0.0
    return out


def _cos_chi_psi(u: np.ndarray, a: float, c: float, d: float) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form integrals of exp(x)cos(u(x-a)) and cos(u(x-a)) over [c, d]."""
    wc, wd = u * (c - a), u * (d - a)
    chi = (
        np.exp(d) * (np.cos(wd) + u * np.sin(wd))
        - np.exp(c) * (np.cos(wc) + u * np.sin(wc))
    ) / (1.0 + u * u)
    psi = np.empty_like(u)
    nz = u != 0.0
    psi[nz] = (np.sin(wd[nz]) - np.sin(wc[nz])) / u[nz]
    psi[~nz] = d - c
    return chi, psi


def price_european_cos(
    model: ExpNIGModel,
    strike: float,
    kind: str,
    terms: int = 256,
    interval: tuple[float, float] | None = None,
    tail_eps: float = 1e-8,
) -> float:
    """European price by the Fourier-cosine expansion of the density.

    Density cosine coefficients come from the characteristic exponent (no
    density evaluation), making this pricer independent of the quadrature
    route.  Defaults to the tight asymmetric support so the series converges
    within a few hundred terms despite the thin analyticity strip of NIG.
    """
    if terms < 16:
        raise DomainError("terms must be >= 16")
    if strike <= 0:
        raise DomainError("strike must be positive")
    if kind not in ("C", "P"):
        raise DomainError(f"unknown option kind {kind!r}")
    p = model.params
    t = model.slice_.expiry
    if interval is None:
        a, b = support_interval(p, t, tail_eps)
    else:
        a, b = interval
    width = b - a

    k = np.arange(terms)
    u = k * math.pi / width
    phi = np.exp(t * nig_char_exponent(u, p))
    dens_coef = (2.0 / width) * np.real(phi * np.exp(-1j * u * a))
    dens_coef[0] *= 0.5

    s0 = model.slice_.spot
    m = model.drift
    x_star = model.log_strike(strike)
    if kind == "C":
        lo, hi = max(a, x_star), b
        if lo >= hi:
            return 0.0
        chi, psi = _cos_chi_psi(u, a, lo, hi)
        payoff_coef = s0 * math.exp(m) * chi - strike * psi
    else:
        lo, hi = a, min(b, x_star)
        if lo >= hi:
            return 0.0
        chi, psi = _cos_chi_psi(u, a, lo, hi)
        payoff_coef = strike * psi - s0 * math.exp(m) * chi
    return model.slice_.discount_factor * float(np.dot(dens_coef, payoff_coef))


def sample_nig(p: NIGParams, t: float, rng: np.random.Generator, count: int) -> np.ndarray:
    """Draw i.i.d. NIG(alpha, beta, delta*t, mu*t) samples.

    Normal variance-mean mixture: X = mu t + beta Z + sqrt(Z) N(0,1) with Z
    inverse-Gaussian with mean delta*t/gamma and shape (delta*t)^2, generated
    by the exact transformation-with-rejection scheme (numpy's Wald sampler).
    """
    if count < 1:
        raise DomainError("count must be >= 1")
    dt = p.delta * t
    z = rng.wald(dt / p.gamma, dt * dt, size=count)
    return p.mu * t + p.beta * z + np.sqrt(z) * rng.standard_normal(count)
