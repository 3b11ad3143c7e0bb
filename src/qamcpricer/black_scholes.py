"""Black-Scholes pricing and implied-volatility inversion.

Used as the prior model for calibration and as the implied-vol reporting
layer.  Prices follow the standard continuous-dividend formulas

    C = S0 e^{-qT} Phi(d1) - K e^{-rT} Phi(d2)
    P = K e^{-rT} Phi(-d2) - S0 e^{-qT} Phi(-d1)

with d1 = [ln(S0/K) + (r - q + sigma^2/2) T] / (sigma sqrt(T)), d2 = d1 - sigma sqrt(T).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConvergenceError, DomainError
from .numerics import std_normal_cdf, std_normal_pdf

__all__ = ["BSInputs", "bs_price", "bs_vega", "implied_vol", "IV_LOWER", "IV_UPPER"]

IV_LOWER = 1e-4
IV_UPPER = 5.0


@dataclass(frozen=True)
class BSInputs:
    """Black-Scholes pricing inputs; sigma must be positive."""

    spot: float
    strike: float
    expiry: float
    rate: float = 0.0
    dividend: float = 0.0
    sigma: float = 0.0

    def __post_init__(self):
        if self.spot <= 0 or self.strike <= 0:
            raise DomainError("spot and strike must be positive")
        if self.expiry <= 0:
            raise DomainError("expiry must be positive")

    def with_sigma(self, sigma: float) -> "BSInputs":
        return BSInputs(self.spot, self.strike, self.expiry, self.rate, self.dividend, sigma)


def _d1_d2(inp: BSInputs) -> tuple[float, float]:
    sig_sqrt = inp.sigma * math.sqrt(inp.expiry)
    d1 = (
        math.log(inp.spot / inp.strike)
        + (inp.rate - inp.dividend + 0.5 * inp.sigma**2) * inp.expiry
    ) / sig_sqrt
    return d1, d1 - sig_sqrt


def bs_price(inp: BSInputs, kind: str) -> float:
    """European option price; ``kind`` is 'C' or 'P'."""
    if inp.sigma <= 0:
        raise DomainError("sigma must be positive")
    d1, d2 = _d1_d2(inp)
    disc_k = inp.strike * math.exp(-inp.rate * inp.expiry)
    disc_s = inp.spot * math.exp(-inp.dividend * inp.expiry)
    if kind == "C":
        return disc_s * std_normal_cdf(d1) - disc_k * std_normal_cdf(d2)
    if kind == "P":
        return disc_k * std_normal_cdf(-d2) - disc_s * std_normal_cdf(-d1)
    raise DomainError(f"unknown option kind {kind!r}")


def bs_vega(inp: BSInputs) -> float:
    d1, _ = _d1_d2(inp)
    return inp.spot * math.exp(-inp.dividend * inp.expiry) * std_normal_pdf(d1) * math.sqrt(inp.expiry)


def implied_vol(price: float, inp: BSInputs, kind: str) -> float:
    """Invert bs_price for sigma with a bracketed Newton / bisection fallback.

    ``inp.sigma`` is ignored.  Raises DomainError when the price sits outside
    the no-arbitrage band attainable for sigma in [IV_LOWER, IV_UPPER], and
    ConvergenceError if the iteration cap is hit (not observed in practice).
    """
    lo, hi = IV_LOWER, IV_UPPER
    p_lo = bs_price(inp.with_sigma(lo), kind)
    p_hi = bs_price(inp.with_sigma(hi), kind)
    if not (p_lo <= price <= p_hi):
        raise DomainError(
            f"price {price} outside attainable range [{p_lo:.6e}, {p_hi:.6e}] "
            f"for sigma in [{lo}, {hi}]"
        )
    sigma = min(max(0.2, lo), hi)
    for _ in range(100):
        cur = bs_price(inp.with_sigma(sigma), kind)
        diff = cur - price
        if abs(diff) <= 1e-10:
            return sigma
        if diff > 0:
            hi = sigma
        else:
            lo = sigma
        vega = bs_vega(inp.with_sigma(sigma))
        if vega > 1e-12:
            candidate = sigma - diff / vega
        else:
            candidate = 0.5 * (lo + hi)
        # Newton step only while it stays inside the bracket; bisect otherwise.
        sigma = candidate if lo < candidate < hi else 0.5 * (lo + hi)
    raise ConvergenceError("implied vol did not converge after 100 iterations")
