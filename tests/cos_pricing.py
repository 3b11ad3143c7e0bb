"""Fourier-cosine European pricer for exponential-NIG models, for the tests.

It prices from the characteristic exponent alone, with no density
evaluation, so it is an oracle independent of the library's quadrature
pricer (Fang & Oosterlee, SIAM J. Sci. Comput. 31(2), 2008).
"""

from __future__ import annotations

import math

import numpy as np

from qamcpricer.errors import DomainError
from qamcpricer.nig import ExpNIGModel, NIGParams, support_interval


def nig_char_exponent(u, p: NIGParams):
    """Levy symbol: log of the unit-time characteristic function.

    theta(u) = i mu u - delta (sqrt(alpha^2 - (beta + iu)^2) - sqrt(alpha^2 - beta^2)),
    principal branch; theta(0) = 0.
    """
    u_arr = np.asarray(u, dtype=complex)
    root = np.sqrt(p.alpha**2 - (p.beta + 1j * u_arr) ** 2)
    out = 1j * p.mu * u_arr - p.delta * (root - p.gamma)
    return complex(out) if np.isscalar(u) else out


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
    x_star = math.log(strike / s0) - m  # the payoff kink in x-space
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
