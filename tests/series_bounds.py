"""Truncation-order rules and decay fits for cosine series, for the tests.

The sup-error ceilings of the cosine expansion (algebraic zeta K^-m or
exponential zeta exp(-nu K) coefficient decay), the empirical decay fit that
feeds them, and the symmetric cumulant interval the tests integrate the
density on.  No pipeline stage selects its truncation order from them yet;
the density stage takes a fixed number of terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from qamcpricer.cosine_density import CosineSeries, Interval
from qamcpricer.errors import DomainError, ValidationError
from qamcpricer.nig import NIGParams, nig_cumulants


@dataclass(frozen=True)
class KSelection:
    """Truncation-order selection inputs for the ceiling formulas.

    mode 'algebraic' uses rate = m (sup error <= zeta K^-m); mode
    'exponential' uses rate = nu (sup error <= zeta exp(-nu K)).
    """

    mode: str
    zeta: float
    rate: float
    epsilon: float

    def __post_init__(self):
        if self.mode not in ("algebraic", "exponential"):
            raise DomainError(f"unknown selection mode {self.mode!r}")
        if self.zeta <= 0 or self.rate <= 0:
            raise DomainError("zeta and rate must be positive")
        if self.mode == "algebraic" and self.rate < 1:
            raise DomainError("algebraic order m must be >= 1")
        if not (0.0 < self.epsilon < 1.0):
            raise DomainError("epsilon must lie in (0, 1)")


def select_terms(sel: KSelection, interval: Interval) -> int:
    """Ceiling formulas for the truncation order meeting a sup-error target."""
    ratio = 4.0 * sel.zeta * interval.width / sel.epsilon
    if sel.mode == "algebraic":
        value = ratio ** (1.0 / sel.rate)
    else:
        value = math.log(ratio ** (1.0 / sel.rate))
    return max(1, math.ceil(value))


def cumulant_interval(p: NIGParams, t: float, width: float) -> tuple[float, float]:
    """Symmetric truncation interval [c1 - width*s, c1 + width*s], s = sqrt(c2 + sqrt(c4))."""
    c1, c2, c4 = nig_cumulants(p, t)
    half = width * math.sqrt(c2 + math.sqrt(c4))
    return c1 - half, c1 + half


def estimate_decay(series: CosineSeries, floor: float = 1e-13) -> tuple[float, float]:
    """Empirical (zeta, nu) from a log-linear fit of |a_k| against k.

    The selection formulas need decay constants the theory only asserts to
    exist; this measures them from computed coefficients (k >= 1, above the
    quadrature noise floor).
    """
    mags = np.abs(series.coeffs)
    k = np.arange(series.terms)
    keep = (k >= 1) & (mags > floor * max(mags.max(), 1e-300))
    if np.count_nonzero(keep) < 2:
        raise ValidationError("not enough coefficients above the noise floor to fit decay")
    slope, intercept = np.polyfit(k[keep], np.log(mags[keep]), 1)
    return float(math.exp(intercept)), float(-slope)
