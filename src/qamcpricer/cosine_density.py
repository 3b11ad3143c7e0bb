"""Orthonormal cosine-series estimation of densities and CDFs on an interval.

Basis on [a, b]:

    gamma_0(x) = 1/sqrt(b-a),   gamma_k(x) = sqrt(2/(b-a)) cos(k pi (x-a)/(b-a))

with coefficients a_k = E[gamma_k(X)].  For k >= 1, |gamma_k| <= sqrt(2/(b-a)),
so a_k is a signed value that ``qamc.signed_ae_estimate`` can load with scale
sqrt(2/(b-a)).

The CDF estimate integrates the partial sum term by term and is clamped to
0 / 1 outside the interval.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ValidationError
from .numerics import QuadratureRule, gauss_legendre_panels

__all__ = [
    "Interval",
    "CosineSeries",
    "basis_matrix",
    "coeffs_classical",
    "eval_pdf",
    "eval_cdf",
    "series_to_json",
]


@dataclass(frozen=True)
class Interval:
    a: float
    b: float

    def __post_init__(self):
        if not (self.a < self.b):
            raise DomainError(f"interval needs a < b, got [{self.a}, {self.b}]")

    @property
    def width(self) -> float:
        return self.b - self.a


@dataclass(frozen=True)
class CosineSeries:
    interval: Interval
    coeffs: np.ndarray

    def __post_init__(self):
        coeffs = np.asarray(self.coeffs, dtype=float)
        object.__setattr__(self, "coeffs", coeffs)
        if coeffs.ndim != 1 or coeffs.size < 1:
            raise ValidationError("coefficient vector must be 1-d and non-empty")
        if not np.all(np.isfinite(coeffs)):
            raise ValidationError("coefficients must be finite")

    @property
    def terms(self) -> int:
        return int(self.coeffs.size)


def _check_inside(x_arr: np.ndarray, interval: Interval) -> None:
    if np.any(x_arr < interval.a - 1e-12) or np.any(x_arr > interval.b + 1e-12):
        raise DomainError("x outside the series interval")


def basis_matrix(interval: Interval, terms: int, x: np.ndarray) -> np.ndarray:
    """Rows gamma_0..gamma_{terms-1} evaluated at the points x (no range check)."""
    w = interval.width
    k = np.arange(terms)[:, None]
    mat = np.cos(k * math.pi * (x[None, :] - interval.a) / w) * math.sqrt(2.0 / w)
    mat[0, :] = 1.0 / math.sqrt(w)
    return mat


def coeffs_classical(pdf, interval: Interval, terms: int) -> CosineSeries:
    """Project a density onto the first ``terms`` basis functions by quadrature.

    The density is evaluated once on a composite 64-node Gauss-Legendre grid
    shared by every coefficient; the panel count, max(16, ceil(terms / 6)),
    scales with ``terms`` so the highest mode is fully resolved.
    """
    if terms < 1:
        raise DomainError("terms must be >= 1")
    panels = max(16, math.ceil(terms / 6))
    rule = QuadratureRule.gauss_legendre(64)
    nodes, half = gauss_legendre_panels(np.linspace(interval.a, interval.b, panels + 1), rule)
    x = nodes.ravel()
    w = (half[:, None] * rule.weights[None, :]).ravel()
    f = np.asarray(pdf(x), dtype=float)
    if np.any(f < -1e-12):
        raise DomainError("pdf must be nonnegative on the interval")
    coeffs = basis_matrix(interval, terms, x) @ (w * f)
    return CosineSeries(interval, coeffs)


def eval_pdf(series: CosineSeries, x):
    """Partial-sum density; truncation can leave small negative lobes (kept)."""
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    _check_inside(x_arr, series.interval)
    out = series.coeffs @ basis_matrix(series.interval, series.terms, x_arr)
    return float(out[0]) if np.isscalar(x) else out


def eval_cdf(series: CosineSeries, x):
    """Term-by-term integral of the partial sum; 0 below a, 1 from b upward."""
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    interval = series.interval
    w = interval.width
    out = np.empty_like(x_arr)
    out[x_arr < interval.a] = 0.0
    out[x_arr >= interval.b] = 1.0
    inside = (x_arr >= interval.a) & (x_arr < interval.b)
    if np.any(inside):
        xi = x_arr[inside]
        k = np.arange(1, series.terms)[:, None]
        gamma_int = np.sqrt(2.0 * w) / (k * math.pi) * np.sin(k * math.pi * (xi[None, :] - interval.a) / w)
        total = series.coeffs[0] * (xi - interval.a) / math.sqrt(w)
        if series.terms > 1:
            total = total + series.coeffs[1:] @ gamma_int
        out[inside] = total
    return float(out[0]) if np.isscalar(x) else out


def series_to_json(series: CosineSeries) -> str:
    return json.dumps(
        {
            "a": series.interval.a,
            "b": series.interval.b,
            "coeffs": [float(c) for c in series.coeffs],
        }
    )

