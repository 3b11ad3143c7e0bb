"""Orthonormal cosine-series estimation of densities and CDFs on an interval.

Basis on [a, b]:

    gamma_0(x) = 1/sqrt(b-a),   gamma_k(x) = sqrt(2/(b-a)) cos(k pi (x-a)/(b-a))

with coefficients a_k = E[gamma_k(X)].  For k >= 1, |gamma_k| <= sqrt(2/(b-a)),
so a_k is a signed value that ``qamc.signed_ae_estimate`` can load with scale
sqrt(2/(b-a)).

The CDF estimate integrates the partial sum term by term and is clamped to
0 / 1 outside the interval.

No call holds a terms x points matrix.  The projection forms the basis
_TERM_BLOCK rows at a time over all its quadrature nodes, and the pdf and
CDF evaluators _POINT_BLOCK points at a time over all terms, so the basis
takes at most 16 x 1,408 values at the 128 terms of the pricing marginals
(176 KiB) and 128 x 128 values per evaluated block.  Each coefficient is
still one BLAS product over every node and each value one over every term,
so the blocks give the bits of the whole matrix.

The module computes and returns series and values and writes no file; the
command line writes each fitted series as ``density_<underlying>.json``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ValidationError
from .numerics import QuadratureRule, gauss_legendre_panels, read_only

# Basis rows per projection block and points per evaluation block.  Each is
# a multiple of 8, so a block starts on a boundary of the row groups (4 or 8
# wide) that BLAS matrix-vector kernels work in, and the blocked products keep
# the whole matrix's bits.
_TERM_BLOCK = 16
_POINT_BLOCK = 128

__all__ = [
    "Interval",
    "CosineSeries",
    "basis_matrix",
    "coeffs_classical",
    "eval_pdf",
    "eval_cdf",
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
    """The truncated series sum_k a_k gamma_k on ``interval``; ``coeffs`` is a read-only copy of the a_k given."""

    interval: Interval
    coeffs: np.ndarray

    def __post_init__(self):
        coeffs = read_only(self.coeffs)
        object.__setattr__(self, "coeffs", coeffs)
        if coeffs.ndim != 1 or coeffs.size < 1:
            raise ValidationError("coefficient vector must be 1-d and non-empty")
        if not np.all(np.isfinite(coeffs)):
            raise ValidationError("coefficients must be finite")

    @property
    def terms(self) -> int:
        return int(self.coeffs.size)


def _points(x) -> np.ndarray:
    """The evaluation points as an (at least 1-d) float array; a NaN is a DomainError."""
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    if np.isnan(x_arr).any():
        raise DomainError("x must not be NaN")
    return x_arr


def _check_inside(x_arr: np.ndarray, interval: Interval) -> None:
    if np.any(x_arr < interval.a - 1e-12) or np.any(x_arr > interval.b + 1e-12):
        raise DomainError("x outside the series interval")


def _blocks(count: int, size: int) -> list[slice]:
    """Slices of ``size`` items covering range(count), a one-item tail merged into the block before it.

    numpy takes a one-row matrix-vector product down the BLAS dot path,
    whose rounding differs from the matrix kernel's, so no block is one
    item long unless ``count`` is.
    """
    starts = list(range(0, count, size))
    if len(starts) > 1 and count - starts[-1] == 1:
        starts.pop()
    return [slice(start, stop) for start, stop in zip(starts, starts[1:] + [count])]


def basis_matrix(interval: Interval, terms: int, x: np.ndarray, first: int = 0) -> np.ndarray:
    """Rows gamma_first..gamma_{terms-1} evaluated at the points x (no range check)."""
    w = interval.width
    k = np.arange(first, terms)[:, None]
    mat = np.cos(k * math.pi * (x[None, :] - interval.a) / w) * math.sqrt(2.0 / w)
    if first == 0:
        mat[0, :] = 1.0 / math.sqrt(w)
    return mat


def coeffs_classical(pdf, interval: Interval, terms: int) -> CosineSeries:
    """Project a density onto the first ``terms`` basis functions by quadrature.

    The density is evaluated once on a composite 64-node Gauss-Legendre grid
    shared by every coefficient; the panel count, max(16, ceil(terms / 6)),
    scales with ``terms`` so the highest mode is fully resolved.  The basis
    is formed _TERM_BLOCK rows at a time.
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
    weighted = w * f
    coeffs = np.empty(terms)
    for rows in _blocks(terms, _TERM_BLOCK):
        coeffs[rows] = basis_matrix(interval, rows.stop, x, rows.start) @ weighted
    return CosineSeries(interval, coeffs)


def _by_blocks(values, x_arr: np.ndarray) -> np.ndarray:
    """``values`` of the points x_arr, taken _POINT_BLOCK points at a time in row-major order."""
    out = np.empty(x_arr.shape)
    flat, flat_out = x_arr.reshape(-1), out.reshape(-1)
    for block in _blocks(flat.size, _POINT_BLOCK):
        flat_out[block] = values(flat[block])
    return out


def eval_pdf(series: CosineSeries, x):
    """Partial-sum density; truncation can leave small negative lobes (kept).

    A point outside the interval or a NaN is a DomainError.
    """
    x_arr = _points(x)
    _check_inside(x_arr, series.interval)
    out = _by_blocks(lambda xb: series.coeffs @ basis_matrix(series.interval, series.terms, xb), x_arr)
    return float(out[0]) if np.isscalar(x) else out


def _cdf_block(series: CosineSeries, x: np.ndarray) -> np.ndarray:
    """The CDF at one block of points: the integral at each point clipped into [a, b], then 0 below a and 1 from b on."""
    interval = series.interval
    w = interval.width
    xi = np.clip(x, interval.a, interval.b)
    total = series.coeffs[0] * (xi - interval.a) / math.sqrt(w)
    if series.terms > 1:
        k = np.arange(1, series.terms)[:, None]
        gamma_int = np.sqrt(2.0 * w) / (k * math.pi) * np.sin(k * math.pi * (xi[None, :] - interval.a) / w)
        total = total + series.coeffs[1:] @ gamma_int
    total[x < interval.a] = 0.0
    total[x >= interval.b] = 1.0
    return total


def eval_cdf(series: CosineSeries, x):
    """Term-by-term integral of the partial sum; 0 below a, 1 from b upward.

    A NaN is a DomainError.
    """
    x_arr = _points(x)
    out = _by_blocks(lambda xb: _cdf_block(series, xb), x_arr)
    return float(out[0]) if np.isscalar(x) else out

