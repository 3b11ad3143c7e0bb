"""The one-matrix cosine projection and evaluators: the whole terms x points basis, held at once.

cosine_density forms the basis in blocks, so that no call holds a
terms x points matrix.  These are its arithmetic with the whole matrix
instead: one product over every term and point.  The tests hold the blocked
coefficients, pdf and CDF against them bit for bit.
"""

import math

import numpy as np

from qamcpricer.cosine_density import CosineSeries, Interval, basis_matrix
from qamcpricer.numerics import QuadratureRule, gauss_legendre_panels


def one_matrix_coeffs(pdf, interval: Interval, terms: int) -> np.ndarray:
    """coeffs_classical's projection with the whole terms x nodes basis in one product."""
    panels = max(16, math.ceil(terms / 6))
    rule = QuadratureRule.gauss_legendre(64)
    nodes, half = gauss_legendre_panels(np.linspace(interval.a, interval.b, panels + 1), rule)
    x = nodes.ravel()
    w = (half[:, None] * rule.weights[None, :]).ravel()
    f = np.asarray(pdf(x), dtype=float)
    return basis_matrix(interval, terms, x) @ (w * f)


def one_matrix_pdf(series: CosineSeries, x: np.ndarray) -> np.ndarray:
    """The partial-sum density at every point of the 1-d array x in one product."""
    return series.coeffs @ basis_matrix(series.interval, series.terms, x)


def one_matrix_cdf(series: CosineSeries, x: np.ndarray) -> np.ndarray:
    """The integrated partial sum at every point of the 1-d array x, all inside [a, b), in one product."""
    interval = series.interval
    w = interval.width
    k = np.arange(1, series.terms)[:, None]
    gamma_int = np.sqrt(2.0 * w) / (k * math.pi) * np.sin(k * math.pi * (x[None, :] - interval.a) / w)
    total = series.coeffs[0] * (x - interval.a) / math.sqrt(w)
    if series.terms > 1:
        total = total + series.coeffs[1:] @ gamma_int
    return total
