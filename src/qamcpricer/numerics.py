"""Special functions and quadrature primitives shared by every other module.

Provides the standard normal pdf/CDF/quantile (the NIG density takes its
Bessel K1 straight from scipy.special.k1e) and the package's one composite
Gauss-Legendre kernel: cached reference rules mapped onto arbitrary panel
edges.  All functions are pure and accept scalars or numpy arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np
from scipy import special as _special

from .errors import DomainError

__all__ = [
    "QuadratureRule",
    "std_normal_cdf",
    "std_normal_pdf",
    "std_normal_quantile",
    "gauss_legendre_panels",
    "integrate",
]


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights on the reference interval [-1, 1].

    Invariants: at least two nodes, strictly increasing nodes, strictly
    positive weights.
    """

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        if nodes.ndim != 1 or nodes.size < 2 or nodes.size != weights.size:
            raise DomainError("quadrature rule needs >= 2 matched nodes/weights")
        if not np.all(np.diff(nodes) > 0):
            raise DomainError("quadrature nodes must be strictly increasing")
        if not np.all(weights > 0):
            raise DomainError("quadrature weights must be strictly positive")

    @classmethod
    @lru_cache(maxsize=None)
    def gauss_legendre(cls, n: int) -> "QuadratureRule":
        """The n-point Gauss-Legendre rule, computed once per n and read-only."""
        nodes, weights = np.polynomial.legendre.leggauss(n)
        nodes.setflags(write=False)
        weights.setflags(write=False)
        return cls(nodes, weights)


def gauss_legendre_panels(edges, rule: QuadratureRule) -> tuple[np.ndarray, np.ndarray]:
    """Map a reference rule onto every panel [edges[i], edges[i + 1]].

    Returns the nodes, shape (panels, n), and the panel half-widths: node
    (i, j) carries weight half[i] * rule.weights[j].  The weights stay
    factored so that a panel sum can read half[i] * (f[i] @ rule.weights),
    the rounding of a single-panel rule.
    """
    edges = np.asarray(edges, dtype=float)
    left, right = edges[:-1], edges[1:]
    half = 0.5 * (right - left)
    mid = 0.5 * (right + left)
    return mid[:, None] + half[:, None] * rule.nodes[None, :], half


def std_normal_pdf(x):
    x_arr = np.asarray(x, dtype=float)
    out = np.exp(-0.5 * x_arr * x_arr) / np.sqrt(2.0 * np.pi)
    return float(out) if np.isscalar(x) else out


def std_normal_cdf(x):
    """Standard normal CDF via the complementary error function."""
    x_arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x_arr)):
        raise DomainError("std_normal_cdf requires finite input")
    out = _special.ndtr(x_arr)
    return float(out) if np.isscalar(x) else out


def std_normal_quantile(u):
    """Inverse standard normal CDF.

    Rational approximation followed by one Halley refinement step against
    the CDF, guaranteeing |cdf(quantile(u)) - u| <= 1e-12 on (0, 1).
    """
    u_arr = np.asarray(u, dtype=float)
    if not np.all(np.isfinite(u_arr)) or np.any(u_arr <= 0.0) or np.any(u_arr >= 1.0):
        raise DomainError("std_normal_quantile requires u in (0, 1)")
    x = _special.ndtri(u_arr)
    pdf = std_normal_pdf(x)
    resid = _special.ndtr(x) - u_arr
    with np.errstate(divide="ignore", invalid="ignore"):
        newton = np.where(pdf > 0.0, resid / np.where(pdf > 0.0, pdf, 1.0), 0.0)
        x = x - newton / (1.0 + 0.5 * x * newton)
    return float(x) if np.isscalar(u) else x


def integrate(
    f: Callable[[np.ndarray], np.ndarray],
    interval: tuple[float, float],
    panels: int = 8,
) -> float:
    """Fixed-rule quadrature of ``f`` over ``interval``.

    The 64-node Gauss-Legendre rule is mapped affinely onto each of
    ``panels`` equal sub-intervals, so the result is deterministic.  ``f`` is
    called once, on a 1-d numpy array of every panel's abscissae.
    """
    lo, hi = float(interval[0]), float(interval[1])
    if not (np.isfinite(lo) and np.isfinite(hi)) or lo >= hi:
        raise DomainError(f"integration interval must satisfy lo < hi, got [{lo}, {hi}]")
    if panels < 1:
        raise DomainError("panels must be >= 1")
    rule = QuadratureRule.gauss_legendre(64)

    x, half = gauss_legendre_panels(np.linspace(lo, hi, panels + 1), rule)
    values = np.asarray(f(x.ravel()), dtype=float).reshape(x.shape)
    total = 0.0
    # Panel by panel, so the sum keeps the rounding of the per-panel rule.
    for h, row in zip(half, values):
        total += h * float(np.dot(rule.weights, row))
    return float(total)
