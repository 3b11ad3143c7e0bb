"""Special functions and quadrature primitives shared by every other module.

Provides the standard normal pdf/CDF/quantile, Horner's rule, and the
package's one composite Gauss-Legendre kernel: cached reference rules mapped
onto arbitrary panel edges.  All functions are pure and accept scalars or
numpy arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np
from numpy.polynomial import legendre

from .errors import DomainError

__all__ = [
    "QuadratureRule",
    "horner",
    "std_normal_cdf",
    "std_normal_pdf",
    "std_normal_quantile",
    "gauss_legendre_panels",
    "integrate",
]

_SQRT_HALF = math.sqrt(0.5)

# Wichura's AS 241 (PPND16, Appl. Statist. 37, 1988): the normal quantile at
# p <= 1/2 as a ratio of degree-7 polynomials (numerator, denominator; ascending
# powers) on three ranges: (p - 1/2) times the ratio in r = 0.180625 - (p - 1/2)^2
# where |p - 1/2| <= 0.425, else with s = sqrt(-log p), minus the ratio in
# s - 1.6 for s <= 5 and in s - 5 beyond.
_AS241_CENTRE = (
    (3.3871328727963666080e0, 1.3314166789178437745e2, 1.9715909503065514427e3, 1.3731693765509461125e4,
     4.5921953931549871457e4, 6.7265770927008700853e4, 3.3430575583588128105e4, 2.5090809287301226727e3),
    (1.0, 4.2313330701600911252e1, 6.8718700749205790830e2, 5.3941960214247511077e3,
     2.1213794301586595867e4, 3.9307895800092710610e4, 2.8729085735721942674e4, 5.2264952788528545610e3),
)
_AS241_NEAR = (
    (1.42343711074968357734e0, 4.63033784615654529590e0, 5.76949722146069140550e0, 3.64784832476320460504e0,
     1.27045825245236838258e0, 2.41780725177450611770e-1, 2.27238449892691845833e-2, 7.74545014278341407640e-4),
    (1.0, 2.05319162663775882187e0, 1.67638483018380384940e0, 6.89767334985100004550e-1,
     1.48103976427480074590e-1, 1.51986665636164571966e-2, 5.47593808499534494600e-4, 1.05075007164441684324e-9),
)
_AS241_FAR = (
    (6.65790464350110377720e0, 5.46378491116411436990e0, 1.78482653991729133580e0, 2.96560571828504891230e-1,
     2.65321895265761230930e-2, 1.24266094738807843860e-3, 2.71155556874348757815e-5, 2.01033439929228813265e-7),
    (1.0, 5.99832206555887937690e-1, 1.36929880922735805310e-1, 1.48753612908506148525e-2,
     7.86869131145613259100e-4, 1.84631831751005468180e-5, 1.42151175831644588870e-7, 2.04426310338993978564e-15),
)


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
        nodes, weights = legendre.leggauss(n)
        nodes.setflags(write=False)
        weights.setflags(write=False)
        return cls(nodes, weights)


def gauss_legendre_panels(edges, rule: QuadratureRule) -> tuple[np.ndarray, np.ndarray]:
    """Map a reference rule onto every panel [edges[i], edges[i + 1]].

    Returns the nodes, shape (panels, n), and the panel half-widths: node
    (i, j) carries weight half[i] * rule.weights[j].  The weights stay
    factored so that a panel sum can read half[i] * (f[i] @ rule.weights),
    the rounding of a single-panel rule.  Stacked edges, shape (..., edges),
    give nodes of shape (..., panels, n), each row as it would be alone.
    """
    edges = np.asarray(edges, dtype=float)
    left, right = edges[..., :-1], edges[..., 1:]
    half = 0.5 * (right - left)
    mid = 0.5 * (right + left)
    return mid[..., None] + half[..., None] * rule.nodes, half


def std_normal_pdf(x):
    x_arr = np.asarray(x, dtype=float)
    out = np.exp(-0.5 * x_arr * x_arr) / np.sqrt(2.0 * np.pi)
    return float(out) if np.isscalar(x) else out


def horner(coeffs, x):
    """sum_k coeffs[k] x^k by Horner's rule, from the highest power down.

    The coefficients may be scalars or arrays that broadcast against x.
    """
    acc = coeffs[-1] * x
    for c in coeffs[-2:0:-1]:
        acc += c
        acc *= x
    return acc + coeffs[0]


def _ndtr(x: float) -> float:
    # cephes' ndtr: erf near the centre, erfc in the tails, so that a tail
    # probability keeps its relative accuracy.
    t = x * _SQRT_HALF
    if abs(t) < _SQRT_HALF:
        return 0.5 + 0.5 * math.erf(t)
    tail = 0.5 * math.erfc(abs(t))
    return 1.0 - tail if t > 0.0 else tail


def std_normal_cdf(x):
    """Standard normal CDF via the error function and its complement."""
    x_arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x_arr)):
        raise DomainError("std_normal_cdf requires finite input")
    if np.isscalar(x):
        return _ndtr(float(x))
    return np.fromiter(map(_ndtr, x_arr.ravel().tolist()), float, x_arr.size).reshape(x_arr.shape)


def _lower_quantile_start(p: np.ndarray) -> np.ndarray:
    """AS 241 at p in (0, 1/2]: a start within about 1e-15 relative of the quantile."""
    q = p - 0.5
    r = 0.180625 - q * q
    centre = q * horner(_AS241_CENTRE[0], r) / horner(_AS241_CENTRE[1], r)
    s = np.sqrt(-np.log(p))
    near = horner(_AS241_NEAR[0], s - 1.6) / horner(_AS241_NEAR[1], s - 1.6)
    far = horner(_AS241_FAR[0], s - 5.0) / horner(_AS241_FAR[1], s - 5.0)
    return np.where(q >= -0.425, centre, -np.where(s <= 5.0, near, far))


def std_normal_quantile(u):
    """Inverse standard normal CDF.

    Wichura's AS 241 gives the start and one Halley step against the CDF
    refines it, guaranteeing |cdf(quantile(u)) - u| <= 1e-12 on (0, 1).  Both
    work in the lower tail min(u, 1 - u), so quantile(1 - u) = -quantile(u)
    wherever 1 - u is exact, and quantile(1/2) = 0.
    """
    u_arr = np.asarray(u, dtype=float)
    if not np.all(np.isfinite(u_arr)) or np.any(u_arr <= 0.0) or np.any(u_arr >= 1.0):
        raise DomainError("std_normal_quantile requires u in (0, 1)")
    lower = np.minimum(u_arr, 1.0 - u_arr)
    x = _lower_quantile_start(lower)
    pdf = std_normal_pdf(x)
    resid = std_normal_cdf(x) - lower
    with np.errstate(divide="ignore", invalid="ignore"):
        newton = np.where(pdf > 0.0, resid / np.where(pdf > 0.0, pdf, 1.0), 0.0)
        x = x - newton / (1.0 + 0.5 * x * newton)
    x = np.where(u_arr > 0.5, -x, x)
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
