"""Gaussian copula weights on the pricing grid and their bound c_max.

The copula density with correlation matrix Sigma is

    c(u) = det(Sigma)^{-1/2} exp(-z^T (Sigma^{-1} - I) z / 2),   z_i = Phi^{-1}(u_i),

which multiplies the product of marginals to form the joint density (Sklar).
Pricing under independent marginals weights the payoff by c(F_1,...,F_N):
the whole dependence structure rides on that multiplicative factor.  Every
estimator prices the grid measure, so c is evaluated by one kernel from the
normal scores z_i = Phi^{-1}(F_i) of each axis (normal_scores): on a tensor
grid of them (copula_weights_on_grid, which the grid measure calls slab by
slab) or at scattered grid nodes (copula_weights_at, for the cells a CMC
draw visits), with the same bits at a shared node.

With m = Sigma^{-1} - I (CopulaSpec.inv_minus_identity) and the terms
t_ij = z_i m_ij z_j, the exponent is split at the leading axis.  The
trailing table R, the row-major fold of t_ij over i, j >= 1, spans the
trailing axes only: it is one leading row in size, the same for every slab
of a grid, and trailing_exponent forms it once for all of them.  A slab adds
to it the leading part ((t00 + t01) + t10) + (t02 + t20) + ... + (t0k + tk0),
one broadcast write per axis k >= 2, and takes one exp.  At d <= 2 this is the
row-major fold of every term, bit for bit; at d >= 3 it is a regrouping of
it, whose weights differ from the fold's by the rounding of a reordered sum
only.  The factor -1/2 is folded into m, a scaling by a power of two, which
is exact.

c(u) is unbounded at the corners of the cube for any Sigma != I, so the
c_max that keeps the adjusted payoff h c / (h_max c_max) in [0, 1] is the
largest copula weight of the pricing grid in use.  Sigma = I needs no special
case: Sigma^{-1} - I is exactly 0 and det(I) exactly 1, so c is exactly 1.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import DomainError, ValidationError
from .numerics import read_only, std_normal_quantile

__all__ = [
    "CopulaSpec",
    "normal_scores",
    "trailing_exponent",
    "copula_weights_on_grid",
    "copula_weights_at",
    "grid_c_max",
    "load_correlation",
    "CLAMP_EPS",
]

logger = logging.getLogger(__name__)

CLAMP_EPS = 1e-12


@dataclass(frozen=True)
class CopulaSpec:
    """Correlation matrix with the kernel's matrix m = Sigma^{-1} - I and the determinant.

    Both matrices are read-only copies of those given.  Grid-level bounds
    of the density belong to a grid, not to the matrix:
    GridMeasure.build takes c_max as the largest weight it computes (grid_c_max).
    """

    sigma: np.ndarray
    inv_minus_identity: np.ndarray
    det: float

    def __post_init__(self):
        object.__setattr__(self, "sigma", read_only(self.sigma))
        object.__setattr__(self, "inv_minus_identity", read_only(self.inv_minus_identity))

    @classmethod
    def from_matrix(cls, sigma) -> "CopulaSpec":
        sigma = np.asarray(sigma, dtype=float)
        if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1]:
            raise ValidationError("correlation matrix must be square")
        if not np.allclose(sigma, sigma.T, atol=1e-12):
            raise ValidationError("correlation matrix must be symmetric")
        if not np.allclose(np.diag(sigma), 1.0, atol=1e-12):
            raise ValidationError("correlation matrix must have unit diagonal")
        try:
            np.linalg.cholesky(sigma)
        except np.linalg.LinAlgError as exc:
            raise ValidationError("correlation matrix must be positive definite") from exc
        return cls(sigma=sigma, inv_minus_identity=np.linalg.inv(sigma) - np.eye(len(sigma)),
                   det=float(np.linalg.det(sigma)))

    @property
    def dim(self) -> int:
        return self.sigma.shape[0]


def _clamped_unit(u: np.ndarray) -> np.ndarray:
    clipped = np.clip(u, CLAMP_EPS, 1.0 - CLAMP_EPS)
    moved = int(np.count_nonzero(clipped != u))
    if moved:
        logger.debug("clamped %d CDF values away from {0,1}", moved)
    return clipped


def normal_scores(unit_coords: list[np.ndarray]) -> list[np.ndarray]:
    """z_i = Phi^{-1}(u_i) for each coordinate array: what the copula density reads.

    CDF values exactly at 0 or 1 (truncated-CDF saturation) are clamped into
    the open cube with a diagnostic count.  The normal quantile runs once
    per array, so the scores of a grid's axes cost one quantile per axis
    point, not one per node.
    """
    return [std_normal_quantile(_clamped_unit(np.asarray(coords, dtype=float))) for coords in unit_coords]


def _half(spec: CopulaSpec) -> np.ndarray:
    """-m/2: scaling by -1/2 is exact, so the halved terms sum to the exponent -q/2 bit for bit."""
    return -0.5 * spec.inv_minus_identity


def _term(half: np.ndarray, z: list[np.ndarray], i: int, j: int) -> np.ndarray:
    return z[i] * half[i, j] * z[j]


def _trailing_sum(half: np.ndarray, z: list[np.ndarray]) -> np.ndarray:
    """The row-major left fold of the terms over i, j >= 1, or a zero when there are none (d = 1)."""
    if len(z) == 1:
        return np.zeros(np.shape(z[0]))
    return reduce(np.add, (_term(half, z, i, j) for i in range(1, len(z)) for j in range(1, len(z))))


def _density(spec: CopulaSpec, z: list[np.ndarray], trailing: np.ndarray) -> np.ndarray:
    """c at every point of the broadcast of the per-coordinate scores ``z``, given their trailing sum.

    ``trailing`` is _trailing_sum of the same scores, or a table that
    broadcasts against them as it would.  The leading terms are added as
    ((t00 + t01) + t10) + (t02 + t20) + ... + (t0k + tk0), each in the order
    written, and the trailing sum last; node by node the arithmetic is the
    same whatever the shapes, so a grid, a slab of it and a set of points
    give the same bits at a shared node.  At d = 2 this is the row-major fold
    of the four terms (the first two added as t01 + t00, the same sum).  At
    d >= 3 the leading terms span the leading axis and one other, so on a
    slab they are small until the last pair's broadcast write.
    """
    half = _half(spec)
    if len(z) == 1:
        exponent = _term(half, z, 0, 0)
    else:
        exponent = _term(half, z, 0, 1)
        exponent += _term(half, z, 0, 0)
        exponent += _term(half, z, 1, 0)
    for k in range(2, len(z)):
        pair = _term(half, z, 0, k) + _term(half, z, k, 0)
        # exponent + pair: a copy of the one, broadcast, plus the other in
        # place, so that numpy buffers one broadcast operand and not two.
        total = np.empty(np.broadcast_shapes(exponent.shape, pair.shape))
        np.copyto(total, exponent)
        total += pair
        exponent = total
    # exp(exponent) / sqrt(det), in place on the exponent.
    exponent += trailing
    np.exp(exponent, out=exponent)
    exponent /= math.sqrt(spec.det)
    return exponent


def _grid_axes(spec: CopulaSpec, scores: list[np.ndarray]) -> list[np.ndarray]:
    """Each axis's score vector along its own axis of the d-axis tensor grid."""
    if len(scores) != spec.dim:
        raise DomainError("one score vector per dimension required")
    z = []
    for axis, vector in enumerate(scores):
        vector = np.asarray(vector, dtype=float)
        view = [1] * spec.dim
        view[axis] = vector.size
        z.append(vector.reshape(view))
    return z


def trailing_exponent(spec: CopulaSpec, scores: list[np.ndarray]) -> np.ndarray:
    """The trailing table of the tensor grid of ``scores``: -1/2 the fold of t_ij over i, j >= 1.

    It spans axes 1..d-1 and has shape (1, n_1, ..., n_{d-1}), one leading
    row; the leading axis' scores are not read.  Every slab of the grid
    adds it to its leading terms (copula_weights_on_grid), so a grid measure
    forms it once and hands it to each slab.
    """
    z = _grid_axes(spec, [np.zeros(1), *scores[1:]])
    return _trailing_sum(_half(spec), z)


def copula_weights_on_grid(spec: CopulaSpec, scores: list[np.ndarray], trailing: np.ndarray) -> np.ndarray:
    """c on the tensor grid of per-dimension normal scores z_i = Phi^{-1}(F_i) (normal_scores).

    The quadratic form is summed by broadcasting the per-axis score vectors,
    so no (nodes, N) array of coordinates is formed.  A slab of a grid (some
    rows of its leading axis) is the grid of those rows' scores and the
    other axes' scores; ``trailing`` is those axes' trailing_exponent, which
    every slab of one grid shares.
    """
    z = _grid_axes(spec, scores)
    if trailing.shape != (1, *(axis.size for axis in z[1:])):
        raise DomainError("trailing table does not match the grid's trailing axes")
    return _density(spec, z, trailing)


def copula_weights_at(spec: CopulaSpec, scores: list[np.ndarray]) -> np.ndarray:
    """c(z_1[k],...,z_N[k]) for each k: the weights at scattered points, one score array per dimension.

    The arithmetic of copula_weights_on_grid, so the weight of a grid node
    is bit-equal to that grid's entry there.
    """
    scores = [np.asarray(vector, dtype=float) for vector in scores]
    if len(scores) != spec.dim or len({vector.shape for vector in scores}) != 1:
        raise DomainError("one score array per dimension required, all of one shape")
    return _density(spec, scores, _trailing_sum(_half(spec), scores))


def grid_c_max(weights: np.ndarray) -> float:
    """The largest of a grid's copula weights (copula_weights_on_grid).

    The independent formulation loads h c / (h_max c_max) node by node, and
    fl(h c) <= fl(h_max c_max) wherever h <= h_max and c <= c_max, so the
    loaded payoff lies in [0, 1] with no slack; for Sigma = I it is exactly 1.
    """
    weights = np.asarray(weights, dtype=float)
    if weights.size == 0:
        raise DomainError("grids must be non-empty")
    return float(weights.max())


def load_correlation(source, assets) -> CopulaSpec:
    """The CopulaSpec of ``assets``, in that order, from ``{"assets": [...], "sigma": [[...]]}``.

    ``source`` is that object or the path of a JSON file holding it.  The
    full matrix is validated before the assets' rows and columns are taken.
    A file that cannot be read as JSON, a missing key, a non-numeric matrix
    and an asset named twice, in the file or in ``assets``, are
    ValidationErrors.
    """
    if isinstance(source, dict):
        data = source
    else:
        try:
            with open(source) as handle:
                data = json.load(handle)
        except (OSError, ValueError) as exc:
            raise ValidationError(f"cannot read correlations {source}: {exc}") from exc
    if not isinstance(data, dict) or not isinstance(data.get("assets"), list) or "sigma" not in data:
        raise ValidationError('correlations need an "assets" list and a "sigma" matrix')
    names = data["assets"]
    try:
        sigma = np.asarray(data["sigma"], dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"correlation matrix must be numeric: {exc}") from exc
    full = CopulaSpec.from_matrix(sigma)
    if len(names) != full.dim:
        raise ValidationError("asset list length must match matrix dimension")
    for listed, message in ((names, "correlations name asset(s) {} more than once"),
                            (assets, "asset(s) {} asked for more than once")):
        repeated = [a for i, a in enumerate(listed) if a in listed[:i]]
        if repeated:
            raise ValidationError(message.format(repeated))
    uncorrelated = [a for a in assets if a not in names]
    if uncorrelated:
        raise ValidationError(f"no correlation entry for asset(s) {uncorrelated}")
    order = [names.index(a) for a in assets]
    return CopulaSpec.from_matrix(full.sigma[np.ix_(order, order)])
