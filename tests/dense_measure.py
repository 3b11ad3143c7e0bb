"""The dense grid measure: every node tensor that GridMeasure reduces slab by slab, held whole.

It forms them the direct way, on the full axes: the copula weights from
every axis's normal scores, the payoff on the tensor grid of price vectors
(eval_payoff, which np.ix_ spreads over the grid), and prod(p_i) c by outer
products, grouped p_0 (x) (p_1 (x) ... (x) p_{d-1}) as the slabs group them.
The tests hold the slab reductions, the slab masses, the joint draw's
counts and CMC against it, its draws taken by plain binary search.
row_major_weights is the copula kernel's arithmetic before it split the
exponent at the leading axis.
"""

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from qamcpricer.copula import copula_weights_on_grid, normal_scores, trailing_exponent
from qamcpricer.pricing import AssetMarginal, GridMeasure, Payoff, _payoff_axes, _payoff_table, _payoff_values


def eval_payoff(payoff: Payoff, prices) -> np.ndarray:
    """Payoff on the whole tensor grid of per-asset price vectors, one vector per asset.

    Entry (j_1, ..., j_N) is the payoff at (prices[0][j_1], ..., prices[N-1][j_N]):
    the checks and arithmetic a measure build applies slab by slab, over
    every node at once.
    """
    axes = _payoff_axes(payoff, prices)
    return _payoff_values(payoff, axes, _payoff_table(payoff, axes))


@dataclass(frozen=True)
class FlatPriced(AssetMarginal):
    """A marginal whose price is ``level`` at every node, so a measure on it has a constant payoff."""

    level: float = 1.0

    def price_at(self, x):
        return np.full(np.shape(x), self.level)


def flat_priced(marginals, levels) -> list[FlatPriced]:
    """``marginals`` with their laws kept and each priced at its ``level`` everywhere."""
    return [FlatPriced(m.params, m.slice_, m.series, level) for m, level in zip(marginals, levels)]


@dataclass(frozen=True)
class DenseMeasure:
    measure: GridMeasure  # the slab-reduced measure whose per-axis factors it expands
    weights: np.ndarray
    payoff_values: np.ndarray
    masses: np.ndarray

    @classmethod
    def of(cls, measure: GridMeasure) -> "DenseMeasure":
        grid = measure.grid
        cdfs = [m.cdf(nodes) for m, nodes in zip(measure.marginals, grid.nodes)]
        scores = normal_scores(cdfs)
        weights = copula_weights_on_grid(measure.spec, scores, trailing_exponent(measure.spec, scores))
        values = eval_payoff(measure.payoff, [m.price_at(nodes) for m, nodes in zip(measure.marginals, grid.nodes)])
        head, *tail = measure.marginal_masses
        masses = (np.multiply.outer(head, reduce(np.multiply.outer, tail)) if tail else head) * weights
        return cls(measure, weights, values, masses)

    @property
    def copula_total_mass(self) -> float:
        return float(np.sum(self.masses))

    @property
    def reference_value(self) -> float:
        return self.measure.discount_factor * float(np.sum(self.masses * self.payoff_values))

    @property
    def c_max(self) -> float:
        return float(self.weights.max())

    @property
    def payoff_max(self) -> float:
        return float(self.payoff_values.max())

    def draws(self, formulation: str, samples: int, rng) -> np.ndarray:
        """CMC's undiscounted draws, gathered draw by draw from the same stream."""
        values = self.payoff_values.ravel()
        if formulation == "joint":
            draws = values[inverse_cdf_draws(self.masses.ravel(), samples, rng)]
            draws *= self.copula_total_mass
            return draws
        per_dim = [inverse_cdf_draws(p, samples, rng) for p in self.measure.marginal_masses]
        flat = np.ravel_multi_index(per_dim, self.payoff_values.shape)
        return values[flat] * self.weights.ravel()[flat]


def inverse_cdf_draws(masses, count: int, rng) -> np.ndarray:
    """``count`` cell indices drawn from unnormalized masses by one binary search of ``count`` uniforms.

    This is the contract the package's guide-table sampler promises, written
    without it: np.searchsorted on the cumulative masses over their total.
    """
    cdf = np.cumsum(masses)
    cdf /= cdf[-1]
    return np.searchsorted(cdf, rng.random(count), side="right")


def row_major_weights(spec, scores) -> tuple[np.ndarray, np.ndarray]:
    """c on the tensor grid of ``scores`` by the row-major fold of the exponent from zero, and the fold's magnitude.

    quad = 0 + z_0 m_00 z_0 + z_0 m_01 z_1 + ... in row-major (i, j) order,
    with m = Sigma^{-1} - I, then exp(-quad / 2) / sqrt(det).  The second
    array is sum |z_i m_ij z_j|, which bounds the rounding of any order of
    that sum.
    """
    z = []
    for axis, vector in enumerate(scores):
        view = [1] * len(scores)
        view[axis] = len(vector)
        z.append(np.asarray(vector, dtype=float).reshape(view))
    m = np.linalg.inv(spec.sigma) - np.eye(spec.dim)
    quad = np.zeros(tuple(len(vector) for vector in scores))
    magnitude = np.zeros_like(quad)
    for i in range(spec.dim):
        for j in range(spec.dim):
            term = z[i] * m[i, j] * z[j]
            quad += term
            magnitude += np.abs(term)
    return np.exp(-0.5 * quad) / math.sqrt(spec.det), magnitude


def regrouping_bound(spec, magnitude) -> np.ndarray:
    """The relative distance two summation orders of the exponent can put between their weights.

    Each order of the d^2 terms rounds by at most (d^2 - 1) u sum|t| (u the
    unit roundoff), the weight takes half the exponent's difference, and
    exp and the division add a few ulps on each side.
    """
    u = np.finfo(float).eps / 2
    return spec.dim**2 * u * magnitude + 8 * u


def reordering_bound(operands: int) -> float:
    """The relative distance two orders of a sum or a product of ``operands`` positive terms can put between them.

    Each order rounds operands - 1 times, so it lies within
    gamma_{n-1} = (n - 1) u / (1 - (n - 1) u) of the exact value, relative to
    the sum of the terms or to the exact product (Higham, Accuracy and
    Stability of Numerical Algorithms, 2002, sections 3.1 and 4.2), and the
    two orders within twice that of each other.  One rounding more, 2
    gamma_n, also covers measuring a product against either computed result
    and a sum against a computed sum of its terms.
    """
    u = np.finfo(float).eps / 2
    return 2 * operands * u / (1 - operands * u)
