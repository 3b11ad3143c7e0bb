"""The dense grid measure: every node tensor that GridMeasure reduces slab by slab, held whole.

It forms them the direct way, on the full axes: the copula weights from
every axis's normal scores, the payoff on the tensor grid of price vectors
(eval_payoff, which np.ix_ spreads over the grid), and prod(p_i) c by outer
products.  The tests hold the slab reductions, the slab masses, the joint
draw's counts and CMC against it.
"""

from dataclasses import dataclass
from functools import reduce

import numpy as np

from qamcpricer.copula import copula_weights_on_grid, normal_scores
from qamcpricer.pricing import AssetMarginal, GridMeasure, eval_payoff, sample_grid_indices


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
        weights = copula_weights_on_grid(measure.spec, normal_scores(cdfs))
        values = eval_payoff(measure.payoff, [m.price_at(nodes) for m, nodes in zip(measure.marginals, grid.nodes)])
        masses = reduce(np.multiply.outer, measure.marginal_masses) * weights
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
            draws = values[sample_grid_indices(self.masses.ravel(), samples, rng)]
            draws *= self.copula_total_mass
            return draws
        per_dim = [sample_grid_indices(p, samples, rng) for p in self.measure.marginal_masses]
        flat = np.ravel_multi_index(per_dim, self.payoff_values.shape)
        return values[flat] * self.weights.ravel()[flat]
