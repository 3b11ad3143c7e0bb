"""Multi-asset payoffs, the shared pricing grid measure, and classical Monte Carlo.

Classical and quantum estimators price against one discretization: per-asset
midpoint cells on the marginal support with cell mass pdf(midpoint)*dx
(clipped at zero, normalized), coupled through copula weights at the node CDF
values.  The Riemann reference

    V = DF * sum_j [prod_i p_i(j_i)] c(F_1(x_j1),...,F_N(x_jN)) h(s(x_j))

is the common estimand, so estimator error can be studied without mixing in
discretization error.

CMC draws nodes of that same measure, in either formulation: joint sampling
of the copula-weighted cell masses, or independent marginals with the copula
weight moved into the payoff.  Its estimate is unbiased for the reference.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .copula import CopulaSpec, copula_weights_on_grid, grid_c_max
from .cosine_density import CosineSeries, eval_cdf, eval_pdf
from .errors import DomainError, ValidationError
from .market_data import MarketSlice
from .nig import ExpNIGModel, NIGParams, nig_cdf, nig_pdf, support_interval

__all__ = [
    "Payoff",
    "AssetMarginal",
    "PricingGrid",
    "GridMeasure",
    "PriceEstimate",
    "eval_payoff",
    "normalize_cell_masses",
    "sample_grid_indices",
    "riemann_reference",
    "cmc_price",
]

logger = logging.getLogger(__name__)

PAYOFF_KINDS = ("basket-call", "worst-of-put", "spread-call")

# Largest negative cell mass a grid may lose to clipping before the truncated
# density is rejected as too far from a density to price or load.
_CLIP_BOUND = 1e-4


@dataclass(frozen=True)
class Payoff:
    kind: str
    strike: float
    weights: tuple[float, ...] | None = None  # basket only; defaults to 1/N

    def __post_init__(self):
        if self.kind not in PAYOFF_KINDS:
            raise DomainError(f"unknown payoff kind {self.kind!r}")
        if self.strike < 0:
            raise DomainError("strike must be nonnegative")
        if self.weights is not None:
            if abs(sum(self.weights) - 1.0) > 1e-12:
                raise DomainError("basket weights must sum to 1")


def eval_payoff(payoff: Payoff, s):
    """Payoff at an asset-price vector (or an array of them, last axis = asset)."""
    s_arr = np.asarray(s, dtype=float)
    if np.any(s_arr <= 0.0):
        raise DomainError("asset prices must be positive")
    n = s_arr.shape[-1]
    if payoff.kind == "spread-call":
        if n != 2:
            raise DomainError("spread-call requires exactly 2 assets")
        out = np.maximum(s_arr[..., 0] - s_arr[..., 1] - payoff.strike, 0.0)
    elif payoff.kind == "basket-call":
        weights = np.full(n, 1.0 / n) if payoff.weights is None else np.asarray(payoff.weights)
        if weights.size != n:
            raise DomainError("weights length must match asset count")
        out = np.maximum(s_arr @ weights - payoff.strike, 0.0)
    else:  # worst-of-put
        out = np.maximum(payoff.strike - s_arr.min(axis=-1), 0.0)
    return float(out) if s_arr.ndim == 1 else out


@dataclass(frozen=True)
class AssetMarginal:
    """One asset's terminal log-return law plus the price mapping.

    With a cosine ``series`` the pdf/cdf come from the truncated expansion
    (the law every estimator shares in the studies); otherwise the exact NIG
    density and quadrature CDF are used.
    """

    params: NIGParams
    slice_: MarketSlice
    series: CosineSeries | None = None
    tail_eps: float = 1e-5

    @cached_property
    def interval(self) -> tuple[float, float]:
        if self.series is not None:
            return (self.series.interval.a, self.series.interval.b)
        return support_interval(self.params, self.slice_.expiry, self.tail_eps)

    @cached_property
    def model(self) -> ExpNIGModel:
        return ExpNIGModel(self.params, self.slice_)

    def pdf(self, x):
        if self.series is not None:
            return eval_pdf(self.series, np.clip(x, *self.interval))
        return nig_pdf(x, self.params, self.slice_.expiry)

    def cdf(self, x):
        if self.series is not None:
            return eval_cdf(self.series, x)
        return nig_cdf(x, self.params, self.slice_.expiry)

    def price_at(self, x):
        return self.model.price_at(x)


def normalize_cell_masses(raw) -> tuple[np.ndarray, float]:
    """Clip negative cell masses to zero and normalize: the one negative-mass policy.

    Returns the normalized masses and the clipped mass.  Raises
    ValidationError when the clipped mass reaches 1e-4 and DomainError
    when no mass is left.
    """
    raw = np.asarray(raw, dtype=float)
    if raw.ndim != 1:
        raise DomainError("cell masses must be a flat vector")
    clipped = np.clip(raw, 0.0, None)
    lost = float(np.sum(clipped - raw))
    if lost >= _CLIP_BOUND:
        raise ValidationError(f"clipped mass {lost:.3e} exceeds the {_CLIP_BOUND:g} sanity bound")
    if lost > 0.0:
        logger.warning("clipped %.3e negative cell mass", lost)
    total = clipped.sum()
    if total <= 0.0:
        raise DomainError("all cell masses vanish")
    return clipped / total, lost


def _common_discount(marginals: list[AssetMarginal]) -> float:
    # Tolerance absorbs per-asset regression roundoff in the stripped curves
    # while still catching genuinely different discounting.
    dfs = [m.slice_.discount_factor for m in marginals]
    if max(dfs) - min(dfs) > 1e-9:
        raise ValidationError("marginals must share one discount curve")
    return dfs[0]


@dataclass(frozen=True)
class PricingGrid:
    """Midpoints of 2^n equal cells per dimension on each marginal interval."""

    nodes: tuple[np.ndarray, ...]
    deltas: tuple[float, ...]
    qubits_per_dim: tuple[int, ...]

    def __post_init__(self):
        for arr in self.nodes:
            if arr.size < 1 or (arr.size > 1 and not np.all(np.diff(arr) > 0)):
                raise ValidationError("grid nodes must be strictly increasing")

    @classmethod
    def build(cls, marginals: list[AssetMarginal], qubits_per_dim: int | list[int]) -> "PricingGrid":
        if isinstance(qubits_per_dim, int):
            qubits = [qubits_per_dim] * len(marginals)
        else:
            qubits = list(qubits_per_dim)
        nodes = []
        deltas = []
        for marginal, n in zip(marginals, qubits):
            if n < 1:
                raise ValidationError("need at least one qubit per dimension")
            a, b = marginal.interval
            count = 2**n
            dx = (b - a) / count
            nodes.append(a + dx * (np.arange(count) + 0.5))
            deltas.append(dx)
        return cls(tuple(nodes), tuple(deltas), tuple(qubits))

    @property
    def dim(self) -> int:
        return len(self.nodes)

    @property
    def total_nodes(self) -> int:
        out = 1
        for arr in self.nodes:
            out *= arr.size
        return out


@dataclass(frozen=True)
class GridMeasure:
    """The shared discrete pricing measure plus cached payoff values.

    marginal_masses are normalized per dimension; copula_weights holds
    c(F(x)) at every node combination; payoff_values holds h(s(x)).  The
    copula-weighted total mass Q = E_ind[c] rescales the joint formulation;
    c_max, the bound of these same weights (grid_c_max), keeps the
    independent formulation's payoff h c / (h_max c_max) in [0, 1].
    ``payoff`` is the payoff the values were computed for.
    """

    payoff: Payoff
    grid: PricingGrid
    marginal_masses: tuple[np.ndarray, ...]
    copula_weights: np.ndarray
    payoff_values: np.ndarray
    discount_factor: float
    clipped_mass: float
    c_max: float

    @classmethod
    def build(
        cls,
        payoff: Payoff,
        marginals: list[AssetMarginal],
        spec: CopulaSpec,
        grid: PricingGrid,
    ) -> "GridMeasure":
        if len(marginals) != spec.dim or grid.dim != spec.dim:
            raise DomainError("dimension mismatch between marginals, spec, and grid")
        masses = []
        clipped_total = 0.0
        for marginal, nodes, dx in zip(marginals, grid.nodes, grid.deltas):
            p, clipped = normalize_cell_masses(np.asarray(marginal.pdf(nodes), dtype=float) * dx)
            masses.append(p)
            clipped_total += clipped
        cdf_values = [
            np.asarray(marginal.cdf(nodes), dtype=float)
            for marginal, nodes in zip(marginals, grid.nodes)
        ]
        weights = copula_weights_on_grid(spec, cdf_values)
        prices = [m.price_at(nodes) for m, nodes in zip(marginals, grid.nodes)]
        mesh = np.meshgrid(*prices, indexing="ij")
        payoff_vals = eval_payoff(payoff, np.stack(mesh, axis=-1))
        return cls(
            payoff=payoff,
            grid=grid,
            marginal_masses=tuple(masses),
            copula_weights=weights,
            payoff_values=payoff_vals,
            discount_factor=_common_discount(marginals),
            clipped_mass=clipped_total,
            c_max=grid_c_max(spec, weights),
        )

    @cached_property
    def independent_masses(self) -> np.ndarray:
        out = self.marginal_masses[0]
        for p in self.marginal_masses[1:]:
            out = np.multiply.outer(out, p)
        return out

    @cached_property
    def copula_total_mass(self) -> float:
        """Q = sum over nodes of prod(p_i) c: the joint-loading normalizer."""
        return float(np.sum(self.independent_masses * self.copula_weights))

    @cached_property
    def joint_masses(self) -> np.ndarray:
        return self.independent_masses * self.copula_weights / self.copula_total_mass

    @property
    def payoff_max(self) -> float:
        return float(self.payoff_values.max())

    def reference_value(self) -> float:
        """Discounted Riemann sum over the shared measure."""
        return self.discount_factor * float(
            np.sum(self.independent_masses * self.copula_weights * self.payoff_values)
        )


@dataclass(frozen=True)
class PriceEstimate:
    value: float
    estimator: str
    samples_or_queries: int
    stderr: float | None = None

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise ValidationError("estimate must be finite")
        if self.samples_or_queries <= 0:
            raise ValidationError("cost must be positive")


def riemann_reference(
    payoff: Payoff,
    marginals: list[AssetMarginal],
    spec: CopulaSpec,
    grid: PricingGrid,
) -> PriceEstimate:
    """Deterministic discounted Riemann price on the shared grid measure."""
    measure = GridMeasure.build(payoff, marginals, spec, grid)
    return PriceEstimate(
        value=measure.reference_value(),
        estimator="riemann",
        samples_or_queries=grid.total_nodes,
        stderr=0.0,
    )


def sample_grid_indices(prob: np.ndarray, count: int, rng: np.random.Generator) -> np.ndarray:
    """Inverse-CDF draws of ``count`` cell indices from normalized masses."""
    cdf = np.cumsum(prob)
    cdf[-1] = 1.0
    return np.searchsorted(cdf, rng.random(count), side="right")


def cmc_price(
    payoff: Payoff,
    marginals: list[AssetMarginal],
    spec: CopulaSpec,
    formulation: str,
    samples: int,
    rng: np.random.Generator,
    grid: PricingGrid | None = None,
    measure: GridMeasure | None = None,
) -> PriceEstimate:
    """Classical Monte Carlo over the nodes of the shared grid measure.

    The joint formulation draws nodes from the copula-weighted cell masses;
    the independent one draws each axis from its marginal masses and weights
    the payoff by the copula.  Either is unbiased for riemann_reference.
    Pass the prebuilt ``measure``, or the ``grid`` to build it on.  A
    measure built for another payoff is a DomainError.
    """
    if samples < 1:
        raise DomainError("samples must be >= 1")
    if formulation not in ("joint", "independent"):
        raise DomainError(f"unknown formulation {formulation!r}")
    if measure is None:
        if grid is None:
            raise DomainError("cmc_price needs a grid or a prebuilt measure")
        measure = GridMeasure.build(payoff, marginals, spec, grid)
    elif measure.payoff != payoff:
        raise DomainError(f"measure built for {measure.payoff}, not for {payoff}")
    if formulation == "joint":
        flat = measure.joint_masses.ravel()
        idx = sample_grid_indices(flat, samples, rng)
        draws = measure.payoff_values.ravel()[idx] * measure.copula_total_mass
    else:
        per_dim = [sample_grid_indices(p, samples, rng) for p in measure.marginal_masses]
        flat_idx = np.ravel_multi_index(per_dim, measure.payoff_values.shape)
        draws = measure.payoff_values.ravel()[flat_idx] * measure.copula_weights.ravel()[flat_idx]

    df = measure.discount_factor
    mean = float(np.mean(draws))
    stderr = float(np.std(draws, ddof=1) / math.sqrt(samples)) if samples > 1 else float("inf")
    return PriceEstimate(
        value=df * mean,
        estimator=f"cmc-{formulation}",
        samples_or_queries=samples,
        stderr=df * stderr,
    )
