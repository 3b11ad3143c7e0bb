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
Draws are exact inverse-CDF draws, through a guide table once the draw is as
large as the table.  CMC keeps only how often each node was drawn and takes
its mean and standard error from those (node, count) pairs, so the joint
formulation holds no draw-sized array.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np
from numpy.random import Generator

from .copula import CopulaSpec, copula_weights_on_grid, grid_c_max
from .cosine_density import CosineSeries, Interval, coeffs_classical, eval_cdf, eval_pdf
from .errors import DomainError, ValidationError
from .market_data import MarketSlice
from .nig import ExpNIGModel, NIGParams, nig_pdf, support_interval

__all__ = [
    "Payoff",
    "AssetMarginal",
    "PricingGrid",
    "midpoint_cells",
    "GridMeasure",
    "PriceEstimate",
    "eval_payoff",
    "normalize_cell_masses",
    "sample_grid_indices",
    "count_grid_cells",
    "riemann_reference",
    "cmc_price",
]

logger = logging.getLogger(__name__)

PAYOFF_KINDS = ("basket-call", "worst-of-put", "spread-call")

# Largest negative cell mass a grid may lose to clipping before the truncated
# density is rejected as too far from a density to price or load.
_CLIP_BOUND = 1e-4

# Guide-table sampler: buckets per cell (so few buckets hold a CDF step) and
# uniforms per chunk (so a chunk's working arrays stay in cache).
_GUIDE_BUCKETS_PER_CELL = 16
_GUIDE_CHUNK = 2**14


@dataclass(frozen=True)
class Payoff:
    kind: str
    strike: float

    def __post_init__(self):
        if self.kind not in PAYOFF_KINDS:
            raise DomainError(f"unknown payoff kind {self.kind!r}")
        if not 0 <= self.strike < math.inf:
            raise DomainError(f"strike must be finite and nonnegative, got {self.strike}")


def eval_payoff(payoff: Payoff, prices) -> np.ndarray:
    """Payoff on the tensor grid of per-asset price vectors, one vector per asset.

    Entry (j_1, ..., j_N) is the payoff at (prices[0][j_1], ..., prices[N-1][j_N]).
    Each asset enters along its own axis and the payoff is combined by
    broadcasting, so no (nodes, N) array of price vectors is formed.
    """
    n = len(prices)
    vectors = [np.asarray(vector, dtype=float) for vector in prices]
    for vector in vectors:
        if vector.ndim != 1:
            raise DomainError("one price vector per asset required")
        if np.any(vector <= 0.0):
            raise DomainError("asset prices must be positive")
    axes = np.ix_(*vectors)
    if payoff.kind == "spread-call":
        if n != 2:
            raise DomainError("spread-call requires exactly 2 assets")
        out = axes[0] - axes[1] - payoff.strike
    elif payoff.kind == "basket-call":  # the equal-weight mean
        weight = 1.0 / n
        total = axes[0] * weight
        for axis in axes[1:]:
            total = total + axis * weight
        out = total - payoff.strike
    else:  # worst-of-put
        worst = axes[0]
        for axis in axes[1:]:
            worst = np.minimum(worst, axis)
        out = payoff.strike - worst
    return np.maximum(out, 0.0, out=out)


@dataclass(frozen=True)
class AssetMarginal:
    """One asset's terminal log-return law plus the price mapping.

    The pdf and cdf are those of the truncated cosine ``series`` (the law
    every estimator shares); its interval is the marginal's support, outside
    which the pdf is a DomainError.
    """

    params: NIGParams
    slice_: MarketSlice
    series: CosineSeries

    @classmethod
    def fit(cls, params: NIGParams, slice_: MarketSlice, terms: int, tail_eps: float) -> "AssetMarginal":
        """The ``terms``-term cosine series of NIG(params) on the support that leaves ``tail_eps`` outside."""
        expiry = slice_.expiry
        interval = Interval(*support_interval(params, expiry, tail_eps))
        return cls(params, slice_, coeffs_classical(lambda x: nig_pdf(x, params, expiry), interval, terms))

    @property
    def interval(self) -> tuple[float, float]:
        return (self.series.interval.a, self.series.interval.b)

    @cached_property
    def model(self) -> ExpNIGModel:
        return ExpNIGModel(self.params, self.slice_)

    def pdf(self, x):
        return eval_pdf(self.series, x)

    def cdf(self, x):
        return eval_cdf(self.series, x)

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


def midpoint_cells(a: float, b: float, qubits: int) -> tuple[np.ndarray, float]:
    """Midpoints and width of the 2^qubits equal cells of [a, b]."""
    if qubits < 1:
        raise ValidationError("need at least one qubit per dimension")
    count = 2**qubits
    dx = (b - a) / count
    return a + dx * (np.arange(count) + 0.5), dx


@dataclass(frozen=True)
class PricingGrid:
    """Midpoints of 2^n equal cells per dimension on each marginal interval."""

    nodes: tuple[np.ndarray, ...]
    deltas: tuple[float, ...]

    def __post_init__(self):
        for arr in self.nodes:
            if arr.size < 1 or (arr.size > 1 and not np.all(np.diff(arr) > 0)):
                raise ValidationError("grid nodes must be strictly increasing")

    @classmethod
    def build(cls, marginals: list[AssetMarginal], qubits_per_dim: int) -> "PricingGrid":
        cells = [midpoint_cells(*marginal.interval, qubits_per_dim) for marginal in marginals]
        return cls(tuple(nodes for nodes, _ in cells), tuple(dx for _, dx in cells))

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
    c(F(x)) at every node combination; masses, prod(p_i) c formed on first
    read, is what the Riemann sum, Q and the joint CMC sampler read;
    payoff_values holds h(s(x)).  All three tensors are built from per-axis
    factors by broadcasting.  The copula-weighted total mass Q = E_ind[c]
    rescales the joint formulation; c_max, the largest of these same
    weights (grid_c_max), keeps the independent formulation's payoff
    h c / (h_max c_max) in [0, 1] node by node, with no slack.  ``payoff``
    is the payoff the values were computed for.
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
        marginal_masses = []
        clipped_total = 0.0
        for marginal, nodes, dx in zip(marginals, grid.nodes, grid.deltas):
            p, clipped = normalize_cell_masses(np.asarray(marginal.pdf(nodes), dtype=float) * dx)
            marginal_masses.append(p)
            clipped_total += clipped
        cdf_values = [
            np.asarray(marginal.cdf(nodes), dtype=float)
            for marginal, nodes in zip(marginals, grid.nodes)
        ]
        weights = copula_weights_on_grid(spec, cdf_values)
        payoff_values = eval_payoff(payoff, [m.price_at(nodes) for m, nodes in zip(marginals, grid.nodes)])
        return cls(
            payoff=payoff,
            grid=grid,
            marginal_masses=tuple(marginal_masses),
            copula_weights=weights,
            payoff_values=payoff_values,
            discount_factor=_common_discount(marginals),
            clipped_mass=clipped_total,
            c_max=grid_c_max(weights),
        )

    @cached_property
    def masses(self) -> np.ndarray:
        """prod(p_i) c at every node: the copula-weighted, unnormalized joint masses."""
        return reduce(np.multiply.outer, self.marginal_masses) * self.copula_weights

    @cached_property
    def copula_total_mass(self) -> float:
        """Q = sum over nodes of prod(p_i) c: the joint-loading normalizer."""
        return float(np.sum(self.masses))

    @property
    def payoff_max(self) -> float:
        return float(self.payoff_values.max())

    def reference_value(self) -> float:
        """Discounted Riemann sum over the shared measure."""
        return self.discount_factor * float(np.sum(self.masses * self.payoff_values))


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


def _index_chunks(masses: np.ndarray, count: int, rng: Generator):
    """Yield ``np.searchsorted(cdf, rng.random(count), side="right")`` in order, in pieces.

    ``cdf`` is the normalized cumulative masses.  Below the guide threshold
    the binary search runs once and the whole draw is one piece.  When the
    draw is at least as large as the table, a guide table (Chen & Asau, 1974)
    replaces the search: [0, 1) is cut into a power of two B of equal
    buckets, so u*B and the bucket edges are exact; a bucket holding no CDF
    step maps every uniform in it to one index, and only uniforms in a bucket
    that holds a step are searched.  The uniforms are then drawn in chunks,
    which is the same stream as one call, and each piece is a view of one
    reused buffer, valid until the next is yielded.  A chunk is at least as
    long as the table, so a per-chunk count of cells costs O(chunk).
    """
    cdf = np.cumsum(masses)
    cdf /= cdf[-1]
    cdf[-1] = 1.0
    buckets = 1 << (_GUIDE_BUCKETS_PER_CELL * cdf.size - 1).bit_length()
    if buckets > count:
        yield np.searchsorted(cdf, rng.random(count), side="right")
        return
    # Scaling by a power of two is exact, so comparisons against u*B keep their outcome.
    cdf *= buckets
    starts = np.searchsorted(cdf, np.arange(buckets + 1, dtype=float), side="right")
    guide = starts[:-1]
    guide[guide != starts[1:]] = -1  # a step lies in the bucket: search there
    chunk = min(count, max(_GUIDE_CHUNK, cdf.size))
    uniforms = np.empty(chunk)
    bucket = np.empty(chunk, dtype=np.intp)
    indices = np.empty(chunk, dtype=np.intp)
    for start in range(0, count, chunk):
        size = min(chunk, count - start)
        u, b, idx = uniforms[:size], bucket[:size], indices[:size]
        rng.random(out=u)
        u *= buckets
        np.copyto(b, u, casting="unsafe")  # truncation is floor here: u >= 0
        np.take(guide, b, out=idx, mode="clip")  # b < B since u < 1
        misses = np.flatnonzero(idx < 0)
        if misses.size:
            idx[misses] = np.searchsorted(cdf, u[misses], side="right")
        yield idx


def sample_grid_indices(masses: np.ndarray, count: int, rng: Generator) -> np.ndarray:
    """Inverse-CDF draws of ``count`` cell indices from unnormalized masses.

    Returns exactly ``np.searchsorted(cdf, rng.random(count), side="right")``
    for the normalized cumulative masses, and leaves ``rng`` where that call
    would; draws as large as the table go through a guide table instead of
    the binary search (see ``_index_chunks``).
    """
    out = np.empty(count, dtype=np.intp)
    start = 0
    for idx in _index_chunks(masses, count, rng):
        out[start : start + idx.size] = idx
        start += idx.size
    return out


def _tally(idx: np.ndarray, cells: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of ``idx`` (all in [0, cells)) in ascending order, and how often each occurs.

    Holds no array longer than min(idx.size, cells) elements, apart from a
    byte mask over ``idx`` when it sorts; sorts ``idx`` in place.
    """
    if cells <= idx.size:
        counts = np.bincount(idx, minlength=cells)
        occupied = np.flatnonzero(counts)
        return occupied, counts[occupied]
    idx.sort()
    bounds = np.flatnonzero(np.concatenate(([True], idx[1:] != idx[:-1], [True])))  # run starts, then the end
    return idx[bounds[:-1]], np.diff(bounds)


def count_grid_cells(masses: np.ndarray, count: int, rng: Generator) -> tuple[np.ndarray, np.ndarray]:
    """The draw of ``sample_grid_indices(masses, count, rng)`` as occupied cells and their counts.

    Same uniforms, same indices and the same end state of ``rng``; the cells
    come in ascending order and neither output is longer than
    min(count, cells).  Through the guide table each chunk is counted with
    one ``bincount``, so no draw-sized array is held.
    """
    chunks = _index_chunks(masses, count, rng)
    first = next(chunks)
    if first.size == count:  # one piece: the binary search, or a single chunk
        return _tally(first, masses.size)
    counts = np.bincount(first, minlength=masses.size)
    for idx in chunks:
        counts += np.bincount(idx, minlength=masses.size)
    occupied = np.flatnonzero(counts)
    return occupied, counts[occupied]


def cmc_price(
    payoff: Payoff,
    marginals: list[AssetMarginal],
    spec: CopulaSpec,
    formulation: str,
    samples: int,
    rng: Generator,
    grid: PricingGrid | None = None,
    measure: GridMeasure | None = None,
) -> PriceEstimate:
    """Classical Monte Carlo over the nodes of the shared grid measure.

    The joint formulation draws nodes from the copula-weighted cell masses;
    the independent one draws each axis from its marginal masses and weights
    the payoff by the copula.  Either is unbiased for riemann_reference.
    The draws are reduced to their occupied nodes and counts (the joint one
    counted chunk by chunk, the independent one from its flat indices); the
    mean and the ddof=1 standard error are count-weighted sums over those
    nodes, so they equal np.mean and np.std(ddof=1) / sqrt(samples) of the
    gathered draws up to summation order.  Pass the prebuilt ``measure``, or
    the ``grid`` to build it on.  A measure built for another payoff is a
    DomainError.
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
        cells, counts = count_grid_cells(measure.masses.ravel(), samples, rng)
        values = measure.payoff_values.ravel()[cells]
        values *= measure.copula_total_mass
    else:
        per_dim = [sample_grid_indices(p, samples, rng) for p in measure.marginal_masses]
        flat_idx = np.ravel_multi_index(per_dim, measure.payoff_values.shape)
        cells, counts = _tally(flat_idx, measure.payoff_values.size)
        values = measure.payoff_values.ravel()[cells]
        values *= measure.copula_weights.ravel()[cells]

    # Each draw of a cell takes that cell's value: the sample mean and the
    # ddof=1 variance are count-weighted sums over the occupied cells, the
    # variance centred on the mean in a second pass.  The counts go to float
    # once.  The sums are numpy sums, not BLAS dot products: a threaded BLAS
    # dot over some 10^4 cells leaves worker threads spinning after it
    # returns, and on a 2-vCPU host they made the next grid-measure build
    # twice as slow.
    weights = counts.astype(float)
    mean = float(np.sum(weights * values)) / samples
    if samples > 1:
        values -= mean
        np.square(values, out=values)
        values *= weights
        stderr = math.sqrt(float(np.sum(values)) / (samples - 1)) / math.sqrt(samples)
    else:
        stderr = float("inf")
    df = measure.discount_factor
    return PriceEstimate(
        value=df * mean,
        estimator=f"cmc-{formulation}",
        samples_or_queries=samples,
        stderr=df * stderr,
    )
