"""Multi-asset payoffs, the shared pricing grid measure, and classical Monte Carlo.

Classical and quantum estimators price against one discretization: per-asset
midpoint cells on the marginal support with cell mass pdf(midpoint)*dx
(clipped at zero, normalized), coupled through copula weights at the node CDF
values.  The Riemann reference

    V = DF * sum_j [prod_i p_i(j_i)] c(F_1(x_j1),...,F_N(x_jN)) h(s(x_j))

is the common estimand, so estimator error can be studied without mixing in
discretization error.

The measure keeps per-axis factors only.  Its node tensors (the copula
weights, the payoff values and the masses) are formed in slabs of whole
leading-axis rows and reduced to the scalars the Riemann sum and QAMC read,
so no node-sized tensor is held: the Riemann and QAMC prices of d=4 at 2^6
cells per axis (2^24 nodes) peak below 16 MiB.

CMC draws nodes of that same measure, in either formulation: joint sampling
of the copula-weighted cell masses, or independent marginals with the copula
weight moved into the payoff.  Its estimate is unbiased for the reference.
Draws are exact inverse-CDF draws, through a guide table once the draw is as
large as the table.  The joint draw reads the measure's cumulative masses,
the one node-sized array, formed slab by slab on first use.  CMC keeps only
how often each node was drawn, evaluates the payoff and the copula weight at
those nodes alone, and takes its mean and standard error from the (node,
count) pairs, so the joint formulation holds no draw-sized array.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, fields, is_dataclass
from functools import cached_property, reduce

import numpy as np
from numpy.random import Generator

from .copula import CopulaSpec, copula_weights_at, copula_weights_on_grid, grid_c_max, normal_scores
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

# Nodes per slab of the grid measure's reductions (whole leading-axis rows,
# at least one): a slab's tensors are 256 KiB, so at d=3, q=6 the joint
# sampler's cumulative masses plus one slab's weights stay below 1.25 node
# tensors.
_SLAB_NODES = 2**15

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

    def check_assets(self, count: int) -> None:
        """DomainError unless the payoff is defined on ``count`` assets: at least 1, and exactly 2 for a spread."""
        if self.kind == "spread-call" and count != 2:
            raise DomainError(f"spread-call requires exactly 2 assets, got {count}")
        if count < 1:
            raise DomainError("a payoff needs at least 1 asset")


def eval_payoff(payoff: Payoff, prices) -> np.ndarray:
    """Payoff on the tensor grid of per-asset price vectors, one vector per asset.

    Entry (j_1, ..., j_N) is the payoff at (prices[0][j_1], ..., prices[N-1][j_N]).
    Each asset enters along its own axis and the payoff is combined by
    broadcasting, so no (nodes, N) array of price vectors is formed.
    """
    vectors = [np.asarray(vector, dtype=float) for vector in prices]
    payoff.check_assets(len(vectors))
    for vector in vectors:
        if vector.ndim != 1:
            raise DomainError("one price vector per asset required")
        if np.any(vector <= 0.0):
            raise DomainError("asset prices must be positive")
    return _combine_payoff(payoff, np.ix_(*vectors))


def _combine_payoff(payoff: Payoff, axes) -> np.ndarray:
    """The payoff of per-asset price arrays that broadcast together, one per asset.

    The tensor grid's open axes (np.ix_) and the gathered prices of a set of
    nodes go through the same arithmetic node by node, so a node's payoff has
    the same bits either way.
    """
    if payoff.kind == "spread-call":
        out = axes[0] - axes[1] - payoff.strike
    elif payoff.kind == "basket-call":  # the equal-weight mean
        weight = 1.0 / len(axes)
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
    when a mass is NaN or infinite or no mass is left.
    """
    raw = np.asarray(raw, dtype=float)
    if raw.ndim != 1:
        raise DomainError("cell masses must be a flat vector")
    if not np.all(np.isfinite(raw)):
        raise DomainError("cell masses must be finite")
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
    def shape(self) -> tuple[int, ...]:
        return tuple(arr.size for arr in self.nodes)

    @property
    def total_nodes(self) -> int:
        return math.prod(self.shape)


def _row_slabs(grid: PricingGrid):
    """Slices of whole leading-axis rows of about _SLAB_NODES nodes each, at least one row."""
    rows = grid.nodes[0].size
    step = max(1, _SLAB_NODES // (grid.total_nodes // rows))
    return (slice(start, start + step) for start in range(0, rows, step))


def _leading(vectors, rows: slice) -> list[np.ndarray]:
    """Per-axis vectors with the leading one cut to ``rows``: one slab's tensor-grid factors."""
    return [vectors[0][rows], *vectors[1:]]


def _outer_product(factors, out=None) -> np.ndarray:
    """prod_i factors[i] on their tensor grid, formed as reduce(np.multiply.outer, factors), into ``out`` if given."""
    return np.multiply.outer(reduce(np.multiply.outer, factors[:-1], 1.0), factors[-1], out=out)


def _pairwise_sum(parts: list) -> float:
    """The slab sums added by halving, as numpy's pairwise sum splits a contiguous array.

    Over equal power-of-two slabs of a power-of-two grid this is one np.sum
    over every node, bit for bit; otherwise it differs from it at roundoff.
    """
    if len(parts) == 1:
        return float(parts[0])
    half = len(parts) // 2
    return _pairwise_sum(parts[:half]) + _pairwise_sum(parts[half:])


def _same(a, b) -> bool:
    """Value equality of inputs that may hold arrays: dataclasses field by field, sequences item by item."""
    if a is b:
        return True
    if type(a) is not type(b):
        return False
    if isinstance(a, np.ndarray):
        return a.shape == b.shape and bool(np.array_equal(a, b))
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if is_dataclass(a):
        return all(_same(getattr(a, f.name), getattr(b, f.name)) for f in fields(a))
    return bool(a == b)


@dataclass(frozen=True)
class GridMeasure:
    """The shared discrete pricing measure: per-axis factors and the scalars the estimators read.

    marginal_masses are normalized per dimension; scores and prices are each
    axis's normal scores Phi^{-1}(F(x)) and prices s(x).  The node tensors
    they span (the copula weights c, the payoff h and the masses
    prod(p_i) c) are never held whole: ``build`` forms them slab by slab of
    whole leading-axis rows, each by broadcasting the slab's factors, and
    reduces them to the Riemann sum, Q, c_max and h_max.  The
    copula-weighted total mass Q = E_ind[c] rescales the joint formulation;
    c_max, the largest of these same weights (grid_c_max), keeps the
    independent formulation's payoff h c / (h_max c_max) in [0, 1] node by
    node, with no slack.  The one node-sized array a measure may hold is
    the joint CMC sampler's cumulative masses (``joint_cdf``), formed on
    first read.  CMC evaluates h and c only at the cells it draws, with the
    slabs' kernels and bits.  ``payoff``, ``marginals`` and ``spec`` are
    the inputs it was built for.
    """

    payoff: Payoff
    marginals: tuple[AssetMarginal, ...]
    spec: CopulaSpec
    grid: PricingGrid
    marginal_masses: tuple[np.ndarray, ...]
    scores: tuple[np.ndarray, ...]
    prices: tuple[np.ndarray, ...]
    discount_factor: float
    c_max: float
    payoff_max: float
    copula_total_mass: float
    payoff_total: float

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
        marginal_masses = [
            normalize_cell_masses(np.asarray(marginal.pdf(nodes), dtype=float) * dx)[0]
            for marginal, nodes, dx in zip(marginals, grid.nodes, grid.deltas)
        ]
        scores = normal_scores([m.cdf(nodes) for m, nodes in zip(marginals, grid.nodes)])
        prices = [np.asarray(m.price_at(nodes), dtype=float) for m, nodes in zip(marginals, grid.nodes)]
        c_maxima, h_maxima, mass_sums, value_sums = [], [], [], []
        for rows in _row_slabs(grid):
            weights = copula_weights_on_grid(spec, _leading(scores, rows))
            c_maxima.append(grid_c_max(weights))
            masses = _outer_product(_leading(marginal_masses, rows))
            masses *= weights
            del weights
            mass_sums.append(np.sum(masses))
            values = eval_payoff(payoff, _leading(prices, rows))
            h_maxima.append(float(values.max()))
            masses *= values
            value_sums.append(np.sum(masses))
        return cls(
            payoff=payoff,
            marginals=tuple(marginals),
            spec=spec,
            grid=grid,
            marginal_masses=tuple(marginal_masses),
            scores=tuple(scores),
            prices=tuple(prices),
            discount_factor=_common_discount(marginals),
            c_max=max(c_maxima),
            payoff_max=max(h_maxima),
            copula_total_mass=_pairwise_sum(mass_sums),
            payoff_total=_pairwise_sum(value_sums),
        )

    def reference_value(self) -> float:
        """Discounted Riemann sum over the shared measure."""
        return self.discount_factor * self.payoff_total

    def check_inputs(self, payoff: Payoff, marginals, spec: CopulaSpec, grid: PricingGrid | None = None) -> None:
        """DomainError unless the measure was built for these inputs (and this grid, if given), compared by value."""
        for name, built, given in (("payoff", self.payoff, payoff), ("marginals", self.marginals, tuple(marginals)),
                                   ("copula", self.spec, spec), ("grid", self.grid, grid)):
            if given is not None and not _same(built, given):
                raise DomainError(f"measure built for another {name} than the one given")

    @cached_property
    def joint_cdf(self) -> np.ndarray:
        """The normalized cumulative masses prod(p_i) c in row-major node order, which joint CMC draws from.

        The one node-sized array a measure holds, formed slab by slab on
        first read.  Each slab's masses are written into their part of the
        array, and the previous slab's last cumulative value is added to the
        slab's first mass before its cumsum, which is the step the running
        sum takes there: the result is np.cumsum over all nodes bit for bit.
        """
        cdf = np.empty(self.grid.total_nodes)
        start, carry = 0, 0.0
        for rows in _row_slabs(self.grid):
            factors = _leading(self.marginal_masses, rows)
            piece = cdf[start : start + math.prod(f.size for f in factors)]
            masses = _outer_product(factors, out=piece.reshape([f.size for f in factors]))
            masses *= copula_weights_on_grid(self.spec, _leading(self.scores, rows))
            piece[0] += carry
            np.cumsum(piece, out=piece)
            start, carry = start + piece.size, piece[-1]
        return _normalize_cumulative(cdf)

    def _gather(self, vectors, cells: np.ndarray) -> list[np.ndarray]:
        return [vector[index] for vector, index in zip(vectors, np.unravel_index(cells, self.grid.shape))]

    def payoff_at(self, cells: np.ndarray) -> np.ndarray:
        """h at the flat (row-major) node indices ``cells``: the payoff grid's entries there, bit for bit."""
        return _combine_payoff(self.payoff, self._gather(self.prices, cells))

    def weights_at(self, cells: np.ndarray) -> np.ndarray:
        """c at the flat node indices ``cells``: the copula grid's entries there, bit for bit."""
        return copula_weights_at(self.spec, self._gather(self.scores, cells))


@dataclass(frozen=True)
class PriceEstimate:
    value: float
    samples_or_queries: int
    stderr: float

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
    return PriceEstimate(measure.reference_value(), grid.total_nodes, stderr=0.0)


def _normalize_cumulative(cumulative: np.ndarray) -> np.ndarray:
    """Cumulative masses divided by their total, in place, with the last entry exactly 1."""
    cumulative /= cumulative[-1]
    cumulative[-1] = 1.0
    return cumulative


def _index_chunks(cdf: np.ndarray, count: int, rng: Generator):
    """Yield ``np.searchsorted(cdf, rng.random(count), side="right")`` in order, in pieces.

    ``cdf`` is the normalized cumulative masses; it is read, never written.
    Below the guide threshold the binary search runs once and the whole draw
    is one piece.  When the draw is at least as large as the table, a guide
    table (Chen & Asau, 1974) replaces the search: [0, 1) is cut into a power
    of two B of equal buckets, so u*B and the bucket edges k/B are exact; a
    bucket holding no CDF step maps every uniform in it to one index, and
    only uniforms in a bucket that holds a step are searched.  The uniforms
    are then drawn in chunks, which is the same stream as one call, and each
    piece is a view of one reused buffer, valid until the next is yielded.
    A chunk is at least as long as the table, so a per-chunk count of cells
    costs O(chunk).
    """
    buckets = 1 << (_GUIDE_BUCKETS_PER_CELL * cdf.size - 1).bit_length()
    if buckets > count:
        yield np.searchsorted(cdf, rng.random(count), side="right")
        return
    # Scaling by a power of two is exact, so comparisons against k/B and u*B keep their outcome.
    starts = np.searchsorted(cdf, np.arange(buckets + 1, dtype=float) / buckets, side="right")
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
        np.multiply(u, buckets, out=b, casting="unsafe")  # truncation is floor here: u >= 0
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
    for idx in _index_chunks(_normalize_cumulative(np.cumsum(masses)), count, rng):
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
    return _count_cells(_normalize_cumulative(np.cumsum(masses)), count, rng)


def _count_cells(cdf: np.ndarray, count: int, rng: Generator) -> tuple[np.ndarray, np.ndarray]:
    """count_grid_cells on the normalized cumulative masses ``cdf``, which it only reads."""
    chunks = _index_chunks(cdf, count, rng)
    first = next(chunks)
    if first.size == count:  # one piece: the binary search, or a single chunk
        return _tally(first, cdf.size)
    counts = np.bincount(first, minlength=cdf.size)
    for idx in chunks:
        counts += np.bincount(idx, minlength=cdf.size)
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

    The joint formulation draws nodes from the copula-weighted cell masses
    (the measure's cumulative masses, formed on the first joint draw); the
    independent one draws each axis from its marginal masses and weights
    the payoff by the copula.  Either is unbiased for riemann_reference.
    The draws are reduced to their occupied nodes and counts (the joint one
    counted chunk by chunk, the independent one from its flat indices), and
    the payoff and copula weight are evaluated at those nodes only; the mean
    and the ddof=1 standard error are count-weighted sums over them, so they
    equal np.mean and np.std(ddof=1) / sqrt(samples) of the gathered draws
    up to summation order.  Pass the prebuilt ``measure``, or the ``grid``
    to build it on.  A measure built for another payoff, other marginals,
    another copula or another grid than the ones given is a DomainError.
    """
    if samples < 1:
        raise DomainError("samples must be >= 1")
    if formulation not in ("joint", "independent"):
        raise DomainError(f"unknown formulation {formulation!r}")
    if measure is None:
        if grid is None:
            raise DomainError("cmc_price needs a grid or a prebuilt measure")
        measure = GridMeasure.build(payoff, marginals, spec, grid)
    else:
        measure.check_inputs(payoff, marginals, spec, grid)
    if formulation == "joint":
        cells, counts = _count_cells(measure.joint_cdf, samples, rng)
        values = measure.payoff_at(cells)
        values *= measure.copula_total_mass
    else:
        per_dim = [sample_grid_indices(p, samples, rng) for p in measure.marginal_masses]
        cells, counts = _tally(np.ravel_multi_index(per_dim, measure.grid.shape), measure.grid.total_nodes)
        values = measure.payoff_at(cells)
        values *= measure.weights_at(cells)

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
    return PriceEstimate(df * mean, samples, stderr=df * stderr)
