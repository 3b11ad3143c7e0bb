"""Multi-asset payoffs, the shared pricing grid measure, and classical Monte Carlo.

Classical and quantum estimators price against one discretization: per-asset
midpoint cells on the marginal support with cell mass pdf(midpoint)*dx
(clipped at zero, normalized), coupled through copula weights at the node CDF
values.  The Riemann reference

    V = DF * sum_j [prod_i p_i(j_i)] c(F_1(x_j1),...,F_N(x_jN)) h(s(x_j))

is the common estimand, so estimator error can be studied without mixing in
discretization error.  A (payoff, marginals, copula, grid) has one measure,
and the pricing grid keeps the last one built on it (PricingGrid.measure):
the Riemann sum, CMC and QAMC given those ingredients and that grid share
one build, and other ingredients build a new measure that replaces it.

The measure keeps per-axis factors only.  Its node tensors (the copula
weights, the payoff values and the masses) are formed in slabs of whole
leading-axis rows and reduced to the scalars the Riemann sum and QAMC read,
and to each slab's total mass, so no node-sized tensor is held: the
Riemann, QAMC and joint CMC prices of d=4 at 2^6 cells per axis (2^24
nodes) peak below 16 MiB.  Each node tensor is a leading-axis factor
combined with one table over the trailing axes 1..d-1, one leading row in
size: the copula exponent's (copula.trailing_exponent), the masses'
p_1 (x) ... (x) p_{d-1} (_mass_table) and the payoff's (_payoff_table).  A
build forms each table once, and a joint draw its exponent and mass tables
once per call, and hands them to every slab; no measure keeps one.  So a
slab's weights cost its leading terms, one add of the table and one exp,
its masses one scaled copy of the mass table per leading row, and its
payoff one broadcast add (or min) of the table.  At d <= 2 the tables give
the left-to-right arithmetic bit for bit; at d >= 3 the weights, the masses
and a basket's values regroup it, within the rounding of a reordered sum
or product.

CMC draws nodes of that same measure, in either formulation: joint sampling
of the copula-weighted cell masses, or independent marginals with the copula
weight moved into the payoff.  Its estimate is unbiased for the reference.
Draws are exact inverse-CDF draws, through a guide table once the draw is as
large as the table.  The joint draw is an indexed inversion in two stages
(Devroye 1986, ch. III): each uniform picks a slab by the slabs' total
masses, and then a cell by that slab's cumulative masses, which are formed
with the build's kernel and bits when a draw lands in the slab and dropped
after it.  The independent draw inverts each axis's masses in turn and folds
the axes into one flat node index.  CMC keeps only how often each node was
drawn, evaluates the payoff and the copula weight at those nodes alone, and
takes its mean and standard error from the (node, count) pairs.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, fields, is_dataclass
from functools import cached_property, reduce

import numpy as np
from numpy.random import Generator

from .copula import CopulaSpec, copula_weights_at, copula_weights_on_grid, grid_c_max, normal_scores, trailing_exponent
from .cosine_density import CosineSeries, Interval, coeffs_classical, eval_cdf, eval_pdf
from .errors import DomainError, ValidationError
from .market_data import MarketSlice
from .nig import ExpNIGModel, NIGParams, nig_pdf, support_interval
from .numerics import read_only

__all__ = [
    "Payoff",
    "AssetMarginal",
    "PricingGrid",
    "midpoint_cells",
    "GridMeasure",
    "PriceEstimate",
    "normalize_cell_masses",
    "count_grid_cells",
    "riemann_reference",
    "cmc_price",
]

logger = logging.getLogger(__name__)

PAYOFF_KINDS = ("basket-call", "worst-of-put", "spread-call")

# Largest negative cell mass a grid may lose to clipping before the truncated
# density is rejected as too far from a density to price or load.
_CLIP_BOUND = 1e-4

# Nodes per slab of the grid measure's reductions and of the joint sampler's
# second stage (whole leading-axis rows, at least one): a slab's tensors are
# 256 KiB, so joint CMC, which holds one slab's masses at a time, stays below
# a quarter of a node tensor at d=3, q=6, while a slab is large enough that
# the per-slab Python overhead is small next to its arithmetic.
_SLAB_NODES = 2**15

# Guide-table sampler: buckets per cell (so few buckets hold a CDF step) and
# uniforms per chunk (so a chunk's working arrays stay in cache).
_GUIDE_BUCKETS_PER_CELL = 16
_GUIDE_CHUNK = 2**14

# The largest double below 1: a uniform rescaled into a slab's interval is
# held below it, so that it lands on a cell of the slab.
_BELOW_ONE = np.nextafter(1.0, 0.0)


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


def _payoff_axes(payoff: Payoff, prices) -> list[np.ndarray]:
    """The price vectors, one per asset, checked and returned as the tensor grid's open axes (np.ix_ views).

    Each asset enters along its own axis, so ``_payoff_values`` of these
    axes, or of their leading-axis slabs, is the payoff at every node
    (prices[0][j_1], ..., prices[N-1][j_N]) by broadcasting, and no
    (nodes, N) array of price vectors is formed.
    """
    vectors = [np.asarray(vector, dtype=float) for vector in prices]
    payoff.check_assets(len(vectors))
    for vector in vectors:
        if vector.ndim != 1:
            raise DomainError("one price vector per asset required")
        if (vector <= 0.0).any():
            raise DomainError("asset prices must be positive")
    return list(np.ix_(*vectors))


def _payoff_table(payoff: Payoff, axes) -> np.ndarray | float:
    """The payoff's trailing table: what it takes from the per-asset price arrays ``axes[1:]``.

    A basket's is H = x_1 w + ... + x_{d-1} w, summed left to right from 0
    (w = 1/d); a worst-of's is min(x_1, ..., x_{d-1}), from +inf; a
    spread's is x_1.  On the tensor grid's open axes it spans the trailing
    axes only, one leading row in size, and every slab of the grid shares
    it.  At d = 1 it is the bare identity, 0 or +inf, which leaves x_0 w and
    x_0 exact.
    """
    if payoff.kind == "spread-call":
        return axes[1]
    if payoff.kind == "basket-call":
        weight = 1.0 / len(axes)
        return reduce(np.add, (axis * weight for axis in axes[1:]), 0.0)
    return reduce(np.minimum, axes[1:], math.inf)


def _payoff_values(payoff: Payoff, axes, table) -> np.ndarray:
    """The payoff of per-asset price arrays ``axes`` that broadcast together, given their ``_payoff_table``.

    The leading asset meets the table of the others: a basket is
    max((x_0 w + H) - K, 0), a worst-of max(K - min(x_0, min_{i>=1} x_i), 0)
    and a spread max((x_0 - x_1) - K, 0).  At d <= 2 this is the left-to-right
    sum; at d >= 3 a basket regroups it, within the rounding of a reordered
    sum, and a worst-of, whose min is exact, keeps its bits.  The tensor
    grid's open axes (or a slab of their leading rows) and the gathered
    prices of a set of nodes go through the same arithmetic node by node, so
    a node's payoff has the same bits either way.  The strike is taken off
    in place, so a slab of the grid writes one slab-sized array.
    """
    if payoff.kind == "spread-call":
        out = axes[0] - table
        out -= payoff.strike
    elif payoff.kind == "basket-call":
        out = axes[0] * (1.0 / len(axes)) + table
        out -= payoff.strike
    else:  # worst-of-put
        out = payoff.strike - np.minimum(axes[0], table)
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
    """Midpoints of 2^n equal cells per dimension on each marginal interval.

    The nodes are read-only copies of those given.  A grid keeps the last
    measure built on it (``measure``), so the estimators that are given a
    payoff, marginals and a copula on this grid share one build of their
    measure.  That slot is not a dataclass field: grids compare by their
    nodes and deltas alone.
    """

    nodes: tuple[np.ndarray, ...]
    deltas: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(read_only(arr) for arr in self.nodes))
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

    def measure(self, payoff: Payoff, marginals, spec: CopulaSpec) -> "GridMeasure":
        """The grid measure of these inputs on this grid: the one the grid holds if built for them, else a new build.

        Inputs are compared with the held measure's by value, by the rule of
        GridMeasure.check_inputs, so the same objects given again cost an
        identity check.  A new build replaces the held measure: the grid
        keeps one, and it goes with the grid.
        """
        held = self.__dict__.get("_measure")
        if held is None or held._mismatch(payoff, marginals, spec) is not None:
            held = GridMeasure.build(payoff, marginals, spec, self)
            self.__dict__["_measure"] = held
        return held


def _row_slabs(grid: PricingGrid):
    """Slices of whole leading-axis rows of about _SLAB_NODES nodes each, at least one row."""
    rows = grid.nodes[0].size
    step = max(1, _SLAB_NODES // (grid.total_nodes // rows))
    return (slice(start, start + step) for start in range(0, rows, step))


def _leading(vectors, rows: slice) -> list[np.ndarray]:
    """Per-axis arrays with the leading one cut to ``rows``: one slab's tensor-grid factors."""
    return [vectors[0][rows], *vectors[1:]]


def _mass_table(marginal_masses) -> np.ndarray | None:
    """T_p = p_1 (x) ... (x) p_{d-1}, multiplied left to right: the trailing axes' masses, or None at d = 1.

    It spans axes 1..d-1, one leading row in size, and every slab of the
    grid shares it.
    """
    return reduce(np.multiply.outer, marginal_masses[1:]) if len(marginal_masses) > 1 else None


def _weigh(weights: np.ndarray, leading: np.ndarray, table: np.ndarray | None) -> np.ndarray:
    """The masses prod(p_i) c of a slab, written over its copula weights ``weights``.

    ``leading`` is the slab's masses p_0 on the leading axis and ``table``
    the grid's _mass_table T_p.  Leading row i is multiplied by p_0[i] T_p,
    formed in one row-sized buffer, so no second slab-sized array is held
    and a node's mass is c (p_0 (p_1 ... p_{d-1})).  At d <= 2 this is the
    left-to-right product; at d >= 3 it regroups it, within the rounding of
    a reordered product.
    """
    if table is None:
        weights *= leading
        return weights
    row = np.empty(table.shape)
    for i, mass in enumerate(leading):
        np.multiply(table, mass, out=row)
        weights[i] *= row
    return weights


def _pairwise_sum(parts) -> float:
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
    whole leading-axis rows, each as the slab's leading factor combined with
    one trailing-axes table (the copula exponent's, the masses' and the
    payoff's, formed once per build and not kept), and reduces them to the
    Riemann sum, c_max, h_max and each slab's total mass (``slab_masses``).
    The copula-weighted total mass Q = E_ind[c], the sum of the slab masses,
    rescales the joint formulation; c_max, the largest of these same weights
    (grid_c_max), keeps the independent formulation's payoff
    h c / (h_max c_max) in [0, 1] node by node, with no slack.  Joint CMC
    (``draw_counts``) picks a slab by the slab masses and forms only the
    slabs its draws land in, off one exponent table and one mass table per
    call; on a one-slab grid it keeps that slab's cumulative masses, so a
    measure holds at most one slab of sampler state.  CMC evaluates h and c
    only at the cells it draws, with the slabs' kernels and bits.
    ``payoff``, ``marginals`` and ``spec`` are the inputs it was built for.
    The per-axis arrays and the slab masses are read-only copies of those
    given, so a measure cannot go stale under its inputs' value check.
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
    slab_masses: np.ndarray
    payoff_total: float

    def __post_init__(self):
        for name in ("marginal_masses", "scores", "prices"):
            object.__setattr__(self, name, tuple(read_only(vector) for vector in getattr(self, name)))
        object.__setattr__(self, "slab_masses", read_only(self.slab_masses))

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
        price_axes = _payoff_axes(payoff, prices)
        trailing = trailing_exponent(spec, scores)
        mass_table = _mass_table(marginal_masses)
        payoff_table = _payoff_table(payoff, price_axes)
        c_maxima, h_maxima, mass_sums, value_sums = [], [], [], []
        for rows in _row_slabs(grid):
            weights = copula_weights_on_grid(spec, _leading(scores, rows), trailing)
            c_maxima.append(grid_c_max(weights))
            masses = _weigh(weights, marginal_masses[0][rows], mass_table)
            mass_sums.append(np.sum(masses))
            values = _payoff_values(payoff, _leading(price_axes, rows), payoff_table)
            h_maxima.append(float(values.max()))
            masses *= values
            value_sums.append(np.sum(masses))
        return cls(
            payoff=payoff,
            marginals=tuple(marginals),
            spec=spec,
            grid=grid,
            marginal_masses=marginal_masses,
            scores=scores,
            prices=prices,
            discount_factor=_common_discount(marginals),
            c_max=max(c_maxima),
            payoff_max=max(h_maxima),
            slab_masses=mass_sums,
            payoff_total=_pairwise_sum(value_sums),
        )

    def reference_value(self) -> float:
        """Discounted Riemann sum over the shared measure."""
        return self.discount_factor * self.payoff_total

    def _mismatch(self, payoff: Payoff, marginals, spec: CopulaSpec, grid: PricingGrid | None = None) -> str | None:
        """The first input, by name, that the measure was not built for, compared by value; None if there is none.

        The grid is compared only when given.
        """
        for name, built, given in (("payoff", self.payoff, payoff), ("marginals", self.marginals, tuple(marginals)),
                                   ("copula", self.spec, spec), ("grid", self.grid, grid)):
            if given is not None and not _same(built, given):
                return name
        return None

    def check_inputs(self, payoff: Payoff, marginals, spec: CopulaSpec, grid: PricingGrid | None = None) -> None:
        """DomainError unless the measure was built for these inputs (and this grid, if given), compared by value."""
        name = self._mismatch(payoff, marginals, spec, grid)
        if name is not None:
            raise DomainError(f"measure built for another {name} than the one given")

    @property
    def copula_total_mass(self) -> float:
        """Q, the copula-weighted total mass: the sum of the slab masses that the joint sampler picks slabs by."""
        return _pairwise_sum(self.slab_masses)

    def _trailing_tables(self) -> tuple[np.ndarray, np.ndarray | None]:
        """The copula exponent's and the masses' trailing-axes tables, which every slab of the grid shares."""
        return trailing_exponent(self.spec, self.scores), _mass_table(self.marginal_masses)

    def _slab_cdf(self, rows: slice, tables=None) -> np.ndarray:
        """The normalized cumulative masses of the slab ``rows``, in row-major order.

        The masses are formed with the build's kernels and bits (its copula
        weights times the marginal masses by _weigh) off the grid's
        ``_trailing_tables`` ``tables``, formed here when not given, and
        cumulated in place.
        """
        trailing, mass_table = self._trailing_tables() if tables is None else tables
        weights = copula_weights_on_grid(self.spec, _leading(self.scores, rows), trailing)
        flat = _weigh(weights, self.marginal_masses[0][rows], mass_table).reshape(-1)
        return _normalize_cumulative(np.cumsum(flat, out=flat))

    @cached_property
    def _one_slab_cdf(self) -> np.ndarray:
        """A one-slab grid's cumulative masses (at most _SLAB_NODES nodes), formed on the first joint draw and kept."""
        return self._slab_cdf(next(_row_slabs(self.grid)))

    def draw_counts(self, count: int, rng: Generator) -> tuple[np.ndarray, np.ndarray]:
        """Joint CMC's draw of ``count`` nodes from the masses prod(p_i) c: the occupied nodes and their counts.

        Stage 1 picks each uniform's slab by the normalized cumulative slab
        masses, stage 2 the node within it (see ``_count_draws``).  On a
        one-slab grid this is count_grid_cells of the flat masses, with its
        counts and end state of ``rng``; on several slabs an index can
        differ from that single-stage draw only where a uniform lies within
        roundoff of a cell edge.  No array longer than min(count, nodes) plus
        one slab is held, and each occupied slab is formed at most once per
        chunk of uniforms.  The slabs share one copula exponent table and
        one mass table (``_trailing_tables``), formed once per call on
        several slabs.
        """
        slabs = list(_row_slabs(self.grid))
        row_nodes = self.grid.total_nodes // self.grid.shape[0]
        bounds = [rows.start * row_nodes for rows in slabs] + [self.grid.total_nodes]
        tables = None if len(slabs) == 1 else self._trailing_tables()

        def slab_cdf(slab: int) -> np.ndarray:
            return self._one_slab_cdf if tables is None else self._slab_cdf(slabs[slab], tables)

        edges = _normalize_cumulative(np.cumsum(self.slab_masses))
        return _count_draws(edges, bounds, slab_cdf, count, rng)

    def _gather(self, vectors, cells: np.ndarray) -> list[np.ndarray]:
        return [vector[index] for vector, index in zip(vectors, np.unravel_index(cells, self.grid.shape))]

    def payoff_at(self, cells: np.ndarray) -> np.ndarray:
        """h at the flat (row-major) node indices ``cells``: the payoff grid's entries there, bit for bit.

        The gathered prices are split into the leading asset and the payoff's
        trailing table of the others, as a slab's are.
        """
        prices = self._gather(self.prices, cells)
        return _payoff_values(self.payoff, prices, _payoff_table(self.payoff, prices))

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
    """Deterministic discounted Riemann price on the shared grid measure, the one ``grid`` holds for these inputs."""
    measure = grid.measure(payoff, marginals, spec)
    return PriceEstimate(measure.reference_value(), grid.total_nodes, stderr=0.0)


def _normalize_cumulative(cumulative: np.ndarray) -> np.ndarray:
    """Cumulative masses divided by their total, in place, with the last entry exactly 1."""
    cumulative /= cumulative[-1]
    cumulative[-1] = 1.0
    return cumulative


def _guide_buckets(cells: int) -> int:
    """The guide table's bucket count B for ``cells`` cells: a power of two, about _GUIDE_BUCKETS_PER_CELL per cell."""
    return 1 << (_GUIDE_BUCKETS_PER_CELL * cells - 1).bit_length()


def _guide_table(cdf: np.ndarray, draws: int) -> np.ndarray | None:
    """The guide table (Chen & Asau, 1974) of the normalized cumulative masses ``cdf``, for ``draws`` uniforms.

    [0, 1) is cut into a power of two B of equal buckets, so u*B and the
    bucket edges k/B are exact.  Entry k is the one index that every uniform
    in bucket k maps to, or -1 when a CDF step lies in the bucket and its
    uniforms are searched.  Fewer draws than buckets get None: binary search.
    """
    buckets = _guide_buckets(cdf.size)
    if buckets > draws:
        return None
    # Scaling by a power of two is exact, so comparisons against k/B and u*B keep their outcome.
    starts = np.searchsorted(cdf, np.arange(buckets + 1, dtype=float) / buckets, side="right")
    guide = starts[:-1]
    guide[guide != starts[1:]] = -1  # a step lies in the bucket: search there
    return guide


def _search(cdf: np.ndarray, guide: np.ndarray | None, u: np.ndarray) -> np.ndarray:
    """``np.searchsorted(cdf, u, side="right")``, through the guide table ``guide`` of ``cdf`` unless it is None.

    A uniform in a bucket that holds no CDF step takes that bucket's index,
    and only the others are searched.  ``cdf`` and ``u`` are only read.
    """
    if guide is None:
        return np.searchsorted(cdf, u, side="right")
    bucket = np.multiply(u, guide.size, out=np.empty(u.size, dtype=np.intp), casting="unsafe")  # floor: u >= 0
    idx = np.take(guide, bucket, mode="clip")  # bucket < B since u < 1
    misses = np.flatnonzero(idx < 0)
    if misses.size:
        idx[misses] = np.searchsorted(cdf, u[misses], side="right")
    return idx


def _chunk_size(count: int, cells: int) -> int:
    """Uniforms drawn at a time: at least _GUIDE_CHUNK and at least the cells, so a per-chunk count costs O(chunk)."""
    return min(count, max(_GUIDE_CHUNK, cells))


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


def _by_slab(u: np.ndarray, edges: np.ndarray):
    """Stage 1 of a two-stage draw: yield (slab, v) for each slab that uniforms of ``u`` fall in, in order.

    A uniform u picks the slab ``np.searchsorted(edges, u, side="right")``
    of the normalized cumulative slab masses ``edges``, so a slab of empty
    interval is never picked; v holds the slab's uniforms mapped onto
    [0, 1) as (u - start) / (end - start), held below 1.  ``u`` is sorted and
    rescaled in place.  On one slab, v is ``u`` itself.
    """
    if edges.size == 1:
        yield 0, u
        return
    u.sort()
    begin, start = 0, 0.0
    for slab, end in enumerate(np.searchsorted(u, edges)):  # the uniforms below each edge
        if end > begin:
            v = u[begin:end]
            v -= start
            v /= edges[slab] - start
            np.minimum(v, _BELOW_ONE, out=v)
            yield slab, v
        begin, start = end, edges[slab]


def _count_draws(edges: np.ndarray, bounds, slab_cdf, count: int, rng: Generator) -> tuple[np.ndarray, np.ndarray]:
    """Occupied cells and counts of ``count`` inverse-CDF draws taken in two stages: a slab, then a cell in it.

    This is indexed inversion (Devroye 1986, ch. III).  ``edges`` are the
    normalized cumulative slab masses; slab s holds the cells
    [bounds[s], bounds[s+1]) and ``slab_cdf(s)`` returns their normalized
    cumulative masses.  The uniforms are drawn in chunks, the same stream
    as one call; within a chunk each uniform picks its slab (``_by_slab``),
    and each occupied slab's cumulative masses are formed once per chunk
    and searched for its uniforms, through a guide table when they are at
    least as many as the table.  A slab's last cell of positive mass is the most a
    uniform rescaled to 1 reaches, so a cell of zero mass is never drawn.

    Cells come in ascending order.  A draw longer than one chunk is counted
    in a cell-sized vector (it is then longer than the cells); a shorter one
    is tallied slab by slab, so neither output is longer than
    min(count, cells).
    """
    cells = bounds[-1]
    chunk = _chunk_size(count, cells)
    uniforms = np.empty(chunk)
    totals = np.zeros(cells, dtype=np.intp) if count > chunk else None
    pieces = []
    held = None  # the slab whose cumulative masses (cdf) and guide table (guide, or None) are held
    for start in range(0, count, chunk):
        u = uniforms[: min(chunk, count - start)]
        rng.random(out=u)
        for slab, v in _by_slab(u, edges):
            if slab != held:
                cdf = guide = None  # let the previous slab go before the next is formed
                held, cdf = slab, slab_cdf(slab)
                guide = _guide_table(cdf, v.size)
            idx = _search(cdf, guide, v)
            first = bounds[slab]
            if totals is None:
                occupied, hits = _tally(idx, cdf.size)
                pieces.append((occupied + first, hits))
            else:
                totals[first : first + cdf.size] += np.bincount(idx, minlength=cdf.size)
    if totals is None:
        return np.concatenate([p[0] for p in pieces]), np.concatenate([p[1] for p in pieces])
    occupied = np.flatnonzero(totals)
    return occupied, totals[occupied]


def count_grid_cells(masses: np.ndarray, count: int, rng: Generator) -> tuple[np.ndarray, np.ndarray]:
    """Occupied cells and counts of ``count`` inverse-CDF draws from unnormalized masses.

    The counts of ``np.searchsorted(cdf, rng.random(count), side="right")``
    on the normalized cumulative masses, with its end state of ``rng``: the
    two-stage draw on one slab, counted chunk by chunk, so no array is longer
    than min(count, cells).  Cells ascend; a count below 1 is a DomainError.
    """
    if count < 1:
        raise DomainError(f"count must be >= 1, got {count}")
    cdf = _normalize_cumulative(np.cumsum(masses))
    return _count_draws(np.ones(1), [0, cdf.size], lambda slab: cdf, count, rng)


def _fold_draws(marginal_masses, count: int, rng: Generator) -> tuple[np.ndarray, np.ndarray]:
    """Occupied nodes and counts of ``count`` draws of each axis from its own masses, independently.

    Axis i inverts uniforms i*count to (i+1)*count - 1 of ``rng``, drawn in
    chunks, and is folded into one row-major flat index as it is drawn
    (flat = flat * n_i + index_i), so one draw-sized array is held.
    """
    flat = np.zeros(count, dtype=np.intp)
    for masses in marginal_masses:
        cdf = _normalize_cumulative(np.cumsum(masses))
        guide, chunk = _guide_table(cdf, count), _chunk_size(count, cdf.size)
        uniforms = np.empty(chunk)
        flat *= cdf.size
        for start in range(0, count, chunk):
            u = uniforms[: min(chunk, count - start)]
            rng.random(out=u)
            flat[start : start + u.size] += _search(cdf, guide, u)
    return _tally(flat, math.prod(masses.size for masses in marginal_masses))


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
    in two stages, a slab and then a cell in it (GridMeasure.draw_counts);
    the independent one draws each axis from its marginal masses and
    weights the payoff by the copula.  Either is unbiased for
    riemann_reference.  The draws are reduced to their occupied nodes and
    counts (the joint one counted chunk by chunk and slab by slab, the
    independent one from one flat index its axes are folded into), and the
    payoff and copula weight are evaluated at those nodes only; the mean and
    the ddof=1 standard error are count-weighted sums over them, so they
    equal np.mean and np.std(ddof=1) / sqrt(samples) of the gathered draws
    up to summation order.  Pass the prebuilt ``measure``, or the ``grid``
    whose measure of these inputs it prices (PricingGrid.measure: built on
    the first call and shared by the estimators that follow).  A measure
    built for another payoff, other marginals, another copula or another
    grid than the ones given is a DomainError.
    """
    if samples < 1:
        raise DomainError("samples must be >= 1")
    if formulation not in ("joint", "independent"):
        raise DomainError(f"unknown formulation {formulation!r}")
    if measure is None:
        if grid is None:
            raise DomainError("cmc_price needs a grid or a prebuilt measure")
        measure = grid.measure(payoff, marginals, spec)
    else:
        measure.check_inputs(payoff, marginals, spec, grid)
    if formulation == "joint":
        cells, counts = measure.draw_counts(samples, rng)
        values = measure.payoff_at(cells)
        values *= measure.copula_total_mass
    else:
        cells, counts = _fold_draws(measure.marginal_masses, samples, rng)
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
