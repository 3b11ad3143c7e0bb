"""Normal Inverse Gaussian distribution and the exponential-NIG asset model.

The NIG(alpha, beta, delta, mu) density is

    f(x) = (alpha delta / pi) exp(delta g + beta (x - mu))
           K1(alpha sqrt(delta^2 + (x - mu)^2)) / sqrt(delta^2 + (x - mu)^2),

with g = sqrt(alpha^2 - beta^2).  Time-t increments of the NIG Levy process
follow NIG(alpha, beta, delta*t, mu*t).  The exponential model prices the
asset as S(T) = S0 exp((r - q + omega) T + X(T)) where omega is the
martingale adjustment making the discounted asset a martingale.

European prices and the CDF are quadratures on an interval set by a
closed-form tail bound (the tests cross-check them with a Fourier-cosine
pricer and with a 4x refined 64-node quadrature).  The density is analytic
in x but at its branch points mu t +- i delta t.  Both use one mesh: the
interval's 24 equal panels, the payoff kinks or the CDF's query points,
and edges graded geometrically toward mu t (mu t and mu t +- delta t 2^k):
no panel off mu t is wider than twice its distance from it, so the branch
points lie outside every panel's Bernstein ellipse of parameter
rho = 2 + sqrt(3).  An n-node Gauss-Legendre rule then errs by O(rho^-2n)
per panel (Trefethen, Approximation Theory and Approximation Practice,
ch. 19), however narrow the law's core: rho^-2n is 5e-19 at 16 nodes and
2e-14 at 12.  Each kink or query point is an edge, so its integral is a
prefix or a suffix of the mesh's nodes, read at 16 nodes per panel below it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .errors import DomainError
from .numerics import QuadratureRule, gauss_legendre_panels, horner, integrate

if TYPE_CHECKING:  # pragma: no cover
    from .market_data import MarketSlice

__all__ = [
    "NIGParams",
    "ExpNIGModel",
    "kve",
    "nig_pdf",
    "nig_cdf",
    "martingale_adjustment",
    "nig_cumulants",
    "pricing_interval",
    "support_interval",
    "price_european_batch",
]

# The European pricer's mesh: _PRICING_PANELS equal panels on the pricing
# interval, graded toward the density's branch points (see _Mesh), with a
# _PRICING_NODES-node Gauss-Legendre rule on each.
_PRICING_PANELS, _PRICING_NODES = 24, 16
_PRICING_RULE = QuadratureRule.gauss_legendre(_PRICING_NODES)

# The most nodes one density pass of a stacked batch holds (a lone model's
# mesh may hold more): blocks of many laws stay small in memory.
_STACK_NODES = 7_200

_LOG_MAX_FLOAT = math.log(np.finfo(float).max)

# e^z K_nu(z) for z > 2 is read off a table: sqrt(z) e^z K_nu(z) as a
# degree-_BESSEL_DEGREE polynomial on each of _BESSEL_CELLS equal cells of
# w = 2/z in (0, 1).  Up to z = 2 the power series takes _BESSEL_TERMS terms.
# scipy.special.k0e and k1e are the tests' oracle.
_BESSEL_CELLS, _BESSEL_DEGREE, _BESSEL_TERMS = 64, 5, 12


def _bessel_table() -> np.ndarray:
    """Local coefficients of sqrt(z) e^z K_nu(z), shape (nu, power, cell).

    Cell j holds the polynomial in v in [0, 1], w = (j + v) / cells, that
    interpolates the function at the Chebyshev nodes in v.  The values
    come from DLMF 10.32.9, K_nu(z) = int_0^inf exp(-z cosh t) cosh(nu t) dt:
    with t = s / sqrt(z) and cosh t - 1 = 2 sinh^2(t / 2) (no cancellation),

        sqrt(z) e^z K_nu(z) = int_0^inf exp(-2 z sinh^2(t / 2)) cosh(nu t) ds,

    an even integrand that decays at least like exp(-s^2 / 2), on which the
    trapezoid rule with step 0.2 is exact to rounding by s = 12.
    """
    nodes = 0.5 + 0.5 * np.cos(np.pi * (np.arange(_BESSEL_DEGREE + 1) + 0.5) / (_BESSEL_DEGREE + 1))
    z = 2.0 * _BESSEL_CELLS / (np.arange(_BESSEL_CELLS)[:, None] + nodes)
    t = 0.2 * np.arange(61) / np.sqrt(z)[..., None]
    kernel = np.exp(-2.0 * z[..., None] * np.sinh(0.5 * t) ** 2)
    step = np.full(t.shape[-1], 0.2)
    step[0] = 0.1
    values = np.stack([kernel @ step, (kernel * np.cosh(t)) @ step])
    coeffs = np.linalg.solve(np.vander(nodes, increasing=True), values.reshape(-1, nodes.size).T)
    return np.ascontiguousarray(coeffs.reshape(nodes.size, 2, _BESSEL_CELLS).swapaxes(0, 1))


def _bessel_series() -> np.ndarray:
    """Power-series coefficients in y = z^2 / 4, shape (nu, term, (A, B), 1).

    The trailing axis lets one Horner pass sum A and B over an array of z.

    A_k = 1 / (k! (k + nu)!) and B_k = (H_k + H_{k + nu}) A_k / 2, H_k the
    harmonic numbers, so that by DLMF 10.31.1-2, with L = log(z / 2) + gamma,
    K_0 = B - L A and K_1 = 1 / z + (z / 2) (L A - B).
    """
    k = np.arange(_BESSEL_TERMS)
    factorial = np.cumprod(np.concatenate([[1.0], np.arange(1.0, _BESSEL_TERMS + 1)]))
    harmonic = np.concatenate([[0.0], np.cumsum(1.0 / np.arange(1.0, _BESSEL_TERMS + 1))])
    series = np.empty((2, _BESSEL_TERMS, 2, 1))
    for nu in (0, 1):
        series[nu, :, 0, 0] = 1.0 / (factorial[k] * factorial[k + nu])
        series[nu, :, 1, 0] = 0.5 * (harmonic[k] + harmonic[k + nu]) * series[nu, :, 0, 0]
    return series


_BESSEL_TABLE = _bessel_table()
_BESSEL_SERIES = _bessel_series()


def kve(nu: int, z):
    """Exponentially scaled modified Bessel function e^z K_nu(z), nu in {0, 1}, z > 0."""
    z = np.asarray(z, dtype=float)
    large = z > 2.0
    if large.all():
        return _kve_table(nu, z)
    out = np.empty_like(z)
    out[large] = _kve_table(nu, z[large])
    out[~large] = _kve_series(nu, z[~large])  # NaN too: the table cannot index it
    return out


def _kve_table(nu: int, z: np.ndarray) -> np.ndarray:
    # z > 2 keeps w * cells = 2 cells / z below cells after rounding too.
    cell = (2.0 * _BESSEL_CELLS) / z
    index = cell.astype(np.intp)
    return horner(np.take(_BESSEL_TABLE[nu], index, axis=1), cell - index) / np.sqrt(z)


def _kve_series(nu: int, z: np.ndarray) -> np.ndarray:
    a, b = horner(_BESSEL_SERIES[nu], 0.25 * z * z)
    core = (np.log(0.5 * z) + np.euler_gamma) * a - b
    return (1.0 / z + 0.5 * z * core if nu else -core) * np.exp(z)


@dataclass(frozen=True)
class NIGParams:
    """NIG parameter vector with the admissibility constraints

    alpha > 0, delta > 0, beta^2 < alpha^2, (beta + 1)^2 < alpha^2.

    The last constraint keeps exp(X) integrable so the martingale adjustment
    exists.
    """

    alpha: float
    beta: float
    delta: float
    mu: float = 0.0

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.alpha, self.beta, self.delta, self.mu)):
            raise DomainError("NIG parameters must be finite")
        if self.alpha <= 0 or self.delta <= 0:
            raise DomainError("alpha and delta must be positive")
        if self.beta**2 >= self.alpha**2:
            raise DomainError("admissibility requires beta^2 < alpha^2")
        if (self.beta + 1.0) ** 2 >= self.alpha**2:
            raise DomainError("admissibility requires (beta + 1)^2 < alpha^2")

    @property
    def gamma(self) -> float:
        return math.sqrt(self.alpha**2 - self.beta**2)


def nig_pdf(x, p: NIGParams, t: float = 1.0, return_kve: bool = False):
    """Density of NIG(alpha, beta, delta*t, mu*t) evaluated at x.

    Exponents are combined with the scaled Bessel kernel so the value stays
    accurate deep into the tails instead of underflowing prematurely.  With
    ``return_kve=True`` the result is ``(density, kve(1, z))`` at
    z = alpha sqrt((delta t)^2 + (x - mu t)^2), the Bessel values it used.
    ``p`` may also give the parameters per point (``_LawColumns``, arrays
    that broadcast against x): each value is the one the point's own law
    gives.
    """
    if t <= 0:
        raise DomainError("time scale t must be positive")
    x_arr = np.asarray(x, dtype=float)
    if np.isnan(x_arr).any():
        raise DomainError("x must not be NaN")
    dt = p.delta * t
    mt = p.mu * t
    dx = x_arr - mt
    s = np.sqrt(dt * dt + dx * dx)
    z = p.alpha * s
    # K1(z) = kve(1, z) exp(-z); fold exp(-z) into the main exponent.
    expo = dt * p.gamma + p.beta * dx - z
    k1 = kve(1, z)
    out = (p.alpha * dt / math.pi) * np.exp(expo) * k1 / s
    if np.isscalar(x):
        out, k1 = float(out), float(k1)
    return (out, k1) if return_kve else out


def martingale_adjustment(p: NIGParams) -> float:
    """Drift correction omega with E[exp(omega t + X(t))] = 1."""
    inner = p.alpha**2 - (p.beta + 1.0) ** 2
    if inner <= 0:
        raise DomainError("martingale adjustment requires (beta + 1)^2 < alpha^2")
    return -p.mu + p.delta * (math.sqrt(inner) - p.gamma)


def nig_cumulants(p: NIGParams, t: float = 1.0) -> tuple[float, float, float]:
    """First, second, and fourth cumulants of NIG(alpha, beta, delta*t, mu*t)."""
    g = p.gamma
    dt = p.delta * t
    c1 = p.mu * t + dt * p.beta / g
    c2 = dt * p.alpha**2 / g**3
    c4 = 3.0 * dt * p.alpha**2 * (p.alpha**2 + 4.0 * p.beta**2) / g**7
    return c1, c2, c4


def _far_anchors(p: NIGParams, t: float) -> tuple[float, float]:
    # Points far enough out that the mass beyond is ~1e-25 or less.
    c1, c2, c4 = nig_cumulants(p, t)
    scale = math.sqrt(c2 + math.sqrt(c4))
    left_rate = p.alpha + p.beta   # left tail decays like exp((alpha+beta)x)
    right_rate = p.alpha - p.beta
    lo = c1 - max(10.0 * scale, 1.0) - 70.0 / left_rate
    hi = c1 + max(10.0 * scale, 1.0) + 70.0 / right_rate
    return lo, hi


def nig_cdf(x, p: NIGParams, t: float = 1.0):
    """CDF by quadrature of the density (no closed form exists) on ``pricing_interval`` [a, b].

    The query points, clipped to [a, b], join the edges of the pricer's
    mesh (``_Mesh``), and one prefix sum over its nodes is read at each
    (``_Mesh.reads``).
    The CDF is 0 at and below a.  Above a it misses the mass below a, and
    from b on also the mass above b: each within the interval's 1e-11 tail
    bound (above b, once b > log E[e^X]) unless that side's width stopped
    at 60.  Every panel converges as the pricer's do, so a point's value
    does not depend on the other query points beyond rounding.
    """
    x_arr = np.asarray(x, dtype=float)
    if t <= 0 or np.isnan(x_arr).any():  # clipped, a NaN would read as the full mass
        raise DomainError("t must be positive and x not NaN")
    law = np.array([[*pricing_interval(p, t), 0.0, p.alpha, p.beta, p.delta, p.mu, p.gamma]])
    mesh = _Mesh.build(law, x_arr.reshape(1, -1), t)
    (nodes,), (weights,) = mesh.quadrature()
    cum = np.concatenate([[0.0], np.cumsum(weights * nig_pdf(nodes, p, t))])
    out = cum[mesh.reads()[0]].reshape(x_arr.shape)
    return float(out) if np.isscalar(x) else out


def _mass(p: NIGParams, t: float, lo: float, hi: float) -> float:
    """Quadrature mass of the NIG(alpha, beta, delta*t, mu*t) density on [lo, hi]."""
    return integrate(lambda y: nig_pdf(y, p, t), (lo, hi))


def _tail_end(tail_mass, outer: float, inner: float, target: float) -> float:
    """Bisect [outer, inner] for a tail end holding <= target mass; the outer end is the safe side."""
    for _ in range(60):
        mid = 0.5 * (outer + inner)
        if tail_mass(mid) > target:
            inner = mid
        else:
            outer = mid
        if abs(inner - outer) < 1e-3:
            break
    return outer


def pricing_interval(p: NIGParams, t: float) -> tuple[float, float]:
    """Pricing interval [c1 - w_a s, c1 + w_b s] with s = sqrt(c2 + sqrt(c4)).

    Each width is the first of 10, 12, ..., 60 (the stop regardless) whose
    closed-form bound on the mass below a, or on the share of E[e^X] above b
    (calls weight the tail by e^x), is <= 1e-11.  As K1(z) <= sqrt(pi / 2z)
    e^-z (1 + 3 / 8z) (DLMF 10.40(ii)), a tail beyond distance m from mu t has
    at most delta t sqrt(alpha / 2 pi) e^(delta t g) m^-3/2 (1 + 3 / (8 alpha m))
    e^(-r m) / r: g = gamma and r = alpha + beta on the left, and on the right
    g = sqrt(alpha^2 - (beta + 1)^2) and r = alpha - beta - 1.
    """
    c1, c2, c4 = nig_cumulants(p, t)
    scale = math.sqrt(c2 + math.sqrt(c4))
    g1 = math.sqrt(p.alpha**2 - (p.beta + 1.0) ** 2)
    w_a = _bound_width(p, t, p.gamma, p.alpha + p.beta, p.mu * t - c1, scale)
    w_b = _bound_width(p, t, g1, p.alpha - p.beta - 1.0, c1 - p.mu * t, scale)
    return c1 - w_a * scale, c1 + w_b * scale


def _bound_width(p: NIGParams, t: float, g: float, rate: float, shift: float, scale: float) -> int:
    """First width w < 60 whose end m = shift + w scale > 0 has a tail bound <= 1e-11, in logs; else 60."""
    dt = p.delta * t
    log_c = math.log(dt * math.sqrt(p.alpha / (2.0 * math.pi)) / (rate * 1e-11)) + dt * g
    for width in range(10, 60, 2):
        m = shift + width * scale
        if m > 0 and log_c - 1.5 * math.log(m) + math.log1p(0.375 / (p.alpha * m)) <= rate * m:
            return width
    return 60


def support_interval(
    p: NIGParams, t: float = 1.0, tail_eps: float = 1e-8
) -> tuple[float, float]:
    """Tight asymmetric support: smallest [a, b] with <= tail_eps/2 mass per side.

    Solved by bisection on quadrature tail masses.  NIG tails are asymmetric
    (rates alpha+beta on the left, alpha-beta on the right), so per-side
    bounds avoid padding the thin tail to match the fat one.
    """
    if not (0.0 < tail_eps < 1.0):
        raise DomainError("tail_eps must lie in (0, 1)")
    c1 = nig_cumulants(p, t)[0]
    lo_anchor, hi_anchor = _far_anchors(p, t)
    target = 0.5 * tail_eps
    a = _tail_end(lambda end: _mass(p, t, lo_anchor, end), lo_anchor + 1e-12, c1, target)
    b = _tail_end(lambda end: _mass(p, t, end, hi_anchor), hi_anchor - 1e-12, c1, target)
    return a, b


@dataclass(frozen=True)
class ExpNIGModel:
    """Exponential NIG asset model: NIG parameters plus a market slice.

    ``slice_`` must expose spot, rate, dividend_yield, expiry, and
    discount_factor (see market_data.MarketSlice).
    """

    params: NIGParams
    slice_: MarketSlice

    @cached_property
    def drift(self) -> float:
        """(r - q + omega) T: total log-drift of S(T)/S0 beyond the NIG increment."""
        s = self.slice_
        return (s.rate - s.dividend_yield + martingale_adjustment(self.params)) * s.expiry

    @cached_property
    def interval(self) -> tuple[float, float]:
        """The pricing interval [a, b] of the law at expiry (see ``pricing_interval``)."""
        return pricing_interval(self.params, self.slice_.expiry)

    @property
    def priceable(self) -> bool:
        """Whether S(T) = S0 exp(drift + x) stays finite on the pricing interval.

        The closed form log S0 + drift + b < log(max float), with no density
        pass: heavy right tails (alpha - beta - 1 near 0) stretch b until S(T)
        overflows there.
        """
        return math.log(self.slice_.spot) + self.drift + self.interval[1] < _LOG_MAX_FLOAT

    def price_at(self, x):
        """Map a log-return node x to the terminal asset price."""
        return self.slice_.spot * np.exp(self.drift + np.asarray(x, dtype=float))


def price_european_batch(model, strikes, kinds, gradient: bool = False):
    """European prices of many (strike, kind) pairs off one density evaluation.

    Discounted quadrature of each payoff against the density on
    ``pricing_interval``, beyond which lie at most 1e-11 of the mass (left)
    and of the forward (right).  One composite Gauss-Legendre grid has every
    payoff kink among its panel edges, so each quote's integral is an exact
    sub-sum of the shared nodes and sees an analytic integrand per panel: a
    suffix (call) or prefix (put) sum, read off one cumulative sum each way.
    The panel edges are the interval's 24 equal panels, the kinks, and the
    graded edges mu t and mu t +- delta t 2^k, k = -1, 0, 1, ... while
    2^k delta t is below the equal-panel width.  The density's only
    singularities are its branch points mu t +- i delta t, and each panel of
    this mesh keeps them outside its Bernstein ellipse of parameter
    2 + sqrt(3), so a _PRICING_NODES = 16-node rule per panel converges at
    the same geometric rate on a core far narrower than an equal panel as
    on a broad one (see the module docstring).
    A single quote is a batch of one.  The result is independent of mu.
    Strikes must be positive and finite.  Tails too heavy for a finite S(T)
    on the interval (``ExpNIGModel.priceable``) are a DomainError.

    ``model`` may also be a sequence of models on one slice; the result then
    has one row of prices per model, each ``tobytes()``-equal to pricing that
    model alone.  The models' meshes are stacked, each row padded at its end
    with zero-width panels whose nodes weigh +0.0, and scored in blocks of at
    most _STACK_NODES nodes: one density pass over a block's padded nodes,
    one cumulative sum each way, and one read per row.

    With ``gradient=True`` (one model only) the result is
    ``(prices, d_prices)``, where row m of ``d_prices`` is
    d price_m / d(alpha, beta, delta) of the quadrature sum itself, off the
    same density pass.  A parameter moves each term w payoff(S(T)) f(x)
    through the density, through S(T) = S0 exp(drift + x), and through its
    node and weight: the panel edges are the interval ends, which scale with
    the cumulants, the kinks, which move against the drift, and the graded
    edges, which scale with delta.  So the gradient is that of the computed
    prices wherever the interval's width steps and the graded edges' count
    are locally constant, in tails slow or not.
    """
    strikes = np.asarray(strikes, dtype=float)
    if strikes.ndim != 1 or len(kinds) != strikes.size:
        raise DomainError("strikes must be a flat vector with one kind per strike")
    if not np.all(np.isfinite(strikes) & (strikes > 0)):
        raise DomainError("strikes must be positive and finite")
    for kind in kinds:
        if kind not in ("C", "P"):
            raise DomainError(f"unknown option kind {kind!r}")
    single = isinstance(model, ExpNIGModel)
    models = [model] if single else list(model)
    if not models or any(m.slice_ != models[0].slice_ for m in models):
        raise DomainError("a stacked batch needs at least one model, all on one slice")
    if gradient and not single:
        raise DomainError("the gradient is priced for one model at a time")
    for m in models:
        if not m.priceable:
            a, b = m.interval
            raise DomainError(f"S(T) overflows on the pricing interval [{a:.6g}, {b:.6g}] of {m.params}")
    slice_ = models[0].slice_
    laws = np.array([(*m.interval, m.drift, *(getattr(m.params, f) for f in _LawColumns._fields)) for m in models])
    # Payoff kinks in x-space are log(K / S0) - drift, one drift per model.
    log_k = np.array([math.log(strike / slice_.spot) for strike in strikes])
    is_call = np.array([kind == "C" for kind in kinds], dtype=bool)
    mesh = _Mesh.build(laws, log_k - laws[:, 2:3], slice_.expiry)
    if gradient:
        return _price_with_gradient(model, mesh, strikes, is_call)
    out = np.empty((len(models), strikes.size))
    for rows, block in mesh.blocks():
        out[rows] = _price_block(slice_, block, strikes, is_call)
    return out[0] if single else out


class _LawColumns(NamedTuple):
    """NIG parameters per point: ``nig_pdf`` over the nodes of many laws at once.

    Each column broadcasts against the points: one value per row of a
    mesh's node matrix, the row's law.
    """

    alpha: np.ndarray
    beta: np.ndarray
    delta: np.ndarray
    mu: np.ndarray
    gamma: np.ndarray


class _Mesh(NamedTuple):
    """The quadrature meshes of NIG laws at one horizon t, one row per law.

    Row i's candidate edges are the _PRICING_PANELS + 1 equal-panel edges
    of law i's interval [a, b], its ``extra`` edges (clipped to [a, b]),
    and its graded edges mu t + delta t c inside (a, b), c = 0 and +-2^k for
    k = -1, 0, 1, ... while 2^k delta t is below the equal-panel width
    (``steps`` lists every c); a candidate that is no edge is set to a.
    ``edges`` holds each row's ``count`` distinct candidates in order, as
    ``np.unique`` gives them, padded at the end with b: zero-width panels,
    whose nodes weigh +0.0.  ``laws`` holds each law's (alpha, beta, delta,
    mu, gamma).
    """

    laws: np.ndarray
    a: np.ndarray
    b: np.ndarray
    drift: np.ndarray
    extra: np.ndarray
    steps: np.ndarray
    candidates: np.ndarray
    edges: np.ndarray
    count: np.ndarray

    @classmethod
    def build(cls, rows: np.ndarray, extra: np.ndarray, t: float) -> "_Mesh":
        """From rows (a, b, drift, alpha, beta, delta, mu, gamma) and x-space edges, shape (laws, edges)."""
        a, b, drift = rows[:, :3].T
        laws = rows[:, 3:]
        extra = np.clip(extra, a[:, None], b[:, None])
        dt, mt = (laws[:, 2:4] * t).T
        width = (b - a) / _PRICING_PANELS
        # c = 2^(k-1) doubles c dt exactly, so the steps below the width are a prefix.
        powers = 0.5 * 2.0 ** np.arange(max(math.ceil(math.log2((width / dt).max())) + 2, 0))
        steps = np.concatenate([[0.0], -powers, powers])
        below = powers * dt[:, None] < width[:, None]
        inner = np.concatenate([extra, mt[:, None] + dt[:, None] * steps], axis=1)
        edge = (inner > a[:, None]) & (inner < b[:, None])
        graded = extra.shape[1] + 1
        edge[:, graded : graded + powers.size] &= below
        edge[:, graded + powers.size :] &= below
        # np.linspace(a, b, _PRICING_PANELS + 1) row by row, as it forms them.
        panel = np.arange(_PRICING_PANELS + 1.0) * width[:, None] + a[:, None]
        panel[:, -1] = b
        candidates = np.concatenate([panel, np.where(edge, inner, a[:, None])], axis=1)
        ordered = np.sort(candidates, axis=1)
        repeat = ordered[:, 1:] == ordered[:, :-1]
        # Each repeat becomes b, the largest edge, and a second sort moves it to the padding.
        ordered[:, 1:] = np.where(repeat, b[:, None], ordered[:, 1:])
        count = ordered.shape[1] - repeat.sum(axis=1)
        edges = np.sort(ordered, axis=1)[:, : count.max()]
        return cls(laws, a, b, drift, extra, steps, candidates, edges, count)

    def sources(self, row: int) -> np.ndarray:
        """The index of each of row ``row``'s edges among its candidates, the first equal one.

        A stable sort puts equal candidates in index order, so an edge's first
        place in it is its first equal candidate: the indices that
        ``np.unique(..., return_index=True)`` returns, and b's for the padding.
        """
        order = np.argsort(self.candidates[row], kind="stable")
        return order[np.searchsorted(self.candidates[row, order], self.edges[row])]

    def reads(self) -> np.ndarray:
        """Where each ``extra`` edge splits its row's nodes, in the shape of ``extra``.

        _PRICING_NODES times the row's edges strictly below it, the lower
        edges of the panels below it (the padding, at b, never is).  No
        quadrature node lies on an edge of a panel wider than rounding, so
        this is the count of the row's nodes below the edge and of those at
        or below it alike: a call's suffix starts there, a put's prefix ends
        there.
        """
        return (self.edges[:, None, :] < self.extra[..., None]).sum(axis=2) * _PRICING_NODES

    @property
    def nodes(self) -> np.ndarray:
        """Live quadrature nodes per row."""
        return (self.count - 1) * _PRICING_NODES

    def quadrature(self) -> tuple[np.ndarray, np.ndarray]:
        """Nodes and weights of the _PRICING_NODES-node rule on every panel, one row per law."""
        nodes, half = gauss_legendre_panels(self.edges, _PRICING_RULE)
        x = nodes.reshape(self.count.size, -1)
        return x, (half[..., None] * _PRICING_RULE.weights).reshape(x.shape)

    def blocks(self):
        """Consecutive rows holding at most _STACK_NODES nodes, padding included, as
        (rows, their mesh with the padding cut to the longest of them).

        A row whose own mesh holds more is a block alone.
        """
        nodes, start = self.nodes, 0
        while start < nodes.size:
            stop = start + 1
            while stop < nodes.size and (stop + 1 - start) * nodes[start : stop + 1].max() <= _STACK_NODES:
                stop += 1
            rows = slice(start, stop)
            block = self._replace(**{name: getattr(self, name)[rows] for name in self._fields if name != "steps"})
            yield rows, block._replace(edges=block.edges[:, : block.count.max()])
            start = stop


def _price_block(slice_: MarketSlice, mesh: _Mesh, strikes: np.ndarray, is_call: np.ndarray) -> np.ndarray:
    """Plain prices of a block of laws, one row each, off one density pass over their padded nodes."""
    x, w = mesh.quadrature()
    dens = nig_pdf(x, _LawColumns(*mesh.laws.T[..., None]), slice_.expiry)
    # Per node, w payoff f is u - K v for a call and K v - u for a put, with
    # u = w S(T) f and v = w f.
    uv = np.empty(x.shape + (2,))
    uv[..., 0] = w * (slice_.spot * np.exp(mesh.drift[:, None] + x) * dens)
    uv[..., 1] = w * dens
    return _read_prices(uv, mesh, strikes, is_call, slice_.discount_factor)[..., 0]


def _price_with_gradient(model: ExpNIGModel, mesh: _Mesh, strikes: np.ndarray, is_call: np.ndarray):
    """Prices of one law and their (alpha, beta, delta)-gradient off one density pass."""
    p = model.params
    t = model.slice_.expiry
    (x,), (w,) = mesh.quadrature()
    dens, k1 = nig_pdf(x, p, t, return_kve=True)
    s_dens = model.price_at(x) * dens
    # Columns u = w S(T) f and v = w f as in _price_block, each followed by
    # its (alpha, beta, delta)-gradient.
    uv = np.empty((x.size, 8))
    uv[:, 0] = w * s_dens
    uv[:, 4] = w * dens
    scores, slope = _log_density_scores(x, p, t, k1)
    d_drift = _drift_gradient(p, t)
    # Nodes and weights move with the panel edges, each as the first equal
    # candidate: the interval's edges with its ends, the kinks against the
    # drift, and the graded edges mu t + delta t c by t c along delta.
    d_a, d_b = _interval_gradient(p, t, mesh.a[0], mesh.b[0])
    frac = np.linspace(0.0, 1.0, _PRICING_PANELS + 1)[:, None]
    d_graded = np.zeros((mesh.steps.size, 3))
    d_graded[:, 2] = t * mesh.steps
    d_edges = np.concatenate([d_a + frac * (d_b - d_a), np.tile(-d_drift, (strikes.size, 1)), d_graded])
    d_edges = d_edges[mesh.sources(0)]
    d_mid = 0.5 * (d_edges[1:] + d_edges[:-1])[:, None, :]
    d_half = 0.5 * (d_edges[1:] - d_edges[:-1])[:, None, :]
    d_x = (d_mid + d_half * _PRICING_RULE.nodes[None, :, None]).reshape(-1, 3)
    d_w = (d_half * _PRICING_RULE.weights[None, :, None]).reshape(-1, 3)
    # d payoff / d drift = +-S(T), so the drift moves u and not v.
    uv[:, 1:4] = s_dens[:, None] * d_w + (w * s_dens)[:, None] * (scores + (1.0 + slope)[:, None] * d_x + d_drift)
    uv[:, 5:] = dens[:, None] * d_w + (w * dens)[:, None] * (scores + slope[:, None] * d_x)
    out = _read_prices(uv[None], mesh, strikes, is_call, model.slice_.discount_factor)[0]
    return out[:, 0], out[:, 1:]


def _read_prices(uv, mesh: _Mesh, strikes, is_call, df) -> np.ndarray:
    """Discounted prices off per-node columns (u, ..., v, ...), shape (rows, strikes, columns / 2).

    The mesh's ``extra`` edges are the kinks, clipped to [a, b], and x
    increases along each row, so a call's support is the suffix of the
    row's nodes from its kink's ``reads`` and a put's the prefix up to it;
    a call struck above b or a put below a has an empty run: 0.  The
    cumulative sums run only as far as some read needs them: the prefix
    sums up to the last read, the suffix sums down to the first.
    """
    rows, size, columns = uv.shape
    at = mesh.reads()
    top, bottom = at.max(), at.min()
    prefix = np.zeros((rows, top + 1, columns))
    suffix = np.zeros((rows, size - bottom + 1, columns))
    np.cumsum(uv[:, :top], axis=1, out=prefix[:, 1:])
    np.cumsum(uv[:, bottom:][:, ::-1], axis=1, out=suffix[:, -2::-1])
    row, k, cols = np.arange(rows)[:, None], strikes[:, None], columns // 2
    calls = df * (suffix[row, at - bottom, :cols] - k * suffix[row, at - bottom, cols:])
    puts = df * (k * prefix[row, at, cols:] - prefix[row, at, :cols])
    return np.where(is_call[:, None], calls, puts)


def _log_density_scores(x: np.ndarray, p: NIGParams, t: float, k1: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """d log f / d(alpha, beta, delta) at fixed x, shape (nodes, 3), and d log f / dx.

    f is the NIG(alpha, beta, delta t, mu t) density, and ``k1`` is
    kve(1, alpha q) as ``nig_pdf`` formed it.  With dx = x - mu t,
    q = sqrt((delta t)^2 + dx^2), g = sqrt(alpha^2 - beta^2) and
    R = K0(alpha q) / K1(alpha q) (from K1' = -K0 - K1/z):

        d_alpha log f = -q R + delta t alpha / g
        d_beta  log f = dx - delta t beta / g
        d_delta log f = t (1/(delta t) - alpha delta t R / q - 2 delta t / q^2 + g)
        d_x     log f = beta - alpha dx R / q - 2 dx / q^2
    """
    alpha, beta, delta = p.alpha, p.beta, p.delta
    g = p.gamma
    dt = delta * t
    dx = x - p.mu * t
    q = np.sqrt(dt * dt + dx * dx)
    z = alpha * q
    ratio = kve(0, z) / k1  # the exp(-z) scalings cancel
    scores = np.empty((x.size, 3))
    scores[:, 0] = -q * ratio + dt * alpha / g
    scores[:, 1] = dx - dt * beta / g
    scores[:, 2] = t * (1.0 / dt - alpha * dt * ratio / q - 2.0 * dt / (q * q) + g)
    slope = beta - alpha * dx * ratio / q - 2.0 * dx / (q * q)
    return scores, slope


def _drift_gradient(p: NIGParams, t: float) -> np.ndarray:
    """d drift / d(alpha, beta, delta) of the exponential model at expiry t.

    The drift is (r - q + omega) t with omega = -mu + delta (g1 - g),
    g1 = sqrt(alpha^2 - (beta + 1)^2) and g = sqrt(alpha^2 - beta^2).
    """
    alpha, beta, delta = p.alpha, p.beta, p.delta
    g = p.gamma
    g1 = math.sqrt(alpha**2 - (beta + 1.0) ** 2)
    return t * np.array([delta * alpha * (1.0 / g1 - 1.0 / g), delta * (beta / g - (beta + 1.0) / g1), g1 - g])


def _interval_gradient(p: NIGParams, t: float, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    """d(a, b) / d(alpha, beta, delta) of a pricing interval [a, b] at fixed widths.

    a = c1 - w_a s and b = c1 + w_b s with s = sqrt(c2 + sqrt(c4)), so the
    ends move by d c1 - (c1 - a) d log s and d c1 + (b - c1) d log s.
    """
    alpha, beta, delta = p.alpha, p.beta, p.delta
    g2 = p.gamma**2
    dt = delta * t
    c1, c2, c4 = nig_cumulants(p, t)
    d_c1 = np.array([-dt * alpha * beta, dt * alpha**2, t * beta * g2]) / (g2 * p.gamma)
    d_log_c2 = np.array([2.0 / alpha - 3.0 * alpha / g2, 3.0 * beta / g2, 1.0 / delta])
    mix = alpha**2 + 4.0 * beta**2
    d_log_c4 = np.array(
        [2.0 / alpha + 2.0 * alpha / mix - 7.0 * alpha / g2, 8.0 * beta / mix + 7.0 * beta / g2, 1.0 / delta]
    )
    root_c4 = math.sqrt(c4)
    d_log_s = (c2 * d_log_c2 + 0.5 * root_c4 * d_log_c4) / (2.0 * (c2 + root_c4))
    return d_c1 - (c1 - a) * d_log_s, d_c1 + (b - c1) * d_log_s
