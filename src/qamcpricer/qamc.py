"""Simulated iterative quantum amplitude estimation of grid-measure expectations.

QAMC loads the grid measure p and a payoff phi in [0, 1] with an oracle U
mapping |0...0>|0> to

    sum_j sqrt(p_j phi_j) |j>|1> + sum_j sqrt(p_j (1 - phi_j)) |j>|0>,

so the ancilla-|1> probability is a = sum_j p_j phi_j, the Riemann estimator
of E[phi(X)] under p.  Grover iterates rotate the ancilla-|1> amplitude to
sin((2m+1) theta) with sin^2(theta) = a; estimating a to epsilon with
confidence 1 - rho costs O((1/epsilon) log(1/rho)) oracle queries instead of
the classical O(1/epsilon^2) samples.

The estimator sees the oracle only through that Bernoulli law, so it takes
the amplitude a itself and draws shots from sin^2((2k+1) theta) exactly.
For both pricing formulations a is the Riemann reference divided by the
formulation's price scale.  The statevector check of the rotation identity,
against the amplitude handed over here, lives with the tests.  One
application of U counts as 1 oracle query and one Grover iterate as 2 (it
contains U and its inverse).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .copula import CopulaSpec
from .errors import DomainError, ValidationError
from .pricing import AssetMarginal, GridMeasure, Payoff, PriceEstimate, PricingGrid

__all__ = [
    "AEConfig",
    "AEResult",
    "iqae_estimate",
    "signed_ae_estimate",
    "qamc_price",
]

# Roundoff an amplitude may carry outside [0, 1] before it is rejected.
_AMPLITUDE_TOL = 1e-12
# Shots in the first look at a depth; each further look at that depth doubles them.
_FIRST_BATCH = 32
# Looks per depth that the confidence split allows for.
_LOOKS_CAP = 32
# Largest Grover power a round may use.
_MAX_GROVER_DEPTH = 2**22


@dataclass(frozen=True)
class AEConfig:
    epsilon: float
    rho: float = 0.05
    seed: int | None = None
    max_queries: int | None = None  # optional hard budget (matched-cost studies)

    def __post_init__(self):
        if not (0.0 < self.epsilon < 1.0) or not (0.0 < self.rho < 1.0):
            raise ValidationError("epsilon and rho must lie in (0, 1)")
        if self.max_queries is not None and self.max_queries < 1:
            raise ValidationError("query budget must be positive")


@dataclass(frozen=True)
class AEResult:
    estimate: float
    half_width: float
    capped: bool = False
    rounds: tuple[tuple[int, int], ...] = ()  # (grover power, shots) per round

    @property
    def oracle_queries(self) -> int:
        return sum(shots * (2 * k + 1) for k, shots in self.rounds)


def _find_next_k(k: int, theta_l: float, theta_u: float, up: bool):
    """Largest Grover power (a doubling step up) keeping the scaled interval in one half-period."""
    span = theta_u - theta_l
    k_old_scale = 4 * k + 2
    if span <= 0.0:
        return k, up
    scale_max = min(int(math.pi / span), 4 * _MAX_GROVER_DEPTH + 2)
    scale = scale_max - (scale_max - 2) % 4
    while scale >= 2 * k_old_scale:
        lo = (scale * theta_l) % (2.0 * math.pi)
        hi = (scale * theta_u) % (2.0 * math.pi)
        if hi >= lo:
            if hi <= math.pi:
                return (scale - 2) // 4, True
            if lo >= math.pi:
                return (scale - 2) // 4, False
        scale -= 4
    return k, up


def iqae_estimate(amplitude: float, cfg: AEConfig, rng: np.random.Generator | None = None) -> AEResult:
    """Iterative amplitude estimation with Chernoff-Hoeffding intervals.

    Returns, with probability >= 1 - rho, an estimate within epsilon of the
    true ancilla-one probability ``amplitude``; query count scales as
    (1/epsilon) log(1/rho).  Shots are drawn from the exact Bernoulli law
    sin^2((2k+1) theta).  An amplitude more than 1e-12 outside [0, 1] is a
    DomainError; roundoff within that is clamped.  For epsilon >= 0.5 the
    initial interval [0, 1] already meets the target: no shot is drawn and
    the cost is 0.  ``capped`` reports a stop before the interval reached
    2 epsilon: the query budget ran out, or a depth used up its share of
    the confidence budget.
    """
    a = float(amplitude)
    if not -_AMPLITUDE_TOL <= a <= 1.0 + _AMPLITUDE_TOL:
        raise DomainError(f"amplitude {a!r} lies outside [0, 1]")
    rng = rng or np.random.default_rng(cfg.seed)
    theta_true = math.asin(math.sqrt(min(max(a, 0.0), 1.0)))

    # Confidence budget: rho split over the candidate depth levels and the
    # (log-bounded, thanks to batch doubling) number of looks per level.
    t_rounds = max(1, math.ceil(math.log2(math.pi / (8.0 * cfg.epsilon))))
    log_term = math.log(2.0 * t_rounds * _LOOKS_CAP / cfg.rho)
    theta_l, theta_u = 0.0, math.pi / 2.0
    up = True
    k = 0
    # Counts pooled at the current depth.  The Grover power never returns to
    # an earlier depth, so they reset whenever it moves up.
    looks = ones = shots = 0
    batch = _FIRST_BATCH
    queries = 0
    rounds: list[tuple[int, int]] = []
    capped = False
    while math.sin(theta_u) ** 2 - math.sin(theta_l) ** 2 > 2.0 * cfg.epsilon:
        next_k, up = _find_next_k(k, theta_l, theta_u, up)
        if next_k != k:
            k, looks, ones, shots, batch = next_k, 0, 0, 0, _FIRST_BATCH
        if looks == _LOOKS_CAP:
            capped = True  # a further look would overdraw this depth's share of rho
            break
        if cfg.max_queries is not None and queries > 0 and queries + batch * (2 * k + 1) > cfg.max_queries:
            capped = True
            break
        ones += int(rng.binomial(batch, math.sin((2 * k + 1) * theta_true) ** 2))
        looks += 1
        shots += batch
        queries += batch * (2 * k + 1)
        rounds.append((k, batch))
        # Each repeated look at the same depth doubles the batch, so the
        # interval either shrinks enough to advance within a few looks or the
        # shot count grows geometrically; either way looks stay log-bounded.
        batch = min(2 * batch, 2**20)

        mean = ones / shots
        radius = math.sqrt(log_term / (2.0 * shots))
        p_lo = max(0.0, mean - radius)
        p_hi = min(1.0, mean + radius)
        if up:
            omega_lo = math.acos(1.0 - 2.0 * p_lo)
            omega_hi = math.acos(1.0 - 2.0 * p_hi)
        else:
            omega_lo = 2.0 * math.pi - math.acos(1.0 - 2.0 * p_hi)
            omega_hi = 2.0 * math.pi - math.acos(1.0 - 2.0 * p_lo)
        # Replace (don't intersect) the interval using the cumulative counts
        # at this depth, so a transient bad confidence interval heals as
        # shots accumulate instead of being committed forever.  The turn
        # count comes from the interval midpoint, which sits strictly inside
        # its half-period (endpoints can touch turn boundaries).
        scale = 4 * k + 2
        turns = math.floor(scale * 0.5 * (theta_l + theta_u) / (2.0 * math.pi))
        new_l = (2.0 * math.pi * turns + omega_lo) / scale
        new_u = (2.0 * math.pi * turns + omega_hi) / scale
        theta_l = min(max(0.0, min(new_l, new_u)), math.pi / 2.0)
        theta_u = max(0.0, min(max(new_l, new_u), math.pi / 2.0))

    a_lo, a_hi = math.sin(theta_l) ** 2, math.sin(theta_u) ** 2
    return AEResult(0.5 * (a_lo + a_hi), 0.5 * (a_hi - a_lo), capped, tuple(rounds))


def signed_ae_estimate(
    value: float,
    cfg: AEConfig,
    scale: float,
    rng: np.random.Generator | None,
) -> AEResult:
    """Estimate a signed value v with |v| <= scale through the shifted encoding.

    The loaded amplitude is a = (v/scale + 1)/2 in [0, 1] (a payoff
    1/2 + v_j/(2 scale) per node, averaged under the loaded masses); the
    estimate maps back through v = scale (2a - 1), so the half-width scales by
    2|scale| and the (epsilon, rho) contract survives the affine map.
    """
    base = iqae_estimate((value / scale + 1.0) / 2.0, cfg, rng)
    return replace(
        base,
        estimate=scale * (2.0 * base.estimate - 1.0),
        half_width=2.0 * abs(scale) * base.half_width,
    )


def qamc_price(
    payoff: Payoff,
    marginals: list[AssetMarginal],
    spec: CopulaSpec,
    formulation: str,
    grid: PricingGrid,
    cfg: AEConfig,
    rng: np.random.Generator | None = None,
    measure: GridMeasure | None = None,
) -> PriceEstimate:
    """Amplitude-estimated price on the shared grid measure.

    The joint formulation loads p c/Q with payoff h/h_max, the independent
    one loads p with the copula-adjusted payoff h c/(h_max c_max).  Either
    amplitude equals V/scale, with V the discounted Riemann reference and
    scale = DF h_max Q or DF h_max c_max.  cfg.epsilon is the price-level
    target; it is mapped to the amplitude scale and the estimate back.  A
    prebuilt ``measure`` built for another payoff, other marginals, another
    copula or another grid than the ones given is a DomainError.  Every
    number it reads is a scalar the measure reduced at build.
    """
    if formulation not in ("joint", "independent"):
        raise DomainError(f"unknown formulation {formulation!r}")
    if measure is None:
        measure = GridMeasure.build(payoff, marginals, spec, grid)
    else:
        measure.check_inputs(payoff, marginals, spec, grid)
    df = measure.discount_factor
    h_max = measure.payoff_max
    if h_max <= 0.0:
        return PriceEstimate(0.0, 1, stderr=0.0)

    bound = measure.copula_total_mass if formulation == "joint" else measure.c_max
    scale = df * h_max * bound
    eps_ae = min(cfg.epsilon / scale, 0.499)
    result = iqae_estimate(measure.reference_value() / scale, replace(cfg, epsilon=eps_ae), rng)
    return PriceEstimate(scale * result.estimate, result.oracle_queries, stderr=scale * result.half_width)
