"""Ideal statevector simulation of amplitude loading plus iterative QAE.

The state-preparation oracle U maps |0...0>|0> to

    sum_j sqrt(p_j phi_j) |j>|1> + sum_j sqrt(p_j (1 - phi_j)) |j>|0>,

so the ancilla-|1> probability is a = sum_j p_j phi_j, the Riemann estimator
of E[phi(X)] under the discrete measure p.  Grover iterates rotate the
ancilla-|1> amplitude to sin((2m+1) theta) with sin^2(theta) = a; estimating
a to epsilon with confidence 1 - rho costs O((1/epsilon) log(1/rho)) oracle
queries instead of the classical O(1/epsilon^2) samples.

Measurement outcomes are drawn from the exact Bernoulli law of the ideal
state (equivalent to full-state collapse for this estimator, and orders of
magnitude faster); the statevector machinery exists so the rotation identity
is verified directly, not assumed.  One application of U counts as 1 oracle
query and one Grover iterate as 2 (it contains U and its inverse).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .copula import CopulaSpec
from .cosine_density import Interval, basis_gamma_plus
from .errors import DomainError, ValidationError
from .pricing import AssetMarginal, GridMeasure, Payoff, PriceEstimate, PricingGrid, normalize_cell_masses

__all__ = [
    "Statevector",
    "DensityOracle",
    "AmplitudeOracle",
    "AEConfig",
    "AEResult",
    "build_density_oracle",
    "apply_payoff_rotation",
    "grover_operator",
    "iqae_estimate",
    "signed_ae_estimate",
    "qamc_coefficient",
    "qamc_price",
    "run_log_line",
    "RUN_LOG_HEADER",
]

RUN_LOG_HEADER = "algo,target,epsilon,rho,estimate,abs_err,queries,seed"


@dataclass(frozen=True)
class Statevector:
    """Complex amplitudes over n data qubits plus one ancilla (LSB)."""

    amplitudes: np.ndarray
    n_data_qubits: int

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        object.__setattr__(self, "amplitudes", amps)
        if amps.size != 2 ** (self.n_data_qubits + 1):
            raise ValidationError("amplitude vector length must be 2^(n_data+1)")
        norm = float(np.linalg.norm(amps))
        if abs(norm - 1.0) > 1e-12:
            raise ValidationError(f"state norm {norm} deviates from 1 beyond 1e-12")

    @property
    def ancilla_one_probability(self) -> float:
        return float(np.sum(np.abs(self.amplitudes[1::2]) ** 2))

    def data_distribution(self) -> np.ndarray:
        """Measurement distribution of the data register (ancilla traced out)."""
        probs = np.abs(self.amplitudes) ** 2
        return probs[0::2] + probs[1::2]


def _data_qubits_for(count: int) -> int:
    n = max(1, math.ceil(math.log2(count)))
    return n


@dataclass(frozen=True)
class DensityOracle:
    """State-preparation component: loads sqrt(p_j) onto the data register."""

    masses: np.ndarray
    label: str = "A"

    def prepare(self) -> Statevector:
        n = _data_qubits_for(self.masses.size)
        amps = np.zeros(2 ** (n + 1), dtype=complex)
        amps[0 : 2 * self.masses.size : 2] = np.sqrt(self.masses)
        return Statevector(amps, n)


def build_density_oracle(masses, label: str = "A") -> DensityOracle:
    """Validate, clip, and normalize cell masses into a loading oracle."""
    return DensityOracle(normalize_cell_masses(masses)[0], label)


def apply_payoff_rotation(state: Statevector, values) -> Statevector:
    """Ancilla rotation by angle asin(sqrt(phi_j)), controlled on node j."""
    phi = np.asarray(values, dtype=float)
    if np.any(phi < -1e-12) or np.any(phi > 1.0 + 1e-12):
        raise DomainError("rotation values must lie in [0, 1]")
    phi = np.clip(phi, 0.0, 1.0)
    count = 2**state.n_data_qubits
    if phi.size > count:
        raise DomainError("more rotation values than data states")
    full = np.zeros(count)
    full[: phi.size] = phi
    sin = np.sqrt(full)
    cos = np.sqrt(1.0 - full)
    a0 = state.amplitudes[0::2]
    a1 = state.amplitudes[1::2]
    out = np.empty_like(state.amplitudes)
    out[0::2] = cos * a0 - sin * a1
    out[1::2] = sin * a0 + cos * a1
    return Statevector(out, state.n_data_qubits)


@dataclass(frozen=True)
class AmplitudeOracle:
    """Full oracle U: density loading followed by the payoff rotation.

    ``label`` distinguishes the three uses (coefficient, joint price,
    independent price) in run logs.
    """

    masses: np.ndarray
    values: np.ndarray
    label: str = "U_ak"

    @classmethod
    def build(cls, masses, values, label: str = "U_ak") -> "AmplitudeOracle":
        p, _ = normalize_cell_masses(masses)
        phi = np.asarray(values, dtype=float)
        if phi.shape != p.shape:
            raise DomainError("values must match masses node for node")
        if np.any(phi < -1e-12) or np.any(phi > 1.0 + 1e-12):
            raise DomainError("oracle values must lie in [0, 1]")
        return cls(p, np.clip(phi, 0.0, 1.0), label)

    @property
    def amplitude(self) -> float:
        return float(np.dot(self.masses, self.values))

    def prepare(self) -> Statevector:
        return apply_payoff_rotation(build_density_oracle(self.masses, self.label).prepare(), self.values)


class GroverOperator:
    """G = (2|psi0><psi0| - I) S_chi acting on the explicit statevector."""

    def __init__(self, oracle: AmplitudeOracle):
        self._psi0 = oracle.prepare().amplitudes

    def apply(self, state: Statevector, power: int = 1) -> Statevector:
        if power < 0:
            raise DomainError("power must be >= 0")
        v = state.amplitudes.copy()
        for _ in range(power):
            v[1::2] *= -1.0  # reflect about the bad subspace (ancilla 0)
            v = 2.0 * np.vdot(self._psi0, v) * self._psi0 - v
        return Statevector(v, state.n_data_qubits)


def grover_operator(oracle: AmplitudeOracle) -> GroverOperator:
    return GroverOperator(oracle)


@dataclass(frozen=True)
class AEConfig:
    epsilon: float
    rho: float = 0.05
    max_grover_depth: int = 2**22
    seed: int | None = None
    shots_per_round: int = 32
    max_rounds: int = 100_000
    max_queries: int | None = None  # optional hard budget (matched-cost studies)

    def __post_init__(self):
        if not (0.0 < self.epsilon < 1.0) or not (0.0 < self.rho < 1.0):
            raise ValidationError("epsilon and rho must lie in (0, 1)")
        if self.shots_per_round < 1 or self.max_grover_depth < 0:
            raise ValidationError("invalid shot count or depth cap")
        if self.max_queries is not None and self.max_queries < 1:
            raise ValidationError("query budget must be positive")


@dataclass(frozen=True)
class AEResult:
    estimate: float
    half_width: float
    oracle_queries: int
    shots_used: int
    signed: bool = False
    capped: bool = False
    rounds: tuple[tuple[int, int], ...] = ()  # (grover power, shots) per round

    def __post_init__(self):
        if self.oracle_queries <= 0:
            raise ValidationError("query count must be positive")


def _find_next_k(k: int, theta_l: float, theta_u: float, up: bool, cap: int, ratio: float = 2.0):
    """Largest Grover power (a doubling step up) keeping the scaled interval in one half-period."""
    span = theta_u - theta_l
    k_old_scale = 4 * k + 2
    if span <= 0.0:
        return k, up
    scale_max = min(int(math.pi / span), 4 * cap + 2)
    scale = scale_max - (scale_max - 2) % 4
    while scale >= ratio * k_old_scale:
        lo = (scale * theta_l) % (2.0 * math.pi)
        hi = (scale * theta_u) % (2.0 * math.pi)
        if hi >= lo:
            if hi <= math.pi:
                return (scale - 2) // 4, True
            if lo >= math.pi:
                return (scale - 2) // 4, False
        scale -= 4
    return k, up


def iqae_estimate(oracle: AmplitudeOracle, cfg: AEConfig, rng: np.random.Generator | None = None) -> AEResult:
    """Iterative amplitude estimation with Chernoff-Hoeffding intervals.

    Returns, with probability >= 1 - rho, an estimate within epsilon of the
    true ancilla-one probability; query count scales as (1/epsilon) log(1/rho).
    Shots are drawn from the exact Bernoulli law sin^2((2k+1) theta).
    """
    rng = rng or np.random.default_rng(cfg.seed)
    a_true = min(max(oracle.amplitude, 0.0), 1.0)
    theta_true = math.asin(math.sqrt(a_true))
    if cfg.epsilon >= 0.5:
        # The trivial interval [0, 1] already satisfies the contract.
        rng.binomial(1, a_true)
        return AEResult(0.5, 0.5, 1, 1, rounds=((0, 1),))

    # Confidence budget: rho split over the candidate depth levels and the
    # (log-bounded, thanks to batch doubling) number of looks per level.
    t_rounds = max(1, math.ceil(math.log2(math.pi / (8.0 * cfg.epsilon))))
    looks_cap = 32
    log_term = math.log(2.0 * t_rounds * looks_cap / cfg.rho)
    theta_l, theta_u = 0.0, math.pi / 2.0
    up = True
    k = 0
    ones_at: dict[int, int] = {}
    shots_at: dict[int, int] = {}
    batch_at: dict[int, int] = {}
    queries = 0
    shots_total = 0
    round_log: list[tuple[int, int]] = []
    capped = False

    def a_interval() -> tuple[float, float]:
        return math.sin(theta_l) ** 2, math.sin(theta_u) ** 2

    rounds = 0
    while True:
        a_lo, a_hi = a_interval()
        if a_hi - a_lo <= 2.0 * cfg.epsilon:
            break
        rounds += 1
        if rounds > cfg.max_rounds:
            capped = True
            break
        k, up = _find_next_k(k, theta_l, theta_u, up, cfg.max_grover_depth)
        # Each repeated look at the same depth doubles the batch, so the
        # interval either shrinks enough to advance within a few looks or the
        # shot count grows geometrically; either way looks stay log-bounded.
        batch = batch_at.get(k, cfg.shots_per_round)
        batch_at[k] = min(2 * batch, 2**20)
        if (
            cfg.max_queries is not None
            and queries > 0
            and queries + batch * (2 * k + 1) > cfg.max_queries
        ):
            break
        scale = 4 * k + 2
        p_shot = math.sin((2 * k + 1) * theta_true) ** 2
        ones = int(rng.binomial(batch, p_shot))
        ones_at[k] = ones_at.get(k, 0) + ones
        shots_at[k] = shots_at.get(k, 0) + batch
        shots_total += batch
        queries += batch * (2 * k + 1)
        round_log.append((k, batch))

        mean = ones_at[k] / shots_at[k]
        radius = math.sqrt(log_term / (2.0 * shots_at[k]))
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
        turns = math.floor(scale * 0.5 * (theta_l + theta_u) / (2.0 * math.pi))
        new_l = (2.0 * math.pi * turns + omega_lo) / scale
        new_u = (2.0 * math.pi * turns + omega_hi) / scale
        theta_l = min(max(0.0, min(new_l, new_u)), math.pi / 2.0)
        theta_u = max(0.0, min(max(new_l, new_u), math.pi / 2.0))

    a_lo, a_hi = a_interval()
    return AEResult(
        estimate=0.5 * (a_lo + a_hi),
        half_width=0.5 * (a_hi - a_lo),
        oracle_queries=max(queries, 1),
        shots_used=max(shots_total, 1),
        capped=capped,
        rounds=tuple(round_log),
    )


def signed_ae_estimate(
    oracle: AmplitudeOracle,
    cfg: AEConfig,
    scale: float = 1.0,
    rng: np.random.Generator | None = None,
) -> AEResult:
    """Sign-carrying estimation through the shifted positive encoding.

    The oracle loads a shifted quantity a = (v/scale + 1)/2 in [0, 1]; the
    estimate maps back through v = scale (2a - 1), so the half-width scales
    by 2|scale| and the (epsilon, rho) contract survives the affine map.
    """
    base = iqae_estimate(oracle, cfg, rng)
    return AEResult(
        estimate=scale * (2.0 * base.estimate - 1.0),
        half_width=2.0 * abs(scale) * base.half_width,
        oracle_queries=base.oracle_queries,
        shots_used=base.shots_used,
        signed=True,
        capped=base.capped,
        rounds=base.rounds,
    )


def qamc_coefficient(
    masses,
    k: int,
    interval: Interval,
    cfg: AEConfig,
    rng: np.random.Generator | None = None,
) -> AEResult:
    """Estimate the k-th cosine coefficient of the loaded cell masses.

    Composes density loading with the rotation on the shifted basis values
    and the signed estimator.  The zeroth basis function is constant, so its
    coefficient is known exactly without estimation.
    """
    p, _ = normalize_cell_masses(masses)
    width = interval.width
    if k == 0:
        return AEResult(
            estimate=1.0 / math.sqrt(width),
            half_width=0.0,
            oracle_queries=1,
            shots_used=1,
            signed=True,
        )
    nodes = interval.a + width / p.size * (np.arange(p.size) + 0.5)
    values = basis_gamma_plus(k, nodes, interval)
    oracle = AmplitudeOracle.build(p, values, label="U_ak")
    return signed_ae_estimate(oracle, cfg, scale=math.sqrt(2.0 / width), rng=rng)


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

    cfg.epsilon is the price-level target; it is mapped to the amplitude
    scale of the chosen formulation (h_max Q for the joint loading, h_max
    c_max for the independent one with the copula-adjusted payoff), and the
    discount factor is applied after estimation.
    """
    if formulation not in ("joint", "independent"):
        raise DomainError(f"unknown formulation {formulation!r}")
    if measure is None:
        measure = GridMeasure.build(payoff, marginals, spec, grid)
    df = measure.discount_factor
    h_max = measure.payoff_max
    if h_max <= 0.0:
        return PriceEstimate(0.0, f"qamc-{formulation}", 1, stderr=0.0, target_epsilon=cfg.epsilon)

    if formulation == "joint":
        scale = df * h_max * measure.copula_total_mass
        masses = measure.joint_masses.ravel()
        values = measure.payoff_values.ravel() / h_max
        label = "U_V"
    else:
        c_max = measure.c_max
        if np.any(measure.copula_weights > c_max * (1.0 + 1e-12)):
            raise DomainError("copula density exceeds stored c_max: stale grid bound")
        scale = df * h_max * c_max
        masses = measure.independent_masses.ravel()
        values = (measure.payoff_values * measure.copula_weights).ravel() / (h_max * c_max)
        label = "U_Vind"

    oracle = AmplitudeOracle.build(masses, values, label=label)
    eps_ae = min(cfg.epsilon / scale, 0.499)
    result = iqae_estimate(oracle, replace(cfg, epsilon=eps_ae), rng)
    return PriceEstimate(
        value=scale * result.estimate,
        estimator=f"qamc-{formulation}",
        samples_or_queries=result.oracle_queries,
        stderr=scale * result.half_width,
        target_epsilon=cfg.epsilon,
        seed=cfg.seed,
    )


def run_log_line(algo: str, target: float, cfg: AEConfig, result: AEResult, seed) -> str:
    """One run-log CSV record: algo,target,epsilon,rho,estimate,abs_err,queries,seed."""
    return (
        f"{algo},{target!r},{cfg.epsilon!r},{cfg.rho!r},{result.estimate!r},"
        f"{abs(result.estimate - target)!r},{result.oracle_queries},{seed}"
    )
