"""Ideal statevector model of the QAMC oracle, for the tests.

The oracle U loads cell masses p onto a data register and rotates an
ancilla (the least significant qubit) by asin(sqrt(phi_j)) controlled on
node j:

    U |0...0>|0> = sum_j sqrt(p_j phi_j) |j>|1> + sum_j sqrt(p_j (1 - phi_j)) |j>|0>.

Its ancilla-|1> probability is a = sum_j p_j phi_j, and Grover iterates
rotate it to sin^2((2m+1) theta) with sin^2(theta) = a.  The library's
estimator takes a directly; these explicit states check both identities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from qamcpricer.errors import DomainError, ValidationError
from qamcpricer.pricing import normalize_cell_masses


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


def load_masses(masses) -> Statevector:
    """Density loading: sqrt(p_j) on the data register, ancilla in |0>."""
    p, _ = normalize_cell_masses(masses)
    n = max(1, math.ceil(math.log2(p.size)))
    amps = np.zeros(2 ** (n + 1), dtype=complex)
    amps[0 : 2 * p.size : 2] = np.sqrt(p)
    return Statevector(amps, n)


def rotate_payoff(state: Statevector, values) -> Statevector:
    """Ancilla rotation by angle asin(sqrt(phi_j)), controlled on node j."""
    phi = np.asarray(values, dtype=float)
    if np.any(phi < -1e-12) or np.any(phi > 1.0 + 1e-12):
        raise DomainError("rotation values must lie in [0, 1]")
    count = 2**state.n_data_qubits
    if phi.size > count:
        raise DomainError("more rotation values than data states")
    full = np.zeros(count)
    full[: phi.size] = np.clip(phi, 0.0, 1.0)
    sin = np.sqrt(full)
    cos = np.sqrt(1.0 - full)
    a0 = state.amplitudes[0::2]
    a1 = state.amplitudes[1::2]
    out = np.empty_like(state.amplitudes)
    out[0::2] = cos * a0 - sin * a1
    out[1::2] = sin * a0 + cos * a1
    return Statevector(out, state.n_data_qubits)


def prepare(masses, values) -> Statevector:
    """The loaded-and-rotated state U |0...0>|0>."""
    return rotate_payoff(load_masses(masses), values)


class GroverOperator:
    """G = (2|psi0><psi0| - I) S_chi with psi0 = prepare(masses, values)."""

    def __init__(self, masses, values):
        self._psi0 = prepare(masses, values).amplitudes

    def apply(self, state: Statevector, power: int = 1) -> Statevector:
        if power < 0:
            raise DomainError("power must be >= 0")
        v = state.amplitudes.copy()
        for _ in range(power):
            v[1::2] *= -1.0  # reflect about the bad subspace (ancilla 0)
            v = 2.0 * np.vdot(self._psi0, v) * self._psi0 - v
        return Statevector(v, state.n_data_qubits)
