"""Exact NIG sampling, a Monte Carlo oracle for the density tests."""

import numpy as np

from qamcpricer.errors import DomainError
from qamcpricer.nig import NIGParams


def sample_nig(p: NIGParams, t: float, rng: np.random.Generator, count: int) -> np.ndarray:
    """Draw i.i.d. NIG(alpha, beta, delta*t, mu*t) samples.

    Normal variance-mean mixture: X = mu t + beta Z + sqrt(Z) N(0,1) with Z
    inverse-Gaussian with mean delta*t/gamma and shape (delta*t)^2, generated
    by the exact transformation-with-rejection scheme (numpy's Wald sampler).
    """
    if count < 1:
        raise DomainError("count must be >= 1")
    dt = p.delta * t
    z = rng.wald(dt / p.gamma, dt * dt, size=count)
    return p.mu * t + p.beta * z + np.sqrt(z) * rng.standard_normal(count)
