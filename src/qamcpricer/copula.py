"""Gaussian copula density, joint-density assembly, and grid density bounds.

The copula density with correlation matrix Sigma is

    c(u) = det(Sigma)^{-1/2} exp(-z^T (Sigma^{-1} - I) z / 2),   z_i = Phi^{-1}(u_i),

which multiplies the product of marginals to form the joint density (Sklar).
Pricing under independent marginals weights the payoff by c(F_1,...,F_N):
the whole dependence structure rides on that multiplicative factor.

c(u) is unbounded at the corners of the cube for any Sigma != I, so the
c_max used to keep the adjusted payoff h c / (h_max c_max) in [0, 1] is taken
over the copula weights of the discrete pricing grid actually in use (plus a
small safety factor), not over the open cube.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ValidationError
from .numerics import std_normal_quantile

__all__ = [
    "CopulaSpec",
    "gaussian_copula_density",
    "copula_density_at_cdf_values",
    "joint_pdf",
    "grid_c_max",
    "grid_c_prime_max",
    "copula_weights_on_grid",
    "load_correlation",
    "CLAMP_EPS",
]

logger = logging.getLogger(__name__)

CLAMP_EPS = 1e-12


@dataclass(frozen=True)
class CopulaSpec:
    """Correlation matrix with its inverse and determinant.

    Grid-level bounds of the density belong to a grid, not to the matrix:
    GridMeasure.build takes c_max from the weights it computes (grid_c_max),
    and grid_c_prime_max bounds the derivative on a grid.
    """

    sigma: np.ndarray
    inv: np.ndarray
    det: float

    @classmethod
    def from_matrix(cls, sigma) -> "CopulaSpec":
        sigma = np.asarray(sigma, dtype=float)
        if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1]:
            raise ValidationError("correlation matrix must be square")
        if not np.allclose(sigma, sigma.T, atol=1e-12):
            raise ValidationError("correlation matrix must be symmetric")
        if not np.allclose(np.diag(sigma), 1.0, atol=1e-12):
            raise ValidationError("correlation matrix must have unit diagonal")
        try:
            np.linalg.cholesky(sigma)
        except np.linalg.LinAlgError as exc:
            raise ValidationError("correlation matrix must be positive definite") from exc
        return cls(sigma=sigma, inv=np.linalg.inv(sigma), det=float(np.linalg.det(sigma)))

    @property
    def dim(self) -> int:
        return self.sigma.shape[0]

    @property
    def is_identity(self) -> bool:
        return bool(np.array_equal(self.sigma, np.eye(self.dim)))

    @property
    def cholesky(self) -> np.ndarray:
        return np.linalg.cholesky(self.sigma)


def _density_from_unit(u: np.ndarray, spec: CopulaSpec) -> np.ndarray:
    z = std_normal_quantile(u)
    z = np.atleast_2d(z)
    quad = np.einsum("...i,ij,...j->...", z, spec.inv - np.eye(spec.dim), z)
    return np.exp(-0.5 * quad) / math.sqrt(spec.det)


def gaussian_copula_density(u, spec: CopulaSpec):
    """Copula density at u in the open cube (0, 1)^N; strictly positive."""
    u_arr = np.asarray(u, dtype=float)
    if u_arr.shape[-1] != spec.dim:
        raise DomainError(f"expected {spec.dim}-dimensional u, got shape {u_arr.shape}")
    if np.any(u_arr <= 0.0) or np.any(u_arr >= 1.0):
        raise DomainError("copula density requires every u_i strictly inside (0, 1)")
    out = _density_from_unit(u_arr, spec)
    return float(out[0]) if u_arr.ndim == 1 else out.reshape(u_arr.shape[:-1])


def _clamped_unit(u: np.ndarray) -> np.ndarray:
    clipped = np.clip(u, CLAMP_EPS, 1.0 - CLAMP_EPS)
    moved = int(np.count_nonzero(clipped != u))
    if moved:
        logger.debug("clamped %d CDF values away from {0,1}", moved)
    return clipped


def copula_density_at_cdf_values(cdf_values, spec: CopulaSpec):
    """Copula density at possibly-saturated CDF values (clamped into the cube).

    Unlike gaussian_copula_density this tolerates exact 0/1 coordinates,
    which truncated CDFs produce at grid edges.
    """
    u = np.asarray(cdf_values, dtype=float)
    if u.shape[-1] != spec.dim:
        raise DomainError(f"expected {spec.dim}-dimensional CDF values, got shape {u.shape}")
    if spec.is_identity:
        return 1.0 if u.ndim == 1 else np.ones(u.shape[:-1])
    out = _density_from_unit(_clamped_unit(u), spec)
    return float(out[0]) if u.ndim == 1 else out.reshape(u.shape[:-1])


def copula_weights_on_grid(spec: CopulaSpec, unit_coords: list[np.ndarray]) -> np.ndarray:
    """c(u_1,...,u_N) on the tensor grid of per-dimension CDF values.

    CDF values exactly at 0 or 1 (truncated-CDF saturation) are clamped into
    the open cube with a diagnostic count.
    """
    if len(unit_coords) != spec.dim:
        raise DomainError("one coordinate vector per dimension required")
    if spec.is_identity:
        shape = tuple(len(c) for c in unit_coords)
        return np.ones(shape)
    mesh = np.meshgrid(*[_clamped_unit(np.asarray(c, dtype=float)) for c in unit_coords], indexing="ij")
    u = np.stack(mesh, axis=-1)
    return _density_from_unit(u, spec).reshape(u.shape[:-1])


def joint_pdf(x, marginals, spec: CopulaSpec):
    """Joint density c(F_1(x_1),...,F_N(x_N)) * prod_i f_i(x_i).

    ``marginals`` is a list of (pdf, cdf) callables per asset.  With the
    identity matrix this reduces exactly to the product of the marginals.
    """
    x_arr = np.asarray(x, dtype=float)
    if x_arr.shape[-1] != spec.dim or len(marginals) != spec.dim:
        raise DomainError("dimension mismatch between x, marginals, and spec")
    dens = np.ones(x_arr.shape[:-1]) if x_arr.ndim > 1 else 1.0
    cdf_vals = np.empty_like(x_arr)
    for i, (pdf_i, cdf_i) in enumerate(marginals):
        xi = x_arr[..., i]
        dens = dens * np.asarray(pdf_i(xi), dtype=float)
        cdf_vals[..., i] = np.asarray(cdf_i(xi), dtype=float)
    out = copula_density_at_cdf_values(cdf_vals, spec) * dens
    return float(out) if x_arr.ndim == 1 else out


def grid_c_max(spec: CopulaSpec, weights: np.ndarray) -> float:
    """Max of a grid's copula weights (copula_weights_on_grid), times 1.01.

    Exactly 1.0 for the identity matrix (c is constant there, and the
    identity-collapse contracts require no slack).
    """
    if spec.is_identity:
        return 1.0
    weights = np.asarray(weights, dtype=float)
    if weights.size == 0:
        raise DomainError("grids must be non-empty")
    return 1.01 * float(weights.max())


def grid_c_prime_max(spec: CopulaSpec, marginal_cdfs, grids: list[np.ndarray], step: float = 1e-6) -> float:
    """Max |dc/du_i| over grid nodes by central differences (budgeting only)."""
    if spec.is_identity:
        return 0.0
    unit = [
        _clamped_unit(np.asarray(cdf(np.asarray(g, dtype=float)), dtype=float))
        for cdf, g in zip(marginal_cdfs, grids)
    ]
    mesh = np.meshgrid(*unit, indexing="ij")
    u = np.stack(mesh, axis=-1).reshape(-1, spec.dim)
    worst = 0.0
    for i in range(spec.dim):
        up = u.copy()
        dn = u.copy()
        up[:, i] = np.clip(up[:, i] + step, CLAMP_EPS, 1 - CLAMP_EPS)
        dn[:, i] = np.clip(dn[:, i] - step, CLAMP_EPS, 1 - CLAMP_EPS)
        width = up[:, i] - dn[:, i]
        ok = width > 0
        deriv = np.abs(
            _density_from_unit(up[ok], spec) - _density_from_unit(dn[ok], spec)
        ) / width[ok]
        worst = max(worst, float(deriv.max()))
    return worst


def load_correlation(source) -> tuple[list[str], CopulaSpec]:
    """Parse ``{"assets": [...], "sigma": [[...]]}`` (dict, JSON string, or path)."""
    if isinstance(source, dict):
        data = source
    else:
        text = str(source)
        if text.lstrip().startswith("{"):
            data = json.loads(text)
        else:
            with open(text) as handle:
                data = json.load(handle)
    assets = list(data["assets"])
    spec = CopulaSpec.from_matrix(np.asarray(data["sigma"], dtype=float))
    if len(assets) != spec.dim:
        raise ValidationError("asset list length must match matrix dimension")
    return assets, spec
