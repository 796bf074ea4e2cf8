"""Riesz kernels and dense kernel matrix assembly.

The kernel on R^dim is |x - y| ** (alpha - dim) with 0 < alpha < dim and
dim >= 3. Everything here is dense double precision; node sets are meant
to stay in the low thousands, so an (N, N) matrix is always affordable.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray
from scipy.spatial.distance import cdist

#: Two nodes closer than this are treated as the same physical point.
COINCIDENCE_TOL = 1e-12

#: Ratio of nearest-neighbor spacing to equal-area patch radius on
#: near-uniform surface lattices; calibrates the automatic diagonal scale.
PATCH_SPACING_RATIO = 1.9


class KernelDomainError(ValueError):
    """Input outside the kernel's domain (bad parameters, NaN or coincident nodes)."""


@dataclass(frozen=True)
class RieszKernel:
    """Radial kernel |x - y| ** (alpha - dim).

    Parameters
    ----------
    alpha : float
        Order of the kernel, 0 < alpha < dim.
    dim : int
        Ambient space dimension, at least 3.
    """

    alpha: float
    dim: int

    def __post_init__(self) -> None:
        if int(self.dim) != self.dim or self.dim < 3:
            raise KernelDomainError(f"dim must be an integer >= 3, got {self.dim}")
        if not (0.0 < self.alpha < self.dim):
            raise KernelDomainError(
                f"alpha must lie in (0, dim), got alpha={self.alpha} dim={self.dim}"
            )

    @property
    def exponent(self) -> float:
        return self.alpha - self.dim

    def __call__(self, x, y) -> float:
        """Kernel value at a pair of points; +inf when the points coincide."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.shape != (self.dim,) or y.shape != (self.dim,):
            raise KernelDomainError("points must be 1-d arrays of length dim")
        if not (np.isfinite(x).all() and np.isfinite(y).all()):
            raise KernelDomainError("points must be finite")
        r = float(np.linalg.norm(x - y))
        if r == 0.0:
            return np.inf
        return r ** self.exponent


@dataclass(frozen=True)
class DiagonalPolicy:
    """Rule for the self-interaction entries of a same-node-set kernel matrix.

    ``zero`` drops them, which biases energies low but keeps plain quadrature
    semantics. ``nearest_neighbor`` fills entry i with
    ``nn_scale * d_i ** (alpha - dim)`` where d_i is the node's nearest-neighbor
    distance; with ``nn_scale=None`` the scale is calibrated from a uniform
    patch model, which makes sphere energies accurate to a few 1e-4 and the
    assembled matrices positive definite in practice.
    """

    mode: str
    nn_scale: float | None = None

    _MODES = ("zero", "nearest_neighbor")

    def __post_init__(self) -> None:
        if self.mode not in self._MODES:
            raise ValueError(f"mode must be one of {self._MODES}, got {self.mode!r}")
        if self.nn_scale is not None and not (self.nn_scale > 0.0):
            raise ValueError(f"nn_scale must be positive, got {self.nn_scale}")
        if self.mode == "zero" and self.nn_scale is not None:
            raise ValueError("nn_scale has no meaning for the zero policy")

    @staticmethod
    def zero() -> "DiagonalPolicy":
        return DiagonalPolicy("zero")

    @staticmethod
    def nearest_neighbor(nn_scale: float | None = None) -> "DiagonalPolicy":
        return DiagonalPolicy("nearest_neighbor", nn_scale)

    def scale_for(self, kernel: RieszKernel) -> float:
        """Effective nn_scale for a kernel, resolving the automatic calibration.

        The patch model integrates the kernel over a uniform (dim-1)-ball of
        radius R around a node, giving ((dim-1)/(alpha-1)) * R ** (alpha-dim);
        expressed in units of the nearest-neighbor distance d = 1.9 R this is
        the formula below. The model needs alpha > 1; otherwise fall back to 1.
        """
        if self.nn_scale is not None:
            return self.nn_scale
        if kernel.alpha <= 1.0:
            return 1.0
        return ((kernel.dim - 1) / (kernel.alpha - 1)) * PATCH_SPACING_RATIO ** (
            kernel.dim - kernel.alpha
        )

    def diagonal(self, kernel: RieszKernel, spacings: NDArray) -> NDArray:
        if self.mode == "zero":
            return np.zeros(len(spacings))
        spacings = np.asarray(spacings, dtype=float)
        if not np.isfinite(spacings).all() or (spacings <= 0).any():
            raise KernelDomainError(
                "nearest_neighbor diagonal needs finite positive spacings "
                "(a single-node set has none)"
            )
        return self.scale_for(kernel) * spacings ** kernel.exponent


def _check_points(points: NDArray, dim: int, name: str) -> NDArray:
    points = np.ascontiguousarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != dim:
        raise KernelDomainError(f"{name} must be an (N, {dim}) array")
    if not np.isfinite(points).all():
        raise KernelDomainError(f"{name} contains non-finite coordinates")
    return points


def kernel_matrix(
    kernel: RieszKernel,
    points_a: NDArray,
    points_b: NDArray | None = None,
    policy: DiagonalPolicy | None = None,
    spacings: NDArray | None = None,
) -> NDArray:
    """Dense kernel matrix between two node sets.

    When ``points_b`` is omitted (or is the same node set), the diagonal
    follows ``policy`` and off-diagonal coincidences within COINCIDENCE_TOL
    are rejected. Between distinct sets the raw values are returned and a
    zero distance yields +inf. ``spacings`` overrides the nearest-neighbor
    distances used by the diagonal policy.
    """
    if policy is None:
        policy = DiagonalPolicy.zero()
    points_a = _check_points(points_a, kernel.dim, "points_a")
    same = points_b is None or points_b is points_a
    if not same:
        points_b = _check_points(points_b, kernel.dim, "points_b")
        same = points_a.shape == points_b.shape and np.array_equal(points_a, points_b)
    if same:
        off = cdist(points_a, points_a)
        np.fill_diagonal(off, np.inf)
        if len(points_a) > 1 and off.min() < COINCIDENCE_TOL:
            i, j = np.unravel_index(np.argmin(off), off.shape)
            raise KernelDomainError(
                f"nodes {i} and {j} coincide within {COINCIDENCE_TOL:g} "
                f"(distance {off[i, j]:.3e})"
            )
        if spacings is None:
            spacings_arr = off.min(axis=1) if len(points_a) > 1 else np.full(1, np.inf)
        else:
            spacings_arr = np.asarray(spacings, dtype=float)
        mat = np.power(off, kernel.exponent, out=off)
        np.fill_diagonal(mat, policy.diagonal(kernel, spacings_arr))
        return mat
    dist = cdist(points_a, points_b)
    with np.errstate(divide="ignore"):
        mat = np.where(dist > 0.0, dist, 1.0) ** kernel.exponent
    mat[dist == 0.0] = np.inf
    return mat
