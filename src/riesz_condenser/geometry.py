"""Plate geometry: shape descriptions, node samplers, condenser assembly.

A condenser is an ordered family of plates, each a finite node set with a
sign. Oppositely signed plates must keep a positive distance; the minimum
cross-sign gap is recorded because it controls how ill-conditioned the
energy problem is.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np
from numpy.typing import NDArray
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist
from scipy.spatial.transform import Rotation

from .kernels import COINCIDENCE_TOL

_GOLDEN_ANGLE = np.pi * (3.0 - np.sqrt(5.0))
_DEFAULT_SEED = 42


class CondenserGeometryError(ValueError):
    """Invalid plate geometry: coincident nodes or touching opposite signs."""


@dataclass(frozen=True)
class Sphere:
    """Round sphere of the given center and radius."""

    center: tuple[float, ...]
    radius: float

    def __post_init__(self) -> None:
        if not (self.radius > 0.0):
            raise ValueError(f"radius must be positive, got {self.radius}")
        if len(self.center) < 3:
            raise ValueError("center must have at least 3 coordinates")

    @property
    def dim(self) -> int:
        return len(self.center)


@dataclass(frozen=True)
class RevolutionSurface:
    """Surface of revolution x2^2 + x3^2 = exp(-2 * x1^r) for x1 in [x1_min, x1_max].

    Lives in R^3. The exponent r > 1 makes the profile decay faster than
    any single exponential, producing a cusp-like thin end at large x1.
    """

    r_exponent: float
    x1_min: float
    x1_max: float

    def __post_init__(self) -> None:
        if not (self.r_exponent > 1.0):
            raise ValueError(f"r_exponent must exceed 1, got {self.r_exponent}")
        if not (self.x1_min >= 1.0):
            raise ValueError(f"x1_min must be at least 1, got {self.x1_min}")
        if not (self.x1_max > self.x1_min):
            raise ValueError("x1_max must exceed x1_min")

    @property
    def dim(self) -> int:
        return 3

    def radius_at(self, x1) -> NDArray:
        return np.exp(-np.asarray(x1, dtype=float) ** self.r_exponent)


@dataclass(frozen=True)
class PointCloudFile:
    """Nodes read verbatim from a whitespace-delimited text file, one per row."""

    path: str


Shape = Sphere | RevolutionSurface | PointCloudFile


@dataclass(frozen=True)
class PlateSpec:
    """Recipe for one plate: a shape, a sign, and a sampling budget.

    ``node_count`` is required for sampled shapes and ignored for point
    cloud files, whose row count decides. ``seed`` overrides the condenser
    level seed chain for this plate only.
    """

    shape: Shape
    sign: int
    node_count: int | None = None
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {self.sign}")
        if isinstance(self.shape, PointCloudFile):
            if self.node_count is not None:
                raise ValueError("node_count is taken from the file for point clouds")
        else:
            if self.node_count is None or self.node_count < 2:
                raise ValueError("node_count must be at least 2 for sampled shapes")


class Plate:
    """A signed finite node set. Nodes must be pairwise distinct."""

    def __init__(self, points: NDArray, sign: int, label: str = "") -> None:
        points = np.ascontiguousarray(points, dtype=float)
        if points.ndim != 2 or points.shape[0] < 1 or points.shape[1] < 3:
            raise CondenserGeometryError("points must be (N, dim) with N >= 1, dim >= 3")
        if not np.isfinite(points).all():
            raise CondenserGeometryError("plate nodes must be finite")
        if sign not in (1, -1):
            raise CondenserGeometryError(f"sign must be +1 or -1, got {sign}")
        if len(points) > 1:
            pairs = cKDTree(points).query_pairs(r=COINCIDENCE_TOL)
            if pairs:
                i, j = sorted(pairs)[0]
                raise CondenserGeometryError(
                    f"plate nodes {i} and {j} coincide within {COINCIDENCE_TOL:g}"
                )
        self.points = points
        self.sign = int(sign)
        self.label = label
        self.points.setflags(write=False)

    def __len__(self) -> int:
        return len(self.points)

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @cached_property
    def spacings(self) -> NDArray:
        """Distance from each node to its nearest neighbor on the same plate."""
        if len(self.points) < 2:
            return np.full(len(self.points), np.inf)
        return nearest_neighbor_spacing(self.points)

    def __repr__(self) -> str:
        tag = f" {self.label!r}" if self.label else ""
        return f"Plate(sign={self.sign:+d}, nodes={len(self)}, dim={self.dim}{tag})"


class Condenser:
    """Ordered plate family with signs. Opposite-sign plates may not touch."""

    def __init__(self, plates: list[Plate] | tuple[Plate, ...]) -> None:
        plates = tuple(plates)
        if not plates:
            raise CondenserGeometryError("a condenser needs at least one plate")
        dim = plates[0].dim
        if any(p.dim != dim for p in plates):
            raise CondenserGeometryError("all plates must share one ambient dimension")
        min_cross = np.inf
        for i in range(len(plates)):
            for j in range(i + 1, len(plates)):
                if plates[i].sign == plates[j].sign:
                    continue
                d = cdist(plates[i].points, plates[j].points).min()
                if d < COINCIDENCE_TOL:
                    raise CondenserGeometryError(
                        f"plates {i} and {j} carry opposite signs but share a node "
                        f"(distance {d:.3e})"
                    )
                min_cross = min(min_cross, d)
        self.plates = plates
        self.dim = dim
        self.min_cross_sign_distance = float(min_cross)

    def __len__(self) -> int:
        return len(self.plates)

    @property
    def signs(self) -> NDArray:
        return np.array([p.sign for p in self.plates])

    @property
    def total_nodes(self) -> int:
        return sum(len(p) for p in self.plates)

    def node_slices(self) -> list[slice]:
        """Index ranges of each plate inside the stacked node vector."""
        out, start = [], 0
        for p in self.plates:
            out.append(slice(start, start + len(p)))
            start += len(p)
        return out

    def stacked_points(self) -> NDArray:
        return np.vstack([p.points for p in self.plates])

    def __repr__(self) -> str:
        inner = ", ".join(f"{p.sign:+d}x{len(p)}" for p in self.plates)
        return f"Condenser([{inner}], dim={self.dim})"


def nearest_neighbor_spacing(points: NDArray) -> NDArray:
    """Per-node distance to the nearest other node."""
    points = np.asarray(points, dtype=float)
    if len(points) < 2:
        raise ValueError("need at least two nodes for a spacing")
    d, _ = cKDTree(points).query(points, k=2)
    return d[:, 1]


def sample_sphere(
    center, radius: float, count: int, seed: int = _DEFAULT_SEED
) -> NDArray:
    """Near-uniform nodes on a sphere.

    In R^3 this is a Fibonacci lattice (poles included, so count=2 gives an
    antipodal pair) under a seeded random rotation. In higher dimensions it
    falls back to normalized Gaussian directions.
    """
    center = np.asarray(center, dtype=float)
    dim = center.shape[0]
    if center.ndim != 1 or dim < 3:
        raise ValueError("center must be a vector in R^dim, dim >= 3")
    if not (radius > 0.0):
        raise ValueError("radius must be positive")
    if count < 2:
        raise ValueError("count must be at least 2")
    rng = np.random.default_rng(seed)
    if dim == 3:
        i = np.arange(count, dtype=float)
        z = 1.0 - 2.0 * i / (count - 1)
        phi = i * _GOLDEN_ANGLE
        rho = np.sqrt(np.maximum(0.0, 1.0 - z * z))
        u = np.column_stack([rho * np.cos(phi), rho * np.sin(phi), z])
        u = Rotation.random(random_state=rng).apply(u)
    else:
        u = rng.standard_normal((count, dim))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    return center + radius * u


def sample_revolution_surface(
    surface: RevolutionSurface, count: int, seed: int = _DEFAULT_SEED
) -> NDArray:
    """Nodes on a revolution surface, uniform in profile arc length.

    Axial positions are the arc-length midpoints of ``count`` equal segments
    of the profile curve; angles follow a golden-angle spiral with a seeded
    offset, which avoids axial alignment artifacts.
    """
    if count < 2:
        raise ValueError("count must be at least 2")
    grid = np.linspace(surface.x1_min, surface.x1_max, 4097)
    rho = surface.radius_at(grid)
    drho = -surface.r_exponent * grid ** (surface.r_exponent - 1.0) * rho
    speed = np.sqrt(1.0 + drho * drho)
    # The cumulative trapezoid rule, in scipy.integrate's order of operations.
    arclen = np.concatenate(
        ([0.0], np.cumsum(np.diff(grid) * (speed[1:] + speed[:-1]) / 2.0))
    )
    targets = (np.arange(count) + 0.5) / count * arclen[-1]
    x1 = np.interp(targets, arclen, grid)
    r = surface.radius_at(x1)
    theta = np.arange(count) * _GOLDEN_ANGLE + np.random.default_rng(seed).uniform(
        0.0, 2.0 * np.pi
    )
    return np.column_stack([x1, r * np.cos(theta), r * np.sin(theta)])


def load_point_cloud(path: str | Path) -> NDArray:
    points = np.loadtxt(path, ndmin=2)
    if points.ndim != 2 or points.shape[1] < 3:
        raise CondenserGeometryError(
            f"{path}: expected rows of at least 3 coordinates"
        )
    if not np.isfinite(points).all():
        raise CondenserGeometryError(f"{path}: non-finite coordinates")
    return points


def sample_shape(shape: Shape, count: int | None, seed: int) -> NDArray:
    if isinstance(shape, Sphere):
        return sample_sphere(shape.center, shape.radius, count, seed)
    if isinstance(shape, RevolutionSurface):
        return sample_revolution_surface(shape, count, seed)
    if isinstance(shape, PointCloudFile):
        return load_point_cloud(shape.path)
    raise TypeError(f"unknown shape {type(shape).__name__}")


def build_condenser(specs: list[PlateSpec] | tuple[PlateSpec, ...], seed: int = _DEFAULT_SEED) -> Condenser:
    """Sample every plate spec and assemble the condenser.

    Plate k without an explicit seed uses ``seed + k``, so one condenser
    seed pins the whole geometry deterministically.
    """
    plates = []
    for k, spec in enumerate(specs):
        plate_seed = spec.seed if spec.seed is not None else seed + k
        points = sample_shape(spec.shape, spec.node_count, plate_seed)
        plates.append(Plate(points, spec.sign, label=f"plate{k}"))
    return Condenser(plates)
