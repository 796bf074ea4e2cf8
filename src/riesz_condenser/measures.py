"""Discrete measures, vector measures on condensers, and energy forms.

All measures are finite sums of point masses. Vector measures assign one
nonnegative weight vector per plate; the interaction matrix carries the
plate signs, so the quadratic form below is the signed condenser energy.
Nodes shared by two same-sign plates interact through the diagonal policy
rather than through a near-singular kernel value.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray
from scipy.sparse import coo_array
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist

from .geometry import Condenser, nearest_neighbor_spacing
from .kernels import (
    COINCIDENCE_TOL,
    DiagonalPolicy,
    KernelDomainError,
    RieszKernel,
    kernel_matrix,
)


class EnergyDegeneracyError(ArithmeticError):
    """A squared energy distance came out negative beyond rounding slack.

    The discrete energy form is only conditionally positive; when it fails
    on a difference of vector measures, the distance between them is not
    defined and downstream uniqueness arguments do not apply.
    """


def _check_distinct(points: NDArray, what: str) -> NDArray:
    points = np.ascontiguousarray(points, dtype=float)
    if points.ndim != 2 or points.shape[0] < 1:
        raise ValueError(f"{what} points must form an (N, dim) array with N >= 1")
    if not np.isfinite(points).all():
        raise ValueError(f"{what} points must be finite")
    if len(points) > 1:
        pairs = cKDTree(points).query_pairs(r=COINCIDENCE_TOL)
        if pairs:
            i, j = sorted(pairs)[0]
            raise ValueError(
                f"{what} nodes {i} and {j} coincide within {COINCIDENCE_TOL:g}"
            )
    return points


class SignedDiscreteMeasure:
    """Point masses with weights of either sign on pairwise distinct nodes."""

    def __init__(self, points: NDArray, weights: NDArray) -> None:
        self.points = _check_distinct(points, type(self).__name__)
        weights = np.ascontiguousarray(weights, dtype=float)
        if weights.shape != (len(self.points),):
            raise ValueError("weights must be one scalar per node")
        if not np.isfinite(weights).all():
            raise ValueError("weights must be finite")
        self._check_sign(weights)
        self.weights = weights
        self.points.setflags(write=False)
        self.weights.setflags(write=False)

    @staticmethod
    def _check_sign(weights: NDArray) -> None:
        pass

    @property
    def mass(self) -> float:
        return float(self.weights.sum())

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def __len__(self) -> int:
        return len(self.points)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(nodes={len(self)}, mass={self.mass:.6g})"


class DiscreteMeasure(SignedDiscreteMeasure):
    """Point masses with nonnegative weights."""

    @staticmethod
    def _check_sign(weights: NDArray) -> None:
        if (weights < 0).any():
            raise ValueError("weights must be nonnegative")


class ResultantMeasure(SignedDiscreteMeasure):
    """Signed measure obtained by summing a vector measure across plates.

    Carries per-node spacings inherited from the contributing plates so
    that energies computed through it reproduce the vector energy under
    any diagonal policy; where plates share a node the smallest spacing
    wins, which is exact whenever the sharing plates agree on it.
    """

    def __init__(self, points: NDArray, weights: NDArray, spacings: NDArray) -> None:
        super().__init__(points, weights)
        spacings = np.ascontiguousarray(spacings, dtype=float)
        if spacings.shape != (len(self.points),):
            raise ValueError("spacings must be one scalar per node")
        if (spacings <= 0).any() or np.isnan(spacings).any():
            raise ValueError("spacings must be positive (inf allowed)")
        self.spacings = spacings
        self.spacings.setflags(write=False)


def potential(kernel: RieszKernel, measure: SignedDiscreteMeasure, points: NDArray) -> NDArray:
    """Pointwise potential of a measure; +/-inf exactly on charged nodes."""
    points = np.ascontiguousarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != kernel.dim:
        raise KernelDomainError(f"points must be (N, {kernel.dim})")
    if not np.isfinite(points).all():
        raise KernelDomainError("evaluation points must be finite")
    live = measure.weights != 0.0
    if not live.any():
        return np.zeros(len(points))
    dist = cdist(points, measure.points[live])
    vals = np.where(dist > 0.0, dist, 1.0) ** kernel.exponent
    vals[dist == 0.0] = np.inf
    with np.errstate(invalid="ignore"):
        return vals @ measure.weights[live]


def _carried_spacings(measure: SignedDiscreteMeasure) -> NDArray | None:
    return getattr(measure, "spacings", None)


def _lazy_spacings(measure: SignedDiscreteMeasure) -> NDArray:
    carried = _carried_spacings(measure)
    if carried is not None:
        return carried
    if len(measure) < 2:
        return np.full(len(measure), np.inf)
    return nearest_neighbor_spacing(measure.points)


def mutual_energy(
    kernel: RieszKernel,
    mu: SignedDiscreteMeasure,
    nu: SignedDiscreteMeasure,
    policy: DiagonalPolicy | None = None,
) -> float:
    """Bilinear energy of two measures.

    The diagonal policy applies only when both measures live on the same
    node set; across distinct sets coincident nodes contribute +inf.
    """
    same = mu.points is nu.points or (
        mu.points.shape == nu.points.shape and np.array_equal(mu.points, nu.points)
    )
    wa, wb = mu.weights, nu.weights
    if same:
        spac_a = _carried_spacings(mu)
        spac_b = _carried_spacings(nu)
        spac = spac_a if spac_a is not None else spac_b
        if spac_a is not None and spac_b is not None:
            spac = np.minimum(spac_a, spac_b)
        mat = kernel_matrix(kernel, mu.points, policy=policy, spacings=spac)
        return float(wa @ mat @ wb)
    ia, ib = wa != 0.0, wb != 0.0
    if not (ia.any() and ib.any()):
        return 0.0
    mat = kernel_matrix(kernel, mu.points[ia], nu.points[ib])
    return float(wa[ia] @ mat @ wb[ib])


def energy(
    kernel: RieszKernel,
    mu: SignedDiscreteMeasure,
    policy: DiagonalPolicy | None = None,
) -> float:
    return mutual_energy(kernel, mu, mu, policy)


@dataclass(eq=False, frozen=True)
class DiscreteVectorMeasure:
    """One nonnegative weight vector per plate of a condenser."""

    weights: tuple[NDArray, ...]

    def __post_init__(self) -> None:
        cleaned = []
        for i, w in enumerate(self.weights):
            w = np.ascontiguousarray(w, dtype=float)
            if w.ndim != 1:
                raise ValueError(f"plate {i} weights must be a vector")
            if not np.isfinite(w).all() or (w < 0).any():
                raise ValueError(f"plate {i} weights must be finite and nonnegative")
            w.setflags(write=False)
            cleaned.append(w)
        object.__setattr__(self, "weights", tuple(cleaned))

    def validate_for(self, cond: Condenser) -> None:
        if len(self.weights) != len(cond):
            raise ValueError(
                f"vector measure has {len(self.weights)} components, "
                f"condenser has {len(cond)} plates"
            )
        for i, (w, p) in enumerate(zip(self.weights, cond.plates)):
            if len(w) != len(p):
                raise ValueError(
                    f"plate {i}: {len(w)} weights for {len(p)} nodes"
                )

    def mass(self, i: int) -> float:
        return float(self.weights[i].sum())

    @property
    def masses(self) -> NDArray:
        return np.array([w.sum() for w in self.weights])

    def stacked(self) -> NDArray:
        return np.concatenate(self.weights)

    def __len__(self) -> int:
        return len(self.weights)


@dataclass(eq=False, frozen=True)
class GridField:
    """External field given by its values on each plate's nodes.

    +inf marks nodes that no finite-energy measure may charge; -inf and
    NaN are rejected.
    """

    values: tuple[NDArray, ...]

    def __post_init__(self) -> None:
        cleaned = []
        for i, v in enumerate(self.values):
            v = np.ascontiguousarray(v, dtype=float)
            if v.ndim != 1:
                raise ValueError(f"plate {i} field values must be a vector")
            if np.isnan(v).any() or np.isneginf(v).any():
                raise ValueError(f"plate {i} field values must not be NaN or -inf")
            v.setflags(write=False)
            cleaned.append(v)
        object.__setattr__(self, "values", tuple(cleaned))


@dataclass(eq=False, frozen=True)
class PotentialField:
    """External field equal to the potential of a fixed signed source,
    taken with each plate's sign."""

    source: SignedDiscreteMeasure


@dataclass(eq=False, frozen=True)
class ProblemSpec:
    """Constraint data for a condenser problem.

    One mass target per plate; optional per-node upper bounds (caps),
    optional positive gauge densities weighting the mass functional, and
    an optional external field. ``None`` caps mean unbounded.
    """

    targets: tuple[float, ...]
    caps: tuple[NDArray | None, ...] | None = None
    gauges: tuple[NDArray | None, ...] | None = None
    field: GridField | PotentialField | None = None

    def __post_init__(self) -> None:
        if not self.targets:
            raise ValueError("need at least one mass target")
        for a in self.targets:
            if not (np.isfinite(a) and a > 0):
                raise ValueError(f"mass targets must be positive and finite, got {a}")

    def materialize(self, cond: Condenser) -> tuple[NDArray, list[NDArray], list[NDArray]]:
        """Resolve targets, caps, gauges against a condenser; validate shapes."""
        m = len(cond)
        if len(self.targets) != m:
            raise ValueError(f"{len(self.targets)} targets for {m} plates")
        targets = np.asarray(self.targets, dtype=float)
        caps_in = self.caps if self.caps is not None else (None,) * m
        gauges_in = self.gauges if self.gauges is not None else (None,) * m
        if len(caps_in) != m or len(gauges_in) != m:
            raise ValueError("caps and gauges must list one entry per plate")
        caps, gauges = [], []
        for i, plate in enumerate(cond.plates):
            n = len(plate)
            c = caps_in[i]
            if c is None:
                c = np.full(n, np.inf)
            else:
                c = np.ascontiguousarray(c, dtype=float)
                if c.shape != (n,):
                    raise ValueError(f"plate {i}: caps shape {c.shape} for {n} nodes")
                if np.isnan(c).any() or (c < 0).any():
                    raise ValueError(f"plate {i}: caps must be nonnegative")
            g = gauges_in[i]
            if g is None:
                g = np.ones(n)
            else:
                g = np.ascontiguousarray(g, dtype=float)
                if g.shape != (n,):
                    raise ValueError(f"plate {i}: gauge shape {g.shape} for {n} nodes")
                if not np.isfinite(g).all() or (g <= 0).any():
                    raise ValueError(f"plate {i}: gauge must be positive and finite")
            caps.append(c)
            gauges.append(g)
        if isinstance(self.field, GridField) and len(self.field.values) != m:
            raise ValueError("field must provide values for every plate")
        return targets, caps, gauges


def condenser_matrix(
    cond: Condenser,
    kernel: RieszKernel,
    policy: DiagonalPolicy | None = None,
) -> NDArray:
    """Signed interaction matrix over all nodes of all plates.

    Entry (p, q) is sign_i * sign_j * kernel(x_p, x_q) for nodes p on plate
    i and q on plate j; self-interactions and same-sign shared nodes follow
    the diagonal policy.
    """
    if policy is None:
        policy = DiagonalPolicy.zero()
    if cond.dim != kernel.dim:
        raise KernelDomainError(
            f"condenser lives in R^{cond.dim}, kernel in R^{kernel.dim}"
        )
    if len(cond) == 1:
        # The sign squared is 1: the kernel block is the matrix itself.
        pi = cond.plates[0]
        return kernel_matrix(kernel, pi.points, policy=policy, spacings=pi.spacings)
    slices = cond.node_slices()
    n = cond.total_nodes
    mat = np.empty((n, n))
    for i, pi in enumerate(cond.plates):
        for j in range(i, len(cond)):
            pj = cond.plates[j]
            s = pi.sign * pj.sign
            if j == i:
                block = kernel_matrix(kernel, pi.points, policy=policy, spacings=pi.spacings)
            else:
                block = _cross_block(kernel, pi, pj, policy)
            np.multiply(s, block, out=mat[slices[i], slices[j]])
            if j != i:
                np.multiply(s, block.T, out=mat[slices[j], slices[i]])
    return mat


def _cross_block(kernel: RieszKernel, pa, pb, policy: DiagonalPolicy) -> NDArray:
    dist = cdist(pa.points, pb.points)
    block = np.where(dist > 0.0, dist, 1.0) ** kernel.exponent
    shared = dist < COINCIDENCE_TOL
    if shared.any():
        ii, jj = np.nonzero(shared)
        spac = np.minimum(pa.spacings[ii], pb.spacings[jj])
        block[ii, jj] = policy.diagonal(kernel, spac)
    return block


def field_values(
    cond: Condenser,
    field_spec: GridField | PotentialField | None,
    kernel: RieszKernel,
    policy: DiagonalPolicy | None = None,
) -> list[NDArray] | None:
    """Per-plate field vectors, or None when there is no field.

    A potential-type field is evaluated through the same shared-node rules
    as the interaction matrix, so source nodes lying on a plate contribute
    policy values instead of infinities.
    """
    if field_spec is None:
        return None
    if isinstance(field_spec, GridField):
        vals = field_spec.values
        if len(vals) != len(cond):
            raise ValueError("field must provide values for every plate")
        for i, (v, p) in enumerate(zip(vals, cond.plates)):
            if v.shape != (len(p),):
                raise ValueError(f"plate {i}: field shape {v.shape} for {len(p)} nodes")
        return [v.copy() for v in vals]
    if isinstance(field_spec, PotentialField):
        if policy is None:
            policy = DiagonalPolicy.zero()
        src = field_spec.source
        if src.dim != cond.dim:
            raise ValueError("field source dimension does not match the condenser")
        src_spac: NDArray | None = None
        out = []
        for plate in cond.plates:
            dist = cdist(plate.points, src.points)
            block = np.where(dist > 0.0, dist, 1.0) ** kernel.exponent
            shared = dist < COINCIDENCE_TOL
            if shared.any():
                if src_spac is None:
                    src_spac = _lazy_spacings(src)
                ii, jj = np.nonzero(shared)
                spac = np.minimum(plate.spacings[ii], src_spac[jj])
                block[ii, jj] = policy.diagonal(kernel, spac)
            out.append(plate.sign * (block @ src.weights))
        return out
    raise TypeError(f"unknown field type {type(field_spec).__name__}")


def resultant(cond: Condenser, mu: DiscreteVectorMeasure) -> ResultantMeasure:
    """Signed sum of the plate components, merging physically shared nodes.

    Nodes within COINCIDENCE_TOL collapse to one node at the first
    occurrence, weights adding with their plate signs and the smallest
    contributing spacing carried along.
    """
    mu.validate_for(cond)
    pts = cond.stacked_points()
    w = np.concatenate(
        [p.sign * wi for p, wi in zip(cond.plates, mu.weights)]
    )
    spac = np.concatenate([p.spacings for p in cond.plates])
    n = len(pts)
    pairs = cKDTree(pts).query_pairs(r=COINCIDENCE_TOL, output_type="ndarray")
    if len(pairs) == 0:
        return ResultantMeasure(pts, w, spac)
    adj = coo_array(
        (np.ones(len(pairs)), (pairs[:, 0], pairs[:, 1])), shape=(n, n)
    )
    _, labels = connected_components(adj, directed=False)
    # Aggregate by group representative, preserving first-occurrence order.
    rep_of_label = np.full(labels.max() + 1, -1, dtype=int)
    for idx in range(n - 1, -1, -1):
        rep_of_label[labels[idx]] = idx
    reps = rep_of_label[labels]
    out_w = np.zeros(n)
    out_s = np.full(n, np.inf)
    np.add.at(out_w, reps, w)
    np.minimum.at(out_s, reps, spac)
    keep_mask = reps == np.arange(n)
    return ResultantMeasure(pts[keep_mask], out_w[keep_mask], out_s[keep_mask])


def vector_energy(
    cond: Condenser,
    mu: DiscreteVectorMeasure,
    kernel: RieszKernel,
    policy: DiagonalPolicy | None = None,
) -> float:
    """Quadratic energy of a vector measure under the signed interaction."""
    mu.validate_for(cond)
    w = mu.stacked()
    mat = condenser_matrix(cond, kernel, policy)
    return float(w @ mat @ w)


def gauss_energy(
    cond: Condenser,
    mu: DiscreteVectorMeasure,
    problem: ProblemSpec,
    kernel: RieszKernel,
    policy: DiagonalPolicy | None = None,
) -> float:
    """Energy plus twice the field pairing; +inf field on uncharged nodes
    contributes zero."""
    quad = vector_energy(cond, mu, kernel, policy)
    fvals = field_values(cond, problem.field, kernel, policy)
    if fvals is None:
        return quad
    lin = 0.0
    for v, wi in zip(fvals, mu.weights):
        live = wi != 0.0
        if live.any():
            lin += float(v[live] @ wi[live])
    return quad + 2.0 * lin


def semimetric(
    cond: Condenser,
    mu: DiscreteVectorMeasure,
    nu: DiscreteVectorMeasure,
    kernel: RieszKernel,
    policy: DiagonalPolicy | None = None,
) -> float:
    """Energy distance between two vector measures on one condenser.

    Raises EnergyDegeneracyError when the squared distance is negative
    beyond the rounding slack of the bilinear form.
    """
    mu.validate_for(cond)
    nu.validate_for(cond)
    return _energy_distance(condenser_matrix(cond, kernel, policy), mu.stacked() - nu.stacked())


#: Rows of |mat| taken at a time, so that no pass over |mat| allocates a
#: second N x N array.
_ROW_BLOCK = 256


def _abs_row_blocks(mat: NDArray):
    """Yield (row slice, |mat[row slice]|) over consecutive row blocks."""
    for i in range(0, len(mat), _ROW_BLOCK):
        rows = slice(i, i + _ROW_BLOCK)
        yield rows, np.abs(mat[rows])


def _energy_distance(mat: NDArray, diff: NDArray) -> float:
    """Square root of diff . mat . diff; raises EnergyDegeneracyError when
    the square is negative beyond the rounding slack of the form."""
    val = float(diff @ mat @ diff)
    ad = np.abs(diff)
    scale = sum(float(ad[rows] @ block @ ad) for rows, block in _abs_row_blocks(mat))
    if val < -1e-10 * max(1.0, scale):
        raise EnergyDegeneracyError(
            f"squared energy distance {val:.6e} is negative beyond slack "
            f"(cancellation scale {scale:.3e}); the discrete form is "
            "indefinite on this difference"
        )
    return float(np.sqrt(max(val, 0.0)))


def weighted_potentials(
    cond: Condenser,
    mu: DiscreteVectorMeasure,
    problem: ProblemSpec | None,
    kernel: RieszKernel,
    policy: DiagonalPolicy | None = None,
) -> list[NDArray]:
    """Per-plate values of the signed interaction potential plus the field."""
    mu.validate_for(cond)
    mat = condenser_matrix(cond, kernel, policy)
    vec = mat @ mu.stacked()
    fvals = field_values(cond, problem.field, kernel, policy) if problem else None
    out = []
    for i, sl in enumerate(cond.node_slices()):
        w = vec[sl]
        if fvals is not None:
            w = w + fvals[i]
        out.append(w)
    return out
