"""Projected gradient solvers for discrete condenser energy problems.

The constrained problem minimizes the signed quadratic energy plus a field
term over vector measures with fixed per-plate gauge masses, nonnegative
weights, and optional per-node caps. The feasible set is a product of
capped simplices, so the workhorse is an accelerated projected gradient
method with a monotone safeguard; every accepted iterate has an objective
no larger than the previous one.
"""
from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray
from scipy.linalg.blas import dsymv
from scipy.spatial.distance import cdist

from .geometry import Condenser, Plate
from .kernels import DiagonalPolicy, KernelDomainError, RieszKernel, kernel_matrix
from .measures import (
    DiscreteMeasure,
    DiscreteVectorMeasure,
    ProblemSpec,
    SignedDiscreteMeasure,
    _abs_row_blocks,
    condenser_matrix,
    field_values,
    potential,
)

#: Opposite-sign node pairs closer than this are watched for mass pile-up.
SHORT_CIRCUIT_DISTANCE = 1e-9


class InfeasibleProblemError(ValueError):
    """The caps cannot carry the requested gauge mass."""

    def __init__(self, message: str, deficit: float | None = None) -> None:
        super().__init__(message)
        self.deficit = deficit


class ShortCircuitError(RuntimeError):
    """Mass is concentrating on a near-touching opposite-sign node pair.

    When two plates of opposite sign nearly touch, the signed energy is
    unbounded below along measures that pile charge onto the touching
    nodes, and the iteration chases that direction instead of an
    equilibrium. The geometry needs a genuine gap at the working
    resolution.
    """

    def __init__(self, message: str, distance: float | None = None) -> None:
        super().__init__(message)
        self.distance = distance


class DegenerateProblemError(ValueError):
    """The problem admits no meaningful equilibrium at this discretization."""


@dataclass(frozen=True)
class SolveOptions:
    """Iteration controls shared by all solvers.

    Convergence is declared when the projected gradient residual falls
    under grad_tol relative to the gradient scale. At grad_tol=1e-9, 34 of
    36 tiny oracle instances converge (measured); the other two stall at 2.0
    and 2.7 times the bar. A stall stops the solve at once with stop_reason
    "stalled" and converged False; it does not run on to max_iters.
    """

    max_iters: int = 2000
    grad_tol: float = 1e-7
    step_rule: str = "armijo"
    restart_count: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if not (self.grad_tol > 0):
            raise ValueError("grad_tol must be positive")
        if self.step_rule not in ("armijo", "lipschitz"):
            raise ValueError("step_rule must be 'armijo' or 'lipschitz'")
        if self.restart_count < 1:
            raise ValueError("restart_count must be at least 1")


@dataclass(eq=False)
class SolveReport:
    """Outcome of a constrained or unconstrained solve.

    ``stop_reason`` says why the descent stopped: "converged" (the residual
    met grad_tol), "stalled" (an iteration left every quantity of the loop
    as it found it, so no further iteration could change anything) or
    "max_iters". Only "converged" sets ``converged``.
    """

    minimizer: DiscreteVectorMeasure
    energy: float
    multipliers: tuple[float, ...]
    kkt_max_violation: float
    iterations: int
    converged: bool
    stop_reason: str
    min_cross_sign_distance: float
    trace: NDArray
    message: str = ""


@dataclass(eq=False)
class CapacityResult:
    value: float
    energy: float
    report: SolveReport


@dataclass(eq=False)
class BalayageResult:
    """A measure swept onto a target node set.

    ``support_residual`` is the largest mismatch between the swept and
    source potentials on charged target nodes; ``complement_slack`` is the
    most negative excess on uncharged ones (nonnegative up to tolerance at
    an exact solution). ``stop_reason`` is as in SolveReport.
    """

    swept: DiscreteMeasure
    objective: float
    support_residual: float
    complement_slack: float
    iterations: int
    converged: bool
    stop_reason: str


def project_capped_simplex(
    x: NDArray,
    caps: NDArray | None = None,
    gauge: NDArray | None = None,
    target: float = 1.0,
) -> NDArray:
    """Euclidean projection onto {y : 0 <= y <= caps, gauge . y = target}.

    Solved by monotone bisection on the shift multiplier; the result's
    gauge mass matches the target to one part in 1e12 except in the exact
    boundary case where the caps barely carry the target, which returns
    the caps themselves.
    """
    x = np.asarray(x, dtype=float)
    n = len(x)
    caps = np.full(n, np.inf) if caps is None else np.asarray(caps, dtype=float)
    gauge = np.ones(n) if gauge is None else np.asarray(gauge, dtype=float)
    if caps.shape != x.shape or gauge.shape != x.shape:
        raise ValueError("x, caps and gauge must share one shape")
    if not np.isfinite(x).all():
        raise ValueError("x must be finite")
    if not (np.isfinite(target) and target > 0):
        raise ValueError(f"target mass must be positive and finite, got {target}")
    if not np.isfinite(gauge).all() or (gauge <= 0).any():
        raise ValueError("gauge must be positive and finite")
    if np.isnan(caps).any() or (caps < 0).any():
        raise ValueError("caps must be nonnegative")
    total = float(gauge @ np.where(np.isfinite(caps), caps, np.inf)) if n else 0.0
    if total < target * (1.0 - 1e-12):
        raise InfeasibleProblemError(
            f"caps carry gauge mass {total:.6g} < target {target:.6g}",
            deficit=target - total,
        )
    if total <= target * (1.0 + 1e-12):
        return caps.copy()

    def mass(t: float) -> float:
        return float(gauge @ np.clip(x - t * gauge, 0.0, caps))

    hi = float(np.max(x / gauge))
    finite = np.isfinite(caps)
    if finite.all():
        lo = float(np.min((x - caps) / gauge))
    else:
        lo = hi - 1.0
        while mass(lo) < target:
            lo = hi - 2.0 * (hi - lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        m = mass(mid)
        if m >= target:
            lo = mid
        else:
            hi = mid
        if abs(m - target) <= 1e-13 * target:
            break
        if hi - lo <= 1e-16 * max(1.0, abs(lo), abs(hi)):
            break
    t = 0.5 * (lo + hi)
    y = np.clip(x - t * gauge, 0.0, caps)
    # One exact Newton correction on the free set tightens the mass match.
    free = (y > 0.0) & (y < caps)
    slope = float(gauge[free] @ gauge[free])
    if slope > 0.0:
        y2 = np.clip(x - (t + (float(gauge @ y) - target) / slope) * gauge, 0.0, caps)
        if abs(float(gauge @ y2) - target) <= abs(float(gauge @ y) - target):
            y = y2
    return y


def _weighted_median(values: NDArray, weights: NDArray) -> float:
    order = np.argsort(values)
    v = values[order]
    cw = np.cumsum(weights[order])
    return float(v[np.searchsorted(cw, 0.5 * cw[-1])])


def plate_multiplier(
    w_pot: NDArray, weights: NDArray, caps: NDArray, gauge: NDArray, target: float
) -> float:
    """Equilibrium level of one plate from its weighted potential.

    Uses the gauge-weighted median of potential over gauge on interior
    nodes; with no interior nodes, the midpoint of the band bracketed by
    cap-active values from below and zero-active values from above.
    """
    eps = 1e-12 * target / len(weights)
    ratio = w_pot / gauge
    interior = (weights > eps) & (weights < caps - eps)
    if interior.any():
        return _weighted_median(ratio[interior], gauge[interior])
    at_cap = weights >= caps - eps
    at_zero = weights <= eps
    lo = float(ratio[at_cap].max()) if at_cap.any() else -np.inf
    hi = float(np.min(ratio[at_zero])) if at_zero.any() else np.inf
    if np.isfinite(lo) and np.isfinite(hi):
        return 0.5 * (lo + hi)
    if np.isfinite(lo):
        return lo
    if np.isfinite(hi):
        return hi
    return 0.0


def plate_kkt_violation(
    w_pot: NDArray,
    weights: NDArray,
    caps: NDArray,
    gauge: NDArray,
    target: float,
    level: float,
) -> float:
    """Largest inequality defect of the variational conditions on one plate.

    Below caps the weighted potential may not fall under level * gauge;
    on the support it may not exceed it.
    """
    eps = 1e-12 * target / len(weights)
    slack = w_pot - level * gauge
    below_cap = weights < caps - eps
    on_support = weights > eps
    v1 = float(np.max(-slack[below_cap], initial=0.0))
    with np.errstate(invalid="ignore"):
        v2 = float(np.max(slack[on_support], initial=0.0))
    return max(v1, v2, 0.0)


def _symv(mat: NDArray, w: NDArray) -> NDArray:
    """``mat @ w`` for an exactly symmetric matrix, reading one triangle; for
    a C-ordered ``mat``, ``mat.T`` is a Fortran view and BLAS copies nothing."""
    return dsymv(1.0, mat.T, w)


def _objective_pieces(mat: NDArray, lin: NDArray, w: NDArray) -> tuple[float, NDArray]:
    mv = _symv(mat, w)
    return float(w @ mv + 2.0 * (lin @ w)), 2.0 * (mv + lin)


@dataclass(eq=False)
class _Descent:
    """Where one descent stopped and why: ``stop_reason`` is "converged",
    "stalled" or "max_iters"; ``residual`` is the last projected-gradient
    residual and ``bar`` the grad_tol bar it was tested against."""

    x: NDArray
    energy: float
    trace: NDArray
    iterations: int
    stop_reason: str
    residual: float
    bar: float


def _descend(
    mat: NDArray,
    lin: NDArray,
    project: Callable[[NDArray], NDArray],
    w0: NDArray,
    options: SolveOptions,
    watch: Callable[[NDArray], None] | None = None,
    tangent: Callable[[NDArray], NDArray] = lambda d: d,
) -> _Descent:
    """Monotone accelerated projected gradient descent on one start point.

    ``project`` maps a vector onto the feasible set; ``tangent`` maps a
    difference of two feasible points onto the directions the constraints
    leave free (it may overwrite its argument); ``watch``, when given, sees
    every accepted iterate and may raise to abort the descent.

    One product with ``mat`` per trial: the gradient at the extrapolated
    point follows from the last two (FISTA). The step test is dz.(g_z - g_y)
    <= |dz|^2/s and, as f(z) - f(x) = (z - x).(g_z + g_x)/2 here, the monotone
    tests take that sign along ``tangent``: no test compares rounded objectives.
    """
    mat = np.ascontiguousarray(mat)
    lip = 2.0 * max(float(b.sum(axis=1).max()) for _, b in _abs_row_blocks(mat)) or 1.0
    base = 1.0 / lip
    x = project(np.asarray(w0, dtype=float))
    fx, gx = _objective_pieces(mat, lin, x)
    y, gy, ty = x, gx, 1.0
    step = base if options.step_rule == "lipschitz" else 2.5 * base
    trace = [fx]
    stop_reason = "max_iters"
    iters_done = 0
    for k in range(1, options.max_iters + 1):
        iters_done = k
        at_rest, step_in = ty == 1.0, step  # y is x whenever ty is 1
        s = step
        for _ in range(80):
            z = project(y - s * gy)
            dz = z - y
            fz, gz = _objective_pieces(mat, lin, z)
            if float(dz @ (gz - gy)) <= float(dz @ dz) / s:
                break
            s *= 0.5
        if options.step_rule == "armijo":
            step = min(s * 1.2, 50.0 * base)
        # Monotone safeguard: keep the better of the accelerated point and
        # the previous iterate, restarting momentum when acceleration fails.
        x_prev, gx_prev = x, gx
        if float(tangent(z - x) @ (gz + gx)) <= 0.0:
            x, fx, gx = z, fz, gz
            t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * ty * ty))
            beta = (ty - 1.0) / t_next
            y, gy = x + beta * (x - x_prev), gx + beta * (gx - gx_prev)
            ty = t_next
        else:
            # Acceleration overshot; fall back to a plain base step, which
            # can only lower the objective, and restart the momentum.
            ty = 1.0
            z2 = project(x - base * gx)
            f2, g2 = _objective_pieces(mat, lin, z2)
            if float(tangent(z2 - x) @ (g2 + gx)) <= 0.0:
                x, fx, gx = z2, f2, g2
            y, gy = x, gx
            if options.step_rule == "armijo":
                step = 2.5 * base
        trace.append(fx)
        if watch is not None:
            watch(x)
        residual = float(np.max(np.abs(x - project(x - base * gx)))) / base
        bar = options.grad_tol * max(1.0, float(np.max(np.abs(gx))))
        if residual <= bar:
            stop_reason = "converged"
            break
        # Began at rest, rejected both candidates (x is still x_prev) and
        # kept its step: the iteration ends in the state it began in, so
        # every later one would replay it bit for bit.
        if at_rest and x is x_prev and step == step_in:
            stop_reason = "stalled"
            break
    return _Descent(x, fx, np.asarray(trace), iters_done, stop_reason, residual, bar)


def _find_watch_pairs(cond: Condenser) -> list[tuple[int, int, int, int, float]]:
    if cond.min_cross_sign_distance >= SHORT_CIRCUIT_DISTANCE:
        return []
    slices = cond.node_slices()
    pairs = []
    for i, pi in enumerate(cond.plates):
        for j in range(i + 1, len(cond)):
            pj = cond.plates[j]
            if pi.sign == pj.sign:
                continue
            dist = cdist(pi.points, pj.points)
            for p, q in np.argwhere(dist < SHORT_CIRCUIT_DISTANCE):
                pairs.append(
                    (slices[i].start + p, slices[j].start + q, i, j, float(dist[p, q]))
                )
    return pairs


@dataclass(eq=False)
class _Assembly:
    """The parts of a solve fixed by its condenser, kernel, policy and
    field, shared by every problem that differs only in targets, caps or
    gauges. ``lin_raw`` is +inf on the nodes the field excludes."""

    cond: Condenser
    mat: NDArray
    lin_raw: NDArray
    watch_pairs: list[tuple[int, int, int, int, float]]


def _assemble(
    cond: Condenser, problem: ProblemSpec, kernel: RieszKernel, policy: DiagonalPolicy
) -> _Assembly:
    fvals = field_values(cond, problem.field, kernel, policy)
    lin_raw = np.zeros(cond.total_nodes) if fvals is None else np.concatenate(fvals)
    return _Assembly(
        cond, condenser_matrix(cond, kernel, policy), lin_raw, _find_watch_pairs(cond)
    )


def _plate_levels(
    asm: _Assembly, x: NDArray, caps: list, gauges: list, targets: NDArray
) -> tuple[NDArray, list[float], float]:
    """Weighted potential of ``x``, each plate's level and the worst defect."""
    w_pot = _symv(asm.mat, x) + asm.lin_raw
    levels, viol = [], 0.0
    for sl, c, g, a in zip(asm.cond.node_slices(), caps, gauges, targets):
        level = plate_multiplier(w_pot[sl], x[sl], c, g, a)
        levels.append(level)
        viol = max(viol, plate_kkt_violation(w_pot[sl], x[sl], c, g, a, level))
    return w_pot, levels, viol


def _solve(asm: _Assembly, problem: ProblemSpec, options: SolveOptions) -> SolveReport:
    cond, mat, lin_raw = asm.cond, asm.mat, asm.lin_raw
    targets, caps, gauges = problem.materialize(cond)
    slices = cond.node_slices()
    # Nodes with an infinite field can never carry mass; cap them to zero
    # and drop the infinity from the arithmetic.
    blocked = np.isinf(lin_raw)
    caps = [c.copy() for c in caps]
    for i, sl in enumerate(slices):
        caps[i][blocked[sl]] = 0.0
        room = float(gauges[i] @ caps[i])
        if room < targets[i] * (1.0 - 1e-12):
            extra = " (the field excludes some nodes)" if blocked[sl].any() else ""
            raise InfeasibleProblemError(
                f"plate {i}: caps carry gauge mass {room:.6g} < target "
                f"{targets[i]:.6g}{extra}",
                deficit=targets[i] - room,
            )
    lin = np.where(blocked, 0.0, lin_raw)

    def project(v: NDArray) -> NDArray:
        out = np.empty_like(v)
        for sl, c, g, a in zip(slices, caps, gauges, targets):
            out[sl] = project_capped_simplex(v[sl], c, g, a)
        return out

    # A feasible difference has no gauge component; dropping what rounding
    # leaves of it keeps the plate level out of the descent's tests.
    def tangent(d: NDArray) -> NDArray:
        for sl, g in zip(slices, gauges):
            d[sl] -= (float(g @ d[sl]) / float(g @ g)) * g
        return d

    watch = None
    if asm.watch_pairs:
        gauge_flat = np.concatenate(gauges)

        def watch(w: NDArray) -> None:
            for p, q, i, j, dist in asm.watch_pairs:
                if (
                    w[p] * gauge_flat[p] >= 0.45 * targets[i]
                    and w[q] * gauge_flat[q] >= 0.45 * targets[j]
                ):
                    raise ShortCircuitError(
                        f"about half of the mass of plates {i} and {j} sits on an "
                        f"opposite-sign node pair {dist:.3e} apart; the energy is "
                        "unbounded below at this geometry, refine the gap or the "
                        "node budget",
                        distance=dist,
                    )

    w0 = np.concatenate(
        [np.full(len(p), a / float(g.sum())) for p, a, g in zip(cond.plates, targets, gauges)]
    )
    best = None
    total_iters = 0
    for r in range(options.restart_count):
        if r == 0:
            start = w0
        else:
            rng = np.random.default_rng(options.seed + r)
            parts = []
            for sl, a, g in zip(slices, targets, gauges):
                d = rng.dirichlet(np.ones(sl.stop - sl.start)) / g
                d *= a / float(g @ d)
                parts.append(0.5 * w0[sl] + 0.5 * d)
            start = np.concatenate(parts)
        run = _descend(mat, lin, project, start, options, watch, tangent)
        total_iters += run.iterations
        if best is None or run.energy < best.energy:
            best = run
    x = best.x

    _, levels, viol = _plate_levels(asm, x, caps, gauges, targets)
    minimizer = DiscreteVectorMeasure(tuple(x[sl].copy() for sl in slices))
    message = ""
    if best.stop_reason == "stalled":
        message = (
            f"stalled after {best.iterations} iterations at residual "
            f"{best.residual:.3e} > grad_tol*scale = {best.bar:.3e}"
        )
    elif best.stop_reason == "max_iters":
        message = (
            f"stopped at max_iters={options.max_iters} before reaching "
            f"grad_tol={options.grad_tol:g}"
        )
    return SolveReport(
        minimizer=minimizer,
        energy=best.energy,
        multipliers=tuple(levels),
        kkt_max_violation=viol,
        iterations=total_iters,
        converged=best.stop_reason == "converged",
        stop_reason=best.stop_reason,
        min_cross_sign_distance=cond.min_cross_sign_distance,
        trace=best.trace,
        message=message,
    )


def solve_constrained(
    cond: Condenser,
    problem: ProblemSpec,
    kernel: RieszKernel,
    policy: DiagonalPolicy | None = None,
    options: SolveOptions | None = None,
) -> SolveReport:
    """Minimize the condenser energy under caps and gauge mass constraints."""
    if policy is None:
        policy = DiagonalPolicy.nearest_neighbor()
    return _solve(
        _assemble(cond, problem, kernel, policy), problem, options or SolveOptions()
    )


def solve_unconstrained(
    cond: Condenser,
    problem: ProblemSpec,
    kernel: RieszKernel,
    policy: DiagonalPolicy | None = None,
    options: SolveOptions | None = None,
) -> SolveReport:
    """Minimize the condenser energy under gauge mass constraints alone."""
    if problem.caps is not None:
        raise ValueError("unconstrained solves take a problem without caps")
    if policy is None:
        policy = DiagonalPolicy.nearest_neighbor()
    return _solve(
        _assemble(cond, problem, kernel, policy), problem, options or SolveOptions()
    )


def capacity(
    kernel: RieszKernel,
    points: NDArray,
    policy: DiagonalPolicy | None = None,
    options: SolveOptions | None = None,
) -> CapacityResult:
    """Discrete capacity of a node set: reciprocal of its equilibrium energy."""
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or len(points) < 2:
        raise DegenerateProblemError("capacity needs at least two distinct nodes")
    cond = Condenser([Plate(points, 1)])
    report = solve_unconstrained(
        cond, ProblemSpec(targets=(1.0,)), kernel, policy, options
    )
    if not (report.energy > 0.0):
        raise DegenerateProblemError(
            f"equilibrium energy {report.energy:.3e} is not positive; the zero "
            "diagonal admits mass spikes, use the nearest_neighbor policy"
        )
    return CapacityResult(value=1.0 / report.energy, energy=report.energy, report=report)


def balayage(
    kernel: RieszKernel,
    source: SignedDiscreteMeasure,
    target_points: NDArray,
    policy: DiagonalPolicy | None = None,
    options: SolveOptions | None = None,
) -> BalayageResult:
    """Sweep a source measure onto a target node set.

    Minimizes the energy of the difference between the swept and source
    measures over nonnegative weights on the target nodes. Requires a
    positive definite diagonal policy; the zero policy makes this
    objective unbounded below and is rejected.
    """
    if policy is None:
        policy = DiagonalPolicy.nearest_neighbor()
    if policy.mode == "zero":
        raise ValueError(
            "balayage needs the nearest_neighbor diagonal policy; with a zero "
            "diagonal the sweep objective is unbounded below"
        )
    options = options or SolveOptions()
    tgt = Plate(np.asarray(target_points, dtype=float), 1)
    if len(tgt) < 2:
        raise DegenerateProblemError("balayage needs at least two target nodes")
    mat = kernel_matrix(kernel, tgt.points, policy=policy, spacings=tgt.spacings)
    p = potential(kernel, source, tgt.points)
    if not np.isfinite(p).all():
        raise KernelDomainError(
            "the source charges a target node; remove that mass before sweeping"
        )
    run = _descend(mat, -p, lambda u: np.maximum(u, 0.0), np.zeros(len(tgt)), options)
    v = run.x
    eps = 1e-12 * max(1.0, float(np.abs(source.weights).sum())) / len(tgt)
    fit = _symv(mat, v) - p
    on = v > eps
    support_residual = float(np.max(np.abs(fit[on]), initial=0.0))
    complement_slack = float(np.min(fit[~on], initial=0.0))
    return BalayageResult(
        swept=DiscreteMeasure(tgt.points, v),
        objective=run.energy,
        support_residual=support_residual,
        complement_slack=complement_slack,
        iterations=run.iterations,
        converged=run.stop_reason == "converged",
        stop_reason=run.stop_reason,
    )
