"""Solution quality checks: variational conditions, uniqueness, duality,
and stability of the minimum under constraint refinement.

A candidate minimizer is accepted when its weighted potential sits on the
plate's equilibrium level wherever mass can move in either direction,
stays above level wherever mass could still be added, below it wherever
mass could be removed, and no feasible competitor offers a first-order
decrease; the best competitor is found exactly, by one sort per plate. All
thresholds are relative to the potential scale on the support.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from numpy.typing import NDArray

from .geometry import Condenser, Plate
from .kernels import DiagonalPolicy, RieszKernel
from .measures import (
    DiscreteMeasure,
    DiscreteVectorMeasure,
    EnergyDegeneracyError,
    ProblemSpec,
    _energy_distance,
    condenser_matrix,
)
from .solver import (
    SolveOptions,
    _assemble,
    _Assembly,
    _objective_pieces,
    _plate_levels,
    _solve,
    _symv,
    solve_constrained,
)


@dataclass(eq=False)
class KKTReport:
    """Outcome of the variational check of one candidate vector measure.

    ``min_gain`` is the least first-order energy change 2 w_pot . (nu - mu)
    over feasible nu. Its negative, the Frank-Wolfe gap, bounds the energy
    above the minimum only where the form is convex on the feasible set.
    """

    passed: bool
    max_violation: float
    scale: float
    tol: float
    levels: tuple[float, ...]
    mass_errors: tuple[float, ...]
    min_gain: float


@dataclass(eq=False)
class UniquenessReport:
    passed: bool
    distance: float
    scale: float


@dataclass(eq=False)
class DualityReport:
    """Agreement between a cap-constrained solve and its induced
    unconstrained field problem."""

    passed: bool
    q: float
    theta: DiscreteMeasure
    theta_mass_error: float
    eta_spread: float
    energy_rel_gap: float
    kkt: KKTReport


@dataclass(eq=False)
class ContinuityReport:
    """Behavior of the minimum along a shrinking chain of problems.

    ``distances`` holds the energy distances between consecutive caps-mode
    minimizers, nan where the form is indefinite on their difference;
    ``passed`` does not read them.
    """

    passed: bool
    values: tuple[float, ...]
    limit_value: float
    monotone: bool
    final_gap: float
    distances: tuple[float, ...] | None


def kkt_check(
    cond: Condenser,
    problem: ProblemSpec,
    mu: DiscreteVectorMeasure,
    kernel: RieszKernel,
    policy: DiagonalPolicy | None = None,
    tol: float = 1e-2,
) -> KKTReport:
    """Check the first-order optimality of a feasible vector measure.

    The levels and the defect are computed as the solver computes its own.
    No feasible competitor may offer a first-order decrease beyond
    -tol * scale; the best one is a fractional knapsack per plate (Dantzig
    1957), found by one sort and no random numbers.
    """
    if policy is None:
        policy = DiagonalPolicy.nearest_neighbor()
    mu.validate_for(cond)
    asm = _assemble(cond, problem, kernel, policy)
    return _kkt(asm, problem, mu, tol)


def _kkt(
    asm: _Assembly,
    problem: ProblemSpec,
    mu: DiscreteVectorMeasure,
    tol: float = 1e-2,
) -> KKTReport:
    """``kkt_check`` on an assembled problem, whose field is ``asm.lin_raw``."""
    targets, caps, gauges = problem.materialize(asm.cond)
    slices = asm.cond.node_slices()
    w_pot, levels, viol = _plate_levels(asm, mu.stacked(), caps, gauges, targets)
    mass_errors = [abs(float(g @ w) - a) for g, w, a in zip(gauges, mu.weights, targets)]
    scale, min_gain = 1.0, 0.0
    for sl, g, c, w, a in zip(slices, gauges, caps, mu.weights, targets):
        pot = np.abs(w_pot[sl][w > 1e-12 * a / len(w)])
        scale = max(scale, float(np.max(pot[np.isfinite(pot)], initial=0.0)))
        # Fractional knapsack: fill the nodes of least w_pot / gauge first.
        order = np.argsort(w_pot[sl] / g, kind="stable")
        room = (g * c)[order]
        filled = np.concatenate(([0.0], np.cumsum(room)[:-1]))
        nu = np.empty_like(w)
        nu[order] = np.clip(a - filled, 0.0, room) / g[order]
        moved = nu != w  # keeps +inf field nodes that stay empty out
        min_gain += 2.0 * float(w_pot[sl][moved] @ (nu - w)[moved])
    mass_ok = all(err <= 1e-9 * a for err, a in zip(mass_errors, targets))
    passed = bool(mass_ok and viol <= tol * scale and min_gain >= -tol * scale)
    return KKTReport(
        passed=passed,
        max_violation=viol,
        scale=scale,
        tol=tol,
        levels=tuple(levels),
        mass_errors=tuple(mass_errors),
        min_gain=min_gain,
    )


def uniqueness_check(
    cond: Condenser,
    mu: DiscreteVectorMeasure,
    nu: DiscreteVectorMeasure,
    kernel: RieszKernel,
    policy: DiagonalPolicy | None = None,
    tol: float = 1e-3,
) -> UniquenessReport:
    """Decide whether two candidate minimizers agree in energy distance."""
    if policy is None:
        policy = DiagonalPolicy.nearest_neighbor()
    mu.validate_for(cond)
    nu.validate_for(cond)
    w1, w2 = mu.stacked(), nu.stacked()
    mat = condenser_matrix(cond, kernel, policy)
    dist = _energy_distance(mat, w1 - w2)
    e1 = float(w1 @ _symv(mat, w1))
    e2 = float(w2 @ _symv(mat, w2))
    scale = max(1.0, np.sqrt(abs(e1)), np.sqrt(abs(e2)))
    return UniquenessReport(passed=bool(dist <= tol * scale), distance=dist, scale=scale)


def duality_check(
    points: NDArray,
    sigma: NDArray,
    kernel: RieszKernel,
    policy: DiagonalPolicy | None = None,
    options: SolveOptions | None = None,
    tol: float = 1e-3,
) -> DualityReport:
    """Map a cap-constrained equilibrium to a field problem and verify it.

    With caps sigma of total mass exceeding one and q = 1 / (mass - 1),
    the complement theta = q * (sigma - lambda) of the constrained
    minimizer lambda is checked as a minimizer of the energy under the
    field -q * (potential of sigma), and its energy is compared against an
    independent direct solve. Both solves and the check share one assembled
    matrix. Exactness requires every node charged by lambda; the report
    records how far the identity holds.
    """
    if kernel.alpha > 2.0:
        raise ValueError("the cap complement duality needs alpha <= 2")
    plate = Plate(np.asarray(points, dtype=float), 1)
    sigma = np.asarray(sigma, dtype=float)
    if sigma.shape != (len(plate),):
        raise ValueError("sigma must give one cap per node")
    if (sigma <= 0).any() or not np.isfinite(sigma).all():
        raise ValueError("sigma must be positive and finite")
    total = float(sigma.sum())
    if total <= 1.0 + 1e-9:
        raise ValueError(f"sigma must carry mass above 1, got {total:.6g}")
    if policy is None:
        policy = DiagonalPolicy.nearest_neighbor()
    primal = ProblemSpec(targets=(1.0,), caps=(sigma,))
    options = options or SolveOptions()
    asm = _assemble(Condenser([plate]), primal, kernel, policy)
    lam = _solve(asm, primal, options).minimizer.weights[0]
    q = 1.0 / (total - 1.0)
    f_theta = -q * _symv(asm.mat, sigma)
    theta = np.maximum(q * (sigma - lam), 0.0)
    theta_mass = float(theta.sum())
    dual = replace(asm, lin_raw=f_theta)
    dual_problem = ProblemSpec(targets=(theta_mass,))  # its field is dual.lin_raw
    kkt = _kkt(dual, dual_problem, DiscreteVectorMeasure((theta,)), tol=tol)
    direct = _solve(dual, dual_problem, options)
    g_theta, grad = _objective_pieces(asm.mat, f_theta, theta)
    gap = abs(g_theta - direct.energy) / max(1.0, abs(direct.energy))
    w_theta = 0.5 * grad
    on = theta > 1e-12 * theta_mass / len(plate)
    spread = float(w_theta[on].max() - w_theta[on].min()) if on.any() else 0.0
    return DualityReport(
        passed=bool(kkt.passed and gap <= tol),
        q=q,
        theta=DiscreteMeasure(plate.points, theta),
        theta_mass_error=abs(theta_mass - 1.0),
        eta_spread=spread,
        energy_rel_gap=gap,
        kkt=kkt,
    )


def _chain_distance(mat: NDArray, diff: NDArray) -> float:
    """Energy distance of ``diff``, or nan where the form is indefinite on it."""
    try:
        return _energy_distance(mat, diff)
    except EnergyDegeneracyError:
        return float("nan")


def continuity_check(
    cond: Condenser,
    problem: ProblemSpec,
    kernel: RieszKernel,
    policy: DiagonalPolicy | None = None,
    options: SolveOptions | None = None,
    levels: int = 5,
    mode: str = "caps",
    extra_nodes: list[NDArray] | None = None,
    tol: float = 0.05,
) -> ContinuityReport:
    """Solve along a chain of shrinking feasible sets and compare limits.

    In ``caps`` mode level L scales the caps by 1 + 2**-L, tightening
    toward the given problem; the feasible sets shrink over a fixed
    matrix, so the minima must grow along the chain up to rounding slack
    and land within ``tol`` of the limit value. In ``nodes`` mode each
    plate starts with extra nodes that are removed in halves until only
    the given condenser remains; here only the final gap is enforced,
    because the diagonal policy reacts to node spacing and crowded
    refinements can push intermediate minima above the limit.
    """
    if levels < 1:
        raise ValueError("levels must be at least 1")
    if policy is None:
        policy = DiagonalPolicy.nearest_neighbor()
    values: list[float] = []
    minimizers = []
    if mode == "caps":
        if problem.caps is None:
            raise ValueError("caps mode needs a problem with caps")
        # The chain changes only the caps, so every level and the limit
        # share one assembled matrix.
        options = options or SolveOptions()
        asm = _assemble(cond, problem, kernel, policy)
        for ell in range(1, levels + 1):
            factor = 1.0 + 2.0 ** (-ell)
            caps_ell = tuple(
                None if c is None else np.asarray(c, dtype=float) * factor
                for c in problem.caps
            )
            prob_ell = ProblemSpec(
                targets=problem.targets,
                caps=caps_ell,
                gauges=problem.gauges,
                field=problem.field,
            )
            rep = _solve(asm, prob_ell, options)
            values.append(rep.energy)
            minimizers.append(rep.minimizer.stacked())
        limit_rep = _solve(asm, problem, options)
        distances = tuple(
            _chain_distance(asm.mat, a - b) for a, b in zip(minimizers, minimizers[1:])
        )
    elif mode == "nodes":
        if extra_nodes is None or len(extra_nodes) != len(cond):
            raise ValueError("nodes mode needs one extra node block per plate")
        if problem.caps is not None or problem.gauges is not None:
            raise ValueError("nodes mode supports only capless unit-gauge problems")
        for ell in range(1, levels + 1):
            plates = []
            for plate, extra in zip(cond.plates, extra_nodes):
                extra = np.asarray(extra, dtype=float)
                n_keep = round(len(extra) * 2.0 ** (-ell))
                pts = (
                    np.vstack([plate.points, extra[:n_keep]])
                    if n_keep
                    else plate.points
                )
                plates.append(Plate(pts, plate.sign))
            rep = solve_constrained(
                Condenser(plates), problem, kernel, policy, options
            )
            values.append(rep.energy)
        limit_rep = solve_constrained(cond, problem, kernel, policy, options)
        distances = None
    else:
        raise ValueError("mode must be 'caps' or 'nodes'")
    limit = limit_rep.energy
    seq = values + [limit]
    slack = 1e-9 * max(1.0, max(abs(v) for v in seq))
    monotone = all(b >= a - slack for a, b in zip(seq, seq[1:]))
    final_gap = abs(limit - values[-1]) / max(1.0, abs(limit))
    need_monotone = monotone if mode == "caps" else True
    return ContinuityReport(
        passed=bool(need_monotone and final_gap <= tol),
        values=tuple(values),
        limit_value=limit,
        monotone=monotone,
        final_gap=final_gap,
        distances=distances,
    )
