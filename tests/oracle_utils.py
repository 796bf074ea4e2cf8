"""Exhaustive active-set solver for tiny capped quadratic programs.

Every node is assigned one of the states zero, at-cap or free. Each
assignment yields a square linear system from stationarity on the free
nodes plus the per-plate mass equations; assignments whose solution is
primal and dual feasible are exact first-order points. On a positive
semidefinite energy matrix any such point is a global minimizer, so the
smallest feasible candidate value is the exact optimum. Only viable for a
handful of nodes, which is the point: it shares no code path with the
iterative solver.
"""
from __future__ import annotations

import itertools

import numpy as np

from riesz_condenser import (
    Condenser,
    DiagonalPolicy,
    GridField,
    Plate,
    ProblemSpec,
    RieszKernel,
    SolveOptions,
    condenser_matrix,
    field_values,
    solve_constrained,
)


def enumerate_minimum(mat, lin, slices, caps, gauges, targets, tol=1e-9):
    """Exact minimum of w @ mat @ w + 2 lin @ w over the constraint set.

    Returns (value, minimizer) or None when no assignment is feasible.
    """
    n = mat.shape[0]
    m = len(slices)
    caps_flat = np.concatenate(caps)
    gauge_flat = np.concatenate(gauges)
    plate_of = np.empty(n, dtype=int)
    for i, sl in enumerate(slices):
        plate_of[sl] = i
    room = tol * max(1.0, float(np.max(targets)))
    best = None
    for state in itertools.product((0, 1, 2), repeat=n):
        state = np.asarray(state)
        at_cap = state == 1
        if (at_cap & ~np.isfinite(caps_flat)).any():
            continue
        free = state == 2
        fidx = np.nonzero(free)[0]
        nf = len(fidx)
        fixed = np.where(at_cap, caps_flat, 0.0)
        a = np.zeros((nf + m, nf + m))
        b = np.zeros(nf + m)
        a[:nf, :nf] = mat[np.ix_(fidx, fidx)]
        for r, j in enumerate(fidx):
            a[r, nf + plate_of[j]] = -gauge_flat[j]
        b[:nf] = -(lin[fidx] + mat[fidx] @ fixed)
        for i, sl in enumerate(slices):
            in_plate = plate_of[fidx] == i
            a[nf + i, :nf][in_plate] = gauge_flat[fidx[in_plate]]
            b[nf + i] = targets[i] - float(gauge_flat[sl] @ fixed[sl])
        try:
            sol = np.linalg.solve(a, b)
        except np.linalg.LinAlgError:
            continue
        if not np.isfinite(sol).all():
            continue
        xf = sol[:nf]
        levels = sol[nf:]
        if nf and ((xf < -room).any() or (xf > caps_flat[fidx] + room).any()):
            continue
        x = fixed.copy()
        if nf:
            x[fidx] = np.clip(xf, 0.0, caps_flat[fidx])
        mass_bad = False
        for i, sl in enumerate(slices):
            if abs(float(gauge_flat[sl] @ x[sl]) - targets[i]) > room:
                mass_bad = True
                break
        if mass_bad:
            continue
        w_pot = mat @ x + lin
        slack = w_pot - levels[plate_of] * gauge_flat
        dual_room = 1e-7 * max(1.0, float(np.abs(w_pot).max()))
        if (slack[state == 0] < -dual_room).any():
            continue
        if (slack[at_cap] > dual_room).any():
            continue
        value = float(x @ mat @ x + 2.0 * (lin @ x))
        if best is None or value < best[0]:
            best = (value, x)
    return best


def random_instance(rng):
    """A tiny strictly positive definite instance with mixed constraints."""
    dim = 3
    m = int(rng.integers(1, 3))
    if m == 1:
        sizes = [int(rng.integers(2, 7))]
    else:
        first = int(rng.integers(2, 5))
        sizes = [first, int(rng.integers(2, 7 - first))]
    alpha = float(rng.uniform(1.1, 2.8))
    kernel = RieszKernel(alpha, dim)
    policy = DiagonalPolicy.nearest_neighbor()
    while True:
        plates = []
        for k, nk in enumerate(sizes):
            pts = rng.uniform(-1.0, 1.0, size=(nk, dim))
            pts[:, 0] += 3.0 * k
            plates.append(Plate(pts, 1 if k == 0 else -1))
        spacing_ok = all(
            len(p) < 2 or p.spacings.min() > 0.15 for p in plates
        )
        if not spacing_ok:
            continue
        cond = Condenser(plates)
        mat = condenser_matrix(cond, kernel, policy)
        eig = np.linalg.eigvalsh(0.5 * (mat + mat.T))
        if eig[0] > 1e-10 * max(1.0, eig[-1]):
            break
    targets = rng.uniform(0.5, 2.0, size=m)
    caps, gauges = [], []
    for k, plate in enumerate(cond.plates):
        nk = len(plate)
        g = rng.uniform(0.5, 2.0, size=nk) if rng.random() < 0.5 else np.ones(nk)
        if rng.random() < 0.7:
            c = rng.uniform(0.3, 1.2, size=nk) * targets[k]
            total = float(g @ c)
            if total < 1.1 * targets[k]:
                c *= 1.1 * targets[k] / total
        else:
            c = np.full(nk, np.inf)
        caps.append(c)
        gauges.append(g)
    field = None
    if rng.random() < 0.5:
        field = GridField(
            tuple(rng.uniform(-0.5, 0.5, size=len(p)) for p in cond.plates)
        )
    problem = ProblemSpec(
        targets=tuple(targets),
        caps=tuple(caps),
        gauges=tuple(gauges),
        field=field,
    )
    return kernel, cond, problem


def oracle_energy(kernel, cond, problem):
    """Exact enumerated minimum energy of one instance."""
    policy = DiagonalPolicy.nearest_neighbor()
    targets, caps, gauges = problem.materialize(cond)
    mat = condenser_matrix(cond, kernel, policy)
    fv = field_values(cond, problem.field, kernel, policy)
    lin = np.zeros(cond.total_nodes) if fv is None else np.concatenate(fv)
    oracle = enumerate_minimum(mat, lin, cond.node_slices(), caps, gauges, targets)
    assert oracle is not None, "enumeration found no feasible first-order point"
    return oracle[0]


def compare_instance(kernel, cond, problem, options=None):
    """Solver energy and exact enumerated energy for one instance."""
    oracle_e = oracle_energy(kernel, cond, problem)
    options = options or SolveOptions(max_iters=20000, grad_tol=1e-9)
    report = solve_constrained(
        cond, problem, kernel, DiagonalPolicy.nearest_neighbor(), options
    )
    return report.energy, oracle_e


def run_comparison(count, seed):
    """Solver-versus-enumeration relative energy gaps on random instances."""
    rng = np.random.default_rng(seed)
    gaps = []
    for _ in range(count):
        kernel, cond, problem = random_instance(rng)
        solver_e, oracle_e = compare_instance(kernel, cond, problem)
        gaps.append(abs(solver_e - oracle_e) / max(1.0, abs(oracle_e)))
    return gaps
