"""The benchmark's workloads: inputs made from a seed, one pass, output checks.

A workload object holds what all passes share; ``draw(k)`` makes the
inputs of pass k from ``--seed`` and k, so the same seed gives the same
inputs, and the median over a run's passes is a median over several draws
rather than one geometry's luck. Draw 0 is made during set-up.

Every call into the program goes through a module attribute
(``solver.solve_constrained``), so the traced run sees it. ``Pass`` times
the calls into the solvers and into ``verify`` apart, counts operations and
failures, and collects the checks that did not hold.
"""
from __future__ import annotations

import importlib
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import numpy as np

geometry = importlib.import_module("riesz_condenser.geometry")
kernels = importlib.import_module("riesz_condenser.kernels")
measures = importlib.import_module("riesz_condenser.measures")
solver = importlib.import_module("riesz_condenser.solver")
verify = importlib.import_module("riesz_condenser.verify")

ORIGIN = (0.0, 0.0, 0.0)

#: Solve options of the seeded workloads. At the default grad_tol=1e-7 the
#: projected-gradient residual of some inputs stalls just above the bar
#: and the solve runs to max_iters: 3 of 40 balayage targets and 1
#: touching-plates solve in about 20, depending on the seed. A failure that
#: comes and goes with the seed cannot be counted steadily, so these
#: workloads solve one decade above that floor; tiny_exact measures the
#: stall itself, on fixed inputs.
SEEDED_OPTIONS = solver.SolveOptions(grad_tol=1e-6)


def draw_seed(seed: int, k: int) -> int:
    """Geometry seed of draw k of a run with the given ``--seed``."""
    return int(np.random.default_rng([seed, k]).integers(2**31 - 1))


@dataclass
class Pass:
    solve_s: float = 0.0
    check_s: float = 0.0
    iterations: int = 0
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)

    def solve(self, fn, *args, **kwargs):
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        self.solve_s += time.perf_counter() - t0
        return out

    def check(self, fn, *args, **kwargs):
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        self.check_s += time.perf_counter() - t0
        return out

    def expect(self, ok, what: str) -> None:
        if not ok:
            self.errors.append(what)

    def operation(self, name: str, body) -> None:
        """Run one operation; it fails when the program raises or reports
        a solve that did not converge."""
        self.attempted += 1
        try:
            converged = body()
        except Exception:  # a fault of the program: count it, keep measuring
            self.failed += 1
            self.errors.append(f"{name} raised:\n{traceback.format_exc()}")
            return
        if not converged:
            self.failed += 1


def _rel(value, reference):
    return abs(value - reference) / abs(reference)


class DenseFree:
    """2000+2000 concentric condenser, 4000-node capacity, 2000-node balayage.

    Every answer has a closed form: the condenser energy 1/r1 - 1/r2 = 0.5
    with levels (0.5, 0); the capacity of the unit sphere, 1; the sweep of
    a unit charge at (0, 0, 2) onto the unit sphere, mass 0.5 with exterior
    potential 0.5 / |x - (0, 0, 0.5)| (its Kelvin image charge). A draw
    rotates every sphere's node lattice and picks the exterior test points.
    """

    # About twice the worst discretization error measured over seeds 0-39
    # (README.md lists the measured values).
    ENERGY_TOL = 3e-3
    LEVEL_TOL = 1e-3
    CAPACITY_TOL = 3e-4
    MASS_TOL = 1e-3
    EXTERIOR_TOL = 2.5e-3

    required_spans = (
        "geometry.build_condenser",
        "geometry.nearest_neighbor_spacing",
        "kernels.cdist",
        "kernels.kernel_matrix",
        "measures.condenser_matrix",
        "solver.solve_unconstrained",
        "solver.capacity",
        "solver.balayage",
        "solver.project_capped_simplex",
        "verify.kkt_check",
    )
    matvec_n = 4000

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.kernel = kernels.RieszKernel(2.0, 3)
        self.problem = measures.ProblemSpec(targets=(1.0, 1.0))
        self.source = measures.DiscreteMeasure(np.array([[0.0, 0.0, 2.0]]), np.array([1.0]))

    def draw(self, k: int) -> SimpleNamespace:
        s = draw_seed(self.seed, k)
        cond = geometry.build_condenser(
            [
                geometry.PlateSpec(geometry.Sphere(ORIGIN, 1.0), 1, 2000),
                geometry.PlateSpec(geometry.Sphere(ORIGIN, 2.0), -1, 2000),
            ],
            s,
        )
        rng = np.random.default_rng(s)
        dirs = rng.normal(size=(50, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        return SimpleNamespace(
            cond=cond,
            capacity_points=geometry.sample_sphere(ORIGIN, 1.0, 4000, s + 2),
            sweep_target=geometry.sample_sphere(ORIGIN, 1.0, 2000, s + 3),
            exterior=dirs * rng.uniform(1.3, 3.0, size=50)[:, None],
        )

    def run_pass(self, p: Pass, inp: SimpleNamespace) -> None:
        p.operation("concentric", lambda: self._concentric(p, inp))
        p.operation("capacity", lambda: self._capacity(p, inp))
        p.operation("balayage", lambda: self._balayage(p, inp))

    def _concentric(self, p: Pass, inp) -> bool:
        rep = p.solve(solver.solve_unconstrained, inp.cond, self.problem, self.kernel, options=SEEDED_OPTIONS)
        kkt = p.check(verify.kkt_check, inp.cond, self.problem, rep.minimizer, self.kernel)
        p.iterations += rep.iterations
        p.expect(_rel(rep.energy, 0.5) <= self.ENERGY_TOL, f"concentric energy {rep.energy!r}, expected 0.5")
        levels = rep.multipliers
        p.expect(
            abs(levels[0] - 0.5) <= self.LEVEL_TOL and abs(levels[1]) <= self.LEVEL_TOL,
            f"concentric levels {levels!r}, expected (0.5, 0)",
        )
        p.expect(kkt.passed, f"kkt_check rejected the concentric minimizer: {kkt!r}")
        return rep.converged

    def _capacity(self, p: Pass, inp) -> bool:
        cap = p.solve(solver.capacity, self.kernel, inp.capacity_points, options=SEEDED_OPTIONS)
        p.iterations += cap.report.iterations
        p.expect(_rel(cap.value, 1.0) <= self.CAPACITY_TOL, f"capacity {cap.value!r}, expected 1")
        return cap.report.converged

    def _balayage(self, p: Pass, inp) -> bool:
        bal = p.solve(solver.balayage, self.kernel, self.source, inp.sweep_target, options=SEEDED_OPTIONS)
        p.iterations += bal.iterations
        w = np.asarray(bal.swept.weights)
        p.expect(_rel(float(w.sum()), 0.5) <= self.MASS_TOL, f"swept mass {w.sum()!r}, expected 0.5")
        p.expect((w >= 0).all(), "swept measure has negative weights")
        # Potential of the swept measure (kernel 1/|x - y| at alpha=2, n=3),
        # summed here rather than by the program.
        dist = np.linalg.norm(inp.exterior[:, None, :] - inp.sweep_target[None, :, :], axis=2)
        pot = (w[None, :] / dist).sum(axis=1)
        image = 0.5 / np.linalg.norm(inp.exterior - np.array([0.0, 0.0, 0.5]), axis=1)
        worst = float(np.max(np.abs(pot - image) / image))
        p.expect(worst <= self.EXTERIOR_TOL, f"exterior potential off by {worst:.3e} rel")
        return bal.converged


class TinyExact:
    """Random 2-6-node instances checked against exhaustive enumeration.

    The instances are the first ones ``tests/oracle_utils.random_instance``
    draws from generator seed 2024, the seed of the acceptance oracle
    test. They do not depend on ``--seed``: every solve stops at
    ``max_iters`` with ``converged=False`` (the projected-gradient residual
    stalls above the bar), and a failure counted by the benchmark must be
    the same on every seed. A draw only sets the order of the instances.
    """

    INSTANCES = 6
    ORACLE_SEED = 2024
    # These solves match the enumerated optimum to 1e-15 within 25
    # iterations; 300 keeps a pass near 3 s and stays far above that.
    MAX_ITERS = 300
    GRAD_TOL = 1e-9
    ENERGY_TOL = 1e-8

    required_spans = (
        "geometry.nearest_neighbor_spacing",
        "kernels.kernel_matrix",
        "measures.condenser_matrix",
        "solver.solve_constrained",
        "solver.project_capped_simplex",
        "verify.kkt_check",
    )

    def __init__(self, seed: int) -> None:
        oracle = _oracle_utils()
        rng = np.random.default_rng(self.ORACLE_SEED)
        self.instances = [oracle.random_instance(rng) for _ in range(self.INSTANCES)]
        self.seed = seed
        self.policy = kernels.DiagonalPolicy.nearest_neighbor()
        self.options = solver.SolveOptions(max_iters=self.MAX_ITERS, grad_tol=self.GRAD_TOL)
        self.matvec_n = max(cond.total_nodes for _, cond, _ in self.instances)
        self.reference = None

    def prepare_references(self) -> None:
        """Exact optima by active-set enumeration (tests/oracle_utils.py)."""
        oracle = _oracle_utils()
        self.reference = []
        for kernel, cond, problem in self.instances:
            targets, caps, gauges = problem.materialize(cond)
            mat = measures.condenser_matrix(cond, kernel, self.policy)
            fv = measures.field_values(cond, problem.field, kernel, self.policy)
            lin = np.zeros(cond.total_nodes) if fv is None else np.concatenate(fv)
            best = oracle.enumerate_minimum(mat, lin, cond.node_slices(), caps, gauges, targets)
            if best is None:
                raise RuntimeError("enumeration found no feasible first-order point")
            self.reference.append(best[0])

    def draw(self, k: int) -> np.ndarray:
        return np.random.default_rng(draw_seed(self.seed, k)).permutation(self.INSTANCES)

    def run_pass(self, p: Pass, order: np.ndarray) -> None:
        for k in order:
            p.operation(f"tiny[{k}]", lambda k=int(k): self._instance(p, k))

    def _instance(self, p: Pass, k: int) -> bool:
        kernel, cond, problem = self.instances[k]
        rep = p.solve(solver.solve_constrained, cond, problem, kernel, self.policy, self.options)
        kkt = p.check(verify.kkt_check, cond, problem, rep.minimizer, kernel, self.policy)
        p.iterations += rep.iterations
        ref = self.reference[k]
        gap = abs(rep.energy - ref) / max(1.0, abs(ref))
        p.expect(gap <= self.ENERGY_TOL, f"tiny[{k}] energy {rep.energy!r} vs enumerated {ref!r}")
        p.expect(kkt.passed, f"kkt_check rejected tiny[{k}]: {kkt!r}")
        return rep.converged


class TouchingCapped:
    """The paper's intersecting plates: four balls meeting at (+-1, 0, 0).

    As in ``experiments.touching_balls``: 500 nodes per boundary sphere,
    alpha = 1.5, every plate capped at 1.5 times its own equilibrium. A pass
    solves, checks the variational conditions, compares a restarted solve
    in the semimetric, and runs the tightening cap chain. A draw rotates
    the node lattices and seeds the restarts.
    """

    CAP_SCALE = 1.5
    CHAIN_LEVELS = 3
    UNIQUE_TOL = 1e-3
    LAYOUT = (
        ((0.0, 0.0, 0.0), 1.0, 1),
        ((2.0, 0.0, 0.0), 1.0, -1),
        ((3.0, 0.0, 0.0), 2.0, -1),
        ((-2.0, 0.0, 0.0), 1.0, -1),
    )

    required_spans = (
        "geometry.build_condenser",
        "geometry.nearest_neighbor_spacing",
        "kernels.kernel_matrix",
        "measures.condenser_matrix",
        "solver.capacity",
        "solver.solve_constrained",
        "solver.project_capped_simplex",
        "verify.kkt_check",
        "verify.uniqueness_check",
        "verify.continuity_check",
    )
    matvec_n = 2000

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.kernel = kernels.RieszKernel(1.5, 3)

    def draw(self, k: int) -> SimpleNamespace:
        s = draw_seed(self.seed, k)
        cond = geometry.build_condenser(
            [geometry.PlateSpec(geometry.Sphere(c, r), sign, 500) for c, r, sign in self.LAYOUT], s
        )
        caps = tuple(
            self.CAP_SCALE
            * solver.capacity(self.kernel, plate.points, options=SEEDED_OPTIONS).report.minimizer.weights[0]
            for plate in cond.plates
        )
        return SimpleNamespace(
            cond=cond,
            caps=caps,
            problem=measures.ProblemSpec(targets=(1.0,) * 4, caps=caps),
            restarts=solver.SolveOptions(grad_tol=SEEDED_OPTIONS.grad_tol, restart_count=2, seed=s),
        )

    def run_pass(self, p: Pass, inp: SimpleNamespace) -> None:
        first = []
        p.operation("solve", lambda: self._solve(p, inp, first))
        p.operation("restart", lambda: self._restart(p, inp, first))
        p.operation("chain", lambda: self._chain(p, inp))

    def _solve(self, p: Pass, inp, first: list) -> bool:
        rep = p.solve(solver.solve_constrained, inp.cond, inp.problem, self.kernel, options=SEEDED_OPTIONS)
        kkt = p.check(verify.kkt_check, inp.cond, inp.problem, rep.minimizer, self.kernel)
        p.iterations += rep.iterations
        first.append(rep)
        at_cap = 0
        for i, (w, cap) in enumerate(zip(rep.minimizer.weights, inp.caps)):
            p.expect(abs(float(w.sum()) - 1.0) <= 1e-9, f"plate {i} mass {w.sum()!r}, expected 1")
            p.expect((w >= 0).all() and (w <= cap * (1 + 1e-12)).all(), f"plate {i} leaves [0, cap]")
            at_cap += int(np.count_nonzero(w >= cap * (1 - 1e-9)))
        p.expect(at_cap > 0, "no node sits at its cap; the caps are meant to bind")
        p.expect(kkt.passed, f"kkt_check rejected the capped minimizer: {kkt!r}")
        return rep.converged

    def _restart(self, p: Pass, inp, first: list) -> bool:
        rep2 = p.solve(solver.solve_constrained, inp.cond, inp.problem, self.kernel, options=inp.restarts)
        p.iterations += rep2.iterations
        if not first:
            p.errors.append("restart comparison has no first solve")
            return rep2.converged
        rep = first[0]
        uq = p.check(
            verify.uniqueness_check, inp.cond, rep.minimizer, rep2.minimizer, self.kernel, tol=self.UNIQUE_TOL
        )
        p.expect(uq.passed, f"restarted minimizers differ: {uq!r}")
        # The restarted solve keeps the best of its starts, one of which is
        # the first solve's start.
        p.expect(
            rep2.energy <= rep.energy + 1e-12 * abs(rep.energy),
            f"restarted energy {rep2.energy!r} above single-start {rep.energy!r}",
        )
        return rep2.converged

    def _chain(self, p: Pass, inp) -> bool:
        cont = p.check(
            verify.continuity_check,
            inp.cond,
            inp.problem,
            self.kernel,
            options=SEEDED_OPTIONS,
            levels=self.CHAIN_LEVELS,
        )
        seq = list(cont.values) + [cont.limit_value]
        # Caps shrink along the chain over one matrix, so the feasible sets
        # are nested and the minima cannot fall.
        slack = 1e-9 * max(abs(v) for v in seq)
        p.expect(
            all(b >= a - slack for a, b in zip(seq, seq[1:])),
            f"cap-chain energies fall: {seq!r}",
        )
        p.expect(cont.passed, f"continuity_check failed: {cont!r}")
        return True


def _oracle_utils():
    tests_dir = Path(__file__).resolve().parent.parent / "tests"
    if str(tests_dir) not in sys.path:
        sys.path.insert(0, str(tests_dir))
    return importlib.import_module("oracle_utils")


WORKLOADS = {
    "dense_free": DenseFree,
    "tiny_exact": TinyExact,
    "touching_capped": TouchingCapped,
}
