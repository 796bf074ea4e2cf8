import sys
import tracemalloc

import numpy as np
import pytest

from oracle_utils import oracle_energy, random_instance
from scipy.optimize import linprog

from riesz_condenser import (
    Condenser,
    DiagonalPolicy,
    DiscreteMeasure,
    DiscreteVectorMeasure,
    EnergyDegeneracyError,
    Plate,
    PlateSpec,
    PotentialField,
    ProblemSpec,
    RieszKernel,
    SolveOptions,
    Sphere,
    build_condenser,
    capacity,
    kernels,
    project_capped_simplex,
    semimetric,
    solver,
    verify,
    continuity_check,
    duality_check,
    kkt_check,
    sample_sphere,
    solve_constrained,
    solve_unconstrained,
    uniqueness_check,
)

K23 = RieszKernel(2.0, 3)
ORIGIN = (0.0, 0.0, 0.0)


def count_assemblies(monkeypatch):
    """Count condenser_matrix calls made through any package module."""
    from riesz_condenser import measures

    return count_calls(monkeypatch, measures.condenser_matrix)


def count_calls(monkeypatch, original):
    """Count calls of one package function made through any package module."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name == "riesz_condenser" or name.startswith("riesz_condenser."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, counted)
    return calls


@pytest.fixture(scope="module")
def small_solved():
    cond = Condenser([Plate(sample_sphere(ORIGIN, 1.0, 150, 3), 1)])
    problem = ProblemSpec(targets=(1.0,))
    report = solve_unconstrained(cond, problem, K23)
    assert report.converged
    return cond, problem, report


def spike(weights, frac=0.05):
    out = weights * (1.0 - frac)
    out = out.copy()
    out[0] += frac * weights.sum()
    return out


def test_kkt_check_accepts_solved(small_solved):
    cond, problem, report = small_solved
    check = kkt_check(cond, problem, report.minimizer, K23)
    assert check.passed
    assert check.max_violation <= check.tol * check.scale
    assert check.min_gain >= -check.tol * check.scale
    assert check.levels[0] == pytest.approx(report.multipliers[0], rel=1e-6)
    assert max(check.mass_errors) <= 1e-9


def test_kkt_check_rejects_spiked_candidate(small_solved):
    cond, problem, report = small_solved
    bad = DiscreteVectorMeasure((spike(report.minimizer.weights[0]),))
    check = kkt_check(cond, problem, bad, K23)
    assert not check.passed
    assert check.max_violation > check.tol * check.scale


def test_kkt_check_rejects_wrong_mass(small_solved):
    cond, problem, report = small_solved
    bad = DiscreteVectorMeasure((1.05 * report.minimizer.weights[0],))
    check = kkt_check(cond, problem, bad, K23)
    assert not check.passed
    assert max(check.mass_errors) > 1e-9


def test_kkt_check_draws_no_random_numbers(small_solved, monkeypatch):
    cond, problem, report = small_solved
    first = kkt_check(cond, problem, report.minimizer, K23)

    def no_rng(*args, **kwargs):
        raise AssertionError("kkt_check drew random numbers")

    monkeypatch.setattr(verify.np.random, "default_rng", no_rng)
    again = kkt_check(cond, problem, report.minimizer, K23)
    assert again.passed
    assert again.min_gain == first.min_gain
    assert again.levels == first.levels


def random_plates(rng, sizes):
    """Positive plates of the given sizes with a random exactly symmetric
    matrix, field, targets, gauges and caps (zero, finite and infinite)
    that still carry each target, and a feasible candidate."""
    cond = Condenser([Plate(rng.normal(size=(n, 3)), 1) for n in sizes])
    half = rng.normal(size=(cond.total_nodes,) * 2)
    mat = np.ascontiguousarray(half + half.T)
    lin = rng.normal(size=cond.total_nodes)
    targets, caps, gauges, weights = [], [], [], []
    for n in sizes:
        g = rng.uniform(0.3, 3.0, n)
        a = float(rng.uniform(0.5, 2.0))
        finite = rng.uniform(0.0, 3.0 * a, n) / (g * n)
        c = np.choose(rng.integers(0, 3, n), [np.zeros(n), finite, np.full(n, np.inf)])
        if g @ c < 1.5 * a:
            c[rng.integers(n)] = np.inf
        targets.append(a)
        caps.append(c)
        gauges.append(g)
        weights.append(project_capped_simplex(rng.random(n), c, g, a))
    problem = ProblemSpec(targets=tuple(targets), caps=tuple(caps), gauges=tuple(gauges))
    asm = solver._Assembly(cond, mat, lin, [])
    return asm, problem, DiscreteVectorMeasure(tuple(weights))


def test_kkt_min_gain_is_the_linear_program_minimum():
    rng = np.random.default_rng(12)
    sizes = [[1], [50], [1, 50]] + [list(rng.integers(1, 51, rng.integers(1, 4))) for _ in range(30)]
    for plate_sizes in sizes:
        asm, problem, mu = random_plates(rng, plate_sizes)
        check = verify._kkt(asm, problem, mu)
        w_pot = asm.mat @ mu.stacked() + asm.lin_raw
        targets, caps, gauges = problem.materialize(asm.cond)
        a_eq = np.zeros((len(caps), asm.cond.total_nodes))
        for row, sl, g in zip(a_eq, asm.cond.node_slices(), gauges):
            row[sl] = g
        bounds = [(0.0, c if np.isfinite(c) else None) for c in np.concatenate(caps)]
        lp = linprog(2.0 * w_pot, A_eq=a_eq, b_eq=targets, bounds=bounds, method="highs")
        assert lp.status == 0
        exact = lp.fun - 2.0 * float(w_pot @ mu.stacked())
        assert check.min_gain == pytest.approx(exact, abs=1e-12 * check.scale)


@pytest.mark.parametrize("step_rule", ["armijo", "lipschitz"])
def test_kkt_gap_bounds_the_energy_above_the_oracle_minimum(step_rule):
    # The oracle instances are positive definite, so the Frank-Wolfe gap
    # bounds the energy excess; the slack covers the rounding of the two
    # energies (at most 6.8e-16 of |E| on these 72 solves).
    options = SolveOptions(max_iters=2000, grad_tol=1e-9, step_rule=step_rule)
    for seed, count in ((2024, 24), (123, 12)):
        rng = np.random.default_rng(seed)
        for _ in range(count):
            kernel, cond, problem = random_instance(rng)
            report = solve_constrained(cond, problem, kernel, DiagonalPolicy.nearest_neighbor(), options)
            check = kkt_check(cond, problem, report.minimizer, kernel)
            oracle_e = oracle_energy(kernel, cond, problem)
            slack = 1e-14 * max(1.0, abs(oracle_e))
            assert -slack <= report.energy - oracle_e <= -check.min_gain + slack


def test_kkt_check_assembles_once(small_solved, monkeypatch):
    cond, problem, report = small_solved
    calls = count_assemblies(monkeypatch)
    kkt_check(cond, problem, report.minimizer, K23)
    assert len(calls) == 1


def assert_kkt_check_reproduces_the_solve(cond, problem, kernel, report):
    check = kkt_check(cond, problem, report.minimizer, kernel)
    assert check.levels == report.multipliers
    assert check.max_violation == report.kkt_max_violation


def test_kkt_check_levels_equal_the_solve_exactly_on_oracle_instances():
    # No oracle instance has an infinite field value, where the solve caps
    # the excluded nodes at zero and kkt_check keeps the given caps.
    rng = np.random.default_rng(2024)
    for _ in range(24):
        kernel, cond, problem = random_instance(rng)
        report = solve_constrained(cond, problem, kernel, DiagonalPolicy.nearest_neighbor())
        assert_kkt_check_reproduces_the_solve(cond, problem, kernel, report)


def test_kkt_check_levels_equal_the_solve_exactly_under_a_potential_field():
    cond = build_condenser(
        [
            PlateSpec(Sphere(ORIGIN, 1.0), 1, 300),
            PlateSpec(Sphere(ORIGIN, 2.0), -1, 300),
        ],
        7,
    )
    source = DiscreteMeasure(np.array([[0.0, 0.0, 3.0]]), np.array([0.4]))
    problem = ProblemSpec(targets=(1.0, 1.0), field=PotentialField(source))
    report = solve_unconstrained(cond, problem, K23)
    assert_kkt_check_reproduces_the_solve(cond, problem, K23, report)


def test_uniqueness_check(small_solved):
    cond, _, report = small_solved
    same = uniqueness_check(cond, report.minimizer, report.minimizer, K23)
    assert same.passed
    assert same.distance == 0.0
    bad = DiscreteVectorMeasure((spike(report.minimizer.weights[0], 0.2),))
    other = uniqueness_check(cond, report.minimizer, bad, K23, tol=1e-6)
    assert not other.passed


def test_uniqueness_check_assembles_once(small_solved, monkeypatch):
    cond, _, report = small_solved
    bad = DiscreteVectorMeasure((spike(report.minimizer.weights[0], 0.2),))
    calls = count_assemblies(monkeypatch)
    uniqueness_check(cond, report.minimizer, bad, K23, tol=1e-6)
    assert len(calls) == 1


def test_duality_check_on_sphere():
    points = sample_sphere(ORIGIN, 1.0, 200, 5)
    sigma = np.full(200, 2.0 / 200)
    report = duality_check(points, sigma, K23)
    assert report.passed
    assert report.q == pytest.approx(1.0)
    assert report.kkt.passed
    assert report.energy_rel_gap <= 1e-3
    assert report.theta_mass_error <= 1e-6


def test_duality_check_assembles_once(monkeypatch):
    points = sample_sphere(ORIGIN, 1.0, 100, 5)
    assemblies = count_assemblies(monkeypatch)
    kernel_matrices = count_calls(monkeypatch, kernels.kernel_matrix)
    assert duality_check(points, np.full(100, 2.0 / 100), K23).passed
    assert len(assemblies) == 1
    assert len(kernel_matrices) == 1


def test_duality_check_validation():
    points = sample_sphere(ORIGIN, 1.0, 20, 5)
    with pytest.raises(ValueError):
        duality_check(points, np.full(20, 2.0 / 20), RieszKernel(2.5, 3))
    with pytest.raises(ValueError):
        duality_check(points, np.full(20, 1.0 / 40), K23)
    with pytest.raises(ValueError):
        duality_check(points, np.full(19, 1.0), K23)
    with pytest.raises(ValueError):
        duality_check(points, np.full(20, -1.0), K23)


def test_continuity_check_caps_mode():
    cond = Condenser([Plate(sample_sphere(ORIGIN, 1.0, 120, 2), 1)])
    problem = ProblemSpec(targets=(1.0,), caps=(np.full(120, 1.05 / 120),))
    report = continuity_check(cond, problem, K23, levels=3)
    assert report.passed
    assert report.monotone
    assert len(report.values) == 3
    assert len(report.distances) == 2
    assert report.final_gap <= 0.05


def test_continuity_check_caps_mode_assembles_once(monkeypatch):
    cond = Condenser([Plate(sample_sphere(ORIGIN, 1.0, 120, 2), 1)])
    problem = ProblemSpec(targets=(1.0,), caps=(np.full(120, 1.05 / 120),))
    calls = count_assemblies(monkeypatch)
    continuity_check(cond, problem, K23, levels=3)
    assert len(calls) == 1


def test_continuity_check_reports_nan_where_the_chain_difference_is_indefinite():
    # Four touching balls as in experiments.touching_balls, lattices rotated
    # by the seed of draw 25 of a seed-0 touching-plates benchmark run:
    # opposite-sign nodes near a tangency sit far closer than their spacing,
    # and the form is indefinite on the difference of chain levels 2 and 3.
    seed = int(np.random.default_rng([0, 25]).integers(2**31 - 1))
    layout = (
        ((0.0, 0.0, 0.0), 1.0, 1),
        ((2.0, 0.0, 0.0), 1.0, -1),
        ((3.0, 0.0, 0.0), 2.0, -1),
        ((-2.0, 0.0, 0.0), 1.0, -1),
    )
    cond = build_condenser([PlateSpec(Sphere(c, r), sign, 500) for c, r, sign in layout], seed)
    kernel = RieszKernel(1.5, 3)
    options = SolveOptions(grad_tol=1e-6)
    caps = tuple(
        1.5 * capacity(kernel, p.points, options=options).report.minimizer.weights[0]
        for p in cond.plates
    )
    problem = ProblemSpec(targets=(1.0,) * 4, caps=caps)
    report = continuity_check(cond, problem, kernel, options=options, levels=3)
    assert report.passed
    assert np.isfinite(report.distances[0])
    assert np.isnan(report.distances[1])
    pair = []
    for ell in (2, 3):
        level = ProblemSpec(targets=problem.targets, caps=tuple(c * (1.0 + 2.0**-ell) for c in caps))
        rep = solve_constrained(cond, level, kernel, options=options)
        assert rep.energy == report.values[ell - 1]
        pair.append(rep.minimizer)
    with pytest.raises(EnergyDegeneracyError):
        semimetric(cond, pair[0], pair[1], kernel)


def test_continuity_check_nodes_mode():
    base = sample_sphere(ORIGIN, 1.0, 100, 1)
    extra = sample_sphere(ORIGIN, 1.0, 40, 99)
    cond = Condenser([Plate(base, 1)])
    problem = ProblemSpec(targets=(1.0,))
    report = continuity_check(
        cond, problem, K23, levels=3, mode="nodes", extra_nodes=[extra]
    )
    # Monotonicity is not required here: interleaved refinements shrink
    # nearest-neighbor spacings and can lift intermediate minima.
    assert report.passed
    assert report.final_gap <= 0.05
    assert len(report.values) == 3
    assert report.distances is None


def test_continuity_check_validation():
    cond = Condenser([Plate(sample_sphere(ORIGIN, 1.0, 30, 1), 1)])
    capless = ProblemSpec(targets=(1.0,))
    capped = ProblemSpec(targets=(1.0,), caps=(np.full(30, 0.1),))
    with pytest.raises(ValueError):
        continuity_check(cond, capped, K23, levels=0)
    with pytest.raises(ValueError):
        continuity_check(cond, capless, K23, mode="caps")
    with pytest.raises(ValueError):
        continuity_check(cond, capless, K23, mode="nodes", extra_nodes=[])
    with pytest.raises(ValueError):
        continuity_check(
            cond,
            capped,
            K23,
            mode="nodes",
            extra_nodes=[sample_sphere(ORIGIN, 1.0, 10, 2)],
        )
    with pytest.raises(ValueError):
        continuity_check(cond, capped, K23, mode="exact")


@pytest.mark.parametrize(
    "check",
    [
        lambda cond, problem, mu: kkt_check(cond, problem, mu, K23),
        lambda cond, problem, mu: uniqueness_check(cond, mu, mu, K23),
        lambda cond, problem, mu: continuity_check(cond, problem, K23, levels=2),
    ],
    ids=["kkt_check", "uniqueness_check", "continuity_check"],
)
def test_check_after_a_solve_reuses_its_matrix(check, monkeypatch):
    cond = Condenser([Plate(sample_sphere(ORIGIN, 1.0, 120, 2), 1)])
    problem = ProblemSpec(targets=(1.0,), caps=(np.full(120, 1.05 / 120),))
    report = solve_constrained(cond, problem, K23)
    kernel_matrices = count_calls(monkeypatch, kernels.kernel_matrix)
    check(cond, problem, report.minimizer)
    assert kernel_matrices == []


def test_kkt_check_after_a_solve_allocates_no_matrix():
    cond = build_condenser(
        [
            PlateSpec(Sphere(ORIGIN, 1.0), 1, 1000),
            PlateSpec(Sphere(ORIGIN, 2.0), -1, 1000),
        ],
        42,
    )
    problem = ProblemSpec(targets=(1.0, 1.0))
    report = solve_unconstrained(cond, problem, K23)
    tracemalloc.start()
    try:
        kkt_check(cond, problem, report.minimizer, K23)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # The 2000-node matrix alone is 32 MB.
    assert peak < 2**20


def test_kkt_check_on_capped_solve():
    cond = Condenser([Plate(sample_sphere(ORIGIN, 1.0, 100, 7), 1)])
    caps = np.full(100, 1.05 / 100)
    problem = ProblemSpec(targets=(1.0,), caps=(caps,))
    report = solve_constrained(cond, problem, K23)
    assert report.converged
    check = kkt_check(cond, problem, report.minimizer, K23)
    assert check.passed
    # The tight caps actually bind at this budget.
    eps = 1e-12
    assert (report.minimizer.weights[0] >= caps - eps).any()
