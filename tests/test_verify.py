import sys
import tracemalloc

import numpy as np
import pytest

from oracle_utils import random_instance

from riesz_condenser import (
    Condenser,
    DiagonalPolicy,
    DiscreteMeasure,
    DiscreteVectorMeasure,
    Plate,
    PlateSpec,
    PotentialField,
    ProblemSpec,
    RieszKernel,
    Sphere,
    build_condenser,
    kernels,
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
    assert check.probe_min_gain >= -check.tol * check.scale
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


def test_kkt_check_zero_probes(small_solved):
    cond, problem, report = small_solved
    check = kkt_check(cond, problem, report.minimizer, K23, probes=0)
    assert check.probe_count == 0
    assert check.probe_min_gain == 0.0


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
