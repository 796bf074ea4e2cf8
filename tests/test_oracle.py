import numpy as np
import pytest

from oracle_utils import compare_instance, enumerate_minimum, oracle_energy, random_instance

from riesz_condenser import (
    Condenser,
    DiagonalPolicy,
    Plate,
    ProblemSpec,
    RieszKernel,
    SolveOptions,
    condenser_matrix,
    solve_constrained,
)

K23 = RieszKernel(2.0, 3)


def two_node_setup(caps_vec):
    pts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    cond = Condenser([Plate(pts, 1)])
    mat = condenser_matrix(cond, K23, DiagonalPolicy.nearest_neighbor())
    lin = np.zeros(2)
    caps = [np.asarray(caps_vec, dtype=float)]
    gauges = [np.ones(2)]
    targets = np.array([1.0])
    return mat, lin, cond.node_slices(), caps, gauges, targets


def test_enumeration_symmetric_two_node_optimum():
    mat, lin, slices, caps, gauges, targets = two_node_setup([np.inf, np.inf])
    value, x = enumerate_minimum(mat, lin, slices, caps, gauges, targets)
    a, c = mat[0, 0], mat[0, 1]
    assert a > c
    assert value == pytest.approx((a + c) / 2.0, rel=1e-12)
    assert np.allclose(x, 0.5)


def test_enumeration_respects_caps():
    mat, lin, slices, caps, gauges, targets = two_node_setup([0.3, 1.0])
    value, x = enumerate_minimum(mat, lin, slices, caps, gauges, targets)
    assert np.allclose(x, [0.3, 0.7])
    a, c = mat[0, 0], mat[0, 1]
    expected = 0.09 * a + 0.49 * a + 2.0 * 0.21 * c
    assert value == pytest.approx(expected, rel=1e-12)


def test_enumeration_infeasible_returns_none():
    mat, lin, slices, caps, gauges, targets = two_node_setup([0.2, 0.2])
    assert enumerate_minimum(mat, lin, slices, caps, gauges, targets) is None


def test_enumeration_with_linear_term_prefers_low_field():
    mat, lin, slices, caps, gauges, targets = two_node_setup([np.inf, np.inf])
    lin = np.array([0.0, -2.0])
    value, x = enumerate_minimum(mat, lin, slices, caps, gauges, targets)
    brute = None
    for t in np.linspace(0.0, 1.0, 20001):
        w = np.array([t, 1.0 - t])
        v = float(w @ mat @ w + 2.0 * lin @ w)
        brute = v if brute is None else min(brute, v)
    assert value == pytest.approx(brute, abs=1e-7)
    assert x[1] > x[0]


def test_solver_matches_enumeration_on_random_instances():
    rng = np.random.default_rng(123)
    for _ in range(12):
        kernel, cond, problem = random_instance(rng)
        solver_e, oracle_e = compare_instance(kernel, cond, problem)
        assert solver_e == pytest.approx(
            oracle_e, abs=1e-8 * max(1.0, abs(oracle_e))
        )


@pytest.mark.parametrize("step_rule, least", [("armijo", 33), ("lipschitz", 29)])
def test_most_oracle_instances_converge_to_the_enumerated_energy(step_rule, least):
    # The descent's acceptance tests read gradients along each plate's
    # gauge hyperplane, so the residual reaches grad_tol=1e-9 on nearly
    # every instance instead of flooring above it.
    options = SolveOptions(max_iters=2000, grad_tol=1e-9, step_rule=step_rule)
    converged = 0
    for seed, count in ((2024, 24), (123, 12)):
        rng = np.random.default_rng(seed)
        for _ in range(count):
            kernel, cond, problem = random_instance(rng)
            report = solve_constrained(
                cond, problem, kernel, DiagonalPolicy.nearest_neighbor(), options
            )
            converged += report.converged
            oracle_e = oracle_energy(kernel, cond, problem)
            assert report.energy == pytest.approx(
                oracle_e, abs=1e-8 * max(1.0, abs(oracle_e))
            )
    assert converged >= least


def test_random_instances_are_positive_definite():
    rng = np.random.default_rng(5)
    for _ in range(5):
        kernel, cond, problem = random_instance(rng)
        mat = condenser_matrix(cond, kernel, DiagonalPolicy.nearest_neighbor())
        assert np.linalg.eigvalsh(mat)[0] > 0.0
        assert cond.total_nodes <= 6
        assert isinstance(problem, ProblemSpec)
