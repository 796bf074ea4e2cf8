from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import nnls

from oracle_utils import oracle_energy, random_instance

from riesz_condenser import (
    Condenser,
    DegenerateProblemError,
    DiagonalPolicy,
    DiscreteMeasure,
    GridField,
    InfeasibleProblemError,
    KernelDomainError,
    Plate,
    ProblemSpec,
    RieszKernel,
    ShortCircuitError,
    SolveOptions,
    balayage,
    capacity,
    condenser_matrix,
    kernel_matrix,
    sample_sphere,
    solve_constrained,
    solve_unconstrained,
)
from riesz_condenser import solver
from riesz_condenser.solver import plate_kkt_violation, plate_multiplier

K23 = RieszKernel(2.0, 3)


def test_solve_options_validation():
    with pytest.raises(ValueError):
        SolveOptions(max_iters=0)
    with pytest.raises(ValueError):
        SolveOptions(grad_tol=0.0)
    with pytest.raises(ValueError):
        SolveOptions(step_rule="exact")
    with pytest.raises(ValueError):
        SolveOptions(restart_count=0)


def test_single_sphere_equilibrium(unit_sphere_400, unit_sphere_solve_400):
    report = unit_sphere_solve_400
    assert report.converged
    w = report.minimizer.weights[0]
    assert float(w.sum()) == pytest.approx(1.0, abs=1e-9)
    # Energy close to the closed-form 1 / radius; the level agrees with it.
    assert report.energy == pytest.approx(1.0, rel=0.05)
    assert report.multipliers[0] == pytest.approx(report.energy, rel=1e-2)
    # Node weights absorb lattice spacing wobble; the spread stays bounded.
    mean = w.mean()
    assert np.max(np.abs(w - mean)) <= 0.7 * mean
    assert report.kkt_max_violation <= 1e-2 * max(1.0, abs(report.energy))


def test_trace_is_monotone(unit_sphere_solve_400):
    assert (np.diff(unit_sphere_solve_400.trace) <= 0.0).all()


def test_solver_deterministic(unit_sphere_400):
    a = solve_unconstrained(unit_sphere_400, ProblemSpec(targets=(1.0,)), K23)
    b = solve_unconstrained(unit_sphere_400, ProblemSpec(targets=(1.0,)), K23)
    assert np.array_equal(a.minimizer.weights[0], b.minimizer.weights[0])
    assert a.energy == b.energy


def test_lipschitz_step_rule_converges():
    cond = Condenser([Plate(sample_sphere((0.0, 0.0, 0.0), 1.0, 100, 1), 1)])
    report = solve_unconstrained(
        cond,
        ProblemSpec(targets=(1.0,)),
        K23,
        options=SolveOptions(step_rule="lipschitz", max_iters=5000),
    )
    assert report.converged
    assert report.energy == pytest.approx(1.0, rel=0.1)


def test_unconverged_report_carries_message():
    cond = Condenser([Plate(sample_sphere((0.0, 0.0, 0.0), 1.0, 100, 1), 1)])
    report = solve_unconstrained(
        cond,
        ProblemSpec(targets=(1.0,)),
        K23,
        options=SolveOptions(max_iters=2),
    )
    assert not report.converged
    assert report.stop_reason == "max_iters"
    assert "max_iters" in report.message


@pytest.mark.parametrize("step_rule", ["armijo", "lipschitz"])
def test_stall_stops_at_once_and_is_not_convergence(step_rule):
    # Instance 23 of the acceptance oracle floors above grad_tol=1e-9 under
    # both step rules: the descent reaches an exact fixed point and must
    # stop there rather than replay it to max_iters.
    rng = np.random.default_rng(2024)
    for _ in range(24):
        kernel, cond, problem = random_instance(rng)
    report = solve_constrained(
        cond,
        problem,
        kernel,
        DiagonalPolicy.nearest_neighbor(),
        SolveOptions(max_iters=20000, grad_tol=1e-9, step_rule=step_rule),
    )
    assert report.stop_reason == "stalled"
    assert report.converged is False
    assert report.iterations < 100
    assert len(report.trace) == report.iterations + 1
    assert f"stalled after {report.iterations} iterations" in report.message
    oracle_e = oracle_energy(kernel, cond, problem)
    assert report.energy == pytest.approx(oracle_e, abs=1e-8 * max(1.0, abs(oracle_e)))


def test_converged_solve_reports_converged(unit_sphere_solve_400):
    assert unit_sphere_solve_400.stop_reason == "converged"
    assert unit_sphere_solve_400.message == ""


@pytest.mark.parametrize("step_rule", ["armijo", "lipschitz"])
@pytest.mark.parametrize("nodes", [2, 5])
def test_optimal_start_reports_converged_not_stalled(nodes, step_rule):
    # The uniform start is optimal on a regular polygon. On the pentagon the
    # first trial and the fallback both lose to rounding while the residual
    # already meets the bar, so a stall test placed before the residual
    # test would report "stalled" here.
    th = 2.0 * np.pi * np.arange(nodes) / nodes
    pts = np.column_stack([np.cos(th), np.sin(th), np.zeros(nodes)])
    report = solve_unconstrained(
        Condenser([Plate(pts, 1)]),
        ProblemSpec(targets=(1.0,)),
        K23,
        options=SolveOptions(step_rule=step_rule),
    )
    assert report.stop_reason == "converged"
    assert report.converged
    assert report.iterations == 1


def test_caps_respected_and_pinning_returns_caps():
    pts = sample_sphere((0.0, 0.0, 0.0), 1.0, 80, 3)
    cond = Condenser([Plate(pts, 1)])
    caps = np.full(80, 1.0 / 80)
    report = solve_constrained(
        cond, ProblemSpec(targets=(1.0,), caps=(caps,)), K23
    )
    assert report.converged
    assert np.allclose(report.minimizer.weights[0], caps)
    loose = np.full(80, 0.02)
    report2 = solve_constrained(
        cond, ProblemSpec(targets=(1.0,), caps=(loose,)), K23
    )
    assert (report2.minimizer.weights[0] <= loose + 1e-12).all()


def test_gauge_scales_the_mass_functional():
    pts = sample_sphere((0.0, 0.0, 0.0), 1.0, 60, 5)
    cond = Condenser([Plate(pts, 1)])
    gauge = np.full(60, 2.0)
    report = solve_unconstrained(
        cond, ProblemSpec(targets=(1.0,), gauges=(gauge,)), K23
    )
    assert float(report.minimizer.weights[0].sum()) == pytest.approx(0.5, abs=1e-9)


def test_infeasible_caps_raise_with_deficit():
    pts = sample_sphere((0.0, 0.0, 0.0), 1.0, 10, 1)
    cond = Condenser([Plate(pts, 1)])
    caps = np.full(10, 0.05)
    with pytest.raises(InfeasibleProblemError) as err:
        solve_constrained(cond, ProblemSpec(targets=(1.0,), caps=(caps,)), K23)
    assert err.value.deficit == pytest.approx(0.5)


def test_infinite_field_blocks_nodes():
    pts = sample_sphere((0.0, 0.0, 0.0), 1.0, 40, 2)
    cond = Condenser([Plate(pts, 1)])
    vals = np.zeros(40)
    vals[:5] = np.inf
    report = solve_unconstrained(
        cond, ProblemSpec(targets=(1.0,), field=GridField((vals,))), K23
    )
    assert np.allclose(report.minimizer.weights[0][:5], 0.0)
    assert float(report.minimizer.weights[0].sum()) == pytest.approx(1.0, abs=1e-9)


def test_infinite_field_everywhere_is_infeasible():
    pts = sample_sphere((0.0, 0.0, 0.0), 1.0, 10, 2)
    cond = Condenser([Plate(pts, 1)])
    vals = np.full(10, np.inf)
    with pytest.raises(InfeasibleProblemError) as err:
        solve_unconstrained(
            cond, ProblemSpec(targets=(1.0,), field=GridField((vals,))), K23
        )
    assert "excludes" in str(err.value)


def test_unconstrained_rejects_caps():
    pts = sample_sphere((0.0, 0.0, 0.0), 1.0, 10, 2)
    cond = Condenser([Plate(pts, 1)])
    problem = ProblemSpec(targets=(1.0,), caps=(np.full(10, 1.0),))
    with pytest.raises(ValueError):
        solve_unconstrained(cond, problem, K23)


def test_short_circuit_detected():
    a = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 2.0]])
    b = np.array([[1e-10, 0.0, 0.0], [0.0, 0.0, -2.0]])
    cond = Condenser([Plate(a, 1), Plate(b, -1)])
    with pytest.raises(ShortCircuitError) as err:
        solve_unconstrained(cond, ProblemSpec(targets=(1.0, 1.0)), K23)
    assert err.value.distance == pytest.approx(1e-10, rel=1e-3)


def test_capacity_two_node_closed_form():
    d = 3.0
    pts = np.array([[0.0, 0.0, 0.0], [d, 0.0, 0.0]])
    result = capacity(RieszKernel(1.5, 3), pts, DiagonalPolicy.zero())
    assert result.value == pytest.approx(2.0 * d ** (3.0 - 1.5), rel=1e-9)
    assert np.allclose(result.report.minimizer.weights[0], 0.5)


def test_capacity_needs_two_nodes():
    with pytest.raises(DegenerateProblemError):
        capacity(K23, np.array([[0.0, 0.0, 0.0]]))


def test_plate_multiplier_and_violation_hand_case():
    w_pot = np.array([2.0, 4.0, 6.0])
    weights = np.array([0.2, 0.3, 0.0])
    caps = np.array([0.5, 0.3, 0.5])
    gauge = np.ones(3)
    level = plate_multiplier(w_pot, weights, caps, gauge, 0.5)
    assert level == pytest.approx(2.0)
    viol = plate_kkt_violation(w_pot, weights, caps, gauge, 0.5, level)
    assert viol == pytest.approx(2.0)


def test_plate_multiplier_band_midpoint():
    w_pot = np.array([2.0, 6.0])
    weights = np.array([0.5, 0.0])
    caps = np.array([0.5, np.inf])
    level = plate_multiplier(w_pot, weights, caps, np.ones(2), 0.5)
    assert level == pytest.approx(4.0)


def test_balayage_matches_nonnegative_least_squares():
    target = sample_sphere((0.0, 0.0, 0.0), 1.0, 40, 11)
    source = DiscreteMeasure(np.array([[0.0, 0.0, 1.7]]), np.array([1.0]))
    result = balayage(K23, source, target)
    assert result.converged
    assert result.stop_reason == "converged"
    plate = Plate(target, 1)
    mat = kernel_matrix(
        K23, target, policy=DiagonalPolicy.nearest_neighbor(), spacings=plate.spacings
    )
    p = 1.0 / np.linalg.norm(target - np.array([0.0, 0.0, 1.7]), axis=1)
    lo = np.linalg.cholesky(mat)
    v_ref, _ = nnls(lo.T, np.linalg.solve(lo, p))
    obj_ref = float(v_ref @ mat @ v_ref - 2.0 * (p @ v_ref))
    assert result.objective == pytest.approx(obj_ref, abs=1e-10 * max(1.0, abs(obj_ref)))
    assert np.allclose(result.swept.weights, v_ref, atol=1e-5)


def test_balayage_kkt_residuals_are_small():
    target = sample_sphere((0.0, 0.0, 0.0), 1.0, 200, 4)
    source = DiscreteMeasure(np.array([[0.0, 0.0, 3.0]]), np.array([2.0]))
    result = balayage(K23, source, target)
    assert result.converged
    assert result.support_residual <= 1e-5
    assert result.complement_slack >= -1e-5
    assert 0.0 < result.swept.mass < source.mass


def test_balayage_converges_on_former_stall_targets():
    # These target sets stalled above the default grad_tol while the
    # monotone test compared two rounded objectives.
    source = DiscreteMeasure(np.array([[0.0, 0.0, 2.0]]), np.array([1.0]))
    for seed in (9, 16, 30):
        result = balayage(K23, source, sample_sphere((0.0, 0.0, 0.0), 1.0, 2000, seed))
        assert result.stop_reason == "converged"
        assert result.converged
        assert result.iterations < 300
        assert result.swept.mass == pytest.approx(0.5, rel=1e-3)


def test_descent_makes_about_one_product_per_iteration(monkeypatch):
    # The gradient at the extrapolated point comes from the recurrence, so
    # the loop multiplies only at trials, backtracks and fallbacks.
    calls = [0]
    pieces = solver._objective_pieces

    def counted(*args):
        calls[0] += 1
        return pieces(*args)

    monkeypatch.setattr(solver, "_objective_pieces", counted)
    report = capacity(K23, sample_sphere((0.0, 0.0, 0.0), 1.0, 2000, 1)).report
    assert report.converged
    assert calls[0] <= 1.5 * report.iterations
    calls[0] = 0
    source = DiscreteMeasure(np.array([[0.0, 0.0, 2.0]]), np.array([1.0]))
    result = balayage(K23, source, sample_sphere((0.0, 0.0, 0.0), 1.0, 2000, 9))
    assert result.converged
    assert calls[0] <= 1.5 * result.iterations


def _intersecting_plates():
    # Two positive plates sharing 10 nodes, inside a negative sphere.
    inner = sample_sphere((0.0, 0.0, 0.0), 1.0, 50, 3)
    outer = sample_sphere((0.0, 0.0, 0.0), 2.0, 40, 4)
    return Condenser([Plate(inner[:30], 1), Plate(inner[20:], 1), Plate(outer, -1)])


def test_condenser_matrix_is_exactly_symmetric_for_the_one_triangle_product():
    cond = _intersecting_plates()
    mat = condenser_matrix(cond, K23, DiagonalPolicy.nearest_neighbor())
    assert mat.dtype == np.float64
    assert mat.flags.c_contiguous
    assert np.array_equal(mat, mat.T)
    rng = np.random.default_rng(0)
    w, lin = rng.random(cond.total_nodes), rng.standard_normal(cond.total_nodes)
    f, g = solver._objective_pieces(mat, lin, w)
    mv = mat @ w
    assert f == pytest.approx(float(w @ mv + 2.0 * (lin @ w)), rel=1e-13)
    assert np.max(np.abs(g - 2.0 * (mv + lin))) <= 1e-13 * np.max(np.abs(g))


def test_fortran_ordered_matrix_gives_the_same_descent():
    cond = _intersecting_plates()
    problem = ProblemSpec(targets=(1.0, 1.0, 1.5))
    asm = solver._assemble(cond, problem, K23, DiagonalPolicy.nearest_neighbor())
    options = SolveOptions(max_iters=60)
    a = solver._solve(asm, problem, options)
    b = solver._solve(replace(asm, mat=np.asfortranarray(asm.mat)), problem, options)
    assert a.energy == b.energy
    assert a.iterations == b.iterations
    assert a.multipliers == b.multipliers
    for wa, wb in zip(a.minimizer.weights, b.minimizer.weights):
        assert np.array_equal(wa, wb)


def test_balayage_rejects_zero_policy():
    target = sample_sphere((0.0, 0.0, 0.0), 1.0, 20, 2)
    source = DiscreteMeasure(np.array([[0.0, 0.0, 2.0]]), np.array([1.0]))
    with pytest.raises(ValueError):
        balayage(K23, source, target, DiagonalPolicy.zero())


def test_balayage_rejects_source_on_target():
    target = sample_sphere((0.0, 0.0, 0.0), 1.0, 20, 2)
    source = DiscreteMeasure(target[:1].copy(), np.array([1.0]))
    with pytest.raises(KernelDomainError):
        balayage(K23, source, target)


def test_balayage_needs_two_target_nodes():
    source = DiscreteMeasure(np.array([[0.0, 0.0, 2.0]]), np.array([1.0]))
    with pytest.raises(DegenerateProblemError):
        balayage(K23, source, np.array([[1.0, 0.0, 0.0]]))
