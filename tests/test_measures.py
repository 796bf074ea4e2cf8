import gc
import weakref

import numpy as np
import pytest

from riesz_condenser import (
    Condenser,
    DiagonalPolicy,
    DiscreteMeasure,
    DiscreteVectorMeasure,
    EnergyDegeneracyError,
    GridField,
    Plate,
    PotentialField,
    ProblemSpec,
    ResultantMeasure,
    RieszKernel,
    SignedDiscreteMeasure,
    condenser_matrix,
    energy,
    field_values,
    gauss_energy,
    kernel_matrix,
    measures,
    mutual_energy,
    potential,
    resultant,
    semimetric,
    vector_energy,
    weighted_potentials,
)

K23 = RieszKernel(2.0, 3)
NN = DiagonalPolicy.nearest_neighbor()
ZERO = DiagonalPolicy.zero()


def two_plate_condenser():
    a = Plate(np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]), 1)
    b = Plate(np.array([[0.0, 0.0, 4.0], [1.0, 0.0, 4.0]]), -1)
    return Condenser([a, b])


def test_measure_classes_validate():
    pts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    m = SignedDiscreteMeasure(pts, np.array([1.0, -2.0]))
    assert m.mass == pytest.approx(-1.0)
    assert m.dim == 3
    assert len(m) == 2
    with pytest.raises(ValueError):
        DiscreteMeasure(pts, np.array([1.0, -0.5]))
    with pytest.raises(ValueError):
        SignedDiscreteMeasure(pts, np.array([1.0, np.inf]))
    with pytest.raises(ValueError):
        SignedDiscreteMeasure(np.vstack([pts[0], pts[0]]), np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        ResultantMeasure(pts, np.array([1.0, 1.0]), np.array([1.0, -1.0]))
    r = ResultantMeasure(pts, np.array([1.0, 1.0]), np.array([1.0, np.inf]))
    assert np.isinf(r.spacings[1])


def test_potential_hand_value():
    m = DiscreteMeasure(
        np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0]]), np.array([2.0, 3.0])
    )
    got = potential(K23, m, np.array([[0.0, 0.0, 1.0]]))
    expected = 2.0 / 1.0 + 3.0 / np.sqrt(5.0)
    assert got[0] == pytest.approx(expected)


def test_potential_infinite_only_on_charged_nodes():
    m = DiscreteMeasure(
        np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0]]), np.array([1.0, 0.0])
    )
    got = potential(K23, m, m.points)
    assert got[0] == np.inf
    assert np.isfinite(got[1])


def test_energy_two_node_hand_value():
    d = 2.0
    pts = np.array([[0.0, 0.0, 0.0], [d, 0.0, 0.0]])
    m = DiscreteMeasure(pts, np.array([0.5, 0.5]))
    assert energy(K23, m, ZERO) == pytest.approx(2.0 * 0.25 / d)
    diag = 3.8 / d
    assert energy(K23, m, NN) == pytest.approx(2.0 * 0.25 / d + 2.0 * 0.25 * diag)


def test_mutual_energy_cross_sets():
    a = DiscreteMeasure(np.array([[0.0, 0.0, 0.0]]), np.array([1.0]))
    b = DiscreteMeasure(np.array([[0.0, 0.0, 2.0]]), np.array([3.0]))
    assert mutual_energy(K23, a, b) == pytest.approx(1.5)
    assert mutual_energy(K23, a, b) == mutual_energy(K23, b, a)


def test_mutual_energy_cross_set_coincidence_is_infinite():
    a = DiscreteMeasure(np.array([[0.0, 0.0, 0.0]]), np.array([1.0]))
    b = DiscreteMeasure(
        np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 2.0]]), np.array([1.0, 1.0])
    )
    assert mutual_energy(K23, a, b) == np.inf


def test_mutual_energy_zero_weights_mask_coincidence():
    a = DiscreteMeasure(np.array([[0.0, 0.0, 0.0]]), np.array([1.0]))
    b = DiscreteMeasure(
        np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 2.0]]), np.array([0.0, 1.0])
    )
    assert mutual_energy(K23, a, b) == pytest.approx(0.5)


def test_condenser_matrix_signs_and_blocks():
    cond = two_plate_condenser()
    mat = condenser_matrix(cond, K23, NN)
    assert np.array_equal(mat, mat.T)
    a, b = cond.plates
    self_a = kernel_matrix(K23, a.points, policy=NN, spacings=a.spacings)
    cross = kernel_matrix(K23, a.points, b.points)
    assert np.allclose(mat[:2, :2], self_a)
    assert np.allclose(mat[:2, 2:], -cross)
    assert np.allclose(mat[2:, 2:], kernel_matrix(K23, b.points, policy=NN, spacings=b.spacings))


def test_condenser_matrix_shared_same_sign_nodes_use_policy():
    shared = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    other = np.array([[0.0, 0.0, 0.0], [0.0, 2.0, 0.0]])
    cond = Condenser([Plate(shared, 1), Plate(other, 1)])
    mat = condenser_matrix(cond, K23, NN)
    # Node 0 of each plate is the same physical point; its cross entry is
    # the policy diagonal at the smaller of the two plate spacings.
    assert mat[0, 2] == pytest.approx(3.8 / 1.0)
    mat0 = condenser_matrix(cond, K23, ZERO)
    assert mat0[0, 2] == 0.0


def test_condenser_matrix_dimension_mismatch():
    cond = two_plate_condenser()
    with pytest.raises(Exception):
        condenser_matrix(cond, RieszKernel(2.0, 4), NN)


def test_condenser_matrix_repeat_call_returns_the_same_read_only_array():
    cond = two_plate_condenser()
    mat = condenser_matrix(cond, K23, NN)
    assert condenser_matrix(cond, K23, NN) is mat
    assert not mat.flags.writeable
    with pytest.raises(ValueError):
        mat[0, 0] = 1.0


@pytest.mark.parametrize(
    "change",
    [
        lambda cond: (cond, RieszKernel(1.5, 3), NN),
        lambda cond: (cond, K23, ZERO),
        lambda cond: (Condenser(cond.plates), K23, NN),
    ],
    ids=["kernel", "policy", "equal condenser"],
)
def test_condenser_matrix_other_input_builds_afresh(change):
    cond = two_plate_condenser()
    first = condenser_matrix(cond, K23, NN)
    args = change(cond)
    mat = condenser_matrix(*args)
    assert mat is not first
    assert np.array_equal(mat, measures._build_condenser_matrix(*args))


def test_condenser_matrix_is_freed_with_its_condenser():
    cond = two_plate_condenser()
    mat_ref = weakref.ref(condenser_matrix(cond, K23, NN))
    assert mat_ref() is not None
    del cond
    gc.collect()
    assert mat_ref() is None


def test_condenser_matrix_frees_the_old_matrix_before_building(monkeypatch):
    cond_a = two_plate_condenser()
    cond_b = two_plate_condenser()
    a_ref = weakref.ref(condenser_matrix(cond_a, K23, NN))
    a_alive = []
    original = measures.kernel_matrix

    def recording(*args, **kwargs):
        a_alive.append(a_ref() is not None)
        return original(*args, **kwargs)

    monkeypatch.setattr(measures, "kernel_matrix", recording)
    condenser_matrix(cond_b, K23, NN)
    assert a_alive and not a_alive[0]


def test_vector_measure_validation():
    vm = DiscreteVectorMeasure((np.array([0.5, 0.5]), np.array([1.0, 0.0])))
    assert vm.mass(0) == pytest.approx(1.0)
    assert np.allclose(vm.masses, [1.0, 1.0])
    assert np.allclose(vm.stacked(), [0.5, 0.5, 1.0, 0.0])
    with pytest.raises(ValueError):
        DiscreteVectorMeasure((np.array([0.5, -0.5]),))
    cond = two_plate_condenser()
    with pytest.raises(ValueError):
        DiscreteVectorMeasure((np.array([1.0]),)).validate_for(cond)
    with pytest.raises(ValueError):
        DiscreteVectorMeasure((np.array([1.0]), np.array([1.0, 0.0]))).validate_for(cond)


def test_problem_spec_materialize_defaults():
    cond = two_plate_condenser()
    targets, caps, gauges = ProblemSpec(targets=(1.0, 2.0)).materialize(cond)
    assert np.allclose(targets, [1.0, 2.0])
    assert all(np.isinf(c).all() for c in caps)
    assert all(np.allclose(g, 1.0) for g in gauges)


def test_problem_spec_validation():
    cond = two_plate_condenser()
    with pytest.raises(ValueError):
        ProblemSpec(targets=())
    with pytest.raises(ValueError):
        ProblemSpec(targets=(0.0,))
    with pytest.raises(ValueError):
        ProblemSpec(targets=(1.0,)).materialize(cond)
    with pytest.raises(ValueError):
        ProblemSpec(
            targets=(1.0, 1.0), caps=(np.array([1.0]), None)
        ).materialize(cond)
    with pytest.raises(ValueError):
        ProblemSpec(
            targets=(1.0, 1.0), caps=(np.array([-1.0, 1.0]), None)
        ).materialize(cond)
    with pytest.raises(ValueError):
        ProblemSpec(
            targets=(1.0, 1.0), gauges=(np.array([0.0, 1.0]), None)
        ).materialize(cond)
    with pytest.raises(ValueError):
        ProblemSpec(
            targets=(1.0, 1.0), field=GridField((np.zeros(2),))
        ).materialize(cond)


def test_grid_field_validation():
    GridField((np.array([np.inf, 0.0]),))
    with pytest.raises(ValueError):
        GridField((np.array([-np.inf]),))
    with pytest.raises(ValueError):
        GridField((np.array([np.nan]),))


def test_resultant_disjoint_plates():
    cond = two_plate_condenser()
    vm = DiscreteVectorMeasure((np.array([0.5, 0.5]), np.array([0.25, 0.75])))
    res = resultant(cond, vm)
    assert isinstance(res, ResultantMeasure)
    assert len(res) == 4
    assert np.allclose(res.weights, [0.5, 0.5, -0.25, -0.75])
    assert res.mass == pytest.approx(0.0)


def test_resultant_merges_shared_nodes():
    a = Plate(np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0]]), 1)
    b = Plate(np.array([[0.0, 0.0, 0.0], [0.0, 3.0, 0.0]]), 1)
    cond = Condenser([a, b])
    vm = DiscreteVectorMeasure((np.array([0.5, 0.5]), np.array([0.25, 0.75])))
    res = resultant(cond, vm)
    assert len(res) == 3
    assert res.weights[0] == pytest.approx(0.75)
    assert res.spacings[0] == pytest.approx(2.0)
    assert res.mass == pytest.approx(2.0)


def test_resultant_merges_a_node_shared_by_three_plates_at_its_first_occurrence():
    shared = [0.0, 0.0, 0.0]
    a = Plate(np.array([[5.0, 0.0, 0.0], shared]), -1)
    b = Plate(np.array([shared, [0.0, 3.0, 0.0]]), -1)
    c = Plate(np.array([shared, [0.0, 0.0, 1.5]]), -1)
    cond = Condenser([a, b, c])
    vm = DiscreteVectorMeasure(
        (np.array([0.5, 0.5]), np.array([0.25, 0.75]), np.array([0.1, 0.9]))
    )
    res = resultant(cond, vm)
    assert np.array_equal(
        res.points, [[5.0, 0.0, 0.0], shared, [0.0, 3.0, 0.0], [0.0, 0.0, 1.5]]
    )
    assert np.allclose(res.weights, [-0.5, -0.85, -0.75, -0.9], rtol=0, atol=1e-15)
    assert np.array_equal(res.spacings, [5.0, 1.5, 3.0, 1.5])


def test_vector_energy_matches_resultant_energy():
    # Shared node with equal spacings on both plates, so the merged
    # diagonal agrees with the per-plate diagonals and the cross entry.
    a = Plate(np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0]]), 1)
    b = Plate(np.array([[0.0, 0.0, 0.0], [0.0, 2.0, 0.0]]), 1)
    cond = Condenser([a, b])
    vm = DiscreteVectorMeasure((np.array([0.5, 0.5]), np.array([0.25, 0.75])))
    for policy in (ZERO, NN):
        direct = vector_energy(cond, vm, K23, policy)
        via_resultant = energy(K23, resultant(cond, vm), policy)
        assert direct == pytest.approx(via_resultant, rel=1e-12)


def test_vector_energy_matches_resultant_on_disjoint_signed_plates():
    cond = two_plate_condenser()
    vm = DiscreteVectorMeasure((np.array([0.6, 0.4]), np.array([0.3, 0.7])))
    for policy in (ZERO, NN):
        direct = vector_energy(cond, vm, K23, policy)
        via_resultant = energy(K23, resultant(cond, vm), policy)
        assert direct == pytest.approx(via_resultant, rel=1e-12)


def test_gauss_energy_field_pairing():
    cond = two_plate_condenser()
    vm = DiscreteVectorMeasure((np.array([0.5, 0.5]), np.array([0.5, 0.5])))
    field = GridField((np.array([1.0, 2.0]), np.array([0.0, -1.0])))
    problem = ProblemSpec(targets=(1.0, 1.0), field=field)
    quad = vector_energy(cond, vm, K23, NN)
    got = gauss_energy(cond, vm, problem, K23, NN)
    assert got == pytest.approx(quad + 2.0 * (0.5 + 1.0 - 0.5))


def test_gauss_energy_infinite_field_on_uncharged_node():
    cond = two_plate_condenser()
    field = GridField((np.array([np.inf, 0.0]), np.zeros(2)))
    problem = ProblemSpec(targets=(1.0, 1.0), field=field)
    vm0 = DiscreteVectorMeasure((np.array([0.0, 1.0]), np.array([0.5, 0.5])))
    assert np.isfinite(gauss_energy(cond, vm0, problem, K23, NN))
    vm1 = DiscreteVectorMeasure((np.array([0.5, 0.5]), np.array([0.5, 0.5])))
    assert gauss_energy(cond, vm1, problem, K23, NN) == np.inf


def test_semimetric_zero_for_equal_measures():
    cond = two_plate_condenser()
    vm = DiscreteVectorMeasure((np.array([0.5, 0.5]), np.array([0.25, 0.75])))
    assert semimetric(cond, vm, vm, K23, NN) == 0.0


def test_semimetric_positive_for_distinct_measures():
    cond = two_plate_condenser()
    a = DiscreteVectorMeasure((np.array([0.5, 0.5]), np.array([0.5, 0.5])))
    b = DiscreteVectorMeasure((np.array([0.9, 0.1]), np.array([0.5, 0.5])))
    assert semimetric(cond, a, b, K23, NN) > 0.0


def test_semimetric_degenerate_under_zero_diagonal():
    cond = Condenser(
        [Plate(np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]), 1)]
    )
    a = DiscreteVectorMeasure((np.array([1.0, 0.0]),))
    b = DiscreteVectorMeasure((np.array([0.0, 1.0]),))
    with pytest.raises(EnergyDegeneracyError):
        semimetric(cond, a, b, K23, ZERO)


def test_weighted_potentials_match_matrix_action():
    cond = two_plate_condenser()
    vm = DiscreteVectorMeasure((np.array([0.5, 0.5]), np.array([0.25, 0.75])))
    field = GridField((np.array([0.1, 0.2]), np.array([-0.1, 0.3])))
    problem = ProblemSpec(targets=(1.0, 1.0), field=field)
    got = weighted_potentials(cond, vm, problem, K23, NN)
    mat = condenser_matrix(cond, K23, NN)
    vec = mat @ vm.stacked()
    assert np.allclose(got[0], vec[:2] + field.values[0])
    assert np.allclose(got[1], vec[2:] + field.values[1])


def test_field_values_grid_and_validation():
    cond = two_plate_condenser()
    assert field_values(cond, None, K23) is None
    field = GridField((np.zeros(2), np.zeros(2)))
    vals = field_values(cond, field, K23)
    assert len(vals) == 2
    with pytest.raises(ValueError):
        field_values(cond, GridField((np.zeros(3), np.zeros(2))), K23)
    with pytest.raises(TypeError):
        field_values(cond, object(), K23)


def test_field_values_potential_source():
    cond = two_plate_condenser()
    src = DiscreteMeasure(np.array([[0.0, 0.0, 10.0]]), np.array([2.0]))
    vals = field_values(cond, PotentialField(src), K23, NN)
    direct0 = potential(K23, src, cond.plates[0].points)
    direct1 = potential(K23, src, cond.plates[1].points)
    assert np.allclose(vals[0], direct0)
    assert np.allclose(vals[1], -direct1)


def test_field_values_potential_source_on_plate_uses_policy():
    plate = Plate(np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]), 1)
    cond = Condenser([plate])
    src = DiscreteMeasure(plate.points.copy(), np.array([1.0, 1.0]))
    vals = field_values(cond, PotentialField(src), K23, NN)
    # Each node sees the other node at distance 1 plus itself through the
    # nearest-neighbor diagonal, never an infinity.
    assert np.allclose(vals[0], 1.0 + 3.8)
