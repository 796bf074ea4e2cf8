import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import riesz_condenser
from riesz_condenser import (
    Condenser,
    CondenserGeometryError,
    Plate,
    PlateSpec,
    PointCloudFile,
    RevolutionSurface,
    Sphere,
    build_condenser,
    load_point_cloud,
    nearest_neighbor_spacing,
    sample_revolution_surface,
    sample_sphere,
)


def test_sample_sphere_count_radius_center():
    center = np.array([1.0, -2.0, 0.5])
    pts = sample_sphere(center, 3.0, 250, 7)
    assert pts.shape == (250, 3)
    assert np.allclose(np.linalg.norm(pts - center, axis=1), 3.0)


def test_sample_sphere_deterministic_per_seed():
    a = sample_sphere((0.0, 0.0, 0.0), 1.0, 100, 3)
    b = sample_sphere((0.0, 0.0, 0.0), 1.0, 100, 3)
    c = sample_sphere((0.0, 0.0, 0.0), 1.0, 100, 4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_sample_sphere_two_nodes_are_antipodal():
    pts = sample_sphere((0.0, 0.0, 0.0), 1.0, 2, 0)
    assert float(pts[0] @ pts[1]) == pytest.approx(-1.0, abs=1e-12)


def test_sample_sphere_higher_dimension():
    pts = sample_sphere(np.zeros(4), 2.0, 50, 1)
    assert pts.shape == (50, 4)
    assert np.allclose(np.linalg.norm(pts, axis=1), 2.0)


def test_sample_sphere_validation():
    with pytest.raises(ValueError):
        sample_sphere((0.0, 0.0, 0.0), -1.0, 10, 0)
    with pytest.raises(ValueError):
        sample_sphere((0.0, 0.0, 0.0), 1.0, 1, 0)
    with pytest.raises(ValueError):
        sample_sphere((0.0, 0.0), 1.0, 10, 0)


def test_nearest_neighbor_spacing_hand_case():
    pts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [5.0, 0.0, 0.0]])
    assert np.allclose(nearest_neighbor_spacing(pts), [1.0, 1.0, 4.0])
    with pytest.raises(ValueError):
        nearest_neighbor_spacing(pts[:1])


def test_plate_basics():
    pts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    plate = Plate(pts, -1, label="outer")
    assert len(plate) == 2
    assert plate.dim == 3
    assert plate.sign == -1
    assert np.allclose(plate.spacings, [1.0, 1.0])
    assert "outer" in repr(plate)
    with pytest.raises(ValueError):
        plate.points[0, 0] = 5.0


def test_plate_single_node_has_infinite_spacing():
    plate = Plate(np.array([[0.0, 0.0, 0.0]]), 1)
    assert np.isinf(plate.spacings).all()


def test_plate_validation():
    with pytest.raises(CondenserGeometryError):
        Plate(np.zeros((2, 2)), 1)
    with pytest.raises(CondenserGeometryError):
        Plate(np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]), 1)
    with pytest.raises(CondenserGeometryError):
        Plate(np.array([[0.0, 0.0, np.nan]]), 1)
    with pytest.raises(CondenserGeometryError):
        Plate(np.array([[0.0, 0.0, 0.0]]), 2)


def test_condenser_cross_sign_distance():
    a = Plate(np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]), 1)
    b = Plate(np.array([[0.0, 0.0, 3.0], [1.0, 0.0, 3.0]]), -1)
    cond = Condenser([a, b])
    assert cond.min_cross_sign_distance == pytest.approx(3.0)
    assert cond.total_nodes == 4
    assert np.array_equal(cond.signs, [1, -1])
    assert cond.node_slices() == [slice(0, 2), slice(2, 4)]
    assert cond.stacked_points().shape == (4, 3)


def test_condenser_single_sign_has_no_cross_distance():
    a = Plate(np.array([[0.0, 0.0, 0.0]]), 1)
    b = Plate(np.array([[1.0, 0.0, 0.0]]), 1)
    assert np.isinf(Condenser([a, b]).min_cross_sign_distance)


def test_condenser_rejects_touching_opposite_signs():
    shared = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    with pytest.raises(CondenserGeometryError):
        Condenser([Plate(shared, 1), Plate(shared.copy(), -1)])


def test_condenser_allows_same_sign_shared_nodes():
    shared = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    cond = Condenser([Plate(shared, 1), Plate(shared.copy(), 1)])
    assert cond.total_nodes == 4


def test_condenser_validation():
    with pytest.raises(CondenserGeometryError):
        Condenser([])
    a = Plate(np.zeros((1, 3)), 1)
    b = Plate(np.zeros((1, 4)), 1)
    with pytest.raises(CondenserGeometryError):
        Condenser([a, b])


def test_revolution_surface_profile():
    surface = RevolutionSurface(2.0, 1.0, 3.0)
    assert surface.dim == 3
    assert surface.radius_at(1.0) == pytest.approx(np.exp(-1.0))
    assert np.allclose(
        surface.radius_at(np.array([1.0, 2.0])), np.exp([-1.0, -4.0])
    )
    with pytest.raises(ValueError):
        RevolutionSurface(1.0, 1.0, 3.0)
    with pytest.raises(ValueError):
        RevolutionSurface(2.0, 0.5, 3.0)
    with pytest.raises(ValueError):
        RevolutionSurface(2.0, 2.0, 2.0)


def test_sample_revolution_surface_lies_on_profile():
    surface = RevolutionSurface(1.5, 1.0, 4.0)
    pts = sample_revolution_surface(surface, 200, 9)
    assert pts.shape == (200, 3)
    x1 = pts[:, 0]
    assert (x1 >= 1.0).all() and (x1 <= 4.0).all()
    rho = np.linalg.norm(pts[:, 1:], axis=1)
    assert np.allclose(rho, surface.radius_at(x1), rtol=1e-12)
    again = sample_revolution_surface(surface, 200, 9)
    assert np.array_equal(pts, again)


def test_sample_revolution_surface_matches_scipy_trapezoid_arc_length():
    from scipy.integrate import cumulative_trapezoid

    surface = RevolutionSurface(2.5, 1.0, 4.0)
    count = 300
    grid = np.linspace(surface.x1_min, surface.x1_max, 4097)
    rho = surface.radius_at(grid)
    drho = -surface.r_exponent * grid ** (surface.r_exponent - 1.0) * rho
    arclen = cumulative_trapezoid(np.sqrt(1.0 + drho * drho), grid, initial=0.0)
    x1 = np.interp((np.arange(count) + 0.5) / count * arclen[-1], arclen, grid)
    assert np.array_equal(sample_revolution_surface(surface, count, 3)[:, 0], x1)


def test_package_import_leaves_scipy_integrate_unloaded():
    src = str(Path(riesz_condenser.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [
            sys.executable,
            "-c",
            "import riesz_condenser, sys; print('scipy.integrate' in sys.modules)",
        ],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
        check=True,
    )
    assert out.stdout.strip() == "False"


def test_plate_spec_validation():
    sphere = Sphere((0.0, 0.0, 0.0), 1.0)
    with pytest.raises(ValueError):
        PlateSpec(sphere, 0, 10)
    with pytest.raises(ValueError):
        PlateSpec(sphere, 1, None)
    with pytest.raises(ValueError):
        PlateSpec(sphere, 1, 1)
    with pytest.raises(ValueError):
        PlateSpec(PointCloudFile("x.txt"), 1, 10)
    with pytest.raises(ValueError):
        Sphere((0.0, 0.0, 0.0), 0.0)
    with pytest.raises(ValueError):
        Sphere((0.0, 0.0), 1.0)


def test_build_condenser_seed_chain():
    specs = [
        PlateSpec(Sphere((0.0, 0.0, 0.0), 1.0), 1, 40),
        PlateSpec(Sphere((0.0, 0.0, 0.0), 2.0), -1, 40),
    ]
    a = build_condenser(specs, 10)
    b = build_condenser(specs, 10)
    c = build_condenser(specs, 11)
    assert np.array_equal(a.plates[0].points, b.plates[0].points)
    assert np.array_equal(a.plates[1].points, b.plates[1].points)
    assert not np.array_equal(a.plates[0].points, c.plates[0].points)


def test_build_condenser_explicit_plate_seed_pins_one_plate():
    pinned = PlateSpec(Sphere((0.0, 0.0, 0.0), 1.0), 1, 40, seed=7)
    free = PlateSpec(Sphere((0.0, 0.0, 0.0), 2.0), -1, 40)
    a = build_condenser([pinned, free], 1)
    b = build_condenser([pinned, free], 2)
    assert np.array_equal(a.plates[0].points, b.plates[0].points)
    assert not np.array_equal(a.plates[1].points, b.plates[1].points)


def test_point_cloud_roundtrip(tmp_path):
    path = tmp_path / "cloud.txt"
    pts = np.array([[0.0, 0.0, 0.0], [1.0, 0.5, -2.0], [3.0, 3.0, 3.0]])
    np.savetxt(path, pts)
    loaded = load_point_cloud(path)
    assert np.allclose(loaded, pts)
    cond = build_condenser([PlateSpec(PointCloudFile(str(path)), 1)])
    assert len(cond.plates[0]) == 3


def test_point_cloud_validation(tmp_path):
    bad = tmp_path / "bad.txt"
    np.savetxt(bad, np.zeros((3, 2)))
    with pytest.raises(CondenserGeometryError):
        load_point_cloud(bad)
    worse = tmp_path / "worse.txt"
    worse.write_text("0 0 inf\n")
    with pytest.raises(CondenserGeometryError):
        load_point_cloud(worse)
