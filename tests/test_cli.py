import csv
import json

import numpy as np
import pytest

from riesz_condenser.cli import main

TWO_SPHERE_YAML = """
schema_version: 1
kernel: {alpha: 2.0}
plates:
  - shape: {type: sphere, center: [0, 0, 0], radius: 1.0}
    sign: 1
    nodes: 80
  - shape: {type: sphere, center: [0, 0, 0], radius: 2.0}
    sign: -1
    nodes: 80
"""

INFEASIBLE_YAML = """
schema_version: 1
kernel: {alpha: 2.0}
plates:
  - shape: {type: sphere, center: [0, 0, 0], radius: 1.0}
    sign: 1
    nodes: 80
    cap: 0.001
"""


def write(tmp_path, text, name="run.yaml"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_solve_success(tmp_path, capsys):
    cfg = write(tmp_path, TWO_SPHERE_YAML)
    assert main(["solve", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "energy " in out
    assert "converged True" in out
    assert "stop_reason converged" in out
    assert "plate 0 sign +1" in out
    assert "plate 1 sign -1" in out


def test_solve_writes_csv(tmp_path, capsys):
    cfg = write(tmp_path, TWO_SPHERE_YAML)
    out_csv = tmp_path / "solution.csv"
    assert main(["solve", "--config", cfg, "--out", str(out_csv)]) == 0
    with open(out_csv, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["plate", "node_index", "x1", "x2", "x3", "weight", "cap"]
    assert len(rows) == 1 + 160
    weights0 = [float(r[5]) for r in rows[1:] if r[0] == "0"]
    assert sum(weights0) == pytest.approx(1.0, abs=1e-9)
    assert all(r[6] == "inf" for r in rows[1:])


def test_solve_node_override(tmp_path, capsys):
    cfg = write(tmp_path, TWO_SPHERE_YAML)
    assert main(["solve", "--config", cfg, "--nodes", "60"]) == 0
    out = capsys.readouterr().out
    assert "nodes 60" in out


def test_solve_nonconvergence_exit_code(tmp_path, capsys):
    cfg = write(tmp_path, TWO_SPHERE_YAML)
    assert main(["solve", "--config", cfg, "--max-iters", "2"]) == 3
    captured = capsys.readouterr()
    assert "converged False" in captured.out
    assert "stop_reason max_iters" in captured.out


def test_solve_infeasible_exit_code(tmp_path, capsys):
    cfg = write(tmp_path, INFEASIBLE_YAML)
    assert main(["solve", "--config", cfg]) == 2
    assert "infeasible" in capsys.readouterr().err


def test_solve_bad_config_exit_code(tmp_path, capsys):
    cfg = write(tmp_path, "schema_version: 1\nkernel: {alpha: 2.0}\n")
    assert main(["solve", "--config", cfg]) == 4
    assert "config error" in capsys.readouterr().err


def test_solve_missing_config_flag():
    with pytest.raises(SystemExit) as exc:
        main(["solve"])
    assert exc.value.code == 4


def test_experiment_json_output(tmp_path, capsys):
    out_json = tmp_path / "result.json"
    code = main(
        [
            "experiment",
            "capacity_sweep",
            "--nodes",
            "150",
            "--set",
            "radii=[1.0, 2.0]",
            "--out",
            str(out_json),
        ]
    )
    assert code == 0
    blob = json.loads(out_json.read_text())
    assert blob["name"] == "capacity_sweep"
    assert blob["ok"] is True
    assert blob["params"]["nodes"] == 150
    assert [row["radius"] for row in blob["rows"]] == [1.0, 2.0]
    assert "experiment capacity_sweep: ok" in capsys.readouterr().out


def test_experiment_unknown_name():
    with pytest.raises(SystemExit) as exc:
        main(["experiment", "frobnicate"])
    assert exc.value.code == 4


def test_experiment_bad_set_syntax(capsys):
    assert main(["experiment", "two_spheres", "--set", "nodes100"]) == 4
    assert "key=value" in capsys.readouterr().err


def test_experiment_unknown_parameter(capsys):
    assert main(["experiment", "two_spheres", "--set", "bogus=1"]) == 4
    assert "bad experiment parameters" in capsys.readouterr().err


def test_capacity_sphere_with_reference(capsys):
    assert main(["capacity", "--radius", "2.0", "--nodes", "150"]) == 0
    out = capsys.readouterr().out
    assert "capacity " in out
    assert "reference 2.0" in out
    assert "rel_error" in out


def test_capacity_point_cloud(tmp_path, capsys):
    pts = tmp_path / "cloud.txt"
    rng = np.random.default_rng(3)
    cloud = rng.normal(size=(40, 3))
    cloud /= np.linalg.norm(cloud, axis=1, keepdims=True)
    np.savetxt(pts, cloud)
    assert main(["capacity", "--points", str(pts)]) == 0
    out = capsys.readouterr().out
    assert "nodes 40" in out
    assert "reference" not in out


def test_capacity_radius_points_conflict():
    with pytest.raises(SystemExit) as exc:
        main(["capacity", "--radius", "1.0", "--points", "x.txt"])
    assert exc.value.code == 4


def test_capacity_zero_policy_scale_conflict(capsys):
    code = main(
        ["capacity", "--nodes", "50", "--policy", "zero", "--nn-scale", "2.0"]
    )
    assert code == 4
    assert "no meaning" in capsys.readouterr().err


def test_balayage_output(tmp_path, capsys):
    out_file = tmp_path / "swept.txt"
    code = main(
        [
            "balayage",
            "--source",
            "0,0,2",
            "--nodes",
            "150",
            "--out",
            str(out_file),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "source_mass 1.0" in out
    assert "swept_mass" in out
    assert "stop_reason converged" in out
    data = np.loadtxt(out_file)
    assert data.shape == (150, 4)
    assert data[:, 3].sum() == pytest.approx(0.5, rel=0.05)


def test_balayage_weighted_sources(capsys):
    code = main(
        [
            "balayage",
            "--source",
            "0,0,3:2.0",
            "--source",
            "0,0,-3:1.0",
            "--nodes",
            "120",
        ]
    )
    assert code == 0
    assert "source_mass 3.0" in capsys.readouterr().out


def test_balayage_bad_source(capsys):
    assert main(["balayage", "--source", "0,0", "--nodes", "50"]) == 4
    assert "3 coordinates" in capsys.readouterr().err


def test_kelvin_involution(tmp_path, capsys):
    original = np.array(
        [
            [1.0, 0.0, 0.0, 1.0],
            [0.0, 2.0, 0.0, 0.5],
            [0.3, 0.4, 1.2, 2.0],
        ]
    )
    src = tmp_path / "in.txt"
    mid = tmp_path / "mid.txt"
    back = tmp_path / "back.txt"
    np.savetxt(src, original, fmt="%.17g")
    args = ["--radius", "2.0", "--alpha", "1.5"]
    assert main(["kelvin", "--in", str(src), "--out", str(mid), *args]) == 0
    assert main(["kelvin", "--in", str(mid), "--out", str(back), *args]) == 0
    assert "wrote" in capsys.readouterr().out
    result = np.loadtxt(back)
    assert np.allclose(result, original, rtol=1e-12, atol=1e-12)


def test_kelvin_wrong_columns(tmp_path, capsys):
    src = tmp_path / "bad.txt"
    np.savetxt(src, np.ones((3, 3)))
    out = tmp_path / "out.txt"
    assert main(["kelvin", "--in", str(src), "--out", str(out)]) == 4
    assert "coordinates plus a weight" in capsys.readouterr().err


def test_kelvin_missing_input(tmp_path, capsys):
    out = tmp_path / "out.txt"
    code = main(["kelvin", "--in", str(tmp_path / "nope.txt"), "--out", str(out)])
    assert code == 4
    assert "error" in capsys.readouterr().err


def test_missing_subcommand():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 4
