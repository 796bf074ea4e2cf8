"""Command line interface.

Subcommands: ``solve`` runs a YAML-configured condenser problem,
``experiment`` runs a named reproduction study, ``capacity`` estimates the
capacity of a sphere or a point cloud, ``balayage`` sweeps point charges
onto a sphere, and ``kelvin`` inverts a weighted point cloud in a sphere.

Exit codes: 0 success, 2 infeasible constraints, 3 no convergence or a
failed reproduction, 4 configuration errors.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys

import numpy as np
import yaml

from .config import ConfigError, load_config, problem_from_config
from .experiments import EXPERIMENTS, run_experiment
from .geometry import (
    CondenserGeometryError,
    PointCloudFile,
    build_condenser,
    load_point_cloud,
    sample_sphere,
)
from .kelvin import invert_points
from .kernels import DiagonalPolicy, KernelDomainError, RieszKernel
from .measures import DiscreteMeasure
from .solver import (
    DegenerateProblemError,
    InfeasibleProblemError,
    ShortCircuitError,
    SolveOptions,
    balayage,
    capacity,
    solve_constrained,
    solve_unconstrained,
)


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit with the config error code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(4, f"{self.prog}: error: {message}\n")


def _parse_point(text: str, what: str) -> np.ndarray:
    try:
        vals = [float(v) for v in text.split(",")]
    except ValueError:
        raise ConfigError(f"{what}: expected comma-separated numbers, got {text!r}")
    if len(vals) < 3:
        raise ConfigError(f"{what}: need at least 3 coordinates")
    return np.asarray(vals)


def _policy_from_args(args) -> DiagonalPolicy:
    if args.policy == "zero":
        if args.nn_scale is not None:
            raise ConfigError("--nn-scale has no meaning with --policy zero")
        return DiagonalPolicy.zero()
    return DiagonalPolicy.nearest_neighbor(args.nn_scale)


def _add_kernel_args(sp) -> None:
    sp.add_argument("--alpha", type=float, default=2.0, help="kernel order in (0, dim)")
    sp.add_argument("--dim", type=int, default=3, help="ambient dimension, >= 3")
    sp.add_argument(
        "--policy",
        choices=["nearest_neighbor", "zero"],
        default="nearest_neighbor",
        help="diagonal policy for same-node-set matrices",
    )
    sp.add_argument(
        "--nn-scale",
        type=float,
        default=None,
        help="override the calibrated nearest-neighbor diagonal scale",
    )


def _add_solve_args(sp) -> None:
    sp.add_argument("--max-iters", type=int, default=None)
    sp.add_argument("--tol", type=float, default=None, help="gradient tolerance")
    sp.add_argument("--seed", type=int, default=None)


def _options_with_overrides(base: SolveOptions, args) -> SolveOptions:
    changes = {}
    if getattr(args, "max_iters", None) is not None:
        changes["max_iters"] = args.max_iters
    if getattr(args, "tol", None) is not None:
        changes["grad_tol"] = args.tol
    return dataclasses.replace(base, **changes) if changes else base


def _write_solution_csv(path: str, cond, caps, weights) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        coords = [f"x{k + 1}" for k in range(cond.dim)]
        writer.writerow(["plate", "node_index", *coords, "weight", "cap"])
        for i, plate in enumerate(cond.plates):
            for j, (pt, w) in enumerate(zip(plate.points, weights[i])):
                cap = caps[i][j]
                cap_txt = "inf" if np.isinf(cap) else repr(float(cap))
                writer.writerow(
                    [i, j, *[repr(float(c)) for c in pt], repr(float(w)), cap_txt]
                )


def _cmd_solve(args) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg.seed = args.seed
    if args.nodes is not None:
        cfg.plate_specs = tuple(
            spec
            if isinstance(spec.shape, PointCloudFile)
            else dataclasses.replace(spec, node_count=args.nodes)
            for spec in cfg.plate_specs
        )
    options = _options_with_overrides(cfg.options, args)
    cond = build_condenser(cfg.plate_specs, cfg.seed)
    problem = problem_from_config(cfg, [len(p) for p in cond.plates])
    solve = solve_constrained if cfg.mode == "constrained" else solve_unconstrained
    report = solve(cond, problem, cfg.kernel, cfg.policy, options)
    _, caps, _ = problem.materialize(cond)
    print(f"energy {report.energy!r}")
    print(f"converged {report.converged} after {report.iterations} iterations")
    print(f"stop_reason {report.stop_reason}")
    print(f"kkt_max_violation {report.kkt_max_violation:.6e}")
    if np.isfinite(report.min_cross_sign_distance):
        print(f"min_cross_sign_distance {report.min_cross_sign_distance:.6e}")
    for i, plate in enumerate(cond.plates):
        mass = report.minimizer.mass(i)
        print(
            f"plate {i} sign {plate.sign:+d} nodes {len(plate)} "
            f"mass {mass:.12g} level {report.multipliers[i]!r}"
        )
    if report.message:
        print(report.message, file=sys.stderr)
    if args.out:
        _write_solution_csv(args.out, cond, caps, report.minimizer.weights)
        print(f"wrote {args.out}")
    return 0 if report.converged else 3


def _cmd_experiment(args) -> int:
    overrides = {}
    if args.nodes is not None:
        overrides["nodes"] = args.nodes
    if args.seed is not None:
        overrides["seed"] = args.seed
    for item in args.set or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, _, value = item.partition("=")
        overrides[key.strip()] = yaml.safe_load(value)
    try:
        result = run_experiment(args.name, **overrides)
    except TypeError as exc:
        raise ConfigError(f"bad experiment parameters: {exc}") from None
    print(f"experiment {result.name}: {'ok' if result.ok else 'FAILED'}")
    for key, value in result.metrics.items():
        print(f"  {key} {value}")
    for row in result.rows:
        print("  " + " ".join(f"{k}={v}" for k, v in row.items()))
    if result.notes:
        print(f"  note: {result.notes}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(result.to_jsonable(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.out}")
    return 0 if result.ok else 3


def _cmd_capacity(args) -> int:
    kernel = RieszKernel(args.alpha, args.dim)
    policy = _policy_from_args(args)
    if args.points is not None:
        pts = load_point_cloud(args.points)
    else:
        center = (
            _parse_point(args.center, "--center")
            if args.center
            else np.zeros(args.dim)
        )
        pts = sample_sphere(center, args.radius, args.nodes, args.seed)
    options = _options_with_overrides(SolveOptions(), args)
    result = capacity(kernel, pts, policy, options)
    print(f"nodes {len(pts)}")
    print(f"energy {result.energy!r}")
    print(f"capacity {result.value!r}")
    from .experiments import sphere_capacity_reference

    if args.points is None:
        ref = sphere_capacity_reference(args.alpha, args.dim, args.radius)
        if ref is not None:
            print(f"reference {ref!r}")
            print(f"rel_error {abs(result.value - ref) / ref:.6e}")
    return 0 if result.report.converged else 3


def _cmd_balayage(args) -> int:
    kernel = RieszKernel(args.alpha, args.dim)
    policy = _policy_from_args(args)
    pts_w = []
    for item in args.source:
        coords, _, w = item.partition(":")
        weight = float(w) if w else 1.0
        pts_w.append((_parse_point(coords, "--source"), weight))
    source = DiscreteMeasure(
        np.array([p for p, _ in pts_w]), np.array([w for _, w in pts_w])
    )
    center = (
        _parse_point(args.center, "--center") if args.center else np.zeros(args.dim)
    )
    target = sample_sphere(center, args.radius, args.nodes, args.seed)
    options = _options_with_overrides(SolveOptions(), args)
    result = balayage(kernel, source, target, policy, options)
    print(f"source_mass {source.mass!r}")
    print(f"swept_mass {result.swept.mass!r}")
    print(f"support_residual {result.support_residual:.6e}")
    print(f"complement_slack {result.complement_slack:.6e}")
    print(f"converged {result.converged} after {result.iterations} iterations")
    print(f"stop_reason {result.stop_reason}")
    if args.out:
        data = np.column_stack([result.swept.points, result.swept.weights])
        np.savetxt(args.out, data, fmt="%.17g")
        print(f"wrote {args.out}")
    return 0 if result.converged else 3


def _cmd_kelvin(args) -> int:
    data = np.loadtxt(args.infile, ndmin=2)
    if data.shape[1] != args.dim + 1:
        raise ConfigError(
            f"{args.infile}: expected {args.dim} coordinates plus a weight per row"
        )
    kernel = RieszKernel(args.alpha, args.dim)
    center = (
        _parse_point(args.center, "--center") if args.center else np.zeros(args.dim)
    )
    from .kelvin import kelvin_transform
    from .measures import SignedDiscreteMeasure

    measure = SignedDiscreteMeasure(data[:, :-1], data[:, -1])
    image = kelvin_transform(kernel, measure, center, args.radius)
    out = np.column_stack([image.points, image.weights])
    np.savetxt(args.out, out, fmt="%.17g")
    print(f"wrote {args.out} ({len(image)} nodes, mass {image.mass!r})")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(
        prog="riesz",
        description="Discrete minimum energy problems for signed plate families.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("solve", parents=[], help="run a YAML-configured problem")
    sp.add_argument("--config", required=True, help="YAML run file")
    sp.add_argument("--out", default=None, help="write the solution as CSV")
    sp.add_argument("--nodes", type=int, default=None, help="override node counts")
    _add_solve_args(sp)
    sp.set_defaults(func=_cmd_solve)

    sp = sub.add_parser("experiment", help="run a named reproduction study")
    sp.add_argument("name", choices=sorted(EXPERIMENTS), help="experiment name")
    sp.add_argument("--out", default=None, help="write the result as JSON")
    sp.add_argument("--nodes", type=int, default=None)
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument(
        "--set",
        action="append",
        metavar="KEY=VALUE",
        help="override an experiment parameter (repeatable)",
    )
    sp.set_defaults(func=_cmd_experiment)

    sp = sub.add_parser("capacity", help="capacity of a sphere or point cloud")
    group = sp.add_mutually_exclusive_group()
    group.add_argument("--radius", type=float, default=1.0, help="sphere radius")
    group.add_argument("--points", default=None, help="point cloud file")
    sp.add_argument("--center", default=None, help="sphere center as x,y,z")
    sp.add_argument("--nodes", type=int, default=800)
    _add_kernel_args(sp)
    _add_solve_args(sp)
    sp.set_defaults(func=_cmd_capacity, seed=42)

    sp = sub.add_parser("balayage", help="sweep point charges onto a sphere")
    sp.add_argument(
        "--source",
        action="append",
        required=True,
        metavar="X,Y,Z[:W]",
        help="source point with optional weight (repeatable)",
    )
    sp.add_argument("--radius", type=float, default=1.0)
    sp.add_argument("--center", default=None)
    sp.add_argument("--nodes", type=int, default=800)
    sp.add_argument("--out", default=None, help="write swept nodes and weights")
    _add_kernel_args(sp)
    _add_solve_args(sp)
    sp.set_defaults(func=_cmd_balayage, seed=42)

    sp = sub.add_parser("kelvin", help="invert a weighted point cloud in a sphere")
    sp.add_argument("--in", dest="infile", required=True, help="input cloud file")
    sp.add_argument("--out", required=True, help="output cloud file")
    sp.add_argument("--center", default=None)
    sp.add_argument("--radius", type=float, default=1.0)
    sp.add_argument("--alpha", type=float, default=2.0)
    sp.add_argument("--dim", type=int, default=3)
    sp.set_defaults(func=_cmd_kelvin)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InfeasibleProblemError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 2
    except (ShortCircuitError, DegenerateProblemError) as exc:
        print(f"solve failed: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, KernelDomainError, CondenserGeometryError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
