"""One benchmark run of one workload, in this process.

Started by run.py, which passes the monotonic time at which it spawned this
process, so ``setup_s`` covers interpreter start, the package import and the
workload's inputs, up to the first solve. The worker then runs whole passes
until ``--seconds`` have gone by, checks every pass's outputs and prints one
JSON object as its last line.

With ``--trace 1`` the set-up is traced, and each draw of inputs gets an
untraced pass and then a traced one: the per-layer figures are medians
over the traced passes, and ``trace.overhead_s`` is the median of the
traced minus the untraced wall time of a pass on the same draw.
"""
from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

# Before numpy: the package maps RIESZ_THREADS onto the BLAS thread variables.
import riesz_condenser  # noqa: F401
import numpy as np

import layertrace
from workloads import WORKLOADS, Pass

OUT_DIR = Path(__file__).resolve().parent / "out"


def _matvec_seconds(n: int, seed: int, repeats: int = 25) -> float:
    rng = np.random.default_rng(seed)
    mat = rng.standard_normal((n, n))
    x = rng.standard_normal(n)
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        mat @ x
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    args = ap.parse_args(argv)

    tracer = None
    if args.trace:
        tracer = layertrace.Tracer()
        tracer.install()
    workload = WORKLOADS[args.workload](args.seed)
    inputs = workload.draw(0)
    setup_s = time.monotonic() - args.spawned_at
    if tracer:
        tracer.uninstall()
    if hasattr(workload, "prepare_references"):
        workload.prepare_references()

    # A traced run pairs an untraced and a traced pass on each draw; every
    # pass gets inputs made afresh, so neither pays for the other's lazy work.
    min_passes = 2 if args.trace else 1
    passes: list[tuple[Pass, float, bool]] = []
    deadline = time.perf_counter() + args.seconds
    while len(passes) < min_passes or time.perf_counter() < deadline:
        if passes:
            inputs = workload.draw(len(passes) // 2 if tracer else len(passes))
        traced = bool(tracer) and len(passes) % 2 == 1
        if traced:
            tracer.phase = f"pass{len(passes)}"
            tracer.install()
        p = Pass()
        t0 = time.perf_counter()
        workload.run_pass(p, inputs)
        wall = time.perf_counter() - t0
        if traced:
            tracer.uninstall()
        passes.append((p, wall, traced))

    errors = [e for p, _, _ in passes for e in p.errors]
    for e in errors[:10]:
        print(f"check failed: {e}", file=sys.stderr)
    result = {
        "correct": not errors,
        "attempted": sum(p.attempted for p, _, _ in passes),
        "failed": sum(p.failed for p, _, _ in passes),
    }

    OUT_DIR.mkdir(exist_ok=True)
    if tracer:
        missing = [n for n in workload.required_spans if tracer.calls(n) == 0]
        if missing:
            print(f"traced run recorded no calls to {', '.join(missing)}", file=sys.stderr)
            return 3
        per_pass = [layertrace.phase_metrics(tracer, f"pass{i}") for i, (_, _, t) in enumerate(passes) if t]
        layers = layertrace.median_metrics(per_pass)
        layers.update(layertrace.setup_metrics(tracer))
        matvec = _matvec_seconds(workload.matvec_n, args.seed)
        layers["ref.matvec_s"] = matvec
        layers["solver.descent.matvec_equiv"] = layers["solver.descent.self_s"] / matvec
        layers["trace.overhead_s"] = statistics.median(
            passes[i + 1][1] - passes[i][1] for i in range(0, len(passes) - 1, 2)
        )
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in layertrace.UNITS.items()}
        tracer.write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")
    else:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        timed = [p for p, _, _ in passes]
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "solve_s": {"value": statistics.median(p.solve_s for p in timed), "unit": "s"},
            "check_s": {"value": statistics.median(p.check_s for p in timed), "unit": "s"},
            "iterations": {"value": statistics.median(p.iterations for p in timed), "unit": "count"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    result["metrics"] = metrics
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    detail = [
        {"wall_s": wall, "solve_s": p.solve_s, "check_s": p.check_s, "iterations": p.iterations, "traced": t}
        for p, wall, t in passes
    ]
    (OUT_DIR / name).write_text(json.dumps({**result, "setup_s": setup_s, "passes": detail}, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
