"""Span tracing of the riesz_condenser layers, installed from outside.

The layers are the package modules ``geometry``, ``kernels``, ``measures``,
``solver`` and ``verify``. ``Tracer.install`` swaps each public layer
function for a timing wrapper in every package module that holds it as a
global, so calls made through module globals inside the package (the
descent's ``project_capped_simplex``, ``verify``'s ``condenser_matrix``)
are recorded too. ``cdist`` is scipy's and shared by several modules, so it
gets one wrapper per calling module, named after that module. Nothing in
the package is edited; ``uninstall`` puts the originals back.

Spans (name, start, end, parent, phase) stay in memory until ``write``.
"""
from __future__ import annotations

import functools
import hashlib
import json
import statistics
import sys
import time
from dataclasses import dataclass, field

PACKAGE = "riesz_condenser"

#: Public layer functions, by the module that defines them.
LAYER_FUNCTIONS = {
    "geometry": ("build_condenser", "nearest_neighbor_spacing"),
    "kernels": ("kernel_matrix",),
    "measures": (
        "condenser_matrix",
        "field_values",
        "potential",
        "weighted_potentials",
        "vector_energy",
        "semimetric",
    ),
    "solver": (
        "solve_constrained",
        "solve_unconstrained",
        "capacity",
        "balayage",
        "project_capped_simplex",
        "plate_multiplier",
        "plate_kkt_violation",
    ),
    "verify": ("kkt_check", "uniqueness_check", "continuity_check"),
}

#: Modules whose own ``cdist`` global gets a wrapper named ``<module>.cdist``.
CDIST_MODULES = ("geometry", "kernels", "measures", "solver")

#: Solver entry points; their self time is the descent's own work.
SOLVE_SPANS = (
    "solver.solve_constrained",
    "solver.solve_unconstrained",
    "solver.capacity",
    "solver.balayage",
)
#: Entry points that run the capped-simplex descent; ``capacity`` wraps
#: ``solve_unconstrained``, and ``balayage`` projects by clipping at zero.
PROJECTING_SPANS = ("solver.solve_constrained", "solver.solve_unconstrained")
#: Entry points whose result carries the iterations of exactly one solve.
ITERATION_SPANS = PROJECTING_SPANS + ("solver.balayage",)


#: Unit of every per-layer metric a traced run prints.
UNITS = {
    "kernels.cdist.s": "s",
    "kernels.kernel_matrix.s": "s",
    "kernels.kernel_matrix.entries": "count",
    "measures.condenser_matrix.calls": "count",
    "measures.condenser_matrix.s": "s",
    "measures.condenser_matrix.distinct_per_call": "ratio",
    "verify.assemblies_per_check": "ratio",
    "solver.project_capped_simplex.calls": "count",
    "solver.project_capped_simplex.s": "s",
    "solver.project_capped_simplex.us_per_call": "us",
    "solver.projections_per_iteration": "ratio",
    "solver.iterations": "count",
    "solver.descent.self_s": "s",
    "ref.matvec_s": "s",
    "solver.descent.matvec_equiv": "matvecs_est",
    "verify.kkt_check.s": "s",
    "verify.uniqueness_check.s": "s",
    "verify.continuity_check.s": "s",
    "geometry.build_condenser.s": "s",
    "geometry.nearest_neighbor_spacing.s": "s",
    "geometry.cdist.s": "s",
    "trace.overhead_s": "s",
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    phase: str
    info: object = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _condenser_key(args, kwargs, out):
    cond = args[0]
    kernel = args[1] if len(args) > 1 else kwargs.get("kernel")
    policy = args[2] if len(args) > 2 else kwargs.get("policy")
    digest = hashlib.blake2b(digest_size=16)
    for plate in cond.plates:
        digest.update(plate.sign.to_bytes(1, "little", signed=True))
        digest.update(plate.points.tobytes())
    return (digest.hexdigest(), repr(kernel), repr(policy))


def _entries(args, kwargs, out):
    return int(out.size)


def _iterations(args, kwargs, out):
    return int(out.iterations)


#: Extra facts recorded with a span, from its arguments and result.
_INFO = {
    "measures.condenser_matrix": _condenser_key,
    "kernels.kernel_matrix": _entries,
    **{name: _iterations for name in ITERATION_SPANS},
}


@dataclass
class Tracer:
    clock_origin: float = field(default_factory=time.perf_counter)
    spans: list = field(default_factory=list)
    phase: str = "setup"
    _stack: list = field(default_factory=list)
    _saved: list = field(default_factory=list)

    def _wrap(self, name, fn):
        info = _INFO.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            out = None
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                end = time.perf_counter()
                stack.pop()
                extra = info(args, kwargs, out) if info and out is not None else None
                spans[idx] = Span(name, start, end, parent, self.phase, extra)

        return traced

    def install(self) -> None:
        """Wrap every layer function; raises if one of them is missing."""
        modules = [m for n, m in sys.modules.items() if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for mod_name, names in LAYER_FUNCTIONS.items():
            home = sys.modules[f"{PACKAGE}.{mod_name}"]
            for fname in names:
                original = getattr(home, fname, None)
                if not callable(original):
                    raise RuntimeError(f"{PACKAGE}.{mod_name} has no function {fname}")
                wrapper = self._wrap(f"{mod_name}.{fname}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._saved.append((mod, attr, value))
                            setattr(mod, attr, wrapper)
        for mod_name in CDIST_MODULES:
            mod = sys.modules[f"{PACKAGE}.{mod_name}"]
            original = getattr(mod, "cdist", None)
            if not callable(original):
                raise RuntimeError(f"{PACKAGE}.{mod_name} no longer imports cdist")
            self._saved.append((mod, "cdist", original))
            mod.cdist = self._wrap(f"{mod_name}.cdist", original)

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._saved):
            setattr(mod, attr, value)
        self._saved.clear()

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "name": s.name,
                            "start": round(s.start - self.clock_origin, 9),
                            "end": round(s.end - self.clock_origin, 9),
                            "parent": s.parent,
                            "phase": s.phase,
                        }
                    )
                    + "\n"
                )


def _ancestors(spans, idx):
    parent = spans[idx].parent
    while parent >= 0:
        yield spans[parent]
        parent = spans[parent].parent


def phase_metrics(tracer: Tracer, phase: str) -> dict:
    """Per-layer figures of the spans recorded in one phase."""
    spans = tracer.spans
    idxs = [i for i, s in enumerate(spans) if s.phase == phase]
    child_seconds = {}
    for i in idxs:
        p = spans[i].parent
        if p >= 0:
            child_seconds[p] = child_seconds.get(p, 0.0) + spans[i].seconds

    def total(name):
        return sum(spans[i].seconds for i in idxs if spans[i].name == name)

    out = {
        "kernels.cdist.s": total("kernels.cdist"),
        "kernels.kernel_matrix.s": total("kernels.kernel_matrix"),
        "kernels.kernel_matrix.entries": sum(
            spans[i].info for i in idxs if spans[i].name == "kernels.kernel_matrix" and spans[i].info
        ),
        "verify.kkt_check.s": total("verify.kkt_check"),
        "verify.uniqueness_check.s": total("verify.uniqueness_check"),
        "verify.continuity_check.s": total("verify.continuity_check"),
    }

    cm = [i for i in idxs if spans[i].name == "measures.condenser_matrix"]
    out["measures.condenser_matrix.calls"] = len(cm)
    out["measures.condenser_matrix.s"] = total("measures.condenser_matrix")
    distinct = {spans[i].info for i in cm}
    out["measures.condenser_matrix.distinct_per_call"] = len(distinct) / len(cm) if cm else 0.0

    top_checks = [
        i
        for i in idxs
        if spans[i].name.startswith("verify.")
        and not any(a.name.startswith("verify.") for a in _ancestors(spans, i))
    ]
    in_checks = sum(
        1 for i in cm if any(a.name.startswith("verify.") for a in _ancestors(spans, i))
    )
    out["verify.assemblies_per_check"] = in_checks / len(top_checks) if top_checks else 0.0

    proj = [i for i in idxs if spans[i].name == "solver.project_capped_simplex"]
    out["solver.project_capped_simplex.calls"] = len(proj)
    proj_s = total("solver.project_capped_simplex")
    out["solver.project_capped_simplex.s"] = proj_s
    out["solver.project_capped_simplex.us_per_call"] = 1e6 * proj_s / len(proj) if proj else 0.0

    def iterations(names):
        return sum(spans[i].info or 0 for i in idxs if spans[i].name in names)

    in_solves = sum(
        1 for i in proj if spans[i].parent >= 0 and spans[spans[i].parent].name in PROJECTING_SPANS
    )
    projecting = iterations(PROJECTING_SPANS)
    out["solver.iterations"] = iterations(ITERATION_SPANS)
    out["solver.projections_per_iteration"] = in_solves / projecting if projecting else 0.0
    out["solver.descent.self_s"] = sum(
        spans[i].seconds - child_seconds.get(i, 0.0) for i in idxs if spans[i].name in SOLVE_SPANS
    )
    return out


def setup_metrics(tracer: Tracer) -> dict:
    idxs = [s for s in tracer.spans if s.phase == "setup"]

    def total(name):
        return sum(s.seconds for s in idxs if s.name == name)

    return {
        "geometry.build_condenser.s": total("geometry.build_condenser"),
        "geometry.nearest_neighbor_spacing.s": total("geometry.nearest_neighbor_spacing"),
        "geometry.cdist.s": total("geometry.cdist"),
    }


def median_metrics(per_pass: list[dict]) -> dict:
    return {k: statistics.median(d[k] for d in per_pass) for k in per_pass[0]}
