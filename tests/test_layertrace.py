"""The benchmark's layer tracer must find every function it wraps.

``perfbench/layertrace.py`` swaps the public layer functions and each
module's ``cdist`` for timing wrappers by module global, and raises when
one is missing; a refactor that renames one of them fails here.
"""
import importlib.util
import sys
from pathlib import Path

import numpy as np

from riesz_condenser import Condenser, Plate, ProblemSpec, RieszKernel, measures, solver
from riesz_condenser import solve_constrained as untraced_solve


def load_layertrace(monkeypatch):
    path = Path(__file__).resolve().parent.parent / "perfbench" / "layertrace.py"
    spec = importlib.util.spec_from_file_location("layertrace", path)
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up in sys.modules.
    monkeypatch.setitem(sys.modules, "layertrace", module)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_records_and_uninstalls(monkeypatch):
    original = measures.condenser_matrix
    tracer = load_layertrace(monkeypatch).Tracer()
    pts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    cond = Condenser([Plate(pts, 1)])
    problem = ProblemSpec(targets=(1.0,), caps=(np.full(3, 0.5),))
    try:
        tracer.install()
        assert solver.condenser_matrix is not original
        solver.solve_constrained(cond, problem, RieszKernel(2.0, 3))
    finally:
        tracer.uninstall()
    assert solver.condenser_matrix is original
    assert solver.solve_constrained is untraced_solve
    assert tracer.calls("solver.solve_constrained") == 1
    assert tracer.calls("measures.condenser_matrix") == 1
    assert tracer.calls("solver.project_capped_simplex") > 0
