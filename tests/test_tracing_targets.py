"""Every name the benchmark's span tracing wraps exists in the package.

``benchmarks/tracing.py`` swaps ``TARGETS`` for traced wrappers and reports
the ones it cannot find; the benchmark smoke test asserts there are none,
but it takes minutes.  This checks the same list in a moment, so a refactor
that renames or drops a traced name fails here first, and checks on one-cell
studies that every wrapped layer is still called, so a refactor cannot
leave a target that exists but no longer runs.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from gwgflow.study import StudyConfig, run_convergence_study

TRACING = Path(__file__).resolve().parent.parent / "benchmarks" / "tracing.py"

STEADY_SPANS = {
    *(f"assembly.{name}" for name in
      ("constrain", "dirichlet", "load", "operator", "reduce", "s2", "system")),
    "localops.boundary_projection", "localops.kernels", "mesh.build",
    "problems.beta", "problems.f", "problems.g",
    "solver.factorize", "solver.solve", "solver.triangular_solve",
    "study.cell", "trace.residual_check", "verify.errors", "verify.incompressibility",
}


@pytest.fixture
def tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("gwgflow_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_tracing_target_exists(tracing):
    with tracing.install(tracing.Tracer()) as missing:
        assert missing == []


@pytest.mark.parametrize("elements", [(1, 0, 1, 0, 0), (2, 1, 1, 1, 1)], ids=["P1", "P2"])
@pytest.mark.parametrize(
    "problem, spans",
    [("steady_oseen_ex1", STEADY_SPANS),
     ("evolutionary_oseen_ex2", STEADY_SPANS | {"assembly.mass"})],
    ids=["steady", "ex2"],
)
def test_traced_study_records_every_span(tracing, problem, spans, elements):
    tracer = tracing.Tracer()
    with tracing.install(tracer):
        run_convergence_study(StudyConfig(problem, elements, (2,), formats=(), workers=1))
    assert {s.name for s in tracer.spans} == spans
