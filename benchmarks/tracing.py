"""Span tracing of gwgflow from outside the package.

``install`` swaps the attributes through which gwgflow's layers call each
other for wrappers that record a span around every call, and puts the
originals back on exit; nothing under ``src/`` is changed.  A span is
(id, parent id, name, start, end, attrs).  Spans nest strictly because a
study runs one cell at a time on one thread, so a span's self time is its
duration minus the durations of its direct children.

``layer_metrics`` turns the spans of one traced study pass into the
per-layer metrics named in ``BENCHMARK.json``.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np


@dataclasses.dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float = float("nan")
    attrs: dict = dataclasses.field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder; spans are written out after the run."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[Span] = []

    @contextmanager
    def span(self, name: str, **attrs):
        parent = self._open[-1].id if self._open else None
        s = Span(len(self.spans), parent, name, time.perf_counter(), attrs=attrs)
        self.spans.append(s)
        self._open.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._open.pop()

    def wrap(self, fn, name: str):
        # no functools.wraps: ``fn`` may be a class (ElementKernels)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced


class TracedLU:
    """SuperLU proxy whose ``solve`` calls are traced.

    After each solve it measures the relative residual against the factored
    matrix, in a ``trace.*`` span of its own because that check is tracing
    overhead.  A solve whose right-hand side is exactly the residual
    ``b - A x`` of the previous solve is counted as an iterative-refinement
    step.
    """

    def __init__(self, lu, matrix, tracer: Tracer):
        self._lu = lu
        self._matrix = matrix
        self._tracer = tracer
        self._last_residual = None

    def solve(self, rhs, *args, **kwargs):
        with self._tracer.span("solver.triangular_solve") as s:
            x = self._lu.solve(rhs, *args, **kwargs)
        with self._tracer.span("trace.residual_check"):
            r = self._matrix @ x - rhs
            last = self._last_residual
            s.attrs["refinement"] = bool(
                last is not None and last.shape == r.shape and np.array_equal(rhs, -last)
            )
            s.attrs["residual"] = float(
                np.linalg.norm(r) / max(np.linalg.norm(rhs), 1e-300)
            )
            self._last_residual = r
        return x

    def __getattr__(self, name):
        return getattr(self._lu, name)


def _named(name):
    return lambda tracer, fn: tracer.wrap(fn, name)


def _cell(tracer, fn):
    @functools.wraps(fn)
    def run_cell(*args, **kwargs):
        attrs = {"cells": args[1], "tau": args[2]} if len(args) >= 3 else {}
        with tracer.span("study.cell", **attrs):
            return fn(*args, **kwargs)

    return run_cell


def _bilinear(tracer, fn):
    @functools.wraps(fn)
    def assemble_bilinear(*args, **kwargs):
        form = args[0] if args else kwargs.get("form")
        with tracer.span(f"assembly.{form}"):
            return fn(*args, **kwargs)

    return assemble_bilinear


def _problem(tracer, fn):
    @functools.wraps(fn)
    def manufactured_problem(*args, **kwargs):
        p = fn(*args, **kwargs)
        return dataclasses.replace(
            p,
            f=tracer.wrap(p.f, "problems.f"),
            g=tracer.wrap(p.g, "problems.g"),
            beta=tracer.wrap(p.beta, "problems.beta"),
        )

    return manufactured_problem


def _splu(tracer, fn):
    @functools.wraps(fn)
    def splu(A, *args, **kwargs):
        with tracer.span("solver.factorize") as s:
            lu = fn(A, *args, **kwargs)
        s.attrs.update(ndof=int(A.shape[0]), nnz=int(A.nnz), lu_nnz=int(lu.nnz))
        return TracedLU(lu, A, tracer)

    return splu


#: "module:attribute.path" of every traced call boundary, with its wrapper.
#: Each entry names the attribute the *caller* looks up, so a function that
#: two modules import gets one wrapper in each.
TARGETS = (
    ("gwgflow.study:_run_cell", _cell),
    ("gwgflow.study:build_uniform_triangulation", _named("mesh.build")),
    ("gwgflow.study:manufactured_problem", _problem),
    ("gwgflow.study:solve_steady", _named("solver.solve")),
    ("gwgflow.study:solve_evolutionary", _named("solver.solve")),
    ("gwgflow.study:evaluate_errors", _named("verify.errors")),
    ("gwgflow.study:incompressibility_residual", _named("verify.incompressibility")),
    ("gwgflow.solver:build_saddle_system", _named("assembly.system")),
    ("gwgflow.solver:assemble_bilinear", _bilinear),
    ("gwgflow.solver:assemble_load", _named("assembly.load")),
    ("gwgflow.solver:ElementKernels", _named("localops.kernels")),
    ("gwgflow.solver:apply_dirichlet", _named("assembly.dirichlet")),
    ("gwgflow.solver:constrain_system", _named("assembly.constrain")),
    ("gwgflow.solver:spla.splu", _splu),
    ("gwgflow.assembly:assemble_bilinear", _bilinear),
    ("gwgflow.assembly:assemble_load", _named("assembly.load")),
    ("gwgflow.assembly:ElementKernels", _named("localops.kernels")),
    ("gwgflow.assembly:project_boundary_traces", _named("localops.boundary_projection")),
    ("gwgflow.assembly:SaddleSystem.operator", _named("assembly.operator")),
    ("gwgflow.assembly:SaddleSystem.reduced_blocks", _named("assembly.reduce")),
    ("gwgflow.localops:project_boundary_traces", _named("localops.boundary_projection")),
)


def _owner(target: str):
    module, _, path = target.partition(":")
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
    return owner, attr


@contextmanager
def install(tracer: Tracer):
    """Wrap every reachable target; yields the targets this program lacks."""
    saved, missing = [], []
    try:
        for target, make in TARGETS:
            owner, attr = _owner(target)
            original = getattr(owner, attr, None)
            if original is None:
                missing.append(target)
                continue
            saved.append((owner, attr, original))
            setattr(owner, attr, make(tracer, original))
        yield missing
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def self_times(spans: list[Span]) -> list[float]:
    covered = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.duration
    return [s.duration - c for s, c in zip(spans, covered)]


#: per-layer time metric -> spans whose self times it sums.  Every span
#: name except the ``trace.*`` ones belongs to exactly one metric, so the
#: time metrics add up to the traced pass.
SELF_TIME = {
    "mesh.build_s": ("mesh.build",),
    "localops.kernels_s": ("localops.kernels",),
    "localops.boundary_projection_s": ("localops.boundary_projection",),
    "problems.f_s": ("problems.f",),
    "problems.g_s": ("problems.g",),
    "problems.beta_s": ("problems.beta",),
    "assembly.viscous_s": ("assembly.viscous",),
    "assembly.convection_s": ("assembly.convection",),
    "assembly.s1_s": ("assembly.s1",),
    "assembly.divergence_s": ("assembly.divergence",),
    "assembly.mass_s": ("assembly.mass",),
    "assembly.load_s": ("assembly.load",),
    "assembly.system_s": ("assembly.system", "assembly.s2"),
    "assembly.operator_s": (
        "assembly.operator", "assembly.reduce", "assembly.dirichlet", "assembly.constrain",
    ),
    "solver.factorize_s": ("solver.factorize",),
    "solver.triangular_solve_s": ("solver.triangular_solve",),
    "solver.self_s": ("solver.solve",),
    "verify.errors_s": ("verify.errors", "verify.incompressibility"),
    "study.self_s": ("study.pass", "study.cell"),
}

#: counts that must repeat exactly between passes and runs
COUNTS = (
    "problems.f_calls",
    "assembly.load_calls",
    "assembly.ndof",
    "assembly.nnz",
    "solver.factorizations",
    "solver.lu_nnz",
    "solver.fill_per_row",
    "solver.triangular_solves",
    "solver.refinements",
)

UNITS = {"solver.fill_per_row": "nnz/row", "solver.max_residual": "rel"}


def unit(metric: str) -> str:
    return UNITS.get(metric, "s" if metric.endswith("_s") else "count")


def layer_metrics(spans: list[Span], selfs: list[float]) -> dict:
    """Per-layer metrics of a set of spans (one pass, or one cell of it).

    Sizes (``ndof``, ``nnz``, ``lu_nnz``, fill) are those of the last
    factored system, which is the finest mesh of a pass; call counts are
    totals.
    """
    by_name = defaultdict(list)
    for s, t in zip(spans, selfs):
        by_name[s.name].append((s, t))
    m = {
        metric: sum(t for n in names for _, t in by_name[n])
        for metric, names in SELF_TIME.items()
    }
    solves = [s for s, _ in by_name["solver.triangular_solve"]]
    factors = [s for s, _ in by_name["solver.factorize"]]
    last = factors[-1].attrs if factors else {}
    ndof, lu_nnz = last.get("ndof", 0), last.get("lu_nnz", 0)
    m.update({
        "problems.f_calls": len(by_name["problems.f"]),
        "assembly.load_calls": len(by_name["assembly.load"]),
        "assembly.ndof": ndof,
        "assembly.nnz": last.get("nnz", 0),
        "solver.factorizations": len(factors),
        "solver.lu_nnz": lu_nnz,
        "solver.fill_per_row": lu_nnz / ndof if ndof else 0.0,
        "solver.triangular_solves": len(solves),
        "solver.refinements": sum(s.attrs["refinement"] for s in solves),
        "solver.max_residual": max((s.attrs["residual"] for s in solves), default=0.0),
    })
    return m


def per_cell(spans: list[Span], selfs: list[float]) -> list[dict]:
    """``layer_metrics`` of each study cell, keyed by its ``study.cell`` span."""
    cell_of: list[int | None] = []
    for s in spans:  # parents precede children, so one forward sweep suffices
        inherited = cell_of[s.parent] if s.parent is not None else None
        cell_of.append(s.id if s.name == "study.cell" else inherited)
    cells = []
    for s in spans:
        if s.name != "study.cell":
            continue
        members = [i for i, c in enumerate(cell_of) if c == s.id]
        metrics = layer_metrics([spans[i] for i in members], [selfs[i] for i in members])
        cells.append({**s.attrs, "wall_s": s.duration, "metrics": metrics})
    return cells
