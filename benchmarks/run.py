#!/usr/bin/env python3
"""Convergence-study benchmark of gwgflow.

Runs one of the paper's convergence studies as a closed loop: one process,
one study pass at a time, study ``workers=1``, one BLAS thread.  Each
pass goes through the public
``gwgflow.study.run_convergence_study`` and its CSV is checked row by row
against the committed reference in ``benchmarks/reference``.

    python3 benchmarks/run.py --workload steady_p1 --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py --workload all

``--trace 0`` reports the end-to-end metrics.  Its passes alternate with
passes of ``benchmarks/baseline/gwgflow_v0``, a frozen copy of the package
as it was when the benchmark was defined, and the pass time is reported as
a ratio to that baseline's.  ``--trace 1`` alternates untraced and traced
passes and reports the per-layer metrics, writing the spans to
``benchmarks/out``.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  One study cell (one mesh) is one attempted operation.  The
seed changes only the run order, never the inputs.  See
``benchmarks/README.md`` for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
BASELINE = HERE / "baseline"

#: workload -> (problem, element tuple (k, j, l, m, n), cells per side).
#: The finest meshes keep a pass near 1-2 s, so that a run holds many
#: program/baseline pairs.
WORKLOADS = {
    "steady_p1": ("steady_oseen_ex1", (1, 0, 1, 0, 0), (8, 16, 32)),
    "steady_p2": ("steady_oseen_ex1", (2, 1, 1, 1, 1), (4, 8, 16)),
    "evolutionary_p1": ("evolutionary_oseen_ex2", (1, 0, 1, 0, 0), (4, 8, 16)),
}

#: fresh interpreters timed before the passes and again after them;
#: setup_s is the median of both sets
SETUP_REPEATS = 4

SETUP_CODE = (
    "from gwgflow.study import StudyConfig, run_convergence_study\n"
    "run_convergence_study(StudyConfig({problem!r}, {elements!r}, (2,), formats=()))\n"
)

PEAK_RSS_CODE = (
    "import resource\n"
    "from gwgflow.study import StudyConfig, run_convergence_study\n"
    "run_convergence_study(StudyConfig({problem!r}, {elements!r}, {meshes!r},"
    " formats=(), workers=1)).csv_text()\n"
    "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
)

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = 1


def usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def reference_path(workload: str, meshes) -> Path:
    return HERE / "reference" / f"{workload}-{'-'.join(map(str, meshes))}.csv"


def study_config(workload: str, meshes, study_module=None):
    study_module = study_module or importlib.import_module("gwgflow.study")
    problem, elements, _ = WORKLOADS[workload]
    return study_module.StudyConfig(problem, elements, tuple(meshes), formats=(), workers=1)


def run_pass(study, study_module=None):
    """Time one study pass; returns (seconds, report or the exception raised)."""
    study_module = study_module or importlib.import_module("gwgflow.study")
    start = time.perf_counter()
    try:
        report = study_module.run_convergence_study(study)
        csv = report.csv_text()
    except Exception as exc:  # a failing pass is a measured outcome, not a crash
        return time.perf_counter() - start, exc
    return time.perf_counter() - start, (report, csv)


class Tally:
    """Cells attempted and failed over every pass of a run."""

    def __init__(self, study, reference: list[str]):
        self.expected = len(study.cells())
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, outcome) -> None:
        """Count one pass: a cell fails if its pass raised, one of its error
        norms is not finite, or its CSV row differs from the reference."""
        self.attempted += self.expected
        if isinstance(outcome, Exception):
            self.failed += self.expected
            self.problems.append(f"pass raised {type(outcome).__name__}: {outcome}")
            return
        report, csv = outcome
        lines, ref = csv.splitlines(), self.reference
        header_ok = bool(lines) and lines[0] == ref[0]
        if not header_ok:
            self.problems.append(f"CSV header {lines[:1]} differs from the reference")
        for i in range(self.expected):
            row = report.rows[i] if i < len(report.rows) else None
            finite = row is not None and all(math.isfinite(v) for v in (
                row.err_energy, row.err_l2u, row.err_l2p,
                row.err_l2u_true, row.err_l2p_proj, row.incompressibility,
            ))
            got = lines[i + 1] if i + 1 < len(lines) else None
            want = ref[i + 1] if i + 1 < len(ref) else None
            if not (header_ok and finite and got == want):
                self.failed += 1
                self.problems.append(f"cell {i}: got {got!r}, want {want!r}, finite={finite}")

    def result(self, metrics: dict) -> dict:
        return {
            "correct": self.failed == 0 and self.attempted > 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": metrics,
        }


def repeat_within(seconds: float, one) -> None:
    """Call ``one`` until another call would overrun ``seconds``; at least once."""
    start = time.perf_counter()
    took = []
    while True:
        t = time.perf_counter()
        one()
        took.append(time.perf_counter() - t)
        if time.perf_counter() - start + statistics.median(took) > seconds:
            return


def fresh_interpreter(code: str) -> tuple[float, str]:
    """Run ``code`` in a new interpreter that imports gwgflow from ``src``;
    returns its wall time and standard output."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=120, check=False,
    )
    took = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"fresh interpreter failed:\n{proc.stderr}")
    return took, proc.stdout


def setup_seconds(workload: str) -> list[float]:
    """Wall time of fresh interpreters that import gwgflow and finish a
    one-cell study on a 2x2 mesh."""
    problem, elements, _ = WORKLOADS[workload]
    code = SETUP_CODE.format(problem=problem, elements=elements)
    return [fresh_interpreter(code)[0] for _ in range(SETUP_REPEATS)]


def peak_rss_mb(workload: str, meshes) -> float:
    """Peak resident memory of a fresh interpreter that runs one study pass.

    It is measured apart from the timed passes because the benchmark
    process also holds the baseline package and its allocations."""
    problem, elements, _ = WORKLOADS[workload]
    code = PEAK_RSS_CODE.format(problem=problem, elements=elements, meshes=tuple(meshes))
    return int(fresh_interpreter(code)[1].split()[-1]) / 1024.0


def load_baseline(workload: str, meshes, reference: list[str]):
    """Import the frozen baseline package and check one pass of it."""
    sys.path.insert(0, str(BASELINE))
    module = importlib.import_module("gwgflow_v0.study")
    study = study_config(workload, meshes, module)
    _, outcome = run_pass(study, module)
    if isinstance(outcome, Exception) or outcome[1].splitlines() != reference:
        raise RuntimeError(f"the baseline in {BASELINE} no longer reproduces the reference")
    return module, study


def run_untraced(args, study, tally, rng) -> tuple[dict, dict]:
    """Alternate program and baseline passes; the seed orders each pair.

    Both run in this process and thread, so a pair shares the host's speed
    of the moment; the median of the per-pair ratios cancels the drift of
    that speed, which on a shared host moves a run's median pass time by
    more than a tenth."""
    base_module, base_study = load_baseline(args.workload, args.meshes, tally.reference)
    walls: list[float] = []
    base_walls: list[float] = []

    def program():
        wall, outcome = run_pass(study)
        walls.append(wall)
        tally.check(outcome)

    def baseline():
        base_walls.append(run_pass(base_study, base_module)[0])

    def one_pair():
        for step in ((program, baseline) if rng.random() < 0.5 else (baseline, program)):
            step()

    setup = setup_seconds(args.workload)
    repeat_within(args.seconds, one_pair)
    setup += setup_seconds(args.workload)
    rss = peak_rss_mb(args.workload, args.meshes)
    ratios = [w / b for w, b in zip(walls, base_walls)]
    metrics = {
        "wall_ratio": {"value": statistics.median(ratios), "unit": "ratio"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "peak_rss_mb": {"value": rss, "unit": "MB"},
    }
    print(f"wall_ratio = {metrics['wall_ratio']['value']:.4f} (median of {len(ratios)} "
          f"program/baseline pairs; median pass {statistics.median(walls):.4f} s, "
          f"baseline {statistics.median(base_walls):.4f} s)")
    print(f"setup_s = {metrics['setup_s']['value']:.4f} s "
          f"(median of {len(setup)} fresh interpreters, half before and half after the passes)")
    print(f"peak_rss_mb = {rss:.1f} MB")
    return metrics, {
        "pass_wall_s": walls, "baseline_pass_wall_s": base_walls,
        "setup_s": setup,
    }


def run_traced(args, study, tally, rng) -> tuple[dict, dict]:
    import tracing

    walls = {False: [], True: []}
    passes = []  # (spans, self times, missing targets) of each traced pass

    def one_pass(traced: bool):
        if not traced:
            wall, outcome = run_pass(study)
        else:
            tracer = tracing.Tracer()
            with tracing.install(tracer) as missing, tracer.span("study.pass"):
                wall, outcome = run_pass(study)
            passes.append((tracer.spans, tracing.self_times(tracer.spans), missing))
        walls[traced].append(wall)
        tally.check(outcome)

    order = (False, True) if rng.random() < 0.5 else (True, False)
    repeat_within(args.seconds, lambda: [one_pass(t) for t in order])

    per_pass = [tracing.layer_metrics(spans, selfs) for spans, selfs, _ in passes]
    counts_repeat = all(
        all(m[c] == per_pass[0][c] for c in tracing.COUNTS) for m in per_pass
    )
    if not counts_repeat:
        print("warning: per-layer counts differ between traced passes", file=sys.stderr)
    values = {}
    for name in per_pass[0]:
        samples = [m[name] for m in per_pass]
        if name in tracing.COUNTS:
            values[name] = samples[0]
        elif name == "solver.max_residual":
            values[name] = max(samples)
        else:
            values[name] = statistics.median(samples)
    traced_wall = statistics.median(walls[True])
    untraced_wall = statistics.median(walls[False])
    values["trace.overhead_s"] = statistics.median(
        t - u for t, u in zip(walls[True], walls[False])
    )
    metrics = {name: {"value": v, "unit": tracing.unit(name)} for name, v in values.items()}
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"traced pass {traced_wall:.3f} s, untraced pass {untraced_wall:.3f} s "
          f"({len(walls[True])} each, {'traced' if order[0] else 'untraced'} first)")
    missing = passes[0][2]
    if missing:
        print(f"warning: not traced (absent from this program): {', '.join(missing)}",
              file=sys.stderr)
    record = {
        "traced_pass_wall_s": walls[True],
        "untraced_pass_wall_s": walls[False],
        "counts_repeat": counts_repeat,
        "untraced_targets": missing,
        "passes": [
            {
                "metrics": m,
                "cells": tracing.per_cell(spans, selfs),
                "spans": [
                    [s.id, s.parent, s.name, s.start, s.end, s.attrs] for s in spans
                ],
            }
            for m, (spans, selfs, _) in zip(per_pass, passes)
        ],
    }
    return metrics, record


def run_workload(args) -> int:
    meshes = args.meshes = args.meshes or WORKLOADS[args.workload][2]
    ref_path = reference_path(args.workload, meshes)
    if not ref_path.is_file():
        print(f"error: no reference CSV {ref_path.relative_to(ROOT)}", file=sys.stderr)
        return 2

    # One BLAS thread: a second one spins on the other core and ties every
    # call to the host scheduling both vCPUs at once.  Must precede the
    # first numpy import.
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    import numpy
    import scipy
    from gwgflow.study import run_convergence_study

    context = {
        "workload": args.workload,
        "meshes": list(meshes),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": usable_cores(),
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(),
    }
    print("context: " + json.dumps(context))

    study = study_config(args.workload, meshes)
    tally = Tally(study, ref_path.read_text().splitlines())
    rng = random.Random(args.seed)
    # let imports, quadrature caches and lazy scipy set-up finish untimed
    run_convergence_study(study_config(args.workload, (2,)))

    run = run_traced if args.trace else run_untraced
    metrics, record = run(args, study, tally, rng)
    result = tally.result(metrics)
    print(f"cells_attempted = {tally.attempted}, cells_failed = {tally.failed}")
    for line in tally.problems[:20]:
        print(f"  {line}", file=sys.stderr)

    OUT.mkdir(exist_ok=True)
    out = OUT / (f"{args.workload}-{'-'.join(map(str, meshes))}"
                 f"-seed{args.seed}-trace{args.trace}.json")
    out.write_text(json.dumps({"context": context, "result": result, **record}))
    print(f"run record written to {out.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Run every workload in its own process (peak RSS is per process)."""
    names = list(WORKLOADS)
    random.Random(args.seed).shuffle(names)
    results = {}
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.meshes:
            cmd += ["--meshes", ",".join(map(str, args.meshes))]
        print(f"== {name}", flush=True)
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            f"{w}.{name}": m for w, r in results.items() for name, m in r["metrics"].items()
        },
    }))
    return 0


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    p.add_argument("--seed", type=int, default=0, help="changes the run order only")
    p.add_argument("--seconds", type=float, default=30.0,
                   help="measuring time; at least one pass always runs")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--meshes", type=lambda s: tuple(int(v) for v in s.split(",")),
                   default=None, help="override the cells-per-side list, e.g. 2,4")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "gwgflow" / "__init__.py").is_file():
        print(f"error: gwgflow sources not found under {SRC}", file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
