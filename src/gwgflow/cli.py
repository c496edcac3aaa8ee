"""Command-line interface: single solves, convergence studies, diagnostics."""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .config import SpaceConfig
from .localops import ElementKernels
from .mesh import build_uniform_triangulation
from .problems import PROBLEM_NAMES, manufactured_problem
from .solver import LinearSolveError, TimeGrid, solve_evolutionary, solve_steady
from .study import StudyConfig, run_convergence_study
from .verify import (
    check_weak_identities,
    estimate_coercivity,
    estimate_infsup,
    evaluate_errors,
    incompressibility_residual,
    kernel_min_eigenvalue,
)

def _parse_ints(text: str, count: int | None = None) -> tuple[int, ...]:
    """``count`` comma-separated integers (any number without it)."""
    try:
        values = tuple(int(s) for s in text.split(","))
    except ValueError:
        values = ()
    if not values or count not in (None, len(values)):
        what = f"{count or 'a list of'} comma-separated integers"
        raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")
    return values


def _parse_degrees(text: str) -> tuple[int, ...]:
    return _parse_ints(text, 5)


def _positive_int(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--problem", default="steady_oseen_ex1", choices=PROBLEM_NAMES)
    p.add_argument("--elements", default="1,0,1,0,0", type=_parse_degrees,
                   help="degrees k,j,l,m,n (comma separated)")
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--zeta", type=float, default=None)
    p.add_argument("--sigma", type=int, default=None, choices=(0, 1))
    p.add_argument("--mu", type=float, default=None)
    p.add_argument("--rho", type=float, default=None)


def _space_config(args) -> SpaceConfig:
    """The ``SpaceConfig`` of the common options; a bad value exits with a message."""
    kwargs = {}
    for name in ("gamma", "alpha", "zeta", "sigma", "mu", "rho"):
        value = getattr(args, name)
        if value is not None:
            kwargs[name] = value
    try:
        return SpaceConfig(*args.elements, **kwargs)
    except ValueError as exc:
        raise SystemExit(f"invalid {args.command} parameters: {exc}") from None


def _cmd_problems(args) -> int:
    for name in PROBLEM_NAMES:
        prob = manufactured_problem(name)
        kind = "steady" if prob.steady else "evolutionary"
        print(f"{name:26s} {kind}")
    return 0


def _cmd_solve(args) -> int:
    cfg = _space_config(args)
    problem = manufactured_problem(args.problem, mu=cfg.mu, rho=cfg.rho)
    try:
        cfg.validate_solver_compatibility()
        grid = None if problem.steady else TimeGrid.from_tau(args.tfinal, args.tau)
    except ValueError as exc:
        raise SystemExit(f"invalid solve parameters: {exc}") from None
    mesh = build_uniform_triangulation(args.cells)
    try:
        if grid is None:
            solution = solve_steady(mesh, cfg, problem)
        else:
            solution = solve_evolutionary(mesh, cfg, problem, grid)
    except LinearSolveError as exc:
        raise SystemExit(f"solve stopped: {exc}") from None
    report = evaluate_errors(solution, problem)
    print(f"problem      : {args.problem}")
    print(f"mesh         : {args.cells} x {args.cells} cells, "
          f"{mesh.n_elements} triangles, {mesh.n_edges} edges")
    if grid is not None:
        print(f"time steps   : {grid.n_steps} of tau = {grid.tau:.6g}, up to T = {grid.t_final:g}")
    print(f"energy error : {report.energy:.4e}")
    print(f"L2(u) error  : {report.l2_velocity_proj:.4e}  "
          f"(vs exact: {report.l2_velocity_true:.4e})")
    print(f"L2(p) error  : {report.l2_pressure_true:.4e}  "
          f"(vs projection: {report.l2_pressure_proj:.4e})")
    print(f"pressure mean: {solution.pressure_mean:.3e}")
    print(f"div residual : {incompressibility_residual(solution):.3e}")
    if args.dump is not None:
        try:
            _dump_solution(Path(args.dump), solution)
        except OSError as exc:
            raise SystemExit(f"solve stopped: cannot write the solution dump: {exc}") from None
        print(f"solution dump: {args.dump}")
    return 0


def _dump_solution(path: Path, solution) -> None:
    """Plain-text dump: interior and pressure coefficients per element, traces per edge."""
    dm = solution.system.kernels.dofmap
    interior, traces = dm.split_velocity(solution.velocity_vector)
    sections = [("interior", interior), ("trace", traces),
                ("pressure", solution.pressure_vector[dm.elem_pres])]
    with path.open("w") as fh:
        fh.write(f"# time {solution.time:.17g}\n")
        for label, blocks in sections:
            for i, block in enumerate(blocks):
                fh.write(f"{label} {i} {' '.join(f'{v:.17g}' for v in block.ravel())}\n")


def _cmd_study(args) -> int:
    values = {}
    if args.config is not None:
        try:
            values = json.loads(Path(args.config).read_text())
        except (OSError, ValueError) as exc:  # json.JSONDecodeError is a ValueError
            raise SystemExit(f"invalid study config: {args.config}: {exc}") from None
        if not isinstance(values, dict):
            raise SystemExit(f"invalid study config: {args.config}: the top level is {values!r}, "
                             "not an object")
        unknown = set(values) - {f.name for f in dataclasses.fields(StudyConfig)}
        if unknown:
            raise SystemExit(f"unknown config keys: {sorted(unknown)}")
    for name in ("problem", "elements", "mesh_sizes", "gamma", "alpha", "zeta", "sigma", "mu",
                 "rho", "tau_rule", "t_final", "out_dir", "workers"):
        value = getattr(args, name)
        if value is not None:
            values[name] = value
    if args.format is not None:
        values["formats"] = ("csv", "md") if args.format == "both" else (args.format,)

    values.setdefault("problem", "steady_oseen_ex1")
    values.setdefault("elements", (1, 0, 1, 0, 0))
    values.setdefault("mesh_sizes", (8, 16, 32))
    for name in ("elements", "mesh_sizes", "formats"):
        if name not in values:
            continue
        if not isinstance(values[name], (list, tuple)):
            raise SystemExit(f"invalid study config: {name} must be a list, got {values[name]!r}")
        values[name] = tuple(values[name])

    try:
        study = StudyConfig(**values)
    except ValueError as exc:
        raise SystemExit(f"invalid study config: {exc}") from None
    try:
        report = run_convergence_study(study)
    except (LinearSolveError, OSError) as exc:
        raise SystemExit(f"study stopped: {exc}") from None
    sys.stdout.write(report.markdown_text())
    if study.out_dir is not None:
        print(f"reports written to {study.out_dir}")
    return 0


def _cmd_verify(args) -> int:
    cfg = _space_config(args)
    mesh = build_uniform_triangulation(args.cells)
    problem = manufactured_problem(args.problem, mu=cfg.mu, rho=cfg.rho)
    failures = 0

    kernels = ElementKernels(mesh, cfg)
    identities = check_weak_identities(kernels, trials=args.trials, seed=args.seed)
    ok = identities.passed
    failures += 0 if ok else 1
    print(f"[{'PASS' if ok else 'FAIL'}] weak-operator identities: "
          f"max residuals {identities.max_residual_identity1:.2e} / "
          f"{identities.max_residual_identity2:.2e} (tol {identities.tol:.1e})")

    lam = kernel_min_eigenvalue(kernels)
    ok = lam > 0
    failures += 0 if ok else 1
    print(f"[{'PASS' if ok else 'FAIL'}] energy-norm kernel: "
          f"min eigenvalue {lam:.3e} on the zero-trace subspace")

    try:
        beta_h = estimate_infsup(kernels)
    except ValueError as exc:
        raise SystemExit(f"verify stopped: {exc}") from None
    ok = beta_h > 0
    failures += 0 if ok else 1
    print(f"[{'PASS' if ok else 'FAIL'}] inf-sup constant: {beta_h:.4f}")

    coer = estimate_coercivity(kernels, problem.beta)
    ok = coer > 0
    failures += 0 if ok else 1
    print(f"[{'PASS' if ok else 'FAIL'}] coercivity margin (scaled): {coer:.3e}")

    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="gwgflow",
        description="Generalized weak Galerkin solver for the Oseen equations "
        "on uniform triangulations of the unit square.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="single solve with error report")
    _add_common(p_solve)
    p_solve.add_argument("--cells", type=_positive_int, default=8, help="cells per side")
    p_solve.add_argument("--tau", type=float, default=1e-2)
    p_solve.add_argument("--tfinal", type=float, default=1.0)
    p_solve.add_argument("--dump", default=None, help="write solution dump file")
    p_solve.set_defaults(func=_cmd_solve)

    p_study = sub.add_parser("study", help="convergence study over meshes")
    p_study.add_argument("--config", default=None, help="JSON file with StudyConfig fields")
    p_study.add_argument("--problem", default=None, choices=PROBLEM_NAMES)
    p_study.add_argument("--elements", default=None, type=_parse_degrees)
    p_study.add_argument("--mesh", dest="mesh_sizes", default=None, type=_parse_ints,
                         help="cells per side list, e.g. 8,16,32,64")
    for name in ("gamma", "alpha", "zeta", "mu", "rho"):
        p_study.add_argument(f"--{name}", type=float, default=None)
    p_study.add_argument("--sigma", type=int, default=None, choices=(0, 1))
    p_study.add_argument("--tau-rule", dest="tau_rule", default=None,
                         help="h2 | fixed:<v> | list:<v,...>")
    p_study.add_argument("--tfinal", dest="t_final", type=float, default=None)
    p_study.add_argument("--out", dest="out_dir", default=None)
    p_study.add_argument("--format", default=None, choices=("csv", "md", "both"))
    p_study.add_argument("--workers", type=_positive_int, default=None)
    p_study.set_defaults(func=_cmd_study)

    p_verify = sub.add_parser("verify", help="run the stability diagnostics")
    _add_common(p_verify)
    p_verify.add_argument("--cells", type=_positive_int, default=8)
    p_verify.add_argument("--trials", type=_positive_int, default=100)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.set_defaults(func=_cmd_verify)

    p_problems = sub.add_parser("problems", help="list the problem registry")
    p_problems.set_defaults(func=_cmd_problems)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
