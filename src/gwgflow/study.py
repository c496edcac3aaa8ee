"""Convergence-study driver and report emission.

A study solves one manufactured problem over a list of meshes (and time
steps), evaluates the error norms, computes observed orders between
consecutive rows and writes a CSV payload plus a Markdown table.  The CSV
contains only the numeric payload so identical configurations produce
byte-identical files; wall time and other metadata go to the Markdown
report.
"""

from __future__ import annotations

import functools
import math
import os
import subprocess
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .config import SpaceConfig, require_finite, require_integer
from .mesh import build_uniform_triangulation
from .problems import manufactured_problem
from .solver import TimeGrid, solve_evolutionary, solve_steady
from .verify import evaluate_errors, incompressibility_residual

CSV_HEADER = "h,tau,err_energy,ord_energy,err_l2u,ord_l2u,err_l2p,ord_l2p"


@dataclass(frozen=True)
class StudyConfig:
    """One convergence study: problem, element tuple, parameters, meshes."""

    problem: str
    elements: tuple[int, int, int, int, int]
    mesh_sizes: tuple[int, ...]            # cells per side, increasing
    gamma: float = -1.0
    alpha: float = 1.0
    zeta: float = 1.0
    sigma: int = 0
    mu: float = 1.0
    rho: float = 1.0
    tau_rule: str = "h2"                   # "h2" | "fixed:<v>" | "list:<v,...>"
    t_final: float = 1.0
    out_dir: str | None = None
    formats: tuple[str, ...] = ("csv", "md")
    workers: int = 1

    def space_config(self) -> SpaceConfig:
        k, j, l, m, n = self.elements
        return SpaceConfig(
            k, j, l, m, n,
            gamma=self.gamma, alpha=self.alpha, zeta=self.zeta,
            sigma=self.sigma, mu=self.mu, rho=self.rho,
        )

    def __post_init__(self):
        for name in ("problem", "tau_rule"):
            if not isinstance(getattr(self, name), str):
                raise ValueError(f"{name} must be a string, got {getattr(self, name)!r}")
        require_finite("t_final", self.t_final)
        if self.out_dir is not None:
            if not isinstance(self.out_dir, (str, os.PathLike)):
                raise ValueError(f"out_dir must be a path, got {self.out_dir!r}")
            if Path(self.out_dir).exists() and not Path(self.out_dir).is_dir():
                raise ValueError(f"out_dir must be a directory, got the file {str(self.out_dir)!r}")
        if len(self.mesh_sizes) < 1:
            raise ValueError("mesh_sizes must not be empty")
        for n in self.mesh_sizes:
            require_integer("mesh_sizes", n)
        if any(b <= a for a, b in zip(self.mesh_sizes, self.mesh_sizes[1:])):
            raise ValueError("mesh_sizes must be strictly increasing (h decreasing)")
        if self.mesh_sizes[0] < 1:
            raise ValueError(f"mesh_sizes must be >= 1, got {self.mesh_sizes[0]}")
        if require_integer("workers", self.workers) < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if len(self.elements) != 5:
            raise ValueError(f"elements must be the 5 degrees k, j, l, m, n, got {self.elements}")
        if not all(f in ("csv", "md") for f in self.formats):
            raise ValueError(f"formats must be csv or md, got {self.formats}")
        self.space_config().validate_solver_compatibility()
        self.cells()  # validate the rule and every tau eagerly

    def cells(self) -> list[tuple[int, float | None]]:
        """The (cells_per_side, tau) pairs the study runs, in output order.

        Steady problems ignore the tau rule.  Each tau is the step that is
        marched: the rule's value rounded to a whole number of steps in
        ``t_final`` (``TimeGrid.from_tau``).  A ``list:`` rule with a single
        mesh runs that mesh once per tau (a time-refinement study).
        """
        if manufactured_problem(self.problem).steady:
            return [(n, None) for n in self.mesh_sizes]
        rule, sizes = self.tau_rule, self.mesh_sizes
        if rule == "h2":
            vals = [1.0 / (n * n) for n in sizes]
        elif rule.startswith("fixed:"):
            vals = [float(rule.split(":", 1)[1])] * len(sizes)
        elif rule.startswith("list:"):
            vals = [float(s) for s in rule.split(":", 1)[1].split(",")]
            if len(sizes) == 1:
                sizes = sizes * len(vals)
            elif len(vals) != len(sizes):
                raise ValueError("tau list length must match mesh_sizes")
        else:
            raise ValueError(f"unknown tau rule {rule!r}")
        taus = [TimeGrid.from_tau(self.t_final, v).tau for v in vals]
        # a time-refinement study at one mesh must refine
        if len(set(sizes)) < len(sizes) and any(b >= a for a, b in zip(taus, taus[1:])):
            raise ValueError("tau list must be strictly decreasing")
        return list(zip(sizes, taus))


@dataclass
class StudyRow:
    cells: int
    tau: float | None
    err_energy: float
    err_l2u: float
    err_l2p: float
    err_l2u_true: float
    err_l2p_proj: float
    incompressibility: float


@dataclass
class ConvergenceReport:
    config: StudyConfig
    rows: list[StudyRow]
    orders: dict[str, list[float | None]]
    wall_time: float
    commit: str

    def _row_fields(self):
        """The eight formatted fields of each row, as ``CSV_HEADER`` names them."""
        o = self.orders
        for i, row in enumerate(self.rows):
            yield (
                f"1/{row.cells}", "" if row.tau is None else _format_tau(row.tau),
                f"{row.err_energy:.4e}", _fmt_order(o["energy"][i]),
                f"{row.err_l2u:.4e}", _fmt_order(o["l2u"][i]),
                f"{row.err_l2p:.4e}", _fmt_order(o["l2p"][i]),
            )

    def csv_text(self) -> str:
        lines = [CSV_HEADER, *(",".join(fields) for fields in self._row_fields())]
        return "\n".join(lines) + "\n"

    def markdown_text(self) -> str:
        cfg = self.config
        lines = [
            f"# Convergence study: {cfg.problem}",
            "",
            f"Elements (k, j, l, m, n) = {cfg.elements}; "
            f"gamma={cfg.gamma:g}, alpha={cfg.alpha:g}, zeta={cfg.zeta:g}, "
            f"sigma={cfg.sigma}, mu={cfg.mu:g}, rho={cfg.rho:g}",
        ]
        if not manufactured_problem(cfg.problem).steady:
            lines.append(f"Time stepping: tau rule `{cfg.tau_rule}`, T = {cfg.t_final:g}")
        lines += [
            "",
            "| h | tau | energy err | order | L2(u) err | order | L2(p) err | order |",
            "|---|-----|-----------|-------|-----------|-------|-----------|-------|",
            *(f"| {' | '.join(fields)} |" for fields in self._row_fields()),
            "",
            f"Wall time: {self.wall_time:.2f} s; commit: {self.commit}",
            "",
        ]
        return "\n".join(lines)


def _fmt_order(value: float | None) -> str:
    return "" if value is None else f"{value:.2f}"


def _format_tau(tau: float) -> str:
    frac = Fraction(tau).limit_denominator(10**6)
    if abs(float(frac) - tau) < 1e-14:
        return str(frac)  # "n/d", or "n" when d is 1
    return f"{tau:.6g}"


#: errors at or below this are rounding noise (patch-test regime); orders
#: computed from them are meaningless and stay blank
ORDER_FLOOR = 1e-12


def compute_order(errors, steps) -> list[float | None]:
    """Observed orders ln(e_prev/e_cur)/ln(s_prev/s_cur); first entry None.

    Entries touching non-positive or rounding-level errors stay None.
    """
    if len(errors) != len(steps):
        raise ValueError("errors and steps must have equal length")
    if any(b >= a for a, b in zip(steps, steps[1:])):
        raise ValueError("steps must be strictly decreasing")

    orders: list[float | None] = [None]
    for i in range(1, len(errors)):
        if errors[i - 1] <= ORDER_FLOOR or errors[i] <= ORDER_FLOOR:
            orders.append(None)
            continue
        orders.append(
            math.log(errors[i - 1] / errors[i]) / math.log(steps[i - 1] / steps[i])
        )
    return orders


def _run_cell(study: StudyConfig, cells: int, tau: float | None) -> StudyRow:
    cfg = study.space_config()
    problem = manufactured_problem(study.problem, mu=study.mu, rho=study.rho)
    mesh = build_uniform_triangulation(cells)
    if tau is None:
        solution = solve_steady(mesh, cfg, problem)
    else:
        grid = TimeGrid.from_tau(study.t_final, tau)
        solution = solve_evolutionary(mesh, cfg, problem, grid)
    report = evaluate_errors(solution, problem)
    return StudyRow(
        cells=cells,
        tau=tau,
        err_energy=report.energy,
        err_l2u=report.l2_velocity_proj,
        err_l2p=report.l2_pressure_true,
        err_l2u_true=report.l2_velocity_true,
        err_l2p_proj=report.l2_pressure_proj,
        incompressibility=incompressibility_residual(solution),
    )


def run_convergence_study(study: StudyConfig) -> ConvergenceReport:
    """Solve every study cell, compute orders and emit the reports.

    Cells may run on a small thread pool (``workers``); rows are merged in
    mesh order so the output is independent of the worker count.
    """
    start = time.perf_counter()
    cells_list = study.cells()
    if study.workers > 1:
        with ThreadPoolExecutor(max_workers=study.workers) as pool:
            rows = list(pool.map(lambda ct: _run_cell(study, *ct), cells_list))
    else:
        rows = [_run_cell(study, c, t) for c, t in cells_list]

    if len({c for c, _ in cells_list}) == 1 and len(cells_list) > 1:
        steps = [r.tau for r in rows]  # time-refinement study at fixed h
    else:
        steps = [1.0 / r.cells for r in rows]
    orders = {
        "energy": compute_order([r.err_energy for r in rows], steps),
        "l2u": compute_order([r.err_l2u for r in rows], steps),
        "l2p": compute_order([r.err_l2p for r in rows], steps),
    }
    report = ConvergenceReport(
        config=study,
        rows=rows,
        orders=orders,
        wall_time=time.perf_counter() - start,
        commit=_commit_id(),
    )
    if study.out_dir is not None:
        write_report(report, Path(study.out_dir), study.formats)
    return report


def write_report(report: ConvergenceReport, out_dir: Path, formats) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    if "csv" in formats:
        (out_dir / "study.csv").write_text(report.csv_text())
    if "md" in formats:
        (out_dir / "study.md").write_text(report.markdown_text())


@functools.cache
def _commit_id() -> str:
    """Short commit of the package's own checkout, read once per process."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=5, check=False,
            cwd=Path(__file__).resolve().parent,
        )
        return out.stdout.strip() or "unknown"
    except OSError:
        return "unknown"
