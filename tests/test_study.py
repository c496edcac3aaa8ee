import dataclasses
import shutil
import subprocess
from pathlib import Path

import numpy as np
import pytest

import gwgflow.study
from gwgflow.study import (
    StudyConfig,
    compute_order,
    run_convergence_study,
)

REFERENCE = Path(__file__).resolve().parent.parent / "benchmarks" / "reference"
#: study CSVs on the paper's mesh lists, written before the shape-class kernels
GOLDEN = Path(__file__).resolve().parent / "data"

#: the benchmark studies, whose coarse-mesh CSVs are committed as references
GOLDEN_STUDIES = {
    "steady_p1": ("steady_oseen_ex1", (1, 0, 1, 0, 0)),
    "steady_p2": ("steady_oseen_ex1", (2, 1, 1, 1, 1)),
    "evolutionary_p1": ("evolutionary_oseen_ex2", (1, 0, 1, 0, 0)),
}

#: the meshes of each golden study on the paper's mesh lists (tau = h^2)
PAPER_MESHES = {
    "steady_p1": (8, 16, 32, 64),
    "steady_p2": (4, 8, 16, 32),
    "evolutionary_p1": (4, 8, 16, 32),
}


def test_compute_order_basic():
    assert compute_order([4.0, 1.0], [1.0, 0.5])[1] == pytest.approx(2.0)
    orders = compute_order([1.0, 1.0, 1.0], [1.0, 0.5, 0.25])
    assert orders[0] is None
    assert orders[1] == pytest.approx(0.0)


def test_compute_order_patch_regime_blank():
    orders = compute_order([3e-14, 2e-14], [0.25, 0.125])
    assert orders == [None, None]


def test_compute_order_validation():
    with pytest.raises(ValueError):
        compute_order([1.0, 2.0], [1.0])
    with pytest.raises(ValueError):
        compute_order([1.0, 2.0], [0.5, 1.0])


def test_study_config_validation():
    with pytest.raises(ValueError):
        StudyConfig(problem="steady_oseen_ex1", elements=(1, 0, 1, 0, 0), mesh_sizes=(8, 8))
    with pytest.raises(ValueError):
        StudyConfig(problem="steady_oseen_ex1", elements=(1, 0, 1, 0, 2), mesh_sizes=(4, 8))
    with pytest.raises(ValueError):
        StudyConfig(
            problem="evolutionary_oseen_ex2",
            elements=(1, 0, 1, 0, 0),
            mesh_sizes=(4, 8),
            tau_rule="geometric",
        )


@pytest.mark.parametrize(
    "field, value",
    [("mesh_sizes", (0, 2)), ("mesh_sizes", (-2, 4)), ("workers", 0), ("workers", -3)],
    ids=["mesh_sizes=0,2", "mesh_sizes=-2,4", "workers=0", "workers=-3"],
)
def test_study_config_rejects_bad_sizes_and_workers(field, value):
    study = {"problem": "steady_oseen_ex1", "elements": (1, 0, 1, 0, 0), "mesh_sizes": (2, 4)}
    with pytest.raises(ValueError, match=f"{field} must be >= 1"):
        StudyConfig(**{**study, field: value})


@pytest.mark.parametrize("elements", [(1, 0, 1, 0), (1, 0, 1, 0, 0, 0)])
def test_study_config_rejects_an_element_tuple_not_of_five(elements):
    with pytest.raises(ValueError, match="elements must be the 5 degrees"):
        StudyConfig(problem="steady_oseen_ex1", elements=elements, mesh_sizes=(2, 4))


@pytest.mark.parametrize("workers", [2.5, 2.0, "2"])
def test_study_config_rejects_non_integral_workers(workers):
    with pytest.raises(ValueError, match="workers must be an integer"):
        StudyConfig(
            problem="steady_oseen_ex1", elements=(1, 0, 1, 0, 0), mesh_sizes=(2, 4), workers=workers
        )


@pytest.mark.parametrize("sizes", [(2.5, 4), (2, 4.0), ("2", 4)])
def test_study_config_rejects_non_integral_mesh_sizes(sizes):
    with pytest.raises(ValueError, match="mesh_sizes must be an integer"):
        StudyConfig(problem="steady_oseen_ex1", elements=(1, 0, 1, 0, 0), mesh_sizes=sizes)


@pytest.mark.parametrize(
    "rule", ["fixed:0", "fixed:-1", "fixed:nan", "fixed:3", "list:0.5,0"]
)
def test_study_config_rejects_bad_tau(rule):
    # a bad step must fail when the study is configured, not in its first cell
    with pytest.raises(ValueError, match="tau"):
        StudyConfig(
            problem="evolutionary_oseen_ex2",
            elements=(1, 0, 1, 0, 0),
            mesh_sizes=(4,),
            tau_rule=rule,
        )


def test_stokes_patch_study_suppresses_orders(tmp_path):
    study = StudyConfig(
        problem="stokes_patch",
        elements=(1, 0, 1, 0, 0),
        mesh_sizes=(4, 8),
        out_dir=str(tmp_path),
    )
    report = run_convergence_study(study)
    for row in report.rows:
        assert row.err_energy <= 1e-10
        assert row.err_l2u <= 1e-10
        assert row.err_l2p <= 1e-10
    assert all(o is None for o in report.orders["energy"])
    csv = (tmp_path / "study.csv").read_text()
    for line in csv.splitlines()[1:]:
        fields = line.split(",")
        assert fields[3] == "" and fields[5] == "" and fields[7] == ""


def test_csv_byte_identical_across_runs_and_workers(tmp_path):
    kwargs = dict(
        problem="steady_oseen_ex1",
        elements=(1, 0, 1, 0, 0),
        mesh_sizes=(4, 8),
    )
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    r1 = run_convergence_study(StudyConfig(out_dir=str(out1), workers=1, **kwargs))
    r2 = run_convergence_study(StudyConfig(out_dir=str(out2), workers=2, **kwargs))
    csv1 = (out1 / "study.csv").read_bytes()
    csv2 = (out2 / "study.csv").read_bytes()
    assert csv1 == csv2


def test_csv_and_markdown_share_numeric_payload(tmp_path):
    study = StudyConfig(
        problem="steady_oseen_ex1",
        elements=(1, 0, 1, 0, 0),
        mesh_sizes=(4, 8),
        out_dir=str(tmp_path),
    )
    report = run_convergence_study(study)
    csv = (tmp_path / "study.csv").read_text()
    md = (tmp_path / "study.md").read_text()
    for line in csv.splitlines()[1:]:
        for field in line.split(","):
            if field and "e" in field:
                assert field in md


def test_evolutionary_study_h2_rule():
    study = StudyConfig(
        problem="evolutionary_oseen_ex2",
        elements=(1, 0, 1, 0, 0),
        mesh_sizes=(2, 4),
        tau_rule="h2",
        t_final=1.0,
    )
    report = run_convergence_study(study)
    assert report.rows[0].tau == pytest.approx(1 / 4)
    assert report.rows[1].tau == pytest.approx(1 / 16)
    assert report.csv_text().count("1/4") >= 2  # h column and tau column
    # a step that does not divide t_final is rounded to whole steps, and the
    # rows report the step that was marched: three steps of 1/3
    fixed = run_convergence_study(dataclasses.replace(study, mesh_sizes=(2,), tau_rule="fixed:0.3"))
    assert fixed.rows[0].tau == 1 / 3
    assert fixed.csv_text().splitlines()[1].startswith("1/2,1/3,")


def test_tau_refinement_study_orders_use_tau():
    study = StudyConfig(
        problem="evolutionary_oseen_ex2",
        elements=(1, 0, 1, 0, 0),
        mesh_sizes=(4,),
        tau_rule="list:0.5,0.25",
        t_final=1.0,
    )
    report = run_convergence_study(study)
    assert [row.tau for row in report.rows] == [0.5, 0.25]
    # errors at fixed h, halving tau: the order column reflects tau halving
    e = [row.err_l2u for row in report.rows]
    expected = np.log2(e[0] / e[1])
    assert report.orders["l2u"][1] == pytest.approx(expected, rel=1e-12)


def test_incompressibility_tracked_per_row():
    study = StudyConfig(
        problem="steady_oseen_ex1",
        elements=(1, 0, 1, 0, 0),
        mesh_sizes=(4, 8),
    )
    report = run_convergence_study(study)
    for row in report.rows:
        assert row.incompressibility < 1e-9


@pytest.mark.parametrize("workload", sorted(GOLDEN_STUDIES))
def test_study_csv_matches_reference(workload):
    problem, elements = GOLDEN_STUDIES[workload]
    study = StudyConfig(problem, elements, (2, 4), formats=(), workers=1)
    expected = (REFERENCE / f"{workload}-2-4.csv").read_bytes()
    assert run_convergence_study(study).csv_text().encode() == expected


@pytest.mark.parametrize("workload", sorted(GOLDEN_STUDIES))
def test_study_csv_matches_paper_mesh_golden(workload):
    problem, elements = GOLDEN_STUDIES[workload]
    sizes = PAPER_MESHES[workload]
    study = StudyConfig(problem, elements, sizes, formats=(), workers=1)
    expected = (GOLDEN / f"{workload}-{'-'.join(map(str, sizes))}.csv").read_bytes()
    assert run_convergence_study(study).csv_text().encode() == expected


#: P2 studies whose condensed set differs from the steady sigma = 0 one:
#: sigma = 1 keeps every pressure mode, and the backward-Euler march adds
#: the mass to the condensed blocks; written before the pressure modes
#: were condensed
CONDENSATION_GOLDEN = {
    "steady_p2_sigma1": StudyConfig(
        "steady_oseen_ex1", (2, 1, 1, 1, 1), (4, 8, 16), sigma=1, formats=(), workers=1
    ),
    "evolutionary_p2": StudyConfig(
        "evolutionary_oseen_ex2", (2, 1, 1, 1, 1), (4, 8, 16), formats=(), workers=1
    ),
}


@pytest.mark.parametrize("name", sorted(CONDENSATION_GOLDEN))
def test_study_csv_matches_condensation_golden(name):
    study = CONDENSATION_GOLDEN[name]
    expected = (GOLDEN / f"{name}-{'-'.join(map(str, study.mesh_sizes))}.csv").read_bytes()
    assert run_convergence_study(study).csv_text().encode() == expected


def test_commit_id_reads_the_package_checkout(tmp_path, monkeypatch):
    package_dir = Path(gwgflow.study.__file__).resolve().parent
    if shutil.which("git") is None:
        pytest.skip("git is not installed")
    head = subprocess.run(
        ["git", "rev-parse", "--short", "HEAD"],
        capture_output=True, text=True, cwd=package_dir, check=False,
    )
    if head.returncode != 0:
        pytest.skip("the package is not in a git checkout")
    # a study started from inside another repository reports this package's commit
    subprocess.run(["git", "init", "-q", str(tmp_path)], check=True)
    subprocess.run(
        ["git", "-c", "user.name=t", "-c", "user.email=t@t", "commit", "-q",
         "--allow-empty", "-m", "other"],
        cwd=tmp_path, check=True,
    )
    monkeypatch.chdir(tmp_path)
    assert gwgflow.study._commit_id() == head.stdout.strip()
