import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gwgflow
from gwgflow import solver, study, verify
from gwgflow.cli import main
from gwgflow.config import SpaceConfig
from gwgflow.mesh import build_uniform_triangulation
from gwgflow.problems import manufactured_problem


def test_problems_lists_registry(capsys):
    assert main(["problems"]) == 0
    out = capsys.readouterr().out
    assert "steady_oseen_ex1" in out
    assert "evolutionary_oseen_ex2" in out
    assert "stokes_patch" in out


def test_solve_patch(capsys):
    rc = main(["solve", "--problem", "stokes_patch", "--cells", "4"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "energy error" in out


def test_solve_dump(tmp_path, capsys):
    dump = tmp_path / "solution.txt"
    rc = main(["solve", "--problem", "stokes_patch", "--cells", "2", "--dump", str(dump)])
    assert rc == 0
    text = dump.read_text()
    assert text.startswith("# time")
    # one full line per section, from the DOF vectors of the same solve
    sol = solver.solve_steady(build_uniform_triangulation(2), SpaceConfig(1, 0, 1, 0, 0),
                              manufactured_problem("stokes_patch"))
    dm = sol.system.kernels.dofmap
    vel, nI, last = sol.velocity_vector, dm.n_interior, dm.n_elements - 1
    for label, values in [("interior 0", vel[: 2 * dm.dk]),
                          ("trace 1", vel[nI + 2 * dm.dj : nI + 4 * dm.dj]),
                          (f"pressure {last}", sol.pressure_vector[last * dm.dn :])]:
        line = f"{label} {' '.join(f'{v:.17g}' for v in values)}\n"
        assert line in text.splitlines(keepends=True)


def test_study_writes_requested_formats(tmp_path, capsys):
    rc = main(
        [
            "study",
            "--problem", "stokes_patch",
            "--elements", "1,0,1,0,0",
            "--mesh", "2,4",
            "--out", str(tmp_path),
            "--format", "csv",
        ]
    )
    assert rc == 0
    assert (tmp_path / "study.csv").exists()
    assert not (tmp_path / "study.md").exists()


def test_study_config_file_with_flag_override(tmp_path, capsys):
    cfg = {
        "problem": "stokes_patch",
        "elements": [1, 0, 1, 0, 0],
        "mesh_sizes": [2, 4],
        "gamma": -1.0,
    }
    path = tmp_path / "study.json"
    path.write_text(json.dumps(cfg))
    out_dir = tmp_path / "out"
    rc = main(
        ["study", "--config", str(path), "--mesh", "2", "--out", str(out_dir), "--format", "both"]
    )
    assert rc == 0
    csv = (out_dir / "study.csv").read_text()
    assert csv.count("\n") == 2  # header + the single overridden mesh row
    assert (out_dir / "study.md").exists()


def test_study_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "study.json"
    path.write_text(json.dumps({"problem": "stokes_patch", "solver": "gmres"}))
    with pytest.raises(SystemExit):
        main(["study", "--config", str(path)])


@pytest.mark.parametrize(
    "values, field",
    [({"elements": [1, 0, 1, 0]}, "elements"), ({"workers": 2.5}, "workers"),
     ({"formats": ["pdf"]}, "formats"), ({"gamma": "x"}, "gamma"), ({"mu": None}, "mu"),
     ({"t_final": "1"}, "t_final"), ({"tau_rule": 5}, "tau_rule"), ({"out_dir": 5}, "out_dir"),
     ({"problem": [1]}, "problem")],
)
def test_study_config_file_with_bad_value_is_a_message(tmp_path, values, field, monkeypatch):
    # each field's type is checked when the config is built, before any cell
    monkeypatch.setattr(study, "_run_cell", lambda *args: pytest.fail("a cell was solved"))
    path = tmp_path / "study.json"
    path.write_text(json.dumps({"problem": "stokes_patch", "mesh_sizes": [2], **values}))
    with pytest.raises(SystemExit) as exc:
        main(["study", "--config", str(path)])
    assert exc.value.code.startswith(f"invalid study config: {field} must be")


@pytest.mark.parametrize("text, message", [("{bad", "Expecting property name"),
                                           (None, "No such file"),
                                           ("[1, 2]", "the top level is [1, 2], not an object")],
                         ids=["malformed", "missing", "list"])
def test_unreadable_study_config_is_a_message(tmp_path, text, message):
    path = tmp_path / "study.json"
    if text is not None:
        path.write_text(text)
    with pytest.raises(SystemExit) as exc:
        main(["study", "--config", str(path)])
    assert exc.value.code.startswith(f"invalid study config: {path}: ")
    assert message in exc.value.code


def test_unwritable_output_is_a_message(tmp_path, monkeypatch):
    # a dump into a missing directory stops the solve with a message; an out
    # directory that is a file is refused before any cell is solved
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--cells", "2", "--dump", str(tmp_path / "missing" / "dump.txt")])
    assert exc.value.code.startswith("solve stopped: cannot write the solution dump: ")
    (tmp_path / "file").write_text("")
    monkeypatch.setattr(study, "_run_cell", lambda *args: pytest.fail("a cell was solved"))
    with pytest.raises(SystemExit) as exc:
        main(["study", "--mesh", "2", "--out", str(tmp_path / "file")])
    assert exc.value.code.startswith("invalid study config: out_dir must be a directory")


@pytest.mark.parametrize("values, field", [({"elements": 5}, "elements"), ({"mesh_sizes": 2}, "mesh_sizes")])
def test_study_config_file_with_a_number_for_a_list_is_a_message(tmp_path, values, field):
    path = tmp_path / "study.json"
    path.write_text(json.dumps({"problem": "stokes_patch", "mesh_sizes": [2], **values}))
    with pytest.raises(SystemExit) as exc:
        main(["study", "--config", str(path)])
    assert exc.value.code == f"invalid study config: {field} must be a list, got {values[field]}"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["solve", "--problem", "evolutionary_oseen_ex2", "--tau", "0"], "tau must be finite"),
        (["solve", "--problem", "evolutionary_oseen_ex2", "--tfinal", "nan"], "no finite whole"),
        (["solve", "--mu", "0"], "mu must be positive"),
        (["solve", "--elements", "1,0,1,0,3"], "outside compatibility range"),
        (["verify", "--mu", "0"], "mu must be positive"),
        (["verify", "--zeta", "-1"], "zeta must be positive"),
    ],
)
def test_bad_float_parameter_is_a_message(argv, message):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--cells", "2"])
    assert exc.value.code.startswith(f"invalid {argv[0]} parameters: ")
    assert message in exc.value.code


def test_verify_command_passes(capsys):
    rc = main(["verify", "--cells", "4", "--elements", "1,0,1,0,0", "--trials", "10"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.count("[PASS]") == 4
    assert "[FAIL]" not in out


def test_verify_command_fails_an_inf_sup_unstable_pair(capsys):
    # P1 pressures against P0 traces: the inf-sup eigenvalue is rounding,
    # about 1e-16, and reads 0
    rc = main(["verify", "--cells", "2", "--elements", "1,0,1,0,1", "--trials", "10"])
    assert rc == 1
    assert "[FAIL] inf-sup constant: 0.0000\n" in capsys.readouterr().out


def test_verify_above_the_dense_limit_is_a_message(monkeypatch, capsys):
    # the inf-sup estimate is dense; above its limit verify exits with the size
    monkeypatch.setattr(verify, "DENSE_EIG_LIMIT", 7)
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--cells", "2", "--trials", "1"])
    assert exc.value.code.startswith("verify stopped: the inf-sup estimate forms dense 8 x 8")
    assert "8 pressure DOFs exceed DENSE_EIG_LIMIT = 7" in exc.value.code


FAILED_SOLVE = "linear solve failed with the equilibrated LU of S (order "


@pytest.mark.parametrize("command", ["solve", "study"])
def test_failed_linear_solve_is_a_message(command, monkeypatch, capsys, tmp_path):
    # no solve passes a zero residual tolerance: the LinearSolveError ends
    # the command with its text instead of a traceback
    monkeypatch.setattr(solver, "RESIDUAL_TOL", 0.0)
    argv = ["--cells", "2"] if command == "solve" else ["--mesh", "2", "--out", str(tmp_path)]
    with pytest.raises(SystemExit) as exc:
        main([command, *argv])
    assert exc.value.code.startswith(f"{command} stopped: {FAILED_SOLVE}")
    assert "relative residual" in exc.value.code
    assert not (tmp_path / "study.csv").exists()


def test_failed_linear_solve_prints_no_traceback():
    # the same failure in a fresh interpreter: exit status 1, and stderr
    # holds the message alone
    script = ("import sys; from gwgflow import cli, solver; solver.RESIDUAL_TOL = 0.0; "
              "sys.exit(cli.main(['solve', '--cells', '2']))")
    src = str(Path(gwgflow.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env=env, timeout=120)
    assert run.returncode == 1
    assert run.stderr.startswith(f"solve stopped: {FAILED_SOLVE}")
    assert "Traceback" not in run.stderr


def test_evolutionary_solve_command(capsys):
    rc = main(
        [
            "solve",
            "--problem", "evolutionary_oseen_ex2",
            "--cells", "4",
            "--tau", "0.25",
            "--tfinal", "1.0",
            "--elements", "1,0,1,0,0",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "div residual" in out
    assert "time steps   : 4 of tau = 0.25, up to T = 1\n" in out
    # a tau that does not divide the final time is rounded to whole steps
    assert main(["solve", "--problem", "evolutionary_oseen_ex2", "--cells", "2",
                 "--tau", "0.7", "--tfinal", "1.0"]) == 0
    assert "time steps   : 1 of tau = 1, up to T = 1\n" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["solve", "--elements", "1,0,1,0"], "--elements"),
        (["solve", "--elements", "a,b"], "--elements"),
        (["verify", "--elements", "1,0,1,0,0,0"], "--elements"),
        (["study", "--elements", "1,0"], "--elements"),
        (["study", "--mesh", "a,b"], "--mesh"),
        (["study", "--mesh", "8,,16"], "--mesh"),
        (["verify", "--trials", "0"], "--trials"),
        (["solve", "--cells", "0"], "--cells"),
        (["verify", "--cells", "0"], "--cells"),
        (["study", "--workers", "0"], "--workers"),
    ],
)
def test_bad_integer_list_is_a_usage_error(argv, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"argument {flag}" in capsys.readouterr().err
