"""Smoke test of the benchmark on 2x2 and 4x4 meshes.

Run from the repository root with ``python -m pytest benchmarks``.  It
checks the result schema against ``BENCHMARK.json``, that no study cell
fails, and that the traced spans nest: no child span outlasts its parent.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--meshes", "2,4"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_result(result: dict, declared: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 2
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_run(workload):
    result = run_bench(workload, 0)
    check_result(result, SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run(workload):
    result = run_bench(workload, 1)
    check_result(result, SPEC["per_layer"])
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert metrics["solver.factorizations"] == 2  # one per cell
    assert metrics["solver.refinements"] == 0
    assert metrics["solver.max_residual"] < 1e-10

    record = json.loads(
        (ROOT / "benchmarks" / "out" / f"{workload}-2-4-seed7-trace1.json").read_text()
    )
    assert record["untraced_targets"] == []
    assert record["counts_repeat"] is True
    for p in record["passes"]:
        spans = {s[0]: s for s in p["spans"]}
        covered = {i: 0.0 for i in spans}
        for i, parent, _, start, end, _ in spans.values():
            if parent is not None:
                _, _, _, pstart, pend, _ = spans[parent]
                assert pstart <= start <= end <= pend
                covered[parent] += end - start
        for i, (_, _, _, start, end, _) in spans.items():
            assert covered[i] <= (end - start) * (1 + 1e-9)
        assert [c["cells"] for c in p["cells"]] == [2, 4]
