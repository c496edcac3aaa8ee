"""Every name the benchmark's span tracing wraps exists in the package.

``benchmarks/tracing.py`` swaps ``TARGETS`` for traced wrappers and reports
the ones it cannot find; the benchmark smoke test asserts there are none,
but it takes minutes.  This checks the same list in a moment, so a refactor
that renames or drops a traced name fails here first.
"""

import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "benchmarks" / "tracing.py"


def test_every_tracing_target_exists(monkeypatch):
    spec = importlib.util.spec_from_file_location("gwgflow_bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    with tracing.install(tracing.Tracer()) as missing:
        assert missing == []
