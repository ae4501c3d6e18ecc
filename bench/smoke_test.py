"""Smoke test of the benchmark: a one-second run of every workload in both
modes prints every metric named in BENCHMARK.json with its unit, and every
check passes.  Also checks that the benchmark fails, without a result, when
the library sources are missing.

    python3 bench/smoke_test.py      (or: python3 -m pytest bench/smoke_test.py)
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "bench" / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170,
    )


def _check(workload: str) -> None:
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        proc = _run(ROOT, workload, trace)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True, proc.stdout
        assert result["attempted"] >= 1
        assert result["failed"] == 0, proc.stdout
        metrics = result["metrics"]
        assert set(metrics) == {m["name"] for m in SPEC[kind]}
        for m in SPEC[kind]:
            assert metrics[m["name"]]["unit"] == m["unit"], m["name"]
            if kind == "end_to_end":
                assert metrics[m["name"]]["value"] > 0, m["name"]


def test_equivalence():
    _check("equivalence")


def test_family():
    _check("family")


def test_cli():
    _check("cli")


def test_fails_without_library():
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench-") as folder:
        root = Path(folder)
        shutil.copy(ROOT / "BENCHMARK.json", root)
        shutil.copytree(BENCH, root / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(root, "equivalence", 0)
        assert proc.returncode != 0
        assert '"metrics"' not in proc.stdout


if __name__ == "__main__":
    for test in (test_equivalence, test_family, test_cli, test_fails_without_library):
        test()
        print(f"{test.__name__}: ok")
