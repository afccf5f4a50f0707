"""Self-test of the benchmark harness at a tiny size.

    python3 benches/selftest.py          # or: python3 -m pytest benches/selftest.py

Runs each workload for a handful of operations and checks that every metric
named in BENCHMARK.json is printed with its unit, that the output checks ran,
and that every per-layer figure other than a time or the tracing overhead
repeats exactly across two traced runs with the same seed. Takes about a minute.
"""
from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# Operations per workload: enough to reach every kind of output check.
TINY_OPS = {"psi-scan": 3, "homotopy": 1, "certify": 31}
SEED = 3


def run(workload: str, trace: int) -> tuple[dict, str]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
           "--seconds", "1", "--trace", str(trace), "--max-ops", str(TINY_OPS[workload])]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    checks = re.search(r"^checks executed: (\d+) over (\d+) ops", proc.stdout, re.M)
    assert checks and int(checks[2]) == result["attempted"] and int(checks[1]) >= result["attempted"]
    return result, proc.stdout


def assert_metrics(result: dict, specs: list[dict]) -> None:
    got = result["metrics"]
    assert list(got) == [s["name"] for s in specs]
    for s in specs:
        assert got[s["name"]]["unit"] == s["unit"], s["name"]
        assert isinstance(got[s["name"]]["value"], float), s["name"]


def check_workload(workload: str) -> None:
    result, _ = run(workload, trace=0)
    assert_metrics(result, SPEC["end_to_end"])
    first, out = run(workload, trace=1)
    second, _ = run(workload, trace=1)
    for res in (first, second):
        assert_metrics(res, SPEC["per_layer"])
    assert "tracing overhead:" in out
    for s in SPEC["per_layer"]:
        if s["unit"] != "s" and not s["name"].startswith("trace."):
            a, b = first["metrics"][s["name"]]["value"], second["metrics"][s["name"]]["value"]
            assert a == b, f"{workload}: {s['name']} differs across traced runs: {a} vs {b}"


def test_psi_scan():
    check_workload("psi-scan")


def test_homotopy():
    check_workload("homotopy")


def test_certify():
    check_workload("certify")


if __name__ == "__main__":
    for name in TINY_OPS:
        check_workload(name)
        print(f"{name}: ok")
