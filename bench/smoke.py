"""Smoke test of the benchmark itself: every workload at a tiny size.

    python3 bench/smoke.py            (or: python -m pytest bench/smoke.py)

Runs each workload of BENCHMARK.json once untraced and once traced, at the
"smoke" scale, and checks that the run exits 0 and that its last line is the
result object: exactly the promised keys, a correct run with no failures,
and every metric named in BENCHMARK.json present with its unit and a finite
value (end-to-end values also positive).
"""

import json
import math
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run(workload, trace):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--scale", "smoke"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170)
    assert proc.returncode == 0, f"{workload} trace={trace} exited with {proc.returncode}"
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check(label, result, metrics, positive):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, label
    assert result["correct"] is True, label
    assert type(result["attempted"]) is int and result["attempted"] >= 1, label
    assert result["failed"] == 0, label
    assert set(result["metrics"]) == {m["name"] for m in metrics}, label
    for m in metrics:
        got = result["metrics"][m["name"]]
        value = got["value"]
        assert got["unit"] == m["unit"], f"{label}: {m['name']} unit {got['unit']}"
        assert type(value) in (int, float) and math.isfinite(value), f"{label}: {m['name']}"
        assert value > 0 or not positive, f"{label}: {m['name']} = {value}"


def test_smoke():
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    for w in spec["workloads"]:
        check(f"{w['name']} untraced", run(w["name"], 0), spec["end_to_end"], positive=True)
        check(f"{w['name']} traced", run(w["name"], 1), spec["per_layer"], positive=False)


if __name__ == "__main__":
    test_smoke()
    print("smoke test passed")
