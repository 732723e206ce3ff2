"""Benchmark launcher for qfcontrol.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 bench/run.py --workload all

Pins the BLAS and OpenMP thread counts to 1, then runs each workload in a
fresh, single-threaded Python process (``bench/workloads.py``) and waits for
it.  For one workload the worker's output is passed through, so the last
line is its JSON result.  ``--workload all`` runs every workload in turn and
prints each end-to-end metric with its unit.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
WORKLOADS = ("closed_loop", "exact_min", "open_loop", "synthesis")
PINNED = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
# The worker must finish well inside the 180 s a run is allowed.
TIMEOUT_S = 170


def run_worker(args, workload, capture):
    cmd = [sys.executable, str(BENCH / "workloads.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--scale", args.scale]
    env = {**os.environ, **PINNED}
    return subprocess.run(cmd, env=env, timeout=TIMEOUT_S, text=True,
                          stdout=subprocess.PIPE if capture else None)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "smoke"), default="full",
                    help="smoke: tiny sizes that only check the harness")
    args = ap.parse_args(argv)

    if args.workload != "all":
        return run_worker(args, args.workload, capture=False).returncode

    status = 0
    for workload in WORKLOADS:
        proc = run_worker(args, workload, capture=True)
        if proc.returncode != 0:
            print(f"{workload}: worker exited with {proc.returncode}")
            status = 1
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"{workload}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for name, m in result["metrics"].items():
            print(f"  {name:<48} {m['value']:>14.6g} {m['unit']}")
        status |= not result["correct"]
    return status


if __name__ == "__main__":
    sys.exit(main())
