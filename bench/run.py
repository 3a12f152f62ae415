"""Benchmark entry point: runs one workload and prints its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its ``src``.
Each workload runs in child processes with BLAS limited to one thread.
With ``--trace 0`` it prints the end-to-end metrics; ``setup_s`` is the
median over three fresh processes.  With ``--trace 1`` it prints the
per-layer metrics of one traced pass.  The last line of output is a JSON
object with the keys correct, attempted, failed and metrics.  A failing
child makes the exit code non-zero, and nothing is printed on stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("hunt-trees", "verify-laws")
SETUP_PROBES = 2  # setup-only processes besides the measured one
END_TO_END = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
    "PYTHONDONTWRITEBYTECODE": "1",
}


def worker(workload: str, seed: int, seconds: int, mode: str, deadline: float) -> dict:
    cmd = [
        sys.executable, str(HERE / "worker.py"), workload,
        "--seed", str(seed), "--seconds", str(seconds), "--mode", mode,
        "--out", str(OUT / workload),
    ]
    proc = subprocess.run(
        cmd, cwd=ROOT, env={**os.environ, **ENV}, stdout=subprocess.PIPE,
        text=True, timeout=deadline - time.monotonic(),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} {mode}: worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "steklov").is_dir():
        sys.exit(f"no package source under {ROOT / 'src'}")
    shutil.rmtree(OUT / args.workload, ignore_errors=True)
    # a run, its children included, must end within 180 s
    deadline = time.monotonic() + 170.0

    try:
        if args.trace:
            doc = worker(args.workload, args.seed, args.seconds, "trace", deadline)
            metrics = doc["layers"]
        else:
            setups = [
                worker(args.workload, args.seed, args.seconds, "setup", deadline)["setup_s"]
                for _ in range(SETUP_PROBES)
            ]
            doc = worker(args.workload, args.seed, args.seconds, "run", deadline)
            doc["setup_s"] = statistics.median(setups + [doc["setup_s"]])
            metrics = {k: {"value": doc[k], "unit": u} for k, u in END_TO_END.items()}
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        sys.exit(f"benchmark failed: {exc}")

    for err in doc["errors"]:
        print(f"check failed: {err}", file=sys.stderr)
    print(json.dumps({
        "correct": not doc["errors"],
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
