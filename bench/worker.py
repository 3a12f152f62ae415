"""One workload in one process: set-up, timed passes, output checks.

Started by run.py; prints one JSON object as its last line of output.

    python3 bench/worker.py WORKLOAD --seed N --seconds S --mode run|setup|trace

``setup`` stops after set-up.  ``run`` measures whole passes over the
inputs for about S seconds, and at least MIN_PASSES, with tracing off.
``trace`` makes two passes, untraced and then traced, so its call counts
depend on the seed alone; the gap between the two timings is the tracing
overhead.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import steklov  # noqa: E402

if Path(steklov.__file__).resolve().parent != ROOT / "src" / "steklov":
    sys.exit(f"steklov imported from {steklov.__file__}, not from this checkout")

import workloads  # noqa: E402

MIN_PASSES = 3


def measure(wl, seconds: float) -> list:
    """Whole passes until the next would most likely end past `seconds`."""
    passes, spent = [], 0.0
    while True:
        t0 = time.perf_counter()
        passes.append(wl.run_pass(len(passes)))
        spent += time.perf_counter() - t0
        if len(passes) >= MIN_PASSES and spent + spent / len(passes) / 2 >= seconds:
            return passes


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("run", "setup", "trace"), required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)

    wl = workloads.WORKLOADS[args.workload](args.seed, args.out)
    wl.prepare()
    doc = {"setup_s": time.perf_counter() - T0}
    if args.mode == "setup":
        print(json.dumps(doc))
        return 0

    if args.mode == "run":
        passes = measure(wl, args.seconds)
    else:
        import tracer

        plain = wl.run_pass(0)
        t = tracer.Tracer()
        t.install()
        try:
            traced = wl.run_pass(1)
        finally:
            t.uninstall()
        base, slow = (sum(op.seconds for op in o) for o in (plain, traced))
        overhead = 100.0 * (slow / base - 1.0)
        doc["layers"] = {
            k: {"value": v, "unit": tracer.unit(k)} for k, v in t.metrics(overhead).items()
        }
        t.dump(
            args.out / f"trace-{args.workload}-seed{args.seed}.json",
            {"workload": args.workload, "seed": args.seed, "overhead_pct": overhead},
        )
        passes = [plain, traced]

    doc.update(wl.summary(passes))
    doc["errors"] = wl.check([op for ops in passes for op in ops])
    doc["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
