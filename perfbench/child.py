"""One workload in one process: set up, run passes of ops, report.

Started by `run.py`, never by hand.  Every stdout line is one JSON object:
first {"ready": setup seconds}, then one {"op": ...} per op as it ends,
then {"end": ...}.  Lines are flushed as written, so a parent that has to
kill this process still gets every op that finished.
"""
from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

OUT_DIR = Path(__file__).resolve().parent.parent / ".perfbench"


def emit(obj) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def run_passes(wl, budget_s: float, traced: bool, tracer=None) -> int:
    """Whole passes until `budget_s` has elapsed, at least one; returns
    how many."""
    ops = wl.ops()
    clock = time.perf_counter
    start = clock()
    passes = 0
    while passes == 0 or clock() - start < budget_s:
        for key, fn in ops:
            if tracer is not None:
                tracer.op += 1
            t0 = clock()
            try:
                result = fn()
            except Exception as exc:  # an op that raises is a failed op
                dt = clock() - t0
                reason = f"raised {type(exc).__name__}: {exc}"
            else:
                dt = clock() - t0
                reason = wl.check(key, result)
            emit({"op": key, "s": dt, "fail": reason, "pass": passes, "traced": traced})
        passes += 1
    return passes


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="CLOCK_MONOTONIC reading of the parent just before it started us")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--references", default=None)
    args = ap.parse_args()

    import workloads
    refs = workloads.load_references(
        Path(args.references) if args.references else workloads.REFERENCES)
    wl = workloads.WORKLOADS[args.workload](args.seed, args.tiny, refs)
    emit({"ready": time.clock_gettime(time.CLOCK_MONOTONIC) - args.spawned_at})
    if args.setup_only:
        return 0

    end: dict = {}
    if args.trace:
        from spans import Tracer
        run_passes(wl, args.seconds / 2, traced=False)
        tracer = Tracer()
        tracer.install()
        try:
            passes = run_passes(wl, args.seconds / 2, traced=True, tracer=tracer)
        finally:
            tracer.uninstall()
        end["per_layer"] = tracer.summary(passes)
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"spans-{args.workload}.jsonl")
    else:
        run_passes(wl, args.seconds, traced=False)
    end["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    emit({"end": end})
    return 0


if __name__ == "__main__":
    sys.exit(main())
