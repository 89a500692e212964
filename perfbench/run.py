#!/usr/bin/env python3
"""Benchmark for thunt: end-to-end metrics per workload, or per-layer
metrics from a traced run.

    python3 perfbench/run.py --workload regular_suite --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py            # every workload, one after another

Each workload runs in child processes of its own (see child.py), under an
address-space limit and a wall-time limit, with BLAS and OpenMP held to one
thread.  A memory blow-up or a hang then counts as a failed op with its
reason instead of ending the benchmark.  Set-up time is the median over
five children, four of which only set up.  The last stdout line is one JSON
object: correct, attempted, failed, and the metrics BENCHMARK.json lists
for the mode (end_to_end for --trace 0, per_layer for --trace 1).  The
exit code is 0 whenever the workload could be set up, and 2 otherwise.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SETUP_SAMPLES = 5                 # children whose set-up time is measured
MEMORY_LIMIT = 4 << 30            # RLIMIT_AS of every child, bytes
RUN_LIMIT_S = 170.0               # every child of one workload ends by then
SETUP_LIMIT_S = 60.0              # one set-up-only child
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class SetupFailed(RuntimeError):
    pass


def _limit_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))


def spawn(args, extra: list[str], timeout: float) -> tuple[list[dict], str]:
    """Run child.py to completion or until `timeout`; returns its parsed
    stdout lines and, when it did not end cleanly, the reason why."""
    env = dict(os.environ, PYTHONHASHSEED="0", **{v: "1" for v in THREAD_VARS})
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.tiny:
        cmd.append("--tiny")
    if args.references:
        cmd += ["--references", args.references]
    cmd += extra + ["--spawned-at", repr(time.clock_gettime(time.CLOCK_MONOTONIC))]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, preexec_fn=_limit_memory)
    try:
        out, err = proc.communicate(timeout=max(timeout, 1.0))
        problem = ""
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        problem = f"hung: killed after the {timeout:.0f} s wall-time limit"
    if err:
        sys.stderr.write(err)
    if not problem and proc.returncode != 0:
        how = (f"signal {-proc.returncode}" if proc.returncode < 0
               else f"exit code {proc.returncode}")
        tail = err.strip().splitlines()[-1] if err.strip() else "no message"
        problem = f"child ended with {how}: {tail}"
    # a child killed mid-write can leave one unterminated last line
    lines = [json.loads(line) for line in out.splitlines(keepends=True)
             if line.startswith("{") and line.endswith("\n")]
    return lines, problem


def tail_percentile(samples: list[float]):
    """Highest whole percentile with at least ten samples beyond it, as
    (percentile, value, sample count); None below eleven samples."""
    n = len(samples)
    if n < 11:
        return None
    p = math.floor(100 * (1 - 10 / n))
    return p, sorted(samples)[math.ceil(p * n / 100) - 1], n


def best_times(ops: list[dict], traced: bool) -> list[float]:
    """Each distinct op's shortest time over the run's passes.

    The machine is shared, and other tenants slow it by up to half for
    seconds at a time.  An op's best time over several passes is far
    steadier from run to run than its mean or median."""
    best: dict[str, float] = {}
    for o in ops:
        if o["traced"] == traced:
            best[o["op"]] = min(best.get(o["op"], math.inf), o["s"])
    return list(best.values())


def run_workload(args) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    setups = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            lines, problem = spawn(args, ["--setup-only"],
                                   min(SETUP_LIMIT_S, deadline - time.monotonic()))
            if problem or not lines or "ready" not in lines[0]:
                raise SetupFailed(problem or "no ready line")
            setups.append(lines[0]["ready"])
    lines, problem = spawn(args, [], deadline - time.monotonic())
    if not lines or "ready" not in lines[0]:
        raise SetupFailed(problem or "no ready line")
    setups.append(lines[0]["ready"])

    ops = [ln for ln in lines if "op" in ln]
    end = lines[-1].get("end", {})
    failures = [f"{o['op']}: {o['fail']}" for o in ops if o["fail"]]
    attempted = len(ops)
    if problem:  # the op in flight when the child died
        attempted += 1
        failures.append(f"op after {len(ops)} finished: {problem}")

    phase = bool(args.trace)
    best = best_times(ops, phase)
    e2e = {
        "ops_per_s": len(best) / sum(best) if best else 0.0,
        "peak_rss_mb": end.get("peak_rss_mb", 0.0),
        "setup_s": statistics.median(setups),
    }
    result = {"attempted": attempted, "failures": failures, "e2e": e2e,
              "p50_ms": 1e3 * statistics.median(best) if best else None,
              "n_best": len(best), "n_setups": len(setups),
              "n_passes": len({o["pass"] for o in ops if o["traced"] == phase}),
              "tail": tail_percentile([o["s"] for o in ops if o["traced"] == phase])}
    if args.trace:
        per_layer = dict(end.get("per_layer", {}))
        untraced = best_times(ops, False)
        per_layer["trace.ops_per_s"] = e2e["ops_per_s"]
        per_layer["trace.untraced_ops_per_s"] = (
            len(untraced) / sum(untraced) if untraced else 0.0)
        per_layer["trace.overhead_frac"] = (
            per_layer["trace.untraced_ops_per_s"] / e2e["ops_per_s"] - 1.0
            if e2e["ops_per_s"] > 0 else 0.0)
        result["per_layer"] = per_layer
    return result


def report(name: str, args, res: dict, spec: dict) -> None:
    """A readable table, then the same end-to-end figures, the median and
    tail op times and the failures as one JSON line, ahead of the final
    JSON line."""
    n = res["n_best"]
    print(f"{name} seed={args.seed} seconds={args.seconds} trace={args.trace}"
          + (" (end-to-end figures below are traced)" if args.trace else ""))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    notes = {"ops_per_s": f"{n} ops, each at its best of {res['n_passes']} passes",
             "setup_s": f"median of {res['n_setups']} set-ups"}
    for key, value in res["e2e"].items():
        print(f"  {key:<14} {value:12.6g} {units[key]:<6} {notes.get(key, '')}")
    # op_p50_ms, op_tail_ms and failed_frac are printed but not listed in
    # BENCHMARK.json; DESIGN.md says why.
    p50 = None
    if res["p50_ms"] is not None:
        p50 = {"value": res["p50_ms"], "unit": "ms"}
        print(f"  {'op_p50_ms':<14} {res['p50_ms']:12.6g} {'ms':<6} "
              f"median of {n} ops, each at its best")
    tail = None
    if res["tail"] is None:
        print(f"  {'op_tail_ms':<14} {'-':>12} {'ms':<6} omitted: under 11 op samples")
    else:
        p, v, samples = res["tail"]
        tail = {"value": 1e3 * v, "unit": "ms", "percentile": p, "samples": samples}
        print(f"  {'op_tail_ms':<14} {1e3 * v:12.6g} {'ms':<6} p{p} of {samples} op samples")
    failed_frac = len(res["failures"]) / max(res["attempted"], 1)
    print(f"  {'failed_frac':<14} {failed_frac:12.6g} {'':<6} "
          f"{len(res['failures'])} of {res['attempted']} ops")
    for line in res["failures"][:5]:
        print(f"    failed {line}")
    for key, value in res.get("per_layer", {}).items():
        print(f"  {key:<44} {value:14.6g}")
    print(json.dumps({"workload": name, "trace": args.trace,
                      "end_to_end": {k: {"value": v, "unit": units[k]}
                                     for k, v in res["e2e"].items()},
                      "op_p50_ms": p50, "op_tail_ms": tail,
                      "failed_frac": failed_frac}))


def result_line(res: dict, wanted: list[dict], prefix: str = "") -> dict:
    values = res["per_layer"] if "per_layer" in res else res["e2e"]
    # A child that died reports no per-layer metrics; its failed op already
    # makes the run incorrect.  Otherwise a missing metric shows as null.
    missing = 0.0 if res["failures"] else None
    return {prefix + m["name"]: {"value": values.get(m["name"], missing), "unit": m["unit"]}
            for m in wanted}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads + ["all"], default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="smallest inputs of each workload, for the self-tests")
    ap.add_argument("--references", default=None,
                    help="reference file to check against instead of references.json")
    args = ap.parse_args()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    names = workloads if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics: dict = {}
    for name in names:
        args.workload = name
        try:
            res = run_workload(args)
        except SetupFailed as exc:
            print(f"{name}: set-up failed: {exc}", file=sys.stderr)
            return 2
        report(name, args, res, spec)
        attempted += res["attempted"]
        failed += len(res["failures"])
        metrics.update(result_line(res, wanted, "" if len(names) == 1 else name + "."))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
