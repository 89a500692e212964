"""Self-tests of the benchmark on the tiny inputs of each workload.

    PYTHONPATH=src python -m pytest -q perfbench
"""
import json
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9_.-]+")

sys.path.insert(0, str(HERE))
import run  # noqa: E402


def bench(*args: str) -> tuple[list[dict], dict]:
    """Run the benchmark on tiny inputs; returns its per-workload JSON
    lines and the final JSON line."""
    out = subprocess.run([sys.executable, str(HERE / "run.py"), "--tiny",
                          "--seconds", "0.1", *args],
                         capture_output=True, text=True, timeout=170)
    assert out.returncode == 0, out.stderr
    lines = [json.loads(ln) for ln in out.stdout.splitlines() if ln.startswith("{")]
    return lines[:-1], lines[-1]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_emits_every_metric_with_a_unit(workload, trace):
    _, result = bench("--workload", workload, "--trace", str(trace))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        assert NAME.fullmatch(m["name"])
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_reference_fails_the_ops(workload, tmp_path):
    refs = json.loads((HERE / "references.json").read_text(encoding="utf-8"))
    for values in refs[workload].values():
        for field in values:
            values[field] *= 1 + 1e-5
    path = tmp_path / "references.json"
    path.write_text(json.dumps(refs), encoding="utf-8")
    records, result = bench("--workload", workload, "--references", str(path))
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1
    assert records[0]["failed_frac"] == 1.0


def test_traced_and_untraced_runs_report_the_same_end_to_end_metrics():
    names = []
    for trace in ("0", "1"):
        records, _ = bench("--workload", "regular_suite", "--trace", trace)
        names.append(set(records[0]["end_to_end"]))
    assert names[0] == names[1] == {m["name"] for m in SPEC["end_to_end"]}


def _args(**kw):
    # trace=1 starts no set-up-only children, so these tests run one child
    base = dict(workload="regular_suite", seed=0, seconds=0.1, trace=1, tiny=True,
                references=None)
    return SimpleNamespace(**{**base, **kw})


def test_a_hang_is_a_failed_op_with_its_reason(monkeypatch):
    monkeypatch.setattr(run, "RUN_LIMIT_S", 6.0)
    res = run.run_workload(_args(seconds=600.0))
    # the ops that finished count as done, the one cut off as failed
    assert res["attempted"] > 1 and len(res["failures"]) == 1
    assert "wall-time limit" in res["failures"][0]


def test_a_memory_blow_up_is_a_failed_op_with_its_reason(monkeypatch):
    # enough address space to import numpy and scipy, too little for the
    # dense pair-by-edge arrays of the 8x8 lattice
    monkeypatch.setattr(run, "MEMORY_LIMIT", 512 << 20)
    res = run.run_workload(_args(workload="diamond_lattice", tiny=False))
    assert res["failures"] and all("MemoryError" in f for f in res["failures"])
