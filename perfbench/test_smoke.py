"""Smoke test of the benchmark at minimal run counts; it checks output, never timing.

    PYTHONPATH=src python -m pytest -q perfbench/test_smoke.py
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SPAN_KEYS = {"id", "name", "parent", "start", "end"}


def _bench(workload, trace, out):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "81", "--seconds", "1", "--trace", str(trace), "--size", "smoke",
         "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    return proc.stdout.strip().splitlines()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_finishes_and_prints_every_metric(workload, trace, tmp_path):
    lines = _bench(workload, trace, tmp_path)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    prefix = "layer" if trace else "metric"
    printed = {ln.split()[1]: ln.split() for ln in lines if ln.startswith(prefix + " ")}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and got["value"] > 0, (m, got)
        assert printed[m["name"]][3] == m["unit"], printed[m["name"]]
    if trace:
        spans = [json.loads(ln) for ln in (tmp_path / "spans.jsonl").read_text().splitlines()]
        assert spans and all(SPAN_KEYS <= set(s) and s["end"] >= s["start"] for s in spans)


def test_refuses_a_directory_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in (ROOT / "perfbench").glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "desk-fc", "--seed", "81",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0 and proc.stdout == ""
