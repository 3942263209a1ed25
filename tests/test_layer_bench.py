"""tools/layer_bench.py reproduces the cases and the deterministic work of the
checked-in BENCH_solver.json, BENCH_policy.json, BENCH_learn.json and
BENCH_dataset.json, at one repeat.

The generation topic is left out: its order-34 cases take minutes.  So are
the cases the tool runs only when LARGE is set: the learn topic's paper-scale
case, whose 4000+1000-run dataset takes about 10 s to build, and the dataset
topic's 800+200-run desk set, whose four loops take about 7 s.
"""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
# what names a case, and the work it measured, per topic
FIELDS = {
    "solver": ("workload", "propagation", "traced", "horizon", "cutoff", "runs", "choice_points"),
    "policy": ("policy", "key", "trials", "run_lengths", "live_draws", "dead_draws"),
    "learn": ("case", "workload", "runs", "rows", "features", "tune_nodes", "grow_nodes",
              "kappa", "leaves"),
    "dataset": ("case", "workload", "threads", "runs", "choice_points", "rows"),
}
LARGE_CASES = ("desk paper scale", "desk 800+200")


@pytest.fixture(scope="module")
def layer_bench():
    spec = importlib.util.spec_from_file_location("layer_bench", ROOT / "tools" / "layer_bench.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.REPEATS = 1
    module.LARGE = False
    return module


@pytest.mark.parametrize("topic", sorted(FIELDS))
def test_topic_repeats_the_checked_in_work(layer_bench, topic, tmp_path, capsys):
    out = tmp_path / f"BENCH_{topic}.json"
    assert layer_bench.main([topic, "--out", str(out)]) == 0
    fresh = json.loads(out.read_text(encoding="utf-8"))
    checked_in = json.loads((ROOT / f"BENCH_{topic}.json").read_text(encoding="utf-8"))

    def work(result):
        return [{k: case[k] for k in FIELDS[topic]} for case in result["cases"]
                if case.get("case") not in LARGE_CASES]

    assert work(fresh) == work(checked_in)
    assert fresh["command"] == checked_in["command"]
    for case in fresh["cases"]:
        assert all(v["n"] == 1 for v in case.values() if isinstance(v, dict))
