"""tools/layer_bench.py reproduces the cases and the deterministic work of the
checked-in BENCH_solver.json, BENCH_policy.json, BENCH_generation.json,
BENCH_learn.json, BENCH_dataset.json, BENCH_io.json and BENCH_footprint.json,
at one repeat.

The cases the tool runs only when LARGE is set are left out: the
generation topic's order-34 cases, which take minutes, the learn topic's
paper-scale case, whose 4000+1000-run dataset takes about 10 s to build, and
the 800+200-run desk set of the dataset topic, whose four loops take about
7 s, and of the io topic.
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
    "generation": ("case", "order", "holes_per_line", "instances", "pattern_attempts"),
    "learn": ("case", "workload", "runs", "rows", "features", "tune_nodes", "grow_nodes",
              "kappa", "leaves"),
    "dataset": ("case", "workload", "threads", "runs", "choice_points", "rows"),
    "io": ("case", "workload", "split", "rows", "features", "bytes"),
    "footprint": ("workload", "step", "exit_code", "loaded"),
}
LARGE_CASES = ("desk paper scale", "desk 800+200", "order 34")


@pytest.fixture(scope="module")
def layer_bench():
    spec = importlib.util.spec_from_file_location("layer_bench", ROOT / "tools" / "layer_bench.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.REPEATS = 1
    module.FOOTPRINT_ROUNDS = 1
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


def test_policy_times_both_skips_on_the_desk_draws():
    # luby: 64 rows, threshold 0, the jumped skip; luby_scan: the 63
    # shortest lengths, threshold 4, the stepped one
    cases = json.loads((ROOT / "BENCH_policy.json").read_text(encoding="utf-8"))["cases"]
    draws = {case["key"]: (case["run_lengths"], case["live_draws"], case["dead_draws"])
             for case in cases if case["policy"] == "luby:1"}
    assert draws == {"luby": (64, 1_189_685, 42_655_876), "luby_scan": (63, 1_175_925, 42_208_794)}
