"""Restart-policy simulation throughput: simulate_policy trials per second for
each policy, with the C kernel skipping discarded draws.

    PYTHONPATH=src python tools/bench_policy.py [--out BENCH_policy.json]

Inputs: the desk dataset as the `desk-fc` benchmark workload builds it
(`restartlab dataset` on the desk instance, order 18, 7 holes per line,
forward checking, 48+16 runs, horizon 50, cutoff 100000, seed 81), whose
run-length file holds the 64 solved lengths, and a tree grown on its
training split at the largest kappa of the default grid.

Policies, as the benchmark prices them: fixed:900, luby:1 and dynamic:50,3000
with a synthetic predictor of accuracy 0.9, each over 100000 trials on the
run-length file; and dynamic:50,3000 with the tree as predictor over 10000
trials on the held-out split.  Master seed 81.

Each policy is timed REPEATS (7) times.  The JSON records, per policy, the
trials, the run lengths drawn in priced rounds (live) and in rounds whose
cutoff is below the shortest run (dead, the draws the kernel skips), and the
median, quartiles and range of the seconds and of the trials per second,
with nproc and the Python version.  Every repeat must give the same
PolicyStats, or the script exits 1.  That skipping gives the PolicyStats of
drawing every round is the tests' job (tests/test_policy.py).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import statistics
import sys
import tempfile
import time
from dataclasses import asdict
from pathlib import Path

from restartlab import cli, fc_kernel
from restartlab import io as rio
from restartlab.latin import HoleSpec, generate_complete, poke_holes
from restartlab.learn import DEFAULT_KAPPA_GRID, grow_tree
from restartlab.policy import (
    DatasetSource,
    DynamicPolicy,
    FixedPolicy,
    LubyPolicy,
    ModelPredictor,
    RtdSource,
    SyntheticPredictor,
    simulate_policy,
)
from restartlab.seeds import derive_seed

SEED = 81
REPEATS = 7
TRIALS = 100_000
MODEL_TRIALS = 10_000


def desk_dataset(directory: Path):
    """The run-length file and the train and test splits of the desk dataset."""
    square = generate_complete(18, derive_seed(SEED, "instance"))
    instance = poke_holes(square, HoleSpec.balanced(7), derive_seed(SEED, "mask"))
    path = directory / "desk.instance"
    rio.write_instance(str(path), instance, params={"order": 18, "holes": 126, "balanced": True},
                       master_seed=SEED)
    prefix = directory / "desk"
    argv = ["dataset", "--instance", str(path), "--propagation", "forward_check",
            "--horizon", "50", "--cutoff", "100000", "--runs", "48", "--test-runs", "16",
            "--seed", str(SEED), "--threads", "1", "--out-prefix", str(prefix)]
    quiet = io.StringIO()
    with contextlib.redirect_stdout(quiet), contextlib.redirect_stderr(quiet):
        if cli.main(argv) != 0:
            raise RuntimeError("the desk dataset could not be built")
    train = rio.read_dataset(f"{prefix}_train.csv")
    test = rio.read_dataset(f"{prefix}_test.csv")
    return rio.read_rtd(f"{prefix}_rtd.txt"), train.subset(~train.censored), test.subset(~test.censored)


class CountingSource:
    """A run source that counts the lengths drawn (live) and skipped (dead)."""

    def __init__(self, source):
        self.source = source
        self.live = self.dead = 0

    def __getattr__(self, name):
        return getattr(self.source, name)

    def sample(self, rng, size):
        self.live += size
        return self.source.sample(rng, size)

    def skip(self, rng, size):
        self.dead += size
        self.source.skip(rng, size)


def spread(xs):
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "min": min(xs), "max": max(xs)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="BENCH_policy.json")
    args = ap.parse_args(argv)
    try:
        fc_kernel.load()
    except fc_kernel.KernelUnavailable as exc:
        print(f"the C kernel is unavailable: {exc}", file=sys.stderr)
        return 1
    with tempfile.TemporaryDirectory() as tmp:
        rtd, train, test = desk_dataset(Path(tmp))
    model = grow_tree(train.X, train.is_short, max(DEFAULT_KAPPA_GRID), columns=train.columns)
    runs = [
        ("fixed", RtdSource(rtd), FixedPolicy(900), TRIALS),
        ("luby", RtdSource(rtd), LubyPolicy(1), TRIALS),
        ("dynamic_synthetic", RtdSource(rtd),
         DynamicPolicy(50, 3000, SyntheticPredictor(0.9)), TRIALS),
        ("dynamic_model", DatasetSource(test),
         DynamicPolicy(50, 3000, ModelPredictor(model)), MODEL_TRIALS),
    ]
    cases = []
    for name, source, policy, trials in runs:
        counting = CountingSource(source)
        reference = asdict(simulate_policy(counting, policy, trials, SEED))
        seconds = []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            stats = simulate_policy(source, policy, trials, SEED)
            seconds.append(time.perf_counter() - t0)
            if asdict(stats) != reference:
                print(f"{name}: PolicyStats differ", file=sys.stderr)
                return 1
        case = {
            "policy": policy.describe(),
            "key": name,
            "trials": trials,
            "run_lengths": source.rtd.size,
            "live_draws": counting.live,
            "dead_draws": counting.dead,
            "seconds": spread(seconds),
            "trials_per_s": spread([trials / s for s in seconds]),
        }
        cases.append(case)
        print(f"{name:18} {trials:6d} trials"
              f" {case['trials_per_s']['median']:12.0f} trials/s"
              f" (q1 {case['trials_per_s']['q1']:.0f},"
              f" q3 {case['trials_per_s']['q3']:.0f})", flush=True)
    result = {
        "benchmark": "simulate_policy trials per second",
        "command": "PYTHONPATH=src python tools/bench_policy.py",
        "repeats": REPEATS,
        "environment": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
        "cases": cases,
    }
    Path(args.out).write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
