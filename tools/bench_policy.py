"""Restart-policy simulation throughput: simulate_policy trials per second for
each policy, every round priced in the C kernel.

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

Each policy is timed REPEATS (7) times, alternating with a kernel call that
only skips the policy's dead draws, the floor of its time.  The JSON
records, per policy, the trials, the run lengths drawn in priced rounds
(live) and in rounds whose cutoff is below the shortest run (dead, the draws
the kernel skips), and the median, quartiles and range of the seconds, of
the trials per second and of the seconds the skip alone takes, with nproc
and the Python version.  Every repeat must give the same PolicyStats, or
the script exits 1.  That the kernel gives the PolicyStats of drawing every
round is the tests' job (tests/test_policy.py).
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

import numpy as np

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
    _price_rounds,
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


def draw_counts(source, policy, trials):
    """The rows simulate_policy draws (live) and skips (dead)."""
    rng = np.random.default_rng(derive_seed(SEED, "policy", policy.describe()))
    cost, runs = np.zeros(trials), np.zeros(trials, dtype=np.int64)
    state = _price_rounds(source, policy, rng, cost, runs, 1_000_000)
    return state.live_draws, state.dead_draws


def skip_seconds(kernel, rows, count):
    """Seconds the kernel takes to skip count draws below rows, alone."""
    state = kernel.ffi.new("rounds_state *", {"rows": rows, "pending": count})
    stream = kernel.ffi.new("pcg64_state *", {"state_lo": SEED, "inc_lo": 2 * SEED + 1})
    t0 = time.perf_counter()
    kernel.lib.pcg64_price_rounds(state, stream, count + 1)
    return time.perf_counter() - t0


def spread(xs):
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "min": min(xs), "max": max(xs)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="BENCH_policy.json")
    args = ap.parse_args(argv)
    try:
        kernel = fc_kernel.load()
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
        live, dead = draw_counts(source, policy, trials)
        reference = asdict(simulate_policy(source, policy, trials, SEED))
        seconds, skips = [], []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            stats = simulate_policy(source, policy, trials, SEED)
            seconds.append(time.perf_counter() - t0)
            skips.append(skip_seconds(kernel, source.lengths.size, dead))
            if asdict(stats) != reference:
                print(f"{name}: PolicyStats differ", file=sys.stderr)
                return 1
        case = {
            "policy": policy.describe(),
            "key": name,
            "trials": trials,
            "run_lengths": source.rtd.size,
            "live_draws": live,
            "dead_draws": dead,
            "seconds": spread(seconds),
            "trials_per_s": spread([trials / s for s in seconds]),
            "skip_seconds": spread(skips),
        }
        cases.append(case)
        print(f"{name:18} {trials:6d} trials"
              f" {case['trials_per_s']['median']:12.0f} trials/s"
              f" (q1 {case['trials_per_s']['q1']:.0f},"
              f" q3 {case['trials_per_s']['q3']:.0f}),"
              f" skip alone {case['skip_seconds']['median'] * 1e3:.1f} ms", flush=True)
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
