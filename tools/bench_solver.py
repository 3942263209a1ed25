"""Solver throughput: choice points per second of the C kernel for each
propagation level, traced and untraced.

    PYTHONPATH=src python tools/bench_solver.py [--out BENCH_solver.json]

Cases:

- desk: the desk instance (order 18, 7 holes per line, built as
  `restartlab dataset --seed 81` builds it), 64 runs seeded as that dataset
  seeds its first 64, horizon 50, cutoff 100000, at both propagation levels.
- multi-alldiff: the 48 instances of `dataset --mode multi --order 20
  --holes 160 --balanced --seed 81` (each drawn before timing), one run
  each, horizon 10, cutoff 20000, alldiff filtering.

Each case is timed REPEATS (7) times over all its runs, solver calls only.
The JSON records, per case, the deterministic work (runs, choice points) and
the median, quartiles and range of the seconds and of the choice points per
second, with nproc and the Python version.  Every repeat must return the
same run records, or the script exits 1.  That the kernel's records equal
the Python reference's is the identity tests' job (tests/test_fc_kernel.py).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

from restartlab import fc_kernel
from restartlab.latin import HoleSpec, generate_complete, poke_holes
from restartlab.seeds import derive_seed
from restartlab.solver import ALLDIFF_REGIN, FORWARD_CHECK, SolverConfig, solve

SEED = 81
REPEATS = 7


def desk_runs():
    square = generate_complete(18, derive_seed(SEED, "instance"))
    instance = poke_holes(square, HoleSpec.balanced(7), derive_seed(SEED, "mask"))
    return [(instance, derive_seed(SEED, "run", i)) for i in range(64)]


def multi_runs():
    out = []
    for i in range(48):
        square = generate_complete(20, derive_seed(SEED, "inst", i))
        instance = poke_holes(square, HoleSpec.balanced(8), derive_seed(SEED, "mask", i))
        out.append((instance, derive_seed(SEED, "run", i)))
    return out


def time_case(runs, config):
    t0 = time.perf_counter()
    records = [solve(instance, config, seed) for instance, seed in runs]
    return time.perf_counter() - t0, records


def spread(xs):
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "min": min(xs), "max": max(xs)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="BENCH_solver.json")
    args = ap.parse_args(argv)
    try:
        fc_kernel.load()
    except fc_kernel.KernelUnavailable as exc:
        print(f"the C kernel is unavailable: {exc}", file=sys.stderr)
        return 1
    workloads = {
        "desk": (desk_runs(), 50, 100_000, (FORWARD_CHECK, ALLDIFF_REGIN)),
        "multi-alldiff": (multi_runs(), 10, 20_000, (ALLDIFF_REGIN,)),
    }
    cases = []
    for name, (runs, horizon, cutoff, levels) in workloads.items():
        for propagation in levels:
            for traced in (False, True):
                config = SolverConfig(cutoff=cutoff, propagation=propagation,
                                      horizon=horizon, trace_enabled=traced)
                seconds = []
                reference = None
                for _ in range(REPEATS):
                    dt, records = time_case(runs, config)
                    if reference is None:
                        reference = records
                    elif records != reference:
                        print(f"{name} {propagation}: records differ", file=sys.stderr)
                        return 1
                    seconds.append(dt)
                choice_points = sum(r.choice_points for r in reference)
                case = {
                    "workload": name,
                    "propagation": propagation,
                    "traced": traced,
                    "horizon": horizon,
                    "cutoff": cutoff,
                    "runs": len(runs),
                    "choice_points": choice_points,
                    "seconds": spread(seconds),
                    "choice_points_per_s": spread([choice_points / s for s in seconds]),
                }
                cases.append(case)
                print(f"{name:14} {propagation:14} traced={int(traced)}"
                      f" {choice_points:7d} cp"
                      f" {case['choice_points_per_s']['median']:12.0f} cp/s"
                      f" (q1 {case['choice_points_per_s']['q1']:.0f},"
                      f" q3 {case['choice_points_per_s']['q3']:.0f})", flush=True)
    result = {
        "benchmark": "solver choice points per second",
        "command": "PYTHONPATH=src python tools/bench_solver.py",
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
