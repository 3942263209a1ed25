"""Layer benchmarks: one layer of the pipeline, timed on the benchmark's inputs.

    PYTHONPATH=src python tools/layer_bench.py TOPIC [--out BENCH_<TOPIC>.json]

Every topic builds its inputs as the benchmark builds them: the desk-fc and
multi-alldiff workloads of perfbench/workloads.py at their "full" size, and
the desk instance of perfbench/pipeline.write_desk_instance (order 18, 7
holes per line, seed 81).  Multi-alldiff instance i is drawn as `restartlab
dataset --mode multi` draws it, from derive_seed(81, "inst", i) and
derive_seed(81, "mask", i), and run i of a dataset is seeded
derive_seed(81, "run", i).

solver
  Choice points per second of the C kernel for each propagation level,
  traced and untraced, solver calls only.
  - desk: the desk instance, the 48+16 runs of desk-fc, horizon 50, cutoff
    100000, at forward checking and at alldiff filtering.
  - multi-alldiff: its 36+12 instances (order 20, 8 holes per line, each
    drawn before timing), one run each, horizon 10, cutoff 20000, alldiff
    filtering.
  Per case: runs, choice points, seconds and choice points per second.
  Every repeat must return the same run records.

policy
  simulate_policy trials per second for each policy, every round priced in
  the C kernel.  Inputs: desk-fc's dataset stage (`restartlab dataset` on
  the desk instance, forward checking, 48+16 runs, horizon 50, cutoff
  100000, seed 81), whose run-length file holds the 64 solved lengths, and a
  tree grown on its training split at the largest kappa of the default grid.
  Policies, as desk-fc prices them: fixed:900, luby:1 and dynamic:50,3000
  with a synthetic predictor of accuracy 0.9, each over 100000 trials on the
  run-length file; and dynamic:50,3000 with the tree as predictor over 10000
  trials on the held-out split.  Master seed 81.
  Each repeat alternates with a kernel call that only skips the policy's
  dead draws, the floor of its time.  Per policy: trials, the run lengths
  drawn in priced rounds (live) and in rounds whose cutoff is below the
  shortest run (dead, the draws the kernel skips), seconds, trials per
  second and the seconds the skip alone takes.  Every repeat must give the
  same PolicyStats.

generation
  generate_complete and balanced poke_holes in milliseconds.
  - desk: the desk instance; its hole pattern must be the instance
    write_desk_instance writes.
  - multi-alldiff: its 48 instances; one figure is all 48.
  - order 34: generate_complete(34, s) for s = 1..5, and poke_holes with 9,
    10 and 11 holes per line and seed s, for s = 1..5 (1..3 at 11 holes).
    poke_holes at order 34 erases cells of the cyclic square (r + c) mod 34:
    the hole pattern depends only on the order, the holes per line and the
    seed, and the cyclic square needs no fill.  Every order-34 figure runs
    in its own process under a TIMEOUT (300 s) limit; a case that does not
    finish is recorded with "finished": false.
  Per case: instances and hole-pattern attempts (the passes that drew h
  permutations or gave up on one).  Every repeat must draw the same squares
  and patterns in the same number of attempts.

learn
  tune_kappa and grow_tree seconds on the training split of a dataset stage,
  fitted as `restartlab train --seed 81` fits it (censored rows dropped).
  - desk-fc and multi-alldiff: their dataset stages at size full (48+16 and
    36+12 runs).
  - desk paper scale: desk-fc's dataset stage at 4000+1000 runs (the desk
    instance, horizon 50, cutoff 100000, seed 81), built only when LARGE is
    set.
  tune_kappa is also timed with the per-feature split search of
  tests/reference.py (best_split) in place of learn._best_split, each repeat
  alternating the two; both must return the same TuningResult.  The loop's
  figure includes the presort, which the loop does not read.  grow_tree
  grows the whole training split at the tuned kappa.  Per case: rows,
  features, the nodes scored (learn._best_split calls) by one tune_kappa and
  by one grow_tree, kappa and leaves, and the per-round ratio of the loop's
  time to the shipped search's.

dataset
  The dataset run loop (harness._execute_runs: every run of a `restartlab
  dataset`, up to the rows it returns, before the splits are built and
  written) at 1 and 2 worker threads, on the dataset stages of desk-fc
  (48+16 runs) and multi-alldiff (36+12 runs, each instance drawn in the
  loop) at size full, and, when LARGE is set, on a desk set of DESK_SET
  runs (800+200: the desk instance, forward checking, horizon 50, cutoff
  100000), all at seed 81.  Each repeat alternates the plain loop with a loop whose kernel calls
  are timed, every call on every thread, and both must return the same rows
  as every other repeat and worker count.  Per case: threads, runs, choice
  points, rows (runs that reached the horizon), the loop's seconds, and the
  timed loop's seconds with the seconds inside kernel calls, in total and
  in fc_run alone, summed over the threads.

Each figure is the median, quartiles, range and count (n) of REPEATS (7)
timings, or of one timing when the first took longer than LONG (10 s).  A
repeat that disagrees with the first exits 1.  The JSON records each figure
next to the deterministic work it measured, with nproc and the Python
version.  That the kernel's outputs equal the Python reference's is the
identity tests' job (tests/test_fc_kernel.py, tests/test_policy.py,
tests/test_latin.py and, for the split search, tests/test_learn.py).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "tests"))

from pipeline import dataset_paths, run_stage, write_desk_instance  # noqa: E402
from workloads import DESK_ACCURACY, DESK_POLICIES, DESK_SEED, WORKLOADS  # noqa: E402

import reference  # noqa: E402
from restartlab import cli, fc_kernel, harness, learn as rlearn  # noqa: E402
from restartlab import io as rio  # noqa: E402
from restartlab.latin import (  # noqa: E402
    HoleSpec, PartialLatinSquare, generate_complete, poke_holes,
)
from restartlab.learn import DEFAULT_KAPPA_GRID, grow_tree, tune_kappa  # noqa: E402
from restartlab.policy import (  # noqa: E402
    DatasetSource, DynamicPolicy, ModelPredictor, RtdSource, SyntheticPredictor, _price_rounds,
    simulate_policy,
)
from restartlab.seeds import derive_seed  # noqa: E402
from restartlab.solver import ALLDIFF_REGIN, FORWARD_CHECK, SolverConfig, solve  # noqa: E402

DESK = WORKLOADS["desk-fc"]
MULTI = WORKLOADS["multi-alldiff"]
SIZE = "full"
REPEATS = 7
LONG = 10.0
TIMEOUT = 300
ORDER_34_SEEDS = {9: range(1, 6), 10: range(1, 6), 11: range(1, 4)}
# Whether to run the cases whose inputs take seconds to build: learn's desk
# paper scale and dataset's DESK_SET.
LARGE = True
PAPER_SIZE = dataclasses.replace(DESK.sizes[SIZE], runs=4000, test_runs=1000)
DESK_SET = dataclasses.replace(DESK.sizes[SIZE], runs=800, test_runs=200)
# deterministic work, printed next to the figures
WORK = ("runs", "choice_points", "trials", "live_draws", "dead_draws", "instances",
        "pattern_attempts", "rows", "features", "tune_nodes", "grow_nodes", "kappa", "leaves",
        "threads")


class Disagree(Exception):
    """Two repeats of one case returned different results."""


def spread(xs):
    """Median, quartiles, range and count of xs; one value is its own spread."""
    if len(xs) == 1:
        q1 = med = q3 = xs[0]
    else:
        q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "min": min(xs), "max": max(xs), "n": len(xs)}


def repeat(label, *fns):
    """Seconds of each fn over REPEATS rounds that call them in turn, and each
    fn's result.  Every round must return the first round's results, or
    Disagree is raised; a first round longer than LONG is the only one."""
    seconds = [[] for _ in fns]
    first = None
    while len(seconds[0]) < REPEATS:
        results = []
        for fn, out in zip(fns, seconds):
            t0 = time.perf_counter()
            results.append(fn())
            out.append(time.perf_counter() - t0)
        if first is None:
            first = results
        elif results != first:
            raise Disagree(f"{label}: repeats disagree")
        if seconds[0][0] > LONG:
            break
    return seconds, first


def runs_of(workload):
    size = workload.sizes[SIZE]
    return size.runs + size.test_runs


def desk_instance(directory: Path) -> PartialLatinSquare:
    path = directory / "desk.instance"
    write_desk_instance(path)
    return rio.read_instance(str(path))


def multi_seeds():
    """(square, mask) seeds of the multi-alldiff instances."""
    return [(derive_seed(DESK_SEED, "inst", i), derive_seed(DESK_SEED, "mask", i))
            for i in range(runs_of(MULTI))]


def solver(tmp: Path):
    desk = desk_instance(tmp)
    spec = HoleSpec.balanced(MULTI.holes // MULTI.order)
    multi = [poke_holes(generate_complete(MULTI.order, s), spec, m) for s, m in multi_seeds()]
    workloads = {
        "desk": (DESK, [desk] * runs_of(DESK), (FORWARD_CHECK, ALLDIFF_REGIN)),
        "multi-alldiff": (MULTI, multi, (MULTI.propagation,)),
    }
    for name, (workload, instances, levels) in workloads.items():
        runs = [(inst, derive_seed(DESK_SEED, "run", i)) for i, inst in enumerate(instances)]
        for propagation in levels:
            for traced in (False, True):
                config = SolverConfig(cutoff=workload.cutoff, propagation=propagation,
                                      horizon=workload.horizon, trace_enabled=traced)
                label = f"{name} {propagation} traced={int(traced)}"
                (seconds,), (records,) = repeat(
                    label, lambda: [solve(inst, config, seed) for inst, seed in runs])
                choice_points = sum(r.choice_points for r in records)
                yield label, {
                    "workload": name,
                    "propagation": propagation,
                    "traced": traced,
                    "horizon": workload.horizon,
                    "cutoff": workload.cutoff,
                    "runs": len(runs),
                    "choice_points": choice_points,
                    "seconds": spread(seconds),
                    "choice_points_per_s": spread([choice_points / s for s in seconds]),
                }


def draw_counts(source, policy, trials):
    """The rows simulate_policy draws (live) and skips (dead)."""
    rng = np.random.default_rng(derive_seed(DESK_SEED, "policy", policy.describe()))
    cost, runs = np.zeros(trials), np.zeros(trials, dtype=np.int64)
    state = _price_rounds(source, policy, rng, cost, runs, 1_000_000)
    return state.live_draws, state.dead_draws


def skip(kernel, rows, count):
    """A kernel call that skips count draws below rows, and nothing else, on
    a state made for it beforehand."""
    fresh = iter([
        (kernel.ffi.new("rounds_state *", {"rows": rows, "pending": count}),
         kernel.ffi.new("pcg64_state *", {"state_lo": DESK_SEED, "inc_lo": 2 * DESK_SEED + 1}))
        for _ in range(REPEATS)
    ])
    return lambda: kernel.lib.pcg64_price_rounds(*next(fresh), count + 1)


def policy(tmp: Path):
    kernel = fc_kernel.load()
    size = DESK.sizes[SIZE]
    instance, prefix = tmp / "desk.instance", tmp / "desk"
    write_desk_instance(instance)
    stage = run_stage(DESK.dataset_argv(prefix, size, 1, instance))
    if stage.failed:
        raise RuntimeError(f"the desk dataset could not be built: {stage.output}")
    train_path, test_path, rtd_path = dataset_paths(prefix)
    rtd = rio.read_rtd(rtd_path)
    train, test = (ds.subset(~ds.censored) for ds in map(rio.read_dataset, (train_path, test_path)))
    model = grow_tree(train.X, train.is_short, max(DEFAULT_KAPPA_GRID), columns=train.columns)
    runs = []
    for text in DESK_POLICIES:
        spec = cli._parse_policy(text)
        if not isinstance(spec, cli._DynamicSpec):
            runs.append((text.partition(":")[0], RtdSource(rtd), spec, size.trials))
            continue
        window = (spec.observe, spec.limit)
        runs.append(("dynamic_synthetic", RtdSource(rtd),
                     DynamicPolicy(*window, SyntheticPredictor(float(DESK_ACCURACY))), size.trials))
        runs.append(("dynamic_model", DatasetSource(test),
                     DynamicPolicy(*window, ModelPredictor(model)), size.model_trials))
    for key, source, pol, trials in runs:
        live, dead = draw_counts(source, pol, trials)
        (seconds, skips), _ = repeat(
            key, lambda: simulate_policy(source, pol, trials, DESK_SEED),
            skip(kernel, source.lengths.size, dead))
        yield key, {
            "policy": pol.describe(),
            "key": key,
            "trials": trials,
            "run_lengths": source.rtd.size,
            "live_draws": live,
            "dead_draws": dead,
            "seconds": spread(seconds),
            "trials_per_s": spread([trials / s for s in seconds]),
            "skip_seconds": spread(skips),
        }


class _CountingLib:
    """A kernel lib that counts hole-pattern passes."""

    def __init__(self, lib):
        self._lib = lib
        self.patterns = 0

    def __getattr__(self, name):
        return getattr(self._lib, name)

    def lq_hole_pattern(self, *args):
        self.patterns += 1
        return self._lib.lq_hole_pattern(*args)


def repeat_pokes(label, pokes):
    """repeat() of pokes on a kernel that counts hole-pattern passes; its
    result is (passes, pokes())."""
    kernel = fc_kernel.load()
    lib = _CountingLib(kernel.lib)

    def counted():
        before = lib.patterns
        out = pokes()
        return lib.patterns - before, out

    saved, fc_kernel.load = fc_kernel.load, lambda: SimpleNamespace(ffi=kernel.ffi, lib=lib)
    try:
        (seconds,), (result,) = repeat(label, counted)
    finally:
        fc_kernel.load = saved
    return seconds, result


def ms(seconds):
    return spread([s * 1e3 for s in seconds])


def generation_case(label, pairs, order, holes):
    """Timings of generate_complete and poke_holes over (square, mask) seeds,
    and the instances poked."""
    spec = HoleSpec.balanced(holes)
    (fill,), (squares,) = repeat(label, lambda: [generate_complete(order, s) for s, _ in pairs])
    poke, (attempts, pokes) = repeat_pokes(
        label, lambda: [poke_holes(sq, spec, m) for sq, (_, m) in zip(squares, pairs)])
    return {"case": label, "order": order, "holes_per_line": holes, "instances": len(pairs),
            "generate_complete_ms": ms(fill), "poke_holes_ms": ms(poke),
            "pattern_attempts": attempts}, pokes


def cyclic(n: int) -> PartialLatinSquare:
    return PartialLatinSquare.from_rows([[(r + c) % n + 1 for c in range(n)] for r in range(n)])


def one(kind: str, seed: int, holes: int) -> dict:
    """One order-34 figure, run in a child process."""
    label = f"{kind} 34 s={seed}"
    if kind == "generate_complete":
        (seconds,), _ = repeat(label, lambda: generate_complete(34, seed))
        return {"seconds": seconds}
    square, spec = cyclic(34), HoleSpec.balanced(holes)
    seconds, (attempts, _) = repeat_pokes(label, lambda: poke_holes(square, spec, seed))
    return {"seconds": seconds, "pattern_attempts": attempts}


def order_34(kind: str, seed: int, holes: int) -> dict:
    case = {"case": "order 34", "order": 34, "seed": seed, "timeout_s": TIMEOUT}
    if kind == "poke_holes":
        case["holes_per_line"] = holes
    argv = [sys.executable, __file__, "generation", "--one", kind, str(seed), str(holes)]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        case["finished"] = False
        return case
    if proc.returncode != 0:
        raise RuntimeError(f"{argv} exited {proc.returncode}: {proc.stderr.strip()}")
    result = json.loads(proc.stdout)
    case["finished"] = True
    case["process_s"] = time.perf_counter() - t0
    case[f"{kind}_ms"] = ms(result["seconds"])
    if "pattern_attempts" in result:
        case["pattern_attempts"] = result["pattern_attempts"]
    return case


def generation(tmp: Path):
    desk = [(derive_seed(DESK_SEED, "instance"), derive_seed(DESK_SEED, "mask"))]
    case, pokes = generation_case("desk", desk, DESK.order, DESK.holes // DESK.order)
    if pokes != [desk_instance(tmp)]:
        raise Disagree("desk: the instance differs from write_desk_instance's")
    yield "desk", case
    yield "multi-alldiff", generation_case("multi-alldiff", multi_seeds(), MULTI.order,
                                           MULTI.holes // MULTI.order)[0]
    for seed in range(1, 6):
        yield f"generate_complete 34 s={seed}", order_34("generate_complete", seed, 0)
    for holes, seeds in ORDER_34_SEEDS.items():
        for seed in seeds:
            yield f"poke_holes 34 h={holes} s={seed}", order_34("poke_holes", seed, holes)


def with_split_search(search, fn):
    """fn() with learn._best_split replaced by search."""
    saved, rlearn._best_split = rlearn._best_split, search
    try:
        return fn()
    finally:
        rlearn._best_split = saved


def per_feature_loop(X, y, rows, order, log_fact, picks):
    return reference.best_split(X, y, rows, log_fact)


def nodes_scored(fn):
    """The learn._best_split calls of fn()."""
    search, calls = rlearn._best_split, []

    def counted(*args):
        calls.append(None)
        return search(*args)

    with_split_search(counted, fn)
    return len(calls)


def learn(tmp: Path):
    instance = tmp / "desk.instance"
    write_desk_instance(instance)
    sets = [("desk-fc", DESK, DESK.sizes[SIZE]), ("multi-alldiff", MULTI, MULTI.sizes[SIZE])]
    if LARGE:
        sets.append(("desk paper scale", DESK, PAPER_SIZE))
    for name, workload, size in sets:
        prefix = tmp / name.replace(" ", "-")
        stage = run_stage(workload.dataset_argv(prefix, size, os.cpu_count(), instance))
        if stage.failed:
            raise RuntimeError(f"the {name} dataset could not be built: {stage.output}")
        train = rio.read_dataset(dataset_paths(prefix)[0])
        usable = train.subset(~train.censored)
        X, y = usable.X, usable.is_short

        def tune():
            return tune_kappa(X, y, seed=DESK_SEED, columns=train.columns)

        (tune_s, loop_s), (result, looped) = repeat(
            name, tune, lambda: with_split_search(per_feature_loop, tune))
        if looped != result:
            raise Disagree(f"{name}: the per-feature loop tunes another model")

        def grow():
            return grow_tree(X, y, result.kappa, columns=train.columns)

        (grow_s,), _ = repeat(name, grow)
        yield name, {
            "case": name,
            "workload": workload.name,
            "runs": size.runs + size.test_runs,
            "rows": usable.size,
            "features": X.shape[1],
            "tune_nodes": nodes_scored(tune),
            "grow_nodes": nodes_scored(grow),
            "kappa": result.kappa,
            "leaves": result.model.leaf_count,
            "tune_kappa_s": spread(tune_s),
            "tune_kappa_per_feature_loop_s": spread(loop_s),
            "loop_to_shipped": spread([b / a for a, b in zip(tune_s, loop_s)]),
            "grow_tree_s": spread(grow_s),
        }


class _TimedLib:
    """A kernel lib whose calls add their seconds, per entry point, to
    `seconds`; list.append keeps the threads' records whole."""

    def __init__(self, lib):
        self._lib = lib
        self.seconds = []

    def __getattr__(self, name):
        fn = getattr(self._lib, name)
        if not callable(fn):
            return fn

        def timed(*args):
            t0 = time.perf_counter()
            try:
                return fn(*args)
            finally:
                self.seconds.append((name, time.perf_counter() - t0))
        return timed


def timed_loop(loop):
    """loop() with every kernel call timed: its result, the seconds inside
    kernel calls and inside fc_run, and its own seconds."""
    kernel = fc_kernel.load()
    lib = _TimedLib(kernel.lib)
    saved, fc_kernel.load = fc_kernel.load, lambda: SimpleNamespace(ffi=kernel.ffi, lib=lib)
    try:
        t0 = time.perf_counter()
        rows = loop()
        wall = time.perf_counter() - t0
    finally:
        fc_kernel.load = saved
    return rows, (sum(s for _, s in lib.seconds),
                  sum(s for name, s in lib.seconds if name == "fc_run"), wall)


def dataset(tmp: Path):
    desk = desk_instance(tmp)
    cases = [("desk-fc", DESK, DESK.sizes[SIZE]), ("multi-alldiff", MULTI, MULTI.sizes[SIZE])]
    if LARGE:
        cases.append(("desk 800+200", DESK, DESK_SET))
    for name, workload, size in cases:
        single = workload.mode == "single"
        spec = harness.ExperimentSpec(
            mode=harness.SINGLE_INSTANCE if single else harness.MULTI_INSTANCE,
            order=workload.order,
            holes=None if single else HoleSpec.balanced(workload.holes // workload.order),
            instance=desk if single else None, train_runs=size.runs, test_runs=size.test_runs,
            horizon=workload.horizon, cutoff=workload.cutoff, propagation=workload.propagation,
            master_seed=DESK_SEED)
        total = size.runs + size.test_runs
        expected = None
        for threads in (1, 2):
            def loop():
                return [(i, runtime, solved, post, None if v is None else v.tobytes())
                        for i, runtime, solved, post, v in
                        harness._execute_runs(spec, total, threads)]

            timings = []

            def timed():
                rows, figures = timed_loop(loop)
                timings.append(figures)
                return rows

            label = f"{name} threads={threads}"
            (loop_s, _), (rows, timed_rows) = repeat(label, loop, timed)
            if timed_rows != rows or expected not in (None, rows):
                raise Disagree(f"{label}: the rows differ")
            expected = rows
            kernel_s, fc_run_s, timed_s = zip(*timings)
            yield label, {
                "case": name,
                "workload": workload.name,
                "threads": threads,
                "runs": total,
                "choice_points": sum(r[1] for r in rows),
                "rows": sum(r[4] is not None for r in rows),
                "run_loop_s": spread(loop_s),
                "timed_run_loop_s": spread(list(timed_s)),
                "kernel_call_s": spread(list(kernel_s)),
                "fc_run_s": spread(list(fc_run_s)),
            }


TOPICS = {
    "solver": ("solver choice points per second", solver),
    "policy": ("simulate_policy trials per second", policy),
    "generation": ("instance generation milliseconds on the C kernel", generation),
    "learn": ("tune_kappa and grow_tree seconds", learn),
    "dataset": ("dataset run-loop seconds at 1 and 2 worker threads", dataset),
}


def show(label, case):
    parts = [f"{label:32}"]
    for key, value in case.items():
        if isinstance(value, dict):
            parts.append(f"{key} {value['median']:.4g}"
                         f" (q1 {value['q1']:.4g}, q3 {value['q3']:.4g}, n {value['n']})")
        elif key in WORK:
            parts.append(f"{key} {value}")
    if case.get("finished") is False:
        parts.append(f"did not finish within {TIMEOUT} s")
    print(" ".join(parts), flush=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("topic", choices=TOPICS)
    ap.add_argument("--out", default=None, help="default BENCH_<TOPIC>.json")
    ap.add_argument("--one", nargs=3, metavar=("KIND", "SEED", "HOLES"), help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    try:
        fc_kernel.load()
    except fc_kernel.KernelUnavailable as exc:
        print(f"the C kernel is unavailable: {exc}", file=sys.stderr)
        return 1
    benchmark, cases_of = TOPICS[args.topic]
    cases = []
    try:
        if args.one:
            kind, seed, holes = args.one
            print(json.dumps(one(kind, int(seed), int(holes))))
            return 0
        with tempfile.TemporaryDirectory() as tmp:
            for label, case in cases_of(Path(tmp)):
                cases.append(case)
                show(label, case)
    except Disagree as exc:
        print(exc, file=sys.stderr)
        return 1
    result = {
        "benchmark": benchmark,
        "command": f"PYTHONPATH=src python tools/layer_bench.py {args.topic}",
        "repeats": REPEATS,
        "environment": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
        "cases": cases,
    }
    out = args.out or f"BENCH_{args.topic}.json"
    Path(out).write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
