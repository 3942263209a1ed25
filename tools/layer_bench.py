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
  traced and untraced, on the runs `restartlab dataset` makes: one
  KernelState per workload, each run one call of its run method on the
  run's instance, and no solved square built.  A traced run keeps its
  statistics in the kernel and no rows in Python, and its record carries
  the summary the kernel wrote.
  - desk: the desk instance, the 48+16 runs of desk-fc, horizon 50, cutoff
    100000, at forward checking and at alldiff filtering.
  - multi-alldiff: its 36+12 instances (order 20, 8 holes per line, each
    drawn before timing), one run each, horizon 10, cutoff 20000, alldiff
    filtering.
  A workload's cases share their rounds, each round running every level,
  untraced then traced, on the workload's one state.  Per case: runs,
  choice points, seconds and choice points per second.  Every repeat must
  return the same run records, summaries included.

policy
  simulate_policy trials per second for each policy, every round priced in
  the C kernel.  Inputs: desk-fc's dataset stage (`restartlab dataset` on
  the desk instance, forward checking, 48+16 runs, horizon 50, cutoff
  100000, seed 81), whose run-length file holds the 64 solved lengths, and a
  tree grown on its training split at the largest kappa of the default grid.
  Policies, as desk-fc prices them: fixed:900, luby:1 and dynamic:50,3000
  with a synthetic predictor of accuracy 0.9, each over 100000 trials on the
  run-length file; and dynamic:50,3000 with the tree as predictor over 10000
  trials on the held-out split.  Master seed 81.  One more case, luby_scan,
  prices luby:1 over 100000 trials on the file's SCAN_ROWS (63) shortest
  lengths.  numpy's rejection threshold (2**32 - rows) % rows is 0 at 64
  rows, where the kernel jumps the stream past a skip, and 4 at 63, where
  it steps the stream word by word: the two Luby cases time both skips.
  The five cases share their rounds: each round prices every case in
  turn, each followed by a kernel call that only skips its dead draws, the
  floor of its time.  Per case: trials, the run lengths drawn in priced
  rounds (live) and in rounds whose cutoff is below the shortest run (dead,
  the draws the kernel skips), seconds, trials per second and the seconds
  the skip alone takes.  Every repeat must give the same PolicyStats.

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
    finish is recorded with "finished": false.  These cases run only when
    LARGE is set.
  Per case: instances and hole-pattern attempts (the lq_hole_pattern calls
  kernel_calls records: the passes that drew h permutations or gave up on
  one).  Every repeat must draw the same squares and patterns in the same
  number of attempts.

learn
  tune_kappa and grow_tree seconds on the training split of a dataset stage,
  fitted as `restartlab train --seed 81` fits it (censored rows dropped).
  - desk-fc and multi-alldiff: their dataset stages at size full (48+16 and
    36+12 runs).
  - desk paper scale: desk-fc's dataset stage at 4000+1000 runs (the desk
    instance, horizon 50, cutoff 100000, seed 81), built only when LARGE is
    set.
  tune_kappa is also timed with the per-feature split search of
  tests/reference.py (best_split) patched in for learn._best_split, each
  round running the two in turn; both must return the same TuningResult.
  The loop's figure includes the presort, which the loop does not read.
  grow_tree grows the whole training split at the tuned kappa.  Per case:
  rows, features, the nodes scored (the call count of a mock wrapping
  learn._best_split) by one tune_kappa and by one grow_tree, kappa and
  leaves, and the per-round ratio of the loop's time to the shipped
  search's.

dataset
  The dataset run loop (harness._execute_runs: every run of a `restartlab
  dataset`, up to the records it returns, before the splits are built and
  written) at 1 and 2 worker threads, on the dataset stages of desk-fc
  (48+16 runs) and multi-alldiff (36+12 runs, each instance drawn in the
  loop) at size full, and, when LARGE is set, on a desk set of DESK_SET
  runs (800+200: the desk instance, forward checking, horizon 50, cutoff
  100000), all at seed 81.  A case's 1- and 2-thread loops share their
  rounds: each round runs the plain loop and then the same loop inside
  kernel_calls, at 1 thread and then at 2, and all four must return the
  same records, summaries included, as every other round.  Per case:
  threads, runs, choice points, rows (runs with a summary: those that
  reached the horizon), the loop's seconds, and the timed loop's seconds
  with the seconds its recorded kernel calls took, in total and in fc_run
  alone, summed over the threads.

io
  read_dataset and write_dataset on the split files (train and test) of the
  dataset stages of desk-fc (48+16 runs) and multi-alldiff (36+12 runs) at
  size full, and, when LARGE is set, of the DESK_SET desk set (800+200),
  all at seed 81, each stage run from the temporary directory with relative
  paths so that the files' bytes do not depend on where it is.  A file's
  read and write share their rounds: each round reads the file, writes what
  it read (with the header it read) to a copy, and checks that the copy is
  byte-identical to the file.  Per case: split, rows (censored ones
  included), features, the file's bytes, and seconds and rows per second
  of the read and of the write.

footprint
  What each CLI step of both workloads costs a fresh interpreter: the steps
  of desk-fc and multi-alldiff at size full, as the benchmark runs them
  (dataset at 1 and at nproc threads, train, eval and, for desk-fc,
  cascade and the two policy steps; seeds 81), each run as `python -c`
  calling restartlab.cli.main from the temporary directory, and, first,
  a bare `import restartlab.cli`, the benchmark's import probe.  A round
  runs every step in order, so each step reads what the one before it
  wrote.  Per case: the step, its exit code, which of FOOTPRINT_MODULES
  (numpy.random, numpy.ma and _hashlib, OpenSSL's hash module) it had
  loaded when it returned, the process's wall seconds (interpreter start
  and imports included), its ru_maxrss and its own peak resident memory
  (VmHWM of /proc/self/status), in MiB, each over FOOTPRINT_ROUNDS (5)
  rounds.  Linux carries the peak of the process image an exec replaces
  into ru_maxrss, so a child forked from this process reads at least this
  process's resident memory at the fork; VmHWM counts the step's own image
  only.  Every round must give the same exit codes and modules.

Cases that a topic puts side by side share their rounds: repeat() calls
them in turn within each round, so a change of host speed during a topic
lands on all of them alike, not on one.  kernel_calls() patches
fc_kernel.load so that every kernel call inside it, on any thread, is
recorded as (entry point, seconds).  Each figure is the median, quartiles,
range and count (n) of REPEATS (7) timings, or of one timing when the
round's first took longer than LONG (10 s).  A repeat that disagrees with
the first exits 1.  The JSON records each figure next to the deterministic
work it measured, with nproc and the Python version.  That the kernel's
outputs equal the Python reference's is the identity tests' job
(tests/test_fc_kernel.py, tests/test_policy.py, tests/test_latin.py and,
for the split search, tests/test_learn.py).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
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
from unittest import mock

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
    DatasetSource, DynamicPolicy, EmpiricalRTD, LubyPolicy, ModelPredictor, RtdSource,
    SyntheticPredictor, _price_rounds, simulate_policy,
)
from restartlab.seeds import derive_seed  # noqa: E402
from restartlab.solver import ALLDIFF_REGIN, FORWARD_CHECK, KernelState, SolverConfig  # noqa: E402

DESK = WORKLOADS["desk-fc"]
MULTI = WORKLOADS["multi-alldiff"]
SIZE = "full"
REPEATS = 7
LONG = 10.0
TIMEOUT = 300
ORDER_34_SEEDS = {9: range(1, 6), 10: range(1, 6), 11: range(1, 4)}
# Whether to run the cases that take seconds or minutes: learn's desk paper
# scale, dataset's DESK_SET and generation's order-34 cases.
LARGE = True
PAPER_SIZE = dataclasses.replace(DESK.sizes[SIZE], runs=4000, test_runs=1000)
DESK_SET = dataclasses.replace(DESK.sizes[SIZE], runs=800, test_runs=200)
THREADS = (1, 2)  # the dataset topic's worker counts
# Rows of the policy topic's luby_scan case, whose rejection threshold
# (2**32 - 63) % 63 is 4, not 0.
SCAN_ROWS = 63
# Rounds of the footprint topic, and the modules it reports as loaded.
FOOTPRINT_ROUNDS = 5
FOOTPRINT_MODULES = ("numpy.random", "numpy.ma", "_hashlib")
# A footprint step: run restartlab.cli.main on argv (sys.argv[1], JSON),
# then print as the last line of stdout its exit code, which of
# FOOTPRINT_MODULES it loaded, its ru_maxrss and its VmHWM (both KiB).
STEP_SCRIPT = """
import json, resource, sys
from restartlab import cli
argv, modules = json.loads(sys.argv[1]), json.loads(sys.argv[2])
code = cli.main(argv) if argv else 0
with open("/proc/self/status") as fh:
    hwm = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
print(json.dumps({"code": code, "loaded": [m for m in modules if m in sys.modules],
                  "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  "hwm_kib": hwm}))
"""
# deterministic work, printed next to the figures
WORK = ("runs", "choice_points", "trials", "live_draws", "dead_draws", "instances",
        "pattern_attempts", "rows", "features", "tune_nodes", "grow_nodes", "kappa", "leaves",
        "threads", "bytes", "step", "exit_code", "loaded")


class Disagree(Exception):
    """Two repeats of one case returned different results."""


def spread(xs):
    """Median, quartiles, range and count of xs; one value is its own spread."""
    if len(xs) == 1:
        q1 = med = q3 = xs[0]
    else:
        q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "min": min(xs), "max": max(xs), "n": len(xs)}


def repeat(label, *fns, rounds=None):
    """Seconds of each fn over `rounds` (default REPEATS) rounds that call
    them in turn, and each fn's result.  Every round must return the first
    round's results, or Disagree is raised; a first round longer than LONG
    is the only one."""
    seconds = [[] for _ in fns]
    first = None
    while len(seconds[0]) < (rounds or REPEATS):
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


@contextlib.contextmanager
def kernel_calls():
    """Patch fc_kernel.load for the block so that every kernel call made in
    it, on any thread, is appended to the yielded list as (entry point,
    seconds); list.append keeps the threads' records whole."""
    kernel, calls = fc_kernel.load(), []

    def recorded(name, fn):
        def call(*args):
            t0 = time.perf_counter()
            try:
                return fn(*args)
            finally:
                calls.append((name, time.perf_counter() - t0))
        return call

    entries = {name: getattr(kernel.lib, name) for name in dir(kernel.lib)}
    lib = SimpleNamespace(**{name: recorded(name, fn) if callable(fn) else fn
                             for name, fn in entries.items()})
    with mock.patch.object(fc_kernel, "load", lambda: SimpleNamespace(ffi=kernel.ffi, lib=lib)):
        yield calls


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
        state = KernelState(fc_kernel.load())
        configs = [SolverConfig(cutoff=workload.cutoff, propagation=propagation,
                                horizon=workload.horizon, trace_enabled=traced)
                   for propagation in levels for traced in (False, True)]

        def loop(config):
            return [state.run(inst, seed, config) for inst, seed in runs]

        timings, results = repeat(name, *(functools.partial(loop, c) for c in configs))
        for config, seconds, records in zip(configs, timings, results):
            choice_points = sum(r.choice_points for r in records)
            yield f"{name} {config.propagation} traced={int(config.trace_enabled)}", {
                "workload": name,
                "propagation": config.propagation,
                "traced": config.trace_enabled,
                "horizon": workload.horizon,
                "cutoff": workload.cutoff,
                "runs": len(runs),
                "choice_points": choice_points,
                "seconds": spread(seconds),
                "choice_points_per_s": spread([choice_points / s for s in seconds]),
            }


def draw_counts(source, policy, trials):
    """The rows simulate_policy draws (live) and skips (dead)."""
    stream = fc_kernel.pcg64(derive_seed(DESK_SEED, "policy", policy.describe()))
    cost, runs = np.zeros(trials), np.zeros(trials, dtype=np.int64)
    state = _price_rounds(source, policy, stream, cost, runs, 1_000_000)
    return state.live_draws, state.dead_draws


def skip(kernel, rows, count):
    """A kernel call that skips count draws below rows, and nothing else, on
    a state made for it beforehand."""
    fresh = iter([(kernel.ffi.new("rounds_state *", {"rows": rows, "pending": count}),
                   fc_kernel.pcg64(DESK_SEED))
                  for _ in range(REPEATS)])
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
            if isinstance(spec, LubyPolicy):
                shortest = RtdSource(EmpiricalRTD(rtd.lengths[:SCAN_ROWS]))
                runs.append(("luby_scan", shortest, spec, size.trials))
            continue
        window = (spec.observe, spec.limit)
        runs.append(("dynamic_synthetic", RtdSource(rtd),
                     DynamicPolicy(*window, SyntheticPredictor(float(DESK_ACCURACY))), size.trials))
        runs.append(("dynamic_model", DatasetSource(test),
                     DynamicPolicy(*window, ModelPredictor(model)), size.model_trials))
    draws = [draw_counts(source, pol, trials) for _, source, pol, trials in runs]
    fns = []
    for (_, source, pol, trials), (_, dead) in zip(runs, draws):
        fns += [functools.partial(simulate_policy, source, pol, trials, DESK_SEED),
                skip(kernel, source.lengths.size, dead)]
    timings, _ = repeat("policy", *fns)
    for (key, source, pol, trials), (live, dead), seconds, skips in zip(
            runs, draws, timings[::2], timings[1::2]):
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


def repeat_pokes(label, pokes):
    """repeat() of pokes inside kernel_calls(); its result is (hole-pattern
    passes, pokes())."""
    with kernel_calls() as calls:
        def counted():
            calls.clear()
            out = pokes()
            return sum(name == "lq_hole_pattern" for name, _ in calls), out

        (seconds,), (result,) = repeat(label, counted)
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
    if not LARGE:
        return
    for seed in range(1, 6):
        yield f"generate_complete 34 s={seed}", order_34("generate_complete", seed, 0)
    for holes, seeds in ORDER_34_SEEDS.items():
        for seed in seeds:
            yield f"poke_holes 34 h={holes} s={seed}", order_34("poke_holes", seed, holes)


def per_feature_loop(X, y, rows, order, log_fact, picks):
    return reference.best_split(X, y, rows, log_fact)


def nodes_scored(fn):
    """The learn._best_split calls of fn()."""
    with mock.patch.object(rlearn, "_best_split", wraps=rlearn._best_split) as search:
        fn()
    return search.call_count


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

        def tune_by_loop():
            with mock.patch.object(rlearn, "_best_split", per_feature_loop):
                return tune()

        (tune_s, loop_s), (result, looped) = repeat(name, tune, tune_by_loop)
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
        logs = {threads: [] for threads in THREADS}

        def loop(threads):
            return harness._execute_runs(spec, total, threads)

        def recorded(threads):
            with kernel_calls() as calls:
                records = loop(threads)
            logs[threads].append(calls)
            return records

        timings, results = repeat(name, *(functools.partial(fn, threads)
                                          for threads in THREADS for fn in (loop, recorded)))
        records = results[0]
        if any(other != records for other in results):
            raise Disagree(f"{name}: the records differ")
        for threads, loop_s, timed_s in zip(THREADS, timings[::2], timings[1::2]):
            yield f"{name} threads={threads}", {
                "case": name,
                "workload": workload.name,
                "threads": threads,
                "runs": total,
                "choice_points": sum(r.choice_points for r in records),
                "rows": sum(r.summary is not None for r in records),
                "run_loop_s": spread(loop_s),
                "timed_run_loop_s": spread(timed_s),
                "kernel_call_s": spread([sum(s for _, s in calls) for calls in logs[threads]]),
                "fc_run_s": spread([sum(s for entry, s in calls if entry == "fc_run")
                                    for calls in logs[threads]]),
            }


def dataset_files(tmp: Path):
    instance = tmp / "desk.instance"
    write_desk_instance(instance)
    sets = [("desk-fc", DESK, DESK.sizes[SIZE]), ("multi-alldiff", MULTI, MULTI.sizes[SIZE])]
    if LARGE:
        sets.append(("desk 800+200", DESK, DESK_SET))
    copy = tmp / "rewrite.csv"
    # relative paths in the stages' command lines, so that the headers, and
    # the bytes of the files, do not depend on where tmp is
    cwd = os.getcwd()
    os.chdir(tmp)
    try:
        for name, workload, size in sets:
            prefix = Path(name.replace(" ", "-"))
            stage = run_stage(workload.dataset_argv(prefix, size, os.cpu_count(),
                                                    Path(instance.name)))
            if stage.failed:
                raise RuntimeError(f"the {name} dataset could not be built: {stage.output}")
            for split, path in zip(("train", "test"), dataset_paths(prefix)):
                original, held = Path(path).read_bytes(), []

                def read():
                    held[:] = [rio.read_dataset(path)]

                def write():
                    prov = held[0].provenance
                    rio.write_dataset(str(copy), held[0], params=prov["params"],
                                      master_seed=prov["master_seed"], meta=prov["meta"])

                def identical():
                    return copy.read_bytes() == original

                (read_s, write_s, _), (_, _, same) = repeat(
                    f"{name} {split}", read, write, identical)
                if not same:
                    raise Disagree(f"{name} {split}: the rewritten file differs")
                rows = held[0].size
                yield f"{name} {split}", {
                    "case": name,
                    "workload": workload.name,
                    "split": split,
                    "rows": rows,
                    "features": len(held[0].columns),
                    "bytes": len(original),
                    "read_s": spread(read_s),
                    "write_s": spread(write_s),
                    "read_rows_per_s": spread([rows / s for s in read_s]),
                    "write_rows_per_s": spread([rows / s for s in write_s]),
                }
    finally:
        os.chdir(cwd)


def footprint(tmp: Path):
    instance = tmp / "desk.instance"
    write_desk_instance(instance)
    steps = [("-", [])]  # the import probe
    for workload in (DESK, MULTI):
        size, prefix = workload.sizes[SIZE], Path(workload.name)
        steps += [(workload.name, argv) for argv in (
            workload.dataset_argv(prefix, size, os.cpu_count(), Path(instance.name)),
            *workload.learn_argvs(DESK_SEED, prefix, Path("."), size))]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    maxrss, hwm = [[] for _ in steps], [[] for _ in steps]

    def run(k):
        proc = subprocess.run(
            [sys.executable, "-c", STEP_SCRIPT, json.dumps(steps[k][1]),
             json.dumps(FOOTPRINT_MODULES)],
            cwd=tmp, env=env, capture_output=True, text=True, timeout=TIMEOUT)
        if proc.returncode != 0:
            raise RuntimeError(f"{steps[k][1]} exited {proc.returncode}: {proc.stderr.strip()}")
        out = json.loads(proc.stdout.splitlines()[-1])
        maxrss[k].append(out["maxrss_kib"] / 1024)
        hwm[k].append(out["hwm_kib"] / 1024)
        return out["code"], out["loaded"]

    timings, results = repeat("footprint", *(functools.partial(run, k) for k in range(len(steps))),
                              rounds=FOOTPRINT_ROUNDS)
    for (name, argv), seconds, (code, loaded), rss, peak in zip(steps, timings, results, maxrss,
                                                              hwm):
        step = " ".join(argv[:1] + ["--model"] * ("--model" in argv)) or "import restartlab.cli"
        yield f"{name} {step}", {
            "workload": name,
            "step": step,
            "exit_code": code,
            "loaded": loaded,
            "wall_s": spread(seconds),
            "maxrss_mb": spread(rss),
            "peak_rss_mb": spread(peak),
        }


TOPICS = {
    "solver": ("solver choice points per second", solver),
    "policy": ("simulate_policy trials per second", policy),
    "generation": ("instance generation milliseconds on the C kernel", generation),
    "learn": ("tune_kappa and grow_tree seconds", learn),
    "dataset": ("dataset run-loop seconds at 1 and 2 worker threads", dataset),
    "io": ("dataset file read and write rows per second", dataset_files),
    "footprint": ("wall seconds, peak memory and heavy imports of each CLI step", footprint),
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
