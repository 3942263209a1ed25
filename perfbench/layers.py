"""The traced run: each layer's public functions called from here, each call in a span.

Spans are kept in memory and written out at the end as JSON lines:
{"id", "name", "parent", "start", "end"} with times in perf_counter seconds,
plus "counts" where the call's work is known (choice points of a solve).
The layer of a span is its name up to the first dot.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Tuple

import numpy as np

from restartlab import io as rio
from restartlab.features import default_registry, normalize_for_multi, summarize
from restartlab.latin import HoleSpec, generate_complete, poke_holes
from restartlab.learn import DEFAULT_KAPPA_GRID, evaluate, grow_tree, tune_kappa
from restartlab.policy import (
    DatasetSource,
    DynamicPolicy,
    FixedPolicy,
    LubyPolicy,
    ModelPredictor,
    RtdSource,
    SyntheticPredictor,
    optimal_fixed_cutoff,
    simulate_policy,
)
from restartlab.seeds import derive_seed
from restartlab.solver import SOLVED, SolverConfig, solve

from pipeline import dataset_paths, sha256
from workloads import DESK_ACCURACY, DESK_SEED, Size, Workload

UNITS = {
    "latin.generate_complete_ms.p50": "ms",
    "latin.generate_complete_ms.p90": "ms",
    "latin.poke_holes_ms.p50": "ms",
    "latin.poke_holes_ms.p90": "ms",
    "latin.instances": "count",
    "solver.choice_points_per_s": "choice_points/s",
    "solver.run_ms.p50": "ms",
    "solver.run_ms.p90": "ms",
    "solver.choice_points": "count",
    "solver.cutoff_ratio": "ratio",
    "features.trace_overhead_ratio": "ratio",
    "features.summarize_ms.p50": "ms",
    "features.summaries": "count",
    "harness.pool_efficiency": "ratio",
    "harness.useful_run_ratio": "ratio",
    "io.write_dataset_rows_per_s": "rows/s",
    "io.read_dataset_rows_per_s": "rows/s",
    "io.dataset_bytes": "bytes",
    "learn.tune_kappa_s": "s",
    "learn.grow_tree_s": "s",
    "learn.tune_to_grow_ratio": "ratio",
    "learn.evaluate_rows_per_s": "rows/s",
    "policy.optimal_fixed_cutoff_ms": "ms",
    "trace.spans": "count",
    "trace.overhead_ratio": "ratio",
}
POLICY_KEYS = ("fixed", "luby", "dynamic_synthetic", "dynamic_model")
UNITS.update({f"policy.trials_per_s.{k}": "trials/s" for k in POLICY_KEYS})
LEVELS = {"forward_check": "fc", "alldiff_regin": "alldiff"}
for _level in LEVELS.values():  # the same solver figures, named after the propagation level
    UNITS.update({f"solver.{_level}.{k}": UNITS[f"solver.{k}"]
                  for k in ("choice_points_per_s", "run_ms.p50", "run_ms.p90")})

OVERHEAD_RUNS = 30  # runs solved again with tracing off for features.trace_overhead_ratio
REPEAT_FAST = 20  # calls per span for layer calls that take well under a millisecond


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Dict] = []
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[Dict]:
        rec = {"id": len(self.spans), "name": name,
               "parent": self._open[-1] if self._open else None, "start": 0.0, "end": 0.0}
        self.spans.append(rec)
        self._open.append(rec["id"])
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def named(self, name: str) -> List[Dict]:
        return [s for s in self.spans if s["name"] == name]

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")


def duration(rec: Dict) -> float:
    return rec["end"] - rec["start"]


def self_times(spans: List[Dict]) -> Dict[str, float]:
    """Seconds per layer not covered by a child span (children of a span never overlap)."""
    covered: Dict[int, float] = {}
    for rec in spans:
        if rec["parent"] is not None:
            covered[rec["parent"]] = covered.get(rec["parent"], 0.0) + duration(rec)
    out: Dict[str, float] = {}
    for rec in spans:
        layer = rec["name"].split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + duration(rec) - covered.get(rec["id"], 0.0)
    return out


def span_cost_s(samples: int = 5000) -> float:
    """Mean cost of opening and closing one empty span on this host."""
    probe = Tracer()
    t0 = time.perf_counter()
    for _ in range(samples):
        with probe.span("probe"):
            pass
    return (time.perf_counter() - t0) / samples


def _ms(recs: List[Dict], q: float) -> float:
    return float(np.percentile([duration(r) for r in recs], q)) * 1e3


def traced_run(tracer: Tracer, wl: Workload, seed: int, size: Size, data_prefix: Path,
               model_path: Path, scratch: Path, pooled_wall_s: float, workers: int,
               artifact_work: Dict[str, int]) -> Tuple[Dict[str, float], List[str]]:
    """Replay the dataset's runs, then every other layer, on one workload's inputs.

    The replay seeds each run index exactly as `restartlab.harness` does, so
    its choice points must equal the untraced artifacts'.  Returns the
    per-layer metrics and the problems found.
    """
    problems: List[str] = []
    m: Dict[str, float] = {}
    config = SolverConfig(cutoff=wl.cutoff, propagation=wl.propagation,
                          horizon=wl.horizon, trace_enabled=True)
    untraced = SolverConfig(cutoff=wl.cutoff, propagation=wl.propagation, horizon=wl.horizon)
    registry = default_registry(True)
    holes = HoleSpec.balanced(wl.holes // wl.order)
    total = size.runs + size.test_runs
    kept: List[Tuple] = []  # (instance, run seed, span) of the runs solved again untraced
    choice_points = cutoff_hit = under = 0
    with tracer.span("bench.traced_run") as root:
        with tracer.span("harness.replay") as replay:
            instance = None
            if wl.mode == "single":
                with tracer.span("latin.generate_complete"):
                    square = generate_complete(wl.order, derive_seed(DESK_SEED, "instance"))
                with tracer.span("latin.poke_holes"):
                    instance = poke_holes(square, holes, derive_seed(DESK_SEED, "mask"))
            for i in range(total):
                run_seed = derive_seed(DESK_SEED, "run", i)
                if wl.mode == "multi":
                    with tracer.span("latin.generate_complete"):
                        square = generate_complete(wl.order, derive_seed(DESK_SEED, "inst", i))
                    with tracer.span("latin.poke_holes"):
                        instance = poke_holes(square, holes, derive_seed(DESK_SEED, "mask", i))
                with tracer.span("solver.solve") as sp:
                    rec = solve(instance, config, run_seed)
                sp["counts"] = {"choice_points": rec.choice_points}
                if len(kept) < OVERHEAD_RUNS:
                    kept.append((instance, run_seed, sp))
                choice_points += rec.choice_points
                solved = rec.outcome == SOLVED
                if not solved and rec.exhausted:
                    problems.append(f"run {i}: instance has no completion")
                    continue
                cutoff_hit += not solved
                if solved and rec.choice_points < wl.horizon:
                    under += 1
                    continue
                with tracer.span("features.summarize"):
                    sv = summarize(rec.trace, wl.horizon, registry=registry, censored=not solved)
                    if wl.mode == "multi":
                        normalize_for_multi(sv, rec.post_propagation_size, registry=registry)
        for name, got in (("choice_points", choice_points), ("cutoff_hit", cutoff_hit),
                          ("under_horizon", under)):
            if got != artifact_work.get(name):
                problems.append(f"traced replay counts {got} {name}, artifacts {artifact_work.get(name)}")
        with tracer.span("solver.untraced"):
            off = []
            for inst, run_seed, _ in kept:
                with tracer.span("solver.solve_untraced") as sp:
                    solve(inst, untraced, run_seed)
                off.append(duration(sp))

        train_path, test_path, rtd_path = dataset_paths(data_prefix)
        read_s = write_s = 0.0
        rows = 0
        splits = {}
        for name, path in (("train", train_path), ("test", test_path)):
            with tracer.span("io.read_dataset") as sp:
                ds = rio.read_dataset(path)
            read_s += duration(sp)
            rows += ds.size
            splits[name] = ds
            copy = scratch / f"rewrite_{name}.csv"
            prov = ds.provenance
            with tracer.span("io.write_dataset") as sp:
                rio.write_dataset(str(copy), ds, params=prov["params"],
                                  master_seed=prov["master_seed"], meta=prov["meta"])
            write_s += duration(sp)
            if sha256(copy) != sha256(Path(path)):
                problems.append(f"{name} dataset does not survive a read/write round trip byte for byte")

        train = splits["train"].subset(~splits["train"].censored)
        test = splits["test"].subset(~splits["test"].censored)
        with tracer.span("learn.tune_kappa") as sp_tune:
            tuned = tune_kappa(train.X, train.is_short, seed=seed, columns=train.columns)
        with tracer.span("learn.grow_tree") as sp_grow:
            grow_tree(train.X, train.is_short, tuned.kappa, columns=train.columns)
        with tracer.span("learn.evaluate") as sp_eval:
            for _ in range(REPEAT_FAST):
                evaluate(tuned.model, test.X, test.is_short)
        cli_model = rio.read_model(str(model_path))
        if (cli_model.kappa, cli_model.leaf_count) != (tuned.model.kappa, tuned.model.leaf_count):
            problems.append("tune_kappa in the traced run disagrees with the model `train` wrote")

        # The tuned tree can be a single leaf, which calls no run SHORT and makes
        # the model-driven policy unbounded; the tree at the grid's largest
        # kappa splits, so the probe always simulates a model-driven policy.
        with tracer.span("learn.grow_tree_for_policy"):
            probe_model = grow_tree(train.X, train.is_short, max(DEFAULT_KAPPA_GRID),
                                    columns=train.columns)
        with tracer.span("io.read_rtd"):
            rtd = rio.read_rtd(rtd_path)
        with tracer.span("policy.optimal_fixed_cutoff") as sp_opt:
            for _ in range(REPEAT_FAST):
                optimal_fixed_cutoff(rtd)
        observe, limit, accuracy = wl.horizon, 3000.0, float(DESK_ACCURACY)
        runs = [
            ("fixed", RtdSource(rtd), FixedPolicy(cutoff=900)),
            ("luby", RtdSource(rtd), LubyPolicy(scale=1)),
            ("dynamic_synthetic", RtdSource(rtd),
             DynamicPolicy(observe=observe, limit=limit, predictor=SyntheticPredictor(accuracy))),
            ("dynamic_model", DatasetSource(test),
             DynamicPolicy(observe=observe, limit=limit, predictor=ModelPredictor(probe_model))),
        ]
        for key, source, policy in runs:
            trials = size.model_trials if key == "dynamic_model" else size.trials
            with tracer.span(f"policy.simulate_{key}") as sp:
                stats = simulate_policy(source, policy, trials=trials, master_seed=seed)
            if stats.unbounded:
                problems.append(f"policy {key} is unbounded on this workload")
            m[f"policy.trials_per_s.{key}"] = trials / duration(sp)

    solves = tracer.named("solver.solve")
    solve_s = sum(duration(s) for s in solves)
    level = LEVELS[wl.propagation]
    m.update({
        "latin.generate_complete_ms.p50": _ms(tracer.named("latin.generate_complete"), 50),
        "latin.generate_complete_ms.p90": _ms(tracer.named("latin.generate_complete"), 90),
        "latin.poke_holes_ms.p50": _ms(tracer.named("latin.poke_holes"), 50),
        "latin.poke_holes_ms.p90": _ms(tracer.named("latin.poke_holes"), 90),
        "latin.instances": len(tracer.named("latin.poke_holes")),
        "solver.choice_points_per_s": choice_points / solve_s,
        "solver.run_ms.p50": _ms(solves, 50),
        "solver.run_ms.p90": _ms(solves, 90),
        "solver.choice_points": choice_points,
        "solver.cutoff_ratio": cutoff_hit / total,
        "features.trace_overhead_ratio": sum(duration(k[2]) for k in kept) / sum(off),
        "features.summarize_ms.p50": _ms(tracer.named("features.summarize"), 50),
        "features.summaries": len(tracer.named("features.summarize")),
        "harness.pool_efficiency": duration(replay) / (workers * pooled_wall_s),
        "harness.useful_run_ratio": artifact_work["rows"] / artifact_work["runs"],
        "io.write_dataset_rows_per_s": rows / write_s,
        "io.read_dataset_rows_per_s": rows / read_s,
        "io.dataset_bytes": sum(Path(p).stat().st_size for p in (train_path, test_path)),
        "learn.tune_kappa_s": duration(sp_tune),
        "learn.grow_tree_s": duration(sp_grow),
        "learn.tune_to_grow_ratio": duration(sp_tune) / duration(sp_grow),
        "learn.evaluate_rows_per_s": REPEAT_FAST * test.size / duration(sp_eval),
        "policy.optimal_fixed_cutoff_ms": duration(sp_opt) / REPEAT_FAST * 1e3,
    })
    for key in ("choice_points_per_s", "run_ms.p50", "run_ms.p90"):
        m[f"solver.{level}.{key}"] = m[f"solver.{key}"]
    m["trace.spans"] = len(tracer.spans)
    m["trace.overhead_ratio"] = len(tracer.spans) * span_cost_s() / duration(root)
    return m, problems
