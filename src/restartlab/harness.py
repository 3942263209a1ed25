"""Experiment orchestration: seeded run generation, censoring bookkeeping,
labeling, and the command cores behind the CLI.

Runs are seeded per run index from one master seed, so results are
deterministic and independent of worker count or scheduling.  They execute
on worker threads (the caller's own thread when there is one), each reusing
one kernel state; every kernel call releases the GIL and the kernel writes
each run's summary itself, so the threads search in parallel.  Workers return records that are merged by run index
before anything downstream happens.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import fc_kernel
from .features import SummaryVector, normalize_for_multi, registry_hash, summary_columns
from .io import DataFormatError, write_dataset, write_rtd
from .latin import HoleSpec, PartialLatinSquare, generate_complete, poke_holes
from .learn import Dataset, label_by_median
from .policy import EmpiricalRTD
from .seeds import derive_seed
from .solver import SOLVED, KernelState, RunRecord, SolverConfig, _run, _search

SINGLE_INSTANCE = "SINGLE_INSTANCE"
MULTI_INSTANCE = "MULTI_INSTANCE"


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything needed to regenerate a dataset bit for bit."""

    mode: str = SINGLE_INSTANCE
    order: int = 18
    holes: Optional[HoleSpec] = None
    instance: Optional[PartialLatinSquare] = None
    train_runs: int = 1000
    test_runs: int = 300
    horizon: int = SolverConfig.horizon
    cutoff: Optional[int] = SolverConfig.cutoff
    propagation: str = SolverConfig.propagation
    master_seed: int = 0

    def __post_init__(self) -> None:
        if self.mode not in (SINGLE_INSTANCE, MULTI_INSTANCE):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == MULTI_INSTANCE and self.instance is not None:
            raise ValueError("multi-instance mode draws fresh instances; do not fix one")
        if self.instance is None and self.holes is None:
            raise ValueError("need either a fixed instance or hole parameters")
        if self.train_runs < 1:
            raise ValueError("need at least one training run")
        if self.test_runs < 0:
            raise ValueError("test run count cannot be negative")
        if self.horizon < 2:
            raise ValueError("horizon must be >= 2")
        if self.cutoff is not None and self.cutoff < self.horizon:
            raise ValueError("a safety cutoff below the horizon would leave no usable rows")


# One record per launched run; summary is None for runs that finished before
# the horizon (their traces are too short to summarize).
_RunRow = Tuple[int, int, bool, int, Optional[np.ndarray]]


def _execute_runs(spec: ExperimentSpec, total: int, threads: int) -> List[_RunRow]:
    """Run indices 0..total-1 on `threads` worker threads (the caller's
    own thread when there is one) and return their rows in index order.

    Each worker takes the next index not yet taken and runs it on its own
    KernelState, loaded per run with the instance: the spec's, or run i's
    own in multi-instance mode, drawn from derive_seed(seed, "inst", i)
    and derive_seed(seed, "mask", i).  Every kernel call releases the GIL,
    and the kernel writes each run's summary itself, so a worker holds the
    GIL only between calls.  When a worker fails or the caller is
    interrupted (Ctrl-C), the runs not yet started are dropped, and each
    running search stops at its next return to Python."""
    config = SolverConfig(
        cutoff=spec.cutoff,
        propagation=spec.propagation,
        horizon=spec.horizon,
        trace_enabled=True,
    )
    instance = spec.instance
    if spec.mode == SINGLE_INSTANCE and instance is None:
        square = generate_complete(spec.order, derive_seed(spec.master_seed, "instance"))
        instance = poke_holes(square, spec.holes, derive_seed(spec.master_seed, "mask"))
    kernel = fc_kernel.for_order(spec.order if instance is None else instance.order)
    indices = iter(range(total))
    stop = threading.Event()

    def instance_of(idx: int) -> PartialLatinSquare:
        if instance is not None:
            return instance
        square = generate_complete(spec.order, derive_seed(spec.master_seed, "inst", idx))
        return poke_holes(square, spec.holes, derive_seed(spec.master_seed, "mask", idx))

    def work() -> List[_RunRow]:
        rows: List[_RunRow] = []
        state = None
        try:
            for idx in indices:
                if stop.is_set():
                    break
                inst = instance_of(idx)
                if state is None:
                    state = KernelState(inst, config, kernel)
                else:
                    state.load(inst)
                rec = _search(state, config, derive_seed(spec.master_seed, "run", idx), None, stop)
                rows.append(_row(spec, idx, rec, state))
        except BaseException:
            stop.set()
            raise
        return rows

    if threads == 1:
        # the caller's thread: on desk-fc's 64 runs, a pool thread made the
        # stage 4 ms (6%) slower, and the stages after it slower too
        rows = work()
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            workers = [pool.submit(work) for _ in range(threads)]
            try:
                rows = [row for w in workers for row in w.result()]
            except BaseException:
                stop.set()
                raise
    rows.sort(key=lambda r: r[0])
    return rows


def _row(spec: ExperimentSpec, idx: int, rec: RunRecord, state: KernelState) -> _RunRow:
    """Run idx's (index, runtime, solved, post_propagation_size, summary
    values or None)."""
    solved = rec.outcome == SOLVED
    if not solved and rec.exhausted:
        raise DataFormatError("instance admits no completion; cannot measure run lengths")
    runtime = rec.choice_points
    if solved and runtime < spec.horizon:
        return (idx, runtime, True, rec.post_propagation_size, None)
    values = state.summary()
    if spec.mode == MULTI_INSTANCE:
        values = normalize_for_multi(SummaryVector(values), rec.post_propagation_size).values
    return (idx, runtime, solved, rec.post_propagation_size, values)


def _build_split(
    rows: Sequence[_RunRow],
    columns: List[str],
    median: Optional[float],
    multi: bool,
) -> Tuple[Dataset, Dict[str, int], float]:
    """Assemble one split's Dataset from its run records.

    Runs that finished before the horizon are dropped (their count is
    returned); cutoff-hit runs are kept as censored rows labeled LONG.  The
    median is computed from the uncensored rows' scaled runtimes when not
    supplied (training), else applied as given (test)."""
    kept = [r for r in rows if r[4] is not None]
    under = len(rows) - len(kept)
    if not any(r[2] for r in kept):
        raise DataFormatError(
            "zero surviving rows after censoring; raise run counts or lower the horizon"
        )
    X = np.asarray([r[4] for r in kept], dtype=float)
    runtime = np.asarray([r[1] for r in kept], dtype=np.int64)
    censored = np.asarray([not r[2] for r in kept], dtype=bool)
    divisor = np.asarray(
        [float(r[3]) if multi else 1.0 for r in kept], dtype=float
    )
    scaled = runtime / divisor
    if median is None:
        median, _ = label_by_median(scaled[~censored])
    is_short = (scaled < median) & ~censored
    counts = {
        "total": len(rows),
        "under_horizon": under,
        "rows": int((~censored).sum()),
        "cutoff_hit": int(censored.sum()),
    }
    ds = Dataset(
        columns=list(columns),
        X=X,
        runtime=runtime,
        is_short=is_short,
        censored=censored,
        divisor=divisor,
        median=float(median),
    )
    return ds, counts, float(median)


def run_experiment(
    spec: ExperimentSpec,
    threads: int = 1,
    train_path: Optional[str] = None,
    test_path: Optional[str] = None,
    rtd_path: Optional[str] = None,
    params: Optional[Dict] = None,
) -> Tuple[Dataset, Optional[Dataset], EmpiricalRTD, Dict]:
    """Generate the train/test datasets and the run-length distribution.

    Returns (train, test, rtd, info).  Runs are indexed train first, then
    test; every solved run's length lands in the distribution, while only
    runs that survived the observation horizon become dataset rows.  Test
    labels reuse the training median so both sets share one notion of SHORT.
    """
    total = spec.train_runs + spec.test_runs
    rows = _execute_runs(spec, total, threads)
    columns = summary_columns()
    multi = spec.mode == MULTI_INSTANCE
    train_rows = rows[: spec.train_runs]
    test_rows = rows[spec.train_runs :]
    train, train_counts, median = _build_split(train_rows, columns, None, multi)
    test = None
    test_counts = {"total": 0, "under_horizon": 0, "rows": 0, "cutoff_hit": 0}
    if spec.test_runs:
        test, test_counts, _ = _build_split(test_rows, columns, median, multi)
    solved_lengths = [r[1] for r in rows if r[2]]
    if not solved_lengths:
        raise DataFormatError("no run solved; nothing to put in the distribution")
    rtd = EmpiricalRTD(solved_lengths)
    info = {
        "mode": spec.mode,
        "horizon": spec.horizon,
        "cutoff": spec.cutoff,
        "registry_hash": registry_hash(),
        "median": median,
        "train": train_counts,
        "test": test_counts,
        "rtd_size": rtd.size,
    }
    base = dict(params or {})
    for path, split, ds, counts in (
        (train_path, "train", train, train_counts), (test_path, "test", test, test_counts)
    ):
        if path and ds is not None:
            write_dataset(
                path, ds, params=base, master_seed=spec.master_seed,
                meta={"split": split, **counts, "mode": spec.mode,
                      "horizon": spec.horizon, "registry_hash": info["registry_hash"]},
            )
    if rtd_path:
        write_rtd(
            rtd_path, solved_lengths, params=base, master_seed=spec.master_seed,
            meta={"solved": len(solved_lengths), "total": total},
        )
    return train, test, rtd, info


def find_heavy_tail_instance(
    order: int,
    holes: HoleSpec,
    master_seed: int,
    probe_runs: int = 60,
    ratio: float = 10.0,
    max_candidates: int = 20,
    cutoff: int = 30000,
    propagation: str = SolverConfig.propagation,
) -> Tuple[Optional[PartialLatinSquare], Dict]:
    """Search seeded candidate instances for a heavy-tailed one.

    A candidate qualifies when, over probe_runs seeded runs, the longest
    observed length (cutoff-capped) is at least `ratio` times the median and
    the median itself stays above 1 (degenerate instances solve instantly).
    Returns (instance, info) with info recording every candidate's numbers;
    instance is None if no candidate qualifies.
    """
    config = SolverConfig(cutoff=cutoff, propagation=propagation)
    trials = []
    for cand in range(max_candidates):
        square = generate_complete(order, derive_seed(master_seed, "peak", cand, "square"))
        inst = poke_holes(square, holes, derive_seed(master_seed, "peak", cand, "mask"))
        lengths = []
        for i in range(probe_runs):
            rec, _ = _run(inst, config, derive_seed(master_seed, "peak", cand, "run", i))
            lengths.append(rec.choice_points)
        med = float(np.median(lengths))
        top = float(max(lengths))
        r = top / med if med >= 1 else 0.0
        trials.append({"candidate": cand, "median": med, "max": top, "ratio": r})
        if med >= 1 and r >= ratio:
            return inst, {"chosen": cand, "ratio": r, "median": med, "trials": trials}
    return None, {"chosen": None, "trials": trials}
