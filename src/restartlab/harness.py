"""Experiment orchestration: seeded run generation, censoring bookkeeping,
labeling, and the command cores behind the CLI.

Runs are seeded per run index from one master seed, so results are
deterministic and independent of worker count or scheduling.  They execute
on worker threads (the caller's own thread when there is one), each making
every run with one call, KernelState.run(instance, seed, config), on its own
solver.KernelState; every kernel call releases the GIL and the kernel writes
each run's summary itself, so the threads search in parallel.  Each run's
RunRecord, its summary included, is kept at its run index, and the splits
are built from those records once every run is done.  The peak search
probes its candidates the same way, on one state.
"""

from __future__ import annotations

import math
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import fc_kernel
from .features import _scaled_mask, registry_hash, summary_columns
from .io import DataFormatError, write_dataset, write_rtd
from .latin import HoleSpec, PartialLatinSquare, generate_complete, poke_holes
from .learn import Dataset, partition_median
from .policy import EmpiricalRTD
from .seeds import derive_seed
from .solver import SOLVED, KernelState, RunRecord, SolverConfig

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


def _execute_runs(spec: ExperimentSpec, total: int, threads: int) -> List[RunRecord]:
    """Run indices 0..total-1 on min(threads, total) worker threads (the
    caller's own thread when there is one) and return their traced records
    in index order.  A run's summary is None exactly when it solved before
    the horizon (the spec keeps cutoff >= horizon >= 2); an exhausted run,
    whose instance admits no completion, raises DataFormatError.

    Each worker builds its own KernelState, then takes the next index not
    yet taken and runs it there on its instance: the spec's, or run i's
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
    records: List[Optional[RunRecord]] = [None] * total
    stop = threading.Event()

    def instance_of(idx: int) -> PartialLatinSquare:
        if instance is not None:
            return instance
        square = generate_complete(spec.order, derive_seed(spec.master_seed, "inst", idx))
        return poke_holes(square, spec.holes, derive_seed(spec.master_seed, "mask", idx))

    def work() -> None:
        state = KernelState(kernel)
        try:
            for idx in indices:
                if stop.is_set():
                    break
                rec = state.run(instance_of(idx), derive_seed(spec.master_seed, "run", idx),
                                config, stop=stop)
                if rec.exhausted:
                    raise DataFormatError(
                        "instance admits no completion; cannot measure run lengths")
                records[idx] = rec
        except BaseException:
            stop.set()
            raise

    threads = min(threads, total)  # no thread without a run to take
    if threads == 1:
        # the caller's thread: on desk-fc's 64 runs, a pool thread made the
        # stage 4 ms (6%) slower, and the stages after it slower too
        work()
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            workers = [pool.submit(work) for _ in range(threads)]
            try:
                for w in workers:
                    w.result()
            except BaseException:
                stop.set()
                raise
    return records


def _build_split(
    records: Sequence[RunRecord],
    columns: List[str],
    median: Optional[float],
    multi: bool,
) -> Tuple[Dataset, Dict[str, int]]:
    """Assemble one split's Dataset from its run records.

    Runs that finished before the horizon, the runs without a summary, are
    dropped (their count is returned); cutoff-hit runs are kept as censored
    rows.  The kept runs' kernel summaries are the rows of one matrix.  In
    multi-instance mode a row's divisor is its run's post-propagation size,
    and the columns that normalize_for_multi rescales (features._scaled_mask)
    are divided by it.  Rows are labeled by Dataset.labeled: against the
    median of the uncensored rows' scaled runtimes when none is supplied
    (training), else against the one given (test)."""
    kept = [r for r in records if r.summary is not None]
    censored = np.array([r.outcome != SOLVED for r in kept], dtype=bool)
    if censored.all():
        raise DataFormatError(
            "zero surviving rows after censoring; raise run counts or lower the horizon"
        )
    X = np.frombuffer(b"".join(r.summary for r in kept)).reshape(len(kept), -1).copy()
    divisor = np.array([r.post_propagation_size if multi else 1 for r in kept], dtype=float)
    if multi:
        X[:, _scaled_mask()] /= divisor[:, None]
    unlabeled = Dataset(
        columns=list(columns),
        X=X,
        runtime=np.array([r.choice_points for r in kept], dtype=np.int64),
        is_short=np.zeros(len(kept), dtype=bool),
        censored=censored,
        divisor=divisor,
        median=math.nan,
    )
    counts = {
        "total": len(records),
        "under_horizon": len(records) - len(kept),
        "rows": int((~censored).sum()),
        "cutoff_hit": int(censored.sum()),
    }
    return unlabeled.labeled(median), counts


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
    records = _execute_runs(spec, total, threads)
    columns = summary_columns()
    multi = spec.mode == MULTI_INSTANCE
    train, train_counts = _build_split(records[: spec.train_runs], columns, None, multi)
    test = None
    test_counts = {"total": 0, "under_horizon": 0, "rows": 0, "cutoff_hit": 0}
    if spec.test_runs:
        test, test_counts = _build_split(records[spec.train_runs :], columns, train.median, multi)
    # not empty: _build_split raised unless the training split kept a solved run
    solved_lengths = [r.choice_points for r in records if r.outcome == SOLVED]
    rtd = EmpiricalRTD(solved_lengths)
    info = {
        "mode": spec.mode,
        "horizon": spec.horizon,
        "cutoff": spec.cutoff,
        "registry_hash": registry_hash(),
        "median": train.median,
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
    instance is None if no candidate qualifies.  Every probe is a run on one
    KernelState, as a dataset worker makes its runs.
    """
    config = SolverConfig(cutoff=cutoff, propagation=propagation)
    trials = []
    state = KernelState(fc_kernel.for_order(order))
    for cand in range(max_candidates):
        square = generate_complete(order, derive_seed(master_seed, "peak", cand, "square"))
        inst = poke_holes(square, holes, derive_seed(master_seed, "peak", cand, "mask"))
        lengths = [
            state.run(inst, derive_seed(master_seed, "peak", cand, "run", i), config).choice_points
            for i in range(probe_runs)
        ]
        med = partition_median(lengths)
        top = float(max(lengths))
        r = top / med if med >= 1 else 0.0
        trials.append({"candidate": cand, "median": med, "max": top, "ratio": r})
        if med >= 1 and r >= ratio:
            return inst, {"chosen": cand, "ratio": r, "median": med, "trials": trials}
    return None, {"chosen": None, "trials": trials}
