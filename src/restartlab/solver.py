"""Randomized backtracking solver for Latin-square completion.

Variable order follows the Brelaz rule: smallest remaining domain, ties
broken by the number of open cells sharing a line, remaining ties uniformly
at random.  Values are tried in uniformly random order.  Propagation is
either plain forward checking or matching-based alldiff filtering; forced
assignments discovered by propagation never count as choice points, which
makes the choice-point count the unit of measured run time.

Domains are bitmasks (bit s-1 set means symbol s is still possible), and all
search-state mutation goes through a trail so backtracking is O(undone work).
The whole search runs in the C kernel (see fc_kernel) at either propagation
level (KernelState), for orders up to 64, and so does regin_filter; the test
suite's Python SearchState and _regin_masks (tests/reference.py) are their
references.  The kernel also checks the instance: fc_init, which reads every
given cell into its row and column masks, refuses a symbol that repeats in
its line, so the Latin property is checked in C as each run starts.  A
traced run also keeps the running statistics of its feature rows in C and
writes their summary there (KernelState.summary), so a caller that needs
only the summary keeps no rows.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from . import fc_kernel
from .features import REGISTRY, STAT_NAMES
from .latin import HOLE, PartialLatinSquare, StructureError
from .seeds import normalize_seed

FORWARD_CHECK = "forward_check"
ALLDIFF_REGIN = "alldiff_regin"
_PROPAGATION_LEVELS = (FORWARD_CHECK, ALLDIFF_REGIN)

SOLVED = "SOLVED"
CUTOFF = "CUTOFF"


@dataclass(frozen=True)
class SolverConfig:
    """Run parameters.

    cutoff: stop after this many choice points (None = run to completion).
    propagation: FORWARD_CHECK or ALLDIFF_REGIN.
    horizon: number of leading choice points recorded when tracing.
    trace_enabled: record one feature vector per choice point up to horizon.

    ExperimentSpec, find_heavy_tail_instance and the CLI take their
    defaults for these knobs from here.
    """

    cutoff: Optional[int] = None
    propagation: str = FORWARD_CHECK
    horizon: int = 200
    trace_enabled: bool = False

    def __post_init__(self) -> None:
        if self.cutoff is not None and self.cutoff < 0:
            raise ValueError(f"cutoff must be >= 0 or None, got {self.cutoff}")
        if self.propagation not in _PROPAGATION_LEVELS:
            raise ValueError(f"unknown propagation level {self.propagation!r}")
        if self.horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {self.horizon}")


@dataclass(frozen=True)
class RunStats:
    """Search counters of one run, kept whether or not it is traced.

    They describe the run for its caller and go into no artifact.
    """

    backtracks: int = 0
    contradictions: int = 0
    forced_assignments: int = 0
    alldiff_prunings: int = 0
    max_depth: int = 0


@dataclass
class RunRecord:
    """Outcome of one solver run.

    outcome is SOLVED or CUTOFF; exhausted marks the case where the whole
    search space was explored without a solution (the instance is
    unsatisfiable), which is reported as CUTOFF with this flag set.
    choice_points is exact even when the run stops at the cutoff.  stats
    holds the run's search counters at its end.
    """

    seed: int
    outcome: str
    choice_points: int
    assignment: Optional[PartialLatinSquare]
    trace: Optional[List[Tuple[float, ...]]]
    post_propagation_size: int
    exhausted: bool = False
    stats: RunStats = RunStats()


def regin_filter(domains: Sequence[Iterable[int]]) -> Optional[List[Set[int]]]:
    """Filter the domains of one all-different line to arc consistency.

    Takes per-cell iterables of candidate symbols (ints 1..64) for at most 64
    cells and returns the filtered domains as sets, or None when the cells
    cannot take pairwise distinct values.  Pure function; it runs the
    kernel's filter (fc_regin_filter), the one the alldiff search applies to
    its lines, so a kernel that cannot be built raises
    fc_kernel.KernelUnavailable.
    """
    if len(domains) > fc_kernel.MAX_ORDER:
        raise ValueError(f"at most {fc_kernel.MAX_ORDER} cells, got {len(domains)}")
    doms: List[int] = []
    for d in domains:
        m = 0
        for v in d:
            if (not isinstance(v, int) or isinstance(v, bool)
                    or not 1 <= v <= fc_kernel.MAX_ORDER):
                raise ValueError(
                    f"domain values must be ints 1..{fc_kernel.MAX_ORDER}, got {v!r}")
            m |= 1 << (v - 1)
        if m == 0:
            return None
        doms.append(m)
    if not doms:
        return []
    kernel = fc_kernel.load()
    prunings = kernel.ffi.new("uint64_t[]", len(doms))
    if not kernel.lib.fc_regin_filter(doms, len(doms), prunings):
        return None
    out: List[Set[int]] = []
    for m, p in zip(doms, prunings):
        m ^= p
        s: Set[int] = set()
        while m:
            b = m & -m
            m ^= b
            s.add(b.bit_length())
        out.append(s)
    return out


class KernelState:
    """Search state held and mutated by the C kernel (fc_kernel), at either
    propagation level: fc_init sets up a run from the loaded instance and
    fc_run executes the whole search, tracing the feature rows itself.
    Every buffer is allocated here, once, and freed with this object; one
    state serves any number of runs on instances of its order and hole
    count, each started by load, since fc_init resets every run field.  An
    instance that violates the Latin property raises StructureError.
    """

    def __init__(self, instance: PartialLatinSquare, config: SolverConfig, kernel) -> None:
        ffi = self._ffi = kernel.ffi
        self._lib = kernel.lib
        n = self.n = instance.order
        holes = self.holes = sum(row.count(HOLE) for row in instance.cells)
        # A live trail holds at most n prunings plus one assignment per hole.
        trail = holes * (n + 1)
        self._buffers = (
            ffi.new("uint64_t[]", n * n),
            ffi.new("int[]", n * n),
            ffi.new("int[]", 2 * n),
            ffi.new("int[]", holes),
            ffi.new("uint64_t[]", 2 * n * n),
            ffi.new("uint64_t[]", (n + 1) * n),
            ffi.new("int[]", n * n),
            ffi.new("int[]", trail),
            ffi.new("uint64_t[]", trail),
            ffi.new("int[]", holes + 1),
            ffi.new("int[]", 2 * n),
            ffi.new("int[]", 2 * n),
            ffi.new("fc_frame[]", holes),
        )
        self._summary = ffi.new("double[]", len(REGISTRY) * len(STAT_NAMES))
        st = self._st = ffi.new("fc_state *")
        (st.domain, st.symbol, st.line_unassigned, st.hole_cells, st.line_symbol,
         st.size_rows, st.domain_size, st.trail_cell, st.trail_bits, st.queue, st.dirty,
         st.dirty_flag, st.frames) = self._buffers
        st.summary = self._summary
        st.n = n
        st.regin = config.propagation == ALLDIFF_REGIN
        self._mt = ffi.new("mt_state *")
        self._instance = None
        self.load(instance)

    def load(self, instance: PartialLatinSquare) -> None:
        """Set up a run on instance, of this state's order and hole count
        (ValueError otherwise): fc_init reloads its givens and resets every
        run field.  Loading the instance of the last load only resets."""
        if instance is not self._instance:
            symbols = [0 if v is HOLE else v for row in instance.cells for v in row]
            if instance.order != self.n or symbols.count(0) != self.holes:
                raise ValueError(
                    f"this state runs instances of order {self.n} with {self.holes} holes")
            givens = self._ffi.new("int[]", symbols)
            self._st.givens = givens
            self._instance, self._givens = instance, givens
        if not self._lib.fc_init(self._st):
            raise StructureError("instance violates the Latin property")

    @property
    def unassigned_count(self) -> int:
        return self._st.unassigned_count

    def stats(self) -> RunStats:
        st = self._st
        return RunStats(
            backtracks=st.backtracks,
            contradictions=st.contradictions,
            forced_assignments=st.forced_assignments,
            alldiff_prunings=st.alldiff_prunings,
            max_depth=st.max_depth,
        )

    def summary(self) -> Optional[np.ndarray]:
        """features.summarize's values of the rows the last search traced,
        written by the kernel as it traced the last row due: None unless it
        traced every row due, and at least two."""
        st = self._st
        if st.trace_left or st.node_visits < 2:
            return None
        return np.frombuffer(self._ffi.buffer(self._summary), dtype=float).copy()

    def extract_square(self) -> PartialLatinSquare:
        return PartialLatinSquare.from_flat(self.n, self._ffi.unpack(self._st.symbol, self.n ** 2))

    def propagate_root(self) -> bool:
        return bool(self._lib.fc_propagate_root(self._st))

    def search(
        self,
        seed: int,
        config: SolverConfig,
        trace: Optional[List] = None,
        stop: Optional[threading.Event] = None,
    ) -> Tuple[str, int, bool]:
        """Depth-first search from the root-propagated state on a Mersenne
        Twister seeded as random.Random(seed); returns (outcome, choice
        points, exhausted).  A state with no open cell is SOLVED at once.
        With config.trace_enabled the kernel traces the first min(horizon,
        cutoff) choice points into its running statistics, which summary
        reads, and appends their feature rows to trace, if given: fc_run
        writes them into a buffer of at most _TRACE_ROWS rows, which is
        emptied into trace whenever it returns.  fc_run returns after every
        _RUN_STEPS units of work, so that Ctrl-C is handled, and once stop is
        set the search ends there as CUTOFF."""
        ffi = self._ffi
        lib = self._lib
        st = self._st
        if st.unassigned_count == 0:  # fc_run needs an open cell to branch on
            return SOLVED, st.choice_points, False
        st.cutoff = -1 if config.cutoff is None else config.cutoff
        # Rows still to trace, as of the last time the buffer was emptied.
        left = 0
        if config.trace_enabled:
            left = config.horizon if config.cutoff is None else min(config.horizon, config.cutoff)
        st.trace_left = left
        keep = trace is not None and left > 0
        buffer = ffi.NULL
        if keep:
            width = len(REGISTRY)
            buffer = ffi.new("double[]", min(left, _TRACE_ROWS) * width)
            st.trace_end = buffer + len(buffer)
        st.trace = buffer
        mt = self._mt
        lib.mt_seed(mt, seed)
        while True:
            status = lib.fc_run(st, mt, _RUN_STEPS)
            if keep and st.trace_left < left:
                flat = ffi.unpack(buffer, (left - st.trace_left) * width)
                trace.extend(tuple(flat[i:i + width]) for i in range(0, len(flat), width))
                left = st.trace_left
                st.trace = buffer
            if status != lib.FC_PAUSED or (stop is not None and stop.is_set()):
                break
        outcome = SOLVED if status == lib.FC_SOLVED else CUTOFF
        return outcome, st.choice_points, status == lib.FC_EXHAUSTED


# Most traced rows held in C at a time: a run traced to a large horizon
# allocates no more than this, however few choice points it reaches.
_TRACE_ROWS = 1024

# Work per fc_run call (choice points plus the open cells of filtered lines),
# so that a long search returns to Python, and to Ctrl-C, several times a
# second.
_RUN_STEPS = 1 << 16


def solve(
    instance: PartialLatinSquare,
    config: Optional[SolverConfig] = None,
    seed: int = 0,
) -> RunRecord:
    """Run the randomized completion search once.

    Deterministic per (instance, config, seed).  Returns SOLVED with the
    completed square, or CUTOFF when the choice-point budget ran out; an
    exhausted search space (unsatisfiable instance) is CUTOFF with the
    exhausted flag.  Tracing records one feature vector per choice point up
    to the horizon and never alters the search trajectory.  An instance that
    violates the Latin property raises StructureError, orders above 64 raise
    ValueError, and a kernel that cannot be built raises
    fc_kernel.KernelUnavailable.
    """
    record, state = _run(instance, SolverConfig() if config is None else config, seed)
    if record.outcome == SOLVED:
        record.assignment = state.extract_square()
    return record


def _run(
    instance: PartialLatinSquare, config: SolverConfig, seed: int
) -> Tuple[RunRecord, KernelState]:
    """The run behind solve, whose record leaves assignment None, and the
    state it ended in."""
    state = KernelState(instance, config, fc_kernel.for_order(instance.order))
    trace: Optional[List[Tuple[float, ...]]] = [] if config.trace_enabled else None
    return _search(state, config, seed, trace), state


def _search(
    state: KernelState,
    config: SolverConfig,
    seed: int,
    trace: Optional[List[Tuple[float, ...]]],
    stop: Optional[threading.Event] = None,
) -> RunRecord:
    """One run on a loaded state, root propagation first; its record keeps
    trace as its rows and leaves assignment None.  The harness runs it
    without rows and reads state.summary() instead."""
    ok = state.propagate_root()
    post_prop = state.unassigned_count
    if not ok:
        outcome, choice_points, exhausted = CUTOFF, 0, True
    else:
        outcome, choice_points, exhausted = state.search(normalize_seed(seed), config, trace, stop)
    return RunRecord(
        seed=seed,
        outcome=outcome,
        choice_points=choice_points,
        assignment=None,
        trace=trace,
        post_propagation_size=post_prop,
        exhausted=exhausted,
        stats=state.stats(),
    )
