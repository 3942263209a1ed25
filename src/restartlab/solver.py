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
level, for orders up to 64.  One call, KernelState.run(instance, seed,
config), sets up and makes a seeded run, on a state that serves any number
of runs: solve, the dataset workers and the peak search all run that way;
the test suite's Python SearchState and _regin_masks (tests/reference.py)
are their references, and its regin_filter runs the kernel's line filter on
its own.  The kernel also checks the instance: fc_init, which reads every
given cell into its row and column masks, refuses a symbol that repeats in
its line, so the Latin property is checked in C as each run starts.  A
traced run also keeps the running statistics of its feature rows in C and
writes their summary there, which its RunRecord carries (summary), so a
caller that needs only the summary keeps no rows.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import List, Optional, Tuple

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
    holds the run's search counters at its end.  summary holds
    features.summarize's values of the traced rows, written by the kernel as
    it traced the last row due, as float64 bytes (np.frombuffer reads them):
    None unless the run traced every row due, and at least two.  So with
    cutoff >= horizon >= 2, a traced run that ends SOLVED or at the cutoff
    has no summary exactly when it solved in fewer than horizon choice points.
    """

    seed: int
    outcome: str
    choice_points: int
    assignment: Optional[PartialLatinSquare]
    trace: Optional[List[Tuple[float, ...]]]
    post_propagation_size: int
    exhausted: bool = False
    stats: RunStats = RunStats()
    summary: Optional[bytes] = None


class KernelState:
    """Search state held and mutated by the C kernel (fc_kernel), at either
    propagation level: run sets up each run with fc_init, which reads the
    instance's givens and resets every run field, and fc_run executes the
    whole search, tracing the feature rows itself.  One state serves any
    number of runs on any instances; its buffers are sized for the order and
    hole count of the instance it runs, allocated again when a run's
    differ from the last run's, and freed with this object.
    """

    def __init__(self, kernel) -> None:
        ffi = self._ffi = kernel.ffi
        self._lib = kernel.lib
        self._summary = ffi.new("double[]", len(REGISTRY) * len(STAT_NAMES))
        self._st = ffi.new("fc_state *")
        self._st.summary = self._summary
        self._mt = ffi.new("mt_state *")
        self._instance = self._shape = None

    def _set_up(self, instance: PartialLatinSquare) -> None:
        """Copies instance's givens into the state, first sizing its buffers
        for instance's order and hole count when the last run's differ."""
        ffi, st = self._ffi, self._st
        symbols = [0 if v is HOLE else v for row in instance.cells for v in row]
        n, holes = shape = instance.order, symbols.count(0)
        if shape != self._shape:
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
            (st.domain, st.symbol, st.line_unassigned, st.hole_cells, st.line_symbol,
             st.size_rows, st.domain_size, st.trail_cell, st.trail_bits, st.queue, st.dirty,
             st.dirty_flag, st.frames) = self._buffers
            st.n = n
            self._shape = shape
        st.givens = self._givens = ffi.new("int[]", symbols)
        self._instance = instance

    def run(
        self,
        instance: PartialLatinSquare,
        seed: int,
        config: SolverConfig,
        trace: Optional[List[Tuple[float, ...]]] = None,
        stop: Optional[threading.Event] = None,
    ) -> RunRecord:
        """One run on instance: fc_init sets it up, copying the givens unless
        instance is the last run's, and raises StructureError for an instance
        that violates the Latin property; then root propagation at config's
        level, and depth-first search on a Mersenne Twister seeded as
        random.Random(seed).  A root contradiction ends the run as an
        exhausted CUTOFF, and a root propagation that leaves no open cell as
        SOLVED, both at 0 choice points.  With config.trace_enabled the
        kernel traces the first min(horizon, cutoff) choice points into its
        running statistics, whose summary the record carries, and appends
        their feature rows to trace, if given: fc_run writes them into a buffer of at most
        _TRACE_ROWS rows, which is emptied into trace whenever it returns.
        fc_run returns after every _RUN_STEPS units of work, so that Ctrl-C
        is handled, and once stop is set the search ends there as CUTOFF.
        The record keeps trace as its rows and leaves assignment None."""
        ffi = self._ffi
        lib = self._lib
        st = self._st
        if instance is not self._instance:
            self._set_up(instance)
        if not lib.fc_init(st):
            raise StructureError("instance violates the Latin property")
        st.regin = config.propagation == ALLDIFF_REGIN
        status = lib.FC_SOLVED if lib.fc_propagate_root(st) else lib.FC_EXHAUSTED
        post_prop = st.unassigned_count
        # fc_run needs an open cell to branch on
        if status == lib.FC_SOLVED and post_prop > 0:
            cutoff = config.cutoff
            st.cutoff = -1 if cutoff is None else cutoff
            # Rows still to trace, as of the last time the buffer was emptied.
            left = 0
            if config.trace_enabled:
                left = config.horizon if cutoff is None else min(config.horizon, cutoff)
            st.trace_left = left
            keep = trace is not None and left > 0
            buffer = ffi.NULL
            if keep:
                width = len(REGISTRY)
                buffer = ffi.new("double[]", min(left, _TRACE_ROWS) * width)
                st.trace_end = buffer + len(buffer)
            st.trace = buffer
            mt = self._mt
            lib.mt_seed(mt, normalize_seed(seed))
            while True:
                status = lib.fc_run(st, mt, _RUN_STEPS)
                if keep and st.trace_left < left:
                    flat = ffi.unpack(buffer, (left - st.trace_left) * width)
                    trace.extend(tuple(flat[i:i + width]) for i in range(0, len(flat), width))
                    left = st.trace_left
                    st.trace = buffer
                if status != lib.FC_PAUSED or (stop is not None and stop.is_set()):
                    break
        return RunRecord(
            seed=seed,
            outcome=SOLVED if status == lib.FC_SOLVED else CUTOFF,
            choice_points=st.choice_points,
            assignment=None,
            trace=trace,
            post_propagation_size=post_prop,
            exhausted=status == lib.FC_EXHAUSTED,
            stats=RunStats(
                backtracks=st.backtracks,
                contradictions=st.contradictions,
                forced_assignments=st.forced_assignments,
                alldiff_prunings=st.alldiff_prunings,
                max_depth=st.max_depth,
            ),
            summary=None if st.trace_left or st.node_visits < 2 else ffi.buffer(self._summary)[:],
        )

    def extract_square(self) -> PartialLatinSquare:
        n = self._st.n
        return PartialLatinSquare.from_flat(n, self._ffi.unpack(self._st.symbol, n * n))


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
    if config is None:
        config = SolverConfig()
    state = KernelState(fc_kernel.for_order(instance.order))
    record = state.run(instance, seed, config, [] if config.trace_enabled else None)
    if record.outcome == SOLVED:
        record.assignment = state.extract_square()
    return record
