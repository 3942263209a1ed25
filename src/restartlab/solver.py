"""Randomized backtracking solver for Latin-square completion.

Variable order follows the Brelaz rule: smallest remaining domain, ties
broken by the number of open cells sharing a line, remaining ties uniformly
at random.  Values are tried in uniformly random order.  Propagation is
either plain forward checking or matching-based alldiff filtering; forced
assignments discovered by propagation never count as choice points, which
makes the choice-point count the unit of measured run time.

Domains are bitmasks (bit s-1 set means symbol s is still possible), and all
search-state mutation goes through a trail so backtracking is O(undone work).
Wherever the C kernel (see fc_kernel) builds and the order is at most 64, the
whole search runs there at either propagation level (KernelState); the
Python SearchState runs it otherwise and serves as the kernel's reference.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

from . import fc_kernel
from .features import REGISTRY, snapshot
from .latin import HOLE, PartialLatinSquare, StructureError, validate
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
    """

    cutoff: Optional[int] = None
    propagation: str = ALLDIFF_REGIN
    horizon: int = 1000
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


_TABLE_CACHE: Dict[int, Tuple[Tuple[Tuple[int, ...], ...], Tuple[Tuple[int, ...], ...]]] = {}


def _tables(n: int):
    """Per-order peer lists and line membership, cached."""
    cached = _TABLE_CACHE.get(n)
    if cached is not None:
        return cached
    peers = []
    for c in range(n * n):
        r, col = divmod(c, n)
        row_mates = [r * n + j for j in range(n) if j != col]
        col_mates = [i * n + col for i in range(n) if i != r]
        peers.append(tuple(row_mates + col_mates))
    line_cells = [tuple(r * n + j for j in range(n)) for r in range(n)]
    line_cells += [tuple(i * n + col for i in range(n)) for col in range(n)]
    out = (tuple(peers), tuple(line_cells))
    _TABLE_CACHE[n] = out
    return out


def _regin_masks(doms: List[int]) -> Optional[List[Tuple[int, int]]]:
    """Alldiff filtering for one line, on bitmask domains.

    Returns None when no system of distinct values exists, otherwise the list
    of (cell position, value bit) pairs supported by no maximum matching.
    A value survives iff its edge is in the matching, lies on an alternating
    path from an unmatched value, or lies on an alternating cycle (same
    strongly connected component).
    """
    k = len(doms)
    cell_of_val: Dict[int, int] = {}
    match_val = [-1] * k

    def augment(u: int, visited: Set[int]) -> bool:
        m = doms[u]
        while m:
            b = m & -m
            m ^= b
            v = b.bit_length() - 1
            if v in visited:
                continue
            visited.add(v)
            w = cell_of_val.get(v)
            if w is None or augment(w, visited):
                match_val[u] = v
                cell_of_val[v] = u
                return True
        return False

    for u in range(k):
        if not augment(u, set()):
            return None

    val_cells: Dict[int, List[int]] = {}
    for u in range(k):
        m = doms[u]
        while m:
            b = m & -m
            m ^= b
            val_cells.setdefault(b.bit_length() - 1, []).append(u)

    # Every node reachable from an unmatched value lies on an alternating path.
    reach_val: Set[int] = set(v for v in val_cells if v not in cell_of_val)
    stack = list(reach_val)
    seen_cell = [False] * k
    while stack:
        v = stack.pop()
        for u in val_cells[v]:
            if match_val[u] != v and not seen_cell[u]:
                seen_cell[u] = True
                mv = match_val[u]
                if mv not in reach_val:
                    reach_val.add(mv)
                    stack.append(mv)

    candidates: List[Tuple[int, int, int]] = []  # (cell, value, bit)
    for u in range(k):
        m = doms[u]
        while m:
            b = m & -m
            m ^= b
            v = b.bit_length() - 1
            if v != match_val[u] and v not in reach_val:
                candidates.append((u, v, b))
    if not candidates:
        return []

    # Tarjan SCC over the value graph: matched edges cell->value, others
    # value->cell.  Node ids: cells 0..k-1, value v as k+v.
    succs: Dict[int, Tuple[int, ...]] = {}
    for u in range(k):
        succs[u] = (k + match_val[u],)
    for v, us in val_cells.items():
        succs[k + v] = tuple(u for u in us if match_val[u] != v)
    index: Dict[int, int] = {}
    low: Dict[int, int] = {}
    on: Set[int] = set()
    order: List[int] = []
    comp: Dict[int, int] = {}
    counter = 0
    ncomp = 0
    for root in succs:
        if root in index:
            continue
        work: List[List[int]] = [[root, 0]]
        while work:
            frame = work[-1]
            node, pi = frame
            if pi == 0:
                index[node] = low[node] = counter
                counter += 1
                order.append(node)
                on.add(node)
            descended = False
            sl = succs[node]
            for i in range(pi, len(sl)):
                w = sl[i]
                if w not in index:
                    frame[1] = i + 1
                    work.append([w, 0])
                    descended = True
                    break
                if w in on and index[w] < low[node]:
                    low[node] = index[w]
            if descended:
                continue
            work.pop()
            if low[node] == index[node]:
                while True:
                    w = order.pop()
                    on.discard(w)
                    comp[w] = ncomp
                    if w == node:
                        break
                ncomp += 1
            if work:
                parent = work[-1][0]
                if low[node] < low[parent]:
                    low[parent] = low[node]

    return [
        (u, b) for (u, v, b) in candidates if comp[u] != comp[k + v]
    ]


def regin_filter(domains: Sequence[Iterable[int]]) -> Optional[List[Set[int]]]:
    """Filter the domains of one all-different line to arc consistency.

    Takes per-cell iterables of candidate symbols (positive ints) and returns
    the filtered domains as sets, or None when the cells cannot take pairwise
    distinct values.  Pure function; the solver uses the same core on its own
    bitmask state.
    """
    doms: List[int] = []
    for d in domains:
        m = 0
        for v in d:
            if not isinstance(v, int) or isinstance(v, bool) or v < 1:
                raise ValueError(f"domain values must be positive ints, got {v!r}")
            m |= 1 << (v - 1)
        if m == 0:
            return None
        doms.append(m)
    if not doms:
        return []
    prunings = _regin_masks(doms)
    if prunings is None:
        return None
    for u, b in prunings:
        doms[u] ^= b
    out: List[Set[int]] = []
    for m in doms:
        s: Set[int] = set()
        while m:
            b = m & -m
            m ^= b
            s.add(b.bit_length())
        out.append(s)
    return out


def _solved_square(n: int, symbols: Sequence[int]) -> PartialLatinSquare:
    """The completed square whose n*n symbols are listed row-major."""
    return PartialLatinSquare(
        order=n, cells=tuple(tuple(symbols[i:i + n]) for i in range(0, n * n, n))
    )


class SearchState:
    """Mutable constraint state for one run in Python: domains, trail, counters.

    Runs the search where the C kernel is unavailable or the order exceeds
    its 64; tests compare KernelState against it.  Both states offer
    unassigned_count, propagate_root (which counts a root contradiction),
    search, stats and extract_square (once solved); solve drives either
    state through these alone.
    """

    def __init__(self, instance: PartialLatinSquare, config: Optional[SolverConfig] = None):
        n = instance.order
        self.n = n
        full = (1 << n) - 1
        size = n * n
        self.domain = [full] * size
        self.symbol = [0] * size
        self.line_unassigned = [0] * (2 * n)
        row_used = [0] * n
        col_used = [0] * n
        holes = []
        for r in range(n):
            for c in range(n):
                v = instance.cells[r][c]
                i = r * n + c
                if v is HOLE:
                    holes.append(i)
                    self.line_unassigned[r] += 1
                    self.line_unassigned[n + c] += 1
                else:
                    bit = 1 << (v - 1)
                    self.symbol[i] = v
                    self.domain[i] = bit
                    row_used[r] |= bit
                    col_used[c] |= bit
        for i in holes:
            r, c = divmod(i, n)
            self.domain[i] = full & ~(row_used[r] | col_used[c])
        self.hole_cells = tuple(holes)
        config = config or SolverConfig()
        self.config = config
        self.regin = config.propagation == ALLDIFF_REGIN
        self.peers, self.line_cells = _tables(n)
        self.unassigned_count = len(self.hole_cells)
        self.trail: List[int] = []  # flat (cell, bits) pairs; ~cell marks an assignment
        self._fq: deque = deque()
        self._dirty: deque = deque()
        self._dirty_flag = [False] * (2 * n)
        # run counters read by feature snapshots
        self.backtracks = 0
        self.contradictions = 0
        self.forced_assignments = 0
        self.alldiff_prunings = 0
        self.depth = 0
        self.max_depth = 0
        self.min_leaf_depth: Optional[int] = None
        self.node_visits = 0
        self.node_depth_sum = 0

    def stats(self) -> RunStats:
        return RunStats(
            backtracks=self.backtracks,
            contradictions=self.contradictions,
            forced_assignments=self.forced_assignments,
            alldiff_prunings=self.alldiff_prunings,
            max_depth=self.max_depth,
        )

    def extract_square(self) -> PartialLatinSquare:
        return _solved_square(self.n, self.symbol)

    # -- mutation ---------------------------------------------------------

    def _mark_dirty(self, line: int) -> None:
        if not self._dirty_flag[line]:
            self._dirty_flag[line] = True
            self._dirty.append(line)

    def _clear_dirty(self) -> None:
        flag = self._dirty_flag
        while self._dirty:
            flag[self._dirty.popleft()] = False

    def _assign(self, c: int, s: int) -> None:
        trail = self.trail
        trail.append(~c)
        trail.append(self.domain[c])
        self.domain[c] = 1 << (s - 1)
        self.symbol[c] = s
        self.unassigned_count -= 1
        n = self.n
        r = c // n
        col = n + c % n
        lu = self.line_unassigned
        lu[r] -= 1
        lu[col] -= 1
        if self.regin:
            self._mark_dirty(r)
            self._mark_dirty(col)

    def branch(self, c: int, s: int) -> bool:
        """Assign s to c and propagate to a fixpoint; False on contradiction."""
        self._clear_dirty()
        self._assign(c, s)
        fq = self._fq
        fq.clear()
        fq.append(c)
        return self._propagate(fq)

    def undo_to(self, mark: int) -> None:
        trail = self.trail
        domain = self.domain
        symbol = self.symbol
        lu = self.line_unassigned
        n = self.n
        while len(trail) > mark:
            bits = trail.pop()
            c = trail.pop()
            if c >= 0:
                domain[c] |= bits
            else:
                c = ~c
                symbol[c] = 0
                domain[c] = bits
                self.unassigned_count += 1
                lu[c // n] += 1
                lu[n + c % n] += 1

    # -- propagation ------------------------------------------------------

    def propagate_root(self) -> bool:
        """Propagate the given cells to a fixpoint; on contradiction count it
        and return False."""
        fq = self._fq
        fq.clear()
        self._clear_dirty()
        for c in self.hole_cells:
            if self.symbol[c] == 0:
                d = self.domain[c]
                if d == 0:
                    self.contradictions += 1
                    return False
                if d & (d - 1) == 0:
                    self._assign(c, d.bit_length())
                    self.forced_assignments += 1
                    fq.append(c)
        if self.regin:
            for line in range(2 * self.n):
                self._mark_dirty(line)
        if self._propagate(fq):
            return True
        self.contradictions += 1
        return False

    def _propagate(self, fq: deque) -> bool:
        """Forward-check queued assignments, then filter dirty lines, to fixpoint."""
        domain = self.domain
        symbol = self.symbol
        peers = self.peers
        trail = self.trail
        regin = self.regin
        while True:
            while fq:
                c = fq.popleft()
                s = symbol[c]
                bit = 1 << (s - 1)
                for p in peers[c]:
                    ps = symbol[p]
                    if ps == s:
                        return False
                    if ps == 0:
                        d = domain[p]
                        if d & bit:
                            d ^= bit
                            domain[p] = d
                            trail.append(p)
                            trail.append(bit)
                            if d == 0:
                                return False
                            if regin:
                                n = self.n
                                self._mark_dirty(p // n)
                                self._mark_dirty(n + p % n)
                            if d & (d - 1) == 0:
                                self._assign(p, d.bit_length())
                                self.forced_assignments += 1
                                fq.append(p)
            if not regin or not self._dirty:
                return True
            line = self._dirty.popleft()
            self._dirty_flag[line] = False
            if not self._filter_line(line, fq):
                return False

    def _filter_line(self, line: int, fq: deque) -> bool:
        symbol = self.symbol
        cells = [c for c in self.line_cells[line] if symbol[c] == 0]
        if len(cells) <= 1:
            return True
        domain = self.domain
        doms = [domain[c] for c in cells]
        prunings = _regin_masks(doms)
        if prunings is None:
            return False
        if not prunings:
            return True
        n = self.n
        trail = self.trail
        for pos, bit in prunings:
            c = cells[pos]
            d = domain[c] ^ bit
            domain[c] = d
            trail.append(c)
            trail.append(bit)
            self.alldiff_prunings += 1
            other = n + c % n if line < n else c // n
            self._mark_dirty(other)
            if d & (d - 1) == 0:
                self._assign(c, d.bit_length())
                self.forced_assignments += 1
                fq.append(c)
        return True

    # -- branching --------------------------------------------------------

    def domain_values(self, c: int) -> List[int]:
        out = []
        m = self.domain[c]
        while m:
            b = m & -m
            m ^= b
            out.append(b.bit_length())
        return out

    def select_cell(self, rng: random.Random) -> int:
        """Brelaz cell choice: min domain, then max degree, then random."""
        symbol = self.symbol
        domain = self.domain
        best = self.n + 2
        ties: List[int] = []
        for c in self.hole_cells:
            if symbol[c] == 0:
                d = domain[c].bit_count()
                if d < best:
                    best = d
                    ties = [c]
                elif d == best:
                    ties.append(c)
        if not ties:
            raise RuntimeError("select_cell called with no open cells")
        if len(ties) == 1:
            return ties[0]
        n = self.n
        lu = self.line_unassigned
        bestdeg = -1
        ties2: List[int] = []
        for c in ties:
            deg = lu[c // n] + lu[n + c % n] - 2
            if deg > bestdeg:
                bestdeg = deg
                ties2 = [c]
            elif deg == bestdeg:
                ties2.append(c)
        if len(ties2) == 1:
            return ties2[0]
        return ties2[rng.randrange(len(ties2))]

    def search(
        self, seed: int, config: SolverConfig, trace: Optional[List]
    ) -> Tuple[str, int, bool]:
        """Depth-first search from the root-propagated state, which has open
        cells, drawing from random.Random(seed); returns (outcome, choice
        points, exhausted).  Appends one snapshot per choice point to trace,
        if given, up to the horizon."""
        rng = random.Random(seed)
        cutoff = config.cutoff
        horizon = config.horizon
        trail = self.trail
        choice_points = 0
        frames: List[List] = []  # [cell, shuffled values, value index, trail mark]
        new_node = True
        while True:
            if new_node:
                cell = self.select_cell(rng)
                values = self.domain_values(cell)
                rng.shuffle(values)
                frames.append([cell, values, 0, 0])
            f = frames[-1]
            if cutoff is not None and choice_points >= cutoff:
                return CUTOFF, choice_points, False
            choice_points += 1
            self.depth = len(frames) - 1
            if trace is not None and len(trace) < horizon:
                self.node_visits += 1
                self.node_depth_sum += self.depth
                trace.append(snapshot(self))
            if len(frames) > self.max_depth:
                self.max_depth = len(frames)
            f[3] = len(trail)
            if self.branch(f[0], f[1][f[2]]):
                if self.unassigned_count == 0:
                    return SOLVED, choice_points, False
                new_node = True
                continue
            self.contradictions += 1
            leaf_depth = len(frames)
            if self.min_leaf_depth is None or leaf_depth < self.min_leaf_depth:
                self.min_leaf_depth = leaf_depth
            self.undo_to(f[3])
            self.backtracks += 1
            f[2] += 1
            while f[2] >= len(f[1]):
                frames.pop()
                if not frames:
                    return CUTOFF, choice_points, True
                f = frames[-1]
                self.undo_to(f[3])
                self.backtracks += 1
                f[2] += 1
            new_node = False


class KernelState:
    """Search state held and mutated by the C kernel (fc_kernel), at either
    propagation level: fc_init sets it up from the instance's symbols and
    fc_run executes the whole search, writing the traced feature rows itself.
    Every buffer is allocated here and freed with this object.
    """

    def __init__(self, instance: PartialLatinSquare, config: SolverConfig, kernel) -> None:
        ffi = self._ffi = kernel.ffi
        self._lib = kernel.lib
        n = self.n = instance.order
        symbols = [0 if v is HOLE else v for row in instance.cells for v in row]
        holes = symbols.count(0)
        # A live trail holds at most n prunings plus one assignment per hole.
        trail = holes * (n + 1)
        self._buffers = (
            ffi.new("int[]", symbols),
            ffi.new("uint64_t[]", n * n),
            ffi.new("int[]", 2 * n),
            ffi.new("int[]", holes),
            ffi.new("int[]", trail),
            ffi.new("uint64_t[]", trail),
            ffi.new("int[]", holes + 1),
            ffi.new("int[]", 2 * n),
            ffi.new("int[]", 2 * n),
            ffi.new("fc_frame[]", holes),
        )
        st = self._st = ffi.new("fc_state *")
        (st.symbol, st.domain, st.line_unassigned, st.hole_cells, st.trail_cell,
         st.trail_bits, st.queue, st.dirty, st.dirty_flag, st.frames) = self._buffers
        st.n = n
        st.regin = config.propagation == ALLDIFF_REGIN
        st.min_leaf_depth = -1
        self._lib.fc_init(st)

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

    def extract_square(self) -> PartialLatinSquare:
        return _solved_square(self.n, self._ffi.unpack(self._st.symbol, self.n * self.n))

    def propagate_root(self) -> bool:
        return bool(self._lib.fc_propagate_root(self._st))

    def search(
        self, seed: int, config: SolverConfig, trace: Optional[List]
    ) -> Tuple[str, int, bool]:
        """SearchState.search in the kernel, on a Mersenne Twister seeded as
        random.Random(seed).  fc_run writes the traced rows into a buffer of
        at most _TRACE_ROWS rows, which is emptied into trace whenever it
        returns, and returns after every _RUN_STEPS units of work so that
        Ctrl-C is handled."""
        ffi = self._ffi
        lib = self._lib
        st = self._st
        st.cutoff = -1 if config.cutoff is None else config.cutoff
        st.new_node = 1
        if trace is not None:
            width = len(REGISTRY)
            # Rows still to trace when the buffer was last emptied.
            left = config.horizon if config.cutoff is None else min(config.horizon, config.cutoff)
            buffer = ffi.new("double[]", min(left, _TRACE_ROWS) * width)
            st.trace = buffer
            st.trace_end = buffer + len(buffer)
            st.trace_left = left
        mt = ffi.new("mt_state *")
        lib.mt_seed(mt, seed)
        while True:
            status = lib.fc_run(st, mt, _RUN_STEPS)
            if trace is not None and st.trace_left < left:
                flat = ffi.unpack(buffer, (left - st.trace_left) * width)
                trace.extend(tuple(flat[i:i + width]) for i in range(0, len(flat), width))
                left = st.trace_left
                st.trace = buffer
            if status != lib.FC_PAUSED:
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


def _new_state(
    instance: PartialLatinSquare, config: SolverConfig
) -> Union[KernelState, SearchState]:
    """The C kernel's state where it loads and serves the order, else Python's."""
    if instance.order <= fc_kernel.MAX_ORDER:
        kernel, _ = fc_kernel.load()
        if kernel is not None:
            return KernelState(instance, config, kernel)
    return SearchState(instance, config)


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
    to the horizon and never alters the search trajectory.
    """
    if config is None:
        config = SolverConfig()
    if validate(instance):
        raise StructureError("instance violates the Latin property")
    state = _new_state(instance, config)
    trace: Optional[List[Tuple[float, ...]]] = [] if config.trace_enabled else None
    ok = state.propagate_root()
    post_prop = state.unassigned_count
    if not ok:
        outcome, choice_points, exhausted = CUTOFF, 0, True
    elif post_prop == 0:
        outcome, choice_points, exhausted = SOLVED, 0, False
    else:
        outcome, choice_points, exhausted = state.search(normalize_seed(seed), config, trace)
    return RunRecord(
        seed=seed,
        outcome=outcome,
        choice_points=choice_points,
        assignment=state.extract_square() if outcome == SOLVED else None,
        trace=trace,
        post_propagation_size=post_prop,
        exhausted=exhausted,
        stats=state.stats(),
    )
