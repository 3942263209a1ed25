"""Python references for the C kernel's jobs, which the tests compare it with.

The package runs its Latin check, its solver search, its Regin line filter,
its square fill, its balanced hole pattern and the rounds of its policy
simulation in the C kernel only (see restartlab.fc_kernel).  This module
keeps a plain Python implementation of each, step for step, as the oracle of
the identity tests: validate (the Latin check of the kernel's fc_init),
SearchState and solve (solver.solve on the Python state), _regin_masks (the
Regin oracle: the kernel's regin_prunings, which every alldiff line
filtering runs), snapshot and population_variance (the traced row the
kernel's trace_row must match), fill_square and balanced_holes (latin's two
generators), the exhaustive iter_completions and count_completions, luby_term
(the kernel's Luby terms), and simulate (policy.simulate_policy as a numpy
round loop that draws every round, where the kernel skips the draws of
rounds no run can win).  regin_filter is the tests' way into the kernel's
filter on one line (fc_regin_filter), with symbol sets in and out.

It also keeps the learner's score and split search one feature at a time:
leaf_log_marginal and tree_score (the score that learn's table lookups
reproduce), _split_gains, and best_split, the oracle of learn._best_split,
which scores every feature of a leaf in one pass over its presorted rows;
and the per-kappa growth, _grow_trees with its _best_splits: one tree per
kappa, each leaf's split chosen by the float gain plus ln kappa.
restartlab.learn grows one tree and cuts each kappa's tree from it by split
gain, which must give the same trees.
"""

from __future__ import annotations

import math
import random
from collections import Counter, deque
from typing import (
    Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Set, Tuple,
)

import numpy as np

from restartlab import fc_kernel, latin
from restartlab.features import summarize
from restartlab.latin import HOLE, PartialLatinSquare, StructureError
from restartlab.learn import (
    MAX_SPLIT_CANDIDATES,
    Dataset,
    DecisionTreeModel,
    TreeNode,
    _leaf_log_marginals,
    _log_factorials,
    predict_batch,
)
from restartlab.policy import (
    UNBOUNDED,
    DynamicPolicy,
    FixedPolicy,
    LubyPolicy,
    ModelPredictor,
    PolicyStats,
    SyntheticPredictor,
)
from restartlab.seeds import derive_seed, normalize_seed
from restartlab.solver import (
    ALLDIFF_REGIN,
    CUTOFF,
    SOLVED,
    RunRecord,
    RunStats,
    SolverConfig,
)

# -- the Latin property -----------------------------------------------------


class Violation(NamedTuple):
    """One Latin-property violation: a symbol repeated within a line."""

    kind: str  # "row" or "column"
    index: int
    symbol: int


def validate(square: PartialLatinSquare) -> List[Violation]:
    """Return every duplicated (line, symbol) pair; empty list means valid.

    Holes are ignored.  The oracle of the kernel's fc_init, which refuses an
    instance with a repeated symbol as each run starts.
    """
    out: List[Violation] = []
    for kind, lines in (("row", square.cells), ("column", zip(*square.cells))):
        for index, line in enumerate(lines):
            seen = Counter(v for v in line if v is not HOLE)
            out.extend(Violation(kind, index, v) for v, k in sorted(seen.items()) if k > 1)
    return out


# -- the solver search ------------------------------------------------------

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
    """The kernel's Regin filter, fc_regin_filter, on one line: per-cell sets
    of symbols 1..64 for at most 64 cells in, the filtered sets out, or None
    when the cells cannot take pairwise distinct values.  Checks nothing."""
    doms = [sum(1 << (v - 1) for v in set(d)) for d in domains]
    if 0 in doms:
        return None
    kernel = fc_kernel.load()
    prunings = kernel.ffi.new("uint64_t[]", len(doms))
    if not kernel.lib.fc_regin_filter(doms, len(doms), prunings):
        return None
    return [set(latin._bits_to_symbols(m ^ p)) for m, p in zip(doms, prunings)]


class SearchState:
    """Mutable constraint state for one run in Python: domains, trail, counters.

    The reference for solver.KernelState.run: solve below makes one run
    through unassigned_count, propagate_root (which counts a root
    contradiction), search and stats, the steps KernelState.run takes in
    the kernel, and builds the square with extract_square once solved, as
    solver.solve does.
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
        return PartialLatinSquare.from_flat(self.n, self.symbol)

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


def solve(
    instance: PartialLatinSquare,
    config: Optional[SolverConfig] = None,
    seed: int = 0,
) -> RunRecord:
    """solver.solve with the search on SearchState, for any order; the
    record's summary is features.summarize's of the trace."""
    if config is None:
        config = SolverConfig()
    if validate(instance):
        raise StructureError("instance violates the Latin property")
    state = SearchState(instance, config)
    trace: Optional[List[Tuple[float, ...]]] = [] if config.trace_enabled else None
    ok = state.propagate_root()
    post_prop = state.unassigned_count
    if not ok:
        outcome, choice_points, exhausted = CUTOFF, 0, True
    elif post_prop == 0:
        outcome, choice_points, exhausted = SOLVED, 0, False
    else:
        outcome, choice_points, exhausted = state.search(normalize_seed(seed), config, trace)
    due = config.horizon if config.cutoff is None else min(config.horizon, config.cutoff)
    summary = None
    if trace is not None and len(trace) == due >= 2:
        summary = summarize(trace, config.horizon).values.tobytes()
    return RunRecord(
        seed=seed,
        outcome=outcome,
        choice_points=choice_points,
        assignment=state.extract_square() if outcome == SOLVED else None,
        trace=trace,
        post_propagation_size=post_prop,
        exhausted=exhausted,
        stats=state.stats(),
        summary=summary,
    )


# -- the traced feature row -------------------------------------------------


def snapshot(state) -> Tuple[float, ...]:
    """The base feature vector, in features.REGISTRY order, off a live state.

    Called by SearchState once per choice point, after propagation and
    before the branch assignment; the state object must expose its public
    counters.  The C kernel writes the same row, float for float, in
    trace_row of _fc_kernel.c, so the two must change together.
    """
    n = state.n
    symbol = state.symbol
    domain = state.domain
    open_cells = 0
    total_dom = 0
    min_dom = n + 1
    for c in state.hole_cells:
        if symbol[c] == 0:
            d = domain[c].bit_count()
            open_cells += 1
            total_dom += d
            if d < min_dom:
                min_dom = d
    if open_cells:
        avg_dom = total_dom / open_cells
    else:
        avg_dom = 0.0
        min_dom = 0
    depth = state.depth
    if state.min_leaf_depth is None:
        min_leaf = depth
    else:
        min_leaf = state.min_leaf_depth
    if state.node_visits:
        avg_node_depth = state.node_depth_sum / state.node_visits
    else:
        avg_node_depth = float(depth)
    return (
        float(state.backtracks),
        float(depth),
        float(state.max_depth),
        float(min_leaf),
        float(avg_node_depth),
        float(open_cells),
        float(avg_dom),
        float(min_dom),
        float(total_dom),
        population_variance(state.line_unassigned),
        open_cells / n,
        float(state.forced_assignments),
        float(state.alldiff_prunings),
        float(state.contradictions),
    )


def population_variance(xs: Sequence[int]) -> float:
    """Population variance of integer counts, the same float on every Python.

    The squared deviations are added left to right from 0.0; sum() would
    not do, since Python 3.12 sums floats with compensation.  The C kernel
    computes the same steps (line_variance in _fc_kernel.c).
    """
    m = len(xs)
    if m == 0:
        return 0.0
    mean = sum(xs) / m  # an exact integer sum
    total = 0.0
    for x in xs:
        total += (x - mean) ** 2
    return total / m


# -- the instance generators ------------------------------------------------


def fill_square(n: int, rng: random.Random) -> List[int]:
    """latin._fill_square in Python: row-major symbols of a complete order-n
    Latin square drawn from rng."""
    size = n * n
    full = (1 << n) - 1
    row_used = [0] * n
    col_used = [0] * n
    flat = [0] * size
    stack: List[List[int]] = []  # remaining candidates per filled prefix cell
    i = 0
    while i < size:
        r, c = divmod(i, n)
        if len(stack) == i:
            avail = full & ~(row_used[r] | col_used[c])
            cands = latin._bits_to_symbols(avail)
            rng.shuffle(cands)
            stack.append(cands)
        cands = stack[i]
        if cands:
            s = cands.pop()
            flat[i] = s
            bit = 1 << (s - 1)
            row_used[r] |= bit
            col_used[c] |= bit
            i += 1
        else:
            stack.pop()
            i -= 1
            if i < 0:
                raise RuntimeError("backtracked past the first cell")
            r, c = divmod(i, n)
            bit = 1 << (flat[i] - 1)
            row_used[r] &= ~bit
            col_used[c] &= ~bit
    return flat


def balanced_holes(n: int, h: int, rng: random.Random) -> List[int]:
    """latin._balanced_holes in Python: row masks of h pairwise-disjoint
    random permutation matrices, each drawn by rejection, the pattern
    restarted after latin._PATTERN_RETRIES failed draws for one slot (h of
    0, n-1 and n drawn directly)."""
    full = (1 << n) - 1
    if h == 0:
        return [0] * n
    if h == n:
        return [full] * n
    if h == n - 1:
        keep = list(range(n))
        rng.shuffle(keep)
        return [full ^ 1 << c for c in keep]
    while True:
        masks = [0] * n
        for _ in range(h):
            for _ in range(latin._PATTERN_RETRIES):
                p = list(range(n))
                rng.shuffle(p)
                if not any(m >> c & 1 for m, c in zip(masks, p)):
                    masks = [m | 1 << c for m, c in zip(masks, p)]
                    break
            else:
                break  # this slot ran out of draws: start a new pattern
        else:
            return masks


# -- completions ------------------------------------------------------------


def iter_completions(instance: PartialLatinSquare) -> Iterator[PartialLatinSquare]:
    """Yield every completion of the instance, by exhaustive search.

    Plain depth-first enumeration: holes in row-major order, symbols in
    ascending order, row/column consistency checks only.  Intended as an
    oracle for small orders, not as a solver.
    """
    if validate(instance):
        raise StructureError("instance violates the Latin property")
    n = instance.order
    full = (1 << n) - 1
    row_used = [0] * n
    col_used = [0] * n
    flat: List[int] = [0] * (n * n)
    holes: List[Tuple[int, int]] = []
    for r in range(n):
        for c in range(n):
            v = instance.cells[r][c]
            if v is HOLE:
                holes.append((r, c))
            else:
                flat[r * n + c] = v
                bit = 1 << (v - 1)
                row_used[r] |= bit
                col_used[c] |= bit
    m = len(holes)
    if m == 0:
        yield instance
        return
    # stack[d] = remaining candidate mask for hole d
    stack: List[int] = [0] * m
    d = 0
    stack[0] = full & ~(row_used[holes[0][0]] | col_used[holes[0][1]])
    placed: List[int] = [0] * m  # bit placed at depth d
    while d >= 0:
        r, c = holes[d]
        if placed[d]:
            bit = placed[d]
            row_used[r] &= ~bit
            col_used[c] &= ~bit
            placed[d] = 0
        mask = stack[d]
        if mask == 0:
            d -= 1
            continue
        bit = mask & -mask  # lowest symbol first
        stack[d] = mask ^ bit
        placed[d] = bit
        row_used[r] |= bit
        col_used[c] |= bit
        flat[r * n + c] = bit.bit_length()
        if d == m - 1:
            yield PartialLatinSquare(
                order=n,
                cells=tuple(tuple(flat[i * n + j] for j in range(n)) for i in range(n)),
            )
            # undo happens at loop top on revisit
        else:
            d += 1
            nr, nc = holes[d]
            stack[d] = full & ~(row_used[nr] | col_used[nc])
    return


def count_completions(instance: PartialLatinSquare, cap: int = 1_000_000) -> int:
    """Count completions of the instance, truncated at cap."""
    if cap < 0:
        raise StructureError(f"cap must be >= 0, got {cap}")
    count = 0
    for _ in iter_completions(instance):
        count += 1
        if count >= cap:
            break
    return count


# -- the tree score, the split search and the per-kappa tree growth --------


def leaf_log_marginal(n_short: int, n_long: int) -> float:
    """ln of the marginal likelihood of one leaf under a uniform rate prior.

    Equals ln(n_short! * n_long! / (n_short + n_long + 1)!).
    """
    if n_short < 0 or n_long < 0:
        raise ValueError("counts must be non-negative")
    return (
        math.lgamma(n_short + 1)
        + math.lgamma(n_long + 1)
        - math.lgamma(n_short + n_long + 2)
    )


def tree_score(root: TreeNode, kappa: float) -> float:
    """Score from the counts stored in the tree: leaf marginals + leaves*ln(kappa)."""
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    total = 0.0
    n_leaves = 0
    for leaf in root.leaves():
        total += leaf_log_marginal(leaf.n_short, leaf.n_long)
        n_leaves += 1
    return total + n_leaves * math.log(kappa)


def _split_gains(
    X: np.ndarray,
    y: np.ndarray,
    rows: np.ndarray,
    log_fact: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Kappa-free gains, (left + right) - base, and thresholds of every split
    candidate of one leaf, features x MAX_SPLIT_CANDIDATES, -inf in the
    unused slots; one feature at a time.

    Candidate thresholds are midpoints between consecutive distinct sorted
    values a < b, or a where the midpoint rounds up to b, thinned to at most
    MAX_SPLIT_CANDIDATES by rank spacing.
    """
    ns_total = int(y[rows].sum())
    nl_total = rows.size - ns_total
    base = _leaf_log_marginals(log_fact, ns_total, nl_total)
    raw = np.full((X.shape[1], MAX_SPLIT_CANDIDATES), -np.inf)
    thresholds = np.zeros_like(raw)
    for j in range(X.shape[1]):
        v = X[rows, j]
        order = np.argsort(v, kind="stable")
        sv = v[order]
        sy = y[rows][order]
        boundaries = np.nonzero(sv[1:] != sv[:-1])[0]
        if boundaries.size == 0:
            continue
        if boundaries.size > MAX_SPLIT_CANDIDATES:
            pick = np.unique(
                np.round(
                    np.linspace(0, boundaries.size - 1, MAX_SPLIT_CANDIDATES)
                ).astype(int)
            )
            boundaries = boundaries[pick]
        below, above = sv[boundaries], sv[boundaries + 1]
        mid = (below + above) / 2.0
        thresholds[j, :boundaries.size] = np.where(mid < above, mid, below)
        cum_short = np.cumsum(sy)
        left_n = boundaries + 1
        left_s = cum_short[boundaries]
        left_l = left_n - left_s
        right_s = ns_total - left_s
        right_l = nl_total - left_l
        raw[j, :boundaries.size] = (
            _leaf_log_marginals(log_fact, left_s, left_l)
            + _leaf_log_marginals(log_fact, right_s, right_l)
            - base
        )
    return raw, thresholds


def best_split(
    X: np.ndarray,
    y: np.ndarray,
    rows: np.ndarray,
    log_fact: np.ndarray,
) -> Tuple[float, int, float]:
    """learn._best_split one feature at a time: the best (gain, feature,
    threshold) of one leaf, ties toward the lowest feature, then the lowest
    threshold; gain -inf where there is no candidate."""
    raw, thresholds = _split_gains(X, y, rows, log_fact)
    if not raw.size:
        return -math.inf, 0, 0.0
    i = int(np.argmax(raw))  # first max: lowest feature, then lowest threshold
    return float(raw.flat[i]), i // MAX_SPLIT_CANDIDATES, float(thresholds.flat[i])


def _best_splits(
    X: np.ndarray,
    y: np.ndarray,
    rows: np.ndarray,
    ln_kappas: Sequence[float],
    log_fact: np.ndarray,
) -> List[Optional[Tuple[float, int, float]]]:
    """Best (gain, feature, threshold) of one leaf for each ln kappa, or None
    where no split has a positive gain.

    Ties are broken toward the lowest feature index, then the lowest
    threshold.  The candidates and their kappa-free gains are computed once
    (_split_gains); a kappa's gain adds ln kappa to that float.
    """
    raw, thresholds = _split_gains(X, y, rows, log_fact)
    out: List[Optional[Tuple[float, int, float]]] = []
    for ln_kappa in ln_kappas:
        if not raw.size:  # no feature to split on
            out.append(None)
            continue
        gains = (raw + ln_kappa).ravel()
        i = int(np.argmax(gains))  # first max: lowest feature, then lowest threshold
        g = float(gains[i])
        out.append((g, i // MAX_SPLIT_CANDIDATES, float(thresholds.flat[i])) if g > 0 else None)
    return out


def _grow_trees(
    X: np.ndarray,
    y: np.ndarray,
    kappas: Sequence[float],
    columns: Optional[Sequence[str]] = None,
) -> List[DecisionTreeModel]:
    """grow_tree for each kappa on the same rows.  The trees share most of
    their leaves, so each distinct leaf's best splits are found once, for
    every kappa together."""
    if any(kappa <= 0 for kappa in kappas):
        raise ValueError("kappa must be positive")
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=bool)
    if X.ndim != 2 or X.shape[0] != y.shape[0]:
        raise ValueError("X must be (rows, features) aligned with y")
    if columns is None:
        columns = [f"f{j}" for j in range(X.shape[1])]
    columns = list(columns)
    if len(columns) != X.shape[1]:
        raise ValueError("column names must match feature count")
    ln_kappas = [math.log(kappa) for kappa in kappas]
    log_fact = _log_factorials(X.shape[0] + 1)
    splits: Dict[bytes, List[Optional[Tuple[float, int, float]]]] = {}

    def best_splits(rows: np.ndarray) -> List[Optional[Tuple[float, int, float]]]:
        key = rows.tobytes()  # a leaf's rows, ascending
        if key not in splits:
            splits[key] = _best_splits(X, y, rows, ln_kappas, log_fact)
        return splits[key]

    all_rows = np.arange(X.shape[0])
    models = []
    for k, kappa in enumerate(kappas):
        root = TreeNode(n_short=int(y.sum()), n_long=int(X.shape[0] - y.sum()))
        # leaf work list: (node, rows, best split or None)
        leaves: List[List] = [[root, all_rows, best_splits(all_rows)[k]]]
        while True:
            best_i = -1
            best_gain = 0.0
            best_entry = None
            for i, entry in enumerate(leaves):
                cand = entry[2]
                if cand is None:
                    continue
                gain, j, theta = cand
                better = gain > best_gain
                if not better and best_entry is not None and gain == best_gain:
                    bj, btheta = best_entry[1], best_entry[2]
                    better = (j, theta) < (bj, btheta)
                if better:
                    best_i = i
                    best_gain = gain
                    best_entry = cand
            if best_i < 0:
                break
            node, rows, (_, j, theta) = leaves[best_i][0], leaves[best_i][1], best_entry
            mask = X[rows, j] <= theta
            lrows = rows[mask]
            rrows = rows[~mask]
            node.feature = j
            node.threshold = theta
            node.left = TreeNode(n_short=int(y[lrows].sum()), n_long=int(lrows.size - y[lrows].sum()))
            node.right = TreeNode(n_short=int(y[rrows].sum()), n_long=int(rrows.size - y[rrows].sum()))
            leaves[best_i] = [node.left, lrows, best_splits(lrows)[k]]
            leaves.append([node.right, rrows, best_splits(rrows)[k]])
        models.append(DecisionTreeModel(root=root, columns=list(columns), kappa=kappa))
    return models


# -- the policy rounds -------------------------------------------------------


class Rows(NamedTuple):
    """Rows of a dataset, by index: the features of the drawn runs."""

    dataset: Dataset
    index: np.ndarray


def sample(runs, rng: np.random.Generator, size: int):
    """One run per active trial: the drawn run lengths, and the drawn Rows
    of the runs' dataset (None without one)."""
    idx = rng.integers(0, runs.size, size=size)
    return runs.lengths[idx], None if runs.dataset is None else Rows(runs.dataset, idx)


def luby_term(i: int) -> int:
    """The i-th term (1-based) of the Luby restart sequence 1,1,2,1,1,2,4,..."""
    if i < 1:
        raise ValueError(f"index must be >= 1, got {i}")
    while True:
        k = i.bit_length()
        if i == (1 << k) - 1:
            return 1 << (k - 1)
        i = i - (1 << (k - 1)) + 1


def round_cutoff(policy, round_no: int) -> Optional[int]:
    """The step count every run of the round is killed at, or None when the
    policy decides run by run."""
    if isinstance(policy, FixedPolicy):
        return policy.cutoff
    if isinstance(policy, LubyPolicy):
        return policy.scale * luby_term(round_no)
    return None


def predict_short(predictor, lengths: np.ndarray, rows: Optional[Rows], limit: float,
                  rng: np.random.Generator) -> np.ndarray:
    """The predictor's SHORT call on each drawn run."""
    if isinstance(predictor, SyntheticPredictor):
        truth = lengths <= limit
        flip = rng.random(lengths.size) >= predictor.accuracy
        return truth ^ flip
    assert isinstance(predictor, ModelPredictor)
    if rows is None:
        raise ValueError("these runs carry no features to predict from")
    return predict_batch(predictor.model, rows.dataset.X[rows.index]) > 0.5


def step(policy, lengths: np.ndarray, rows: Optional[Rows], round_no: int,
         rng: np.random.Generator):
    """(cost, success) of one round of runs, one per active trial."""
    if not isinstance(policy, DynamicPolicy):
        cutoff = round_cutoff(policy, round_no)
        return np.minimum(lengths, cutoff), lengths <= cutoff
    done_early = lengths <= policy.observe
    pred_short = predict_short(policy.predictor, lengths, rows, policy.limit, rng)
    go_on = done_early | pred_short
    capped = (
        lengths.astype(float)
        if math.isinf(policy.limit)
        else np.minimum(lengths, policy.limit)
    )
    cost = np.where(go_on, capped, float(policy.observe))
    return cost, done_early | (pred_short & (lengths <= policy.limit))


def price_rounds(source, policy, rng: np.random.Generator, trials: int,
                 run_budget: int = 1_000_000, rounds: Optional[List] = None):
    """(total_cost, total_runs, unbounded) of the plain round loop: every
    round draws its runs, gathers, caps and scatter-adds over every active
    trial, then compacts the active set.  rounds, when given, receives the
    (round number, active trials) of every round."""
    total_cost = np.zeros(trials, dtype=float)
    total_runs = np.zeros(trials, dtype=np.int64)
    active = np.arange(trials)
    round_no = 0
    while active.size:
        round_no += 1
        if round_no > run_budget:
            return total_cost, total_runs, True
        if rounds is not None:
            rounds.append((round_no, active.size))
        lengths, rows = sample(source, rng, active.size)
        cost, success = step(policy, lengths, rows, round_no, rng)
        total_cost[active] += cost
        total_runs[active] += 1
        active = active[~success]
    return total_cost, total_runs, False


def simulate(source, policy, trials: int, master_seed: int, run_budget: int = 1_000_000,
             percentiles: Sequence[int] = (50, 90, 99), rounds: Optional[List] = None):
    """simulate_policy on price_rounds, one percentile at a time."""
    rng = np.random.default_rng(derive_seed(master_seed, "policy", policy.describe()))
    analytic = policy.analytic(source)
    unbounded = analytic.success_probability == 0.0
    if not unbounded:
        total_cost, total_runs, unbounded = price_rounds(
            source, policy, rng, trials, run_budget, rounds)
    if unbounded:
        mc_mean = mc_se = mean_runs = se_runs = UNBOUNDED
        pct = {f"p{p}": UNBOUNDED for p in percentiles}
    else:
        mc_mean = float(total_cost.mean())
        mc_se = float(total_cost.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
        mean_runs = float(total_runs.mean())
        se_runs = float(total_runs.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
        pct = {f"p{p}": float(np.percentile(total_cost, p)) for p in percentiles}
    return PolicyStats(
        policy=policy.describe(), trials=trials,
        expected_runs=analytic.expected_runs, expected_steps=analytic.expected_steps,
        mc_mean_cost=mc_mean, mc_se_cost=mc_se, mc_mean_runs=mean_runs,
        mc_se_runs=se_runs, percentiles=pct, unbounded=unbounded,
    )
