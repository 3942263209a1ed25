"""The C kernel's search: identity with the Python reference state
(tests/reference.py) at both propagation levels, the orders and builds it
refuses, and building the kernel once into a shared cache."""

import os
import random
import re
import shutil
import subprocess
import sys
import sysconfig
import textwrap
import threading
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from restartlab import fc_kernel, harness, latin, learn, policy, solver
from restartlab.features import summarize
from restartlab.io import read_instance
from restartlab.latin import (
    BALANCED,
    HOLE,
    HoleSpec,
    PartialLatinSquare,
    StructureError,
    generate_complete,
    poke_holes,
)
from restartlab.seeds import derive_seed
from restartlab.solver import (
    ALLDIFF_REGIN,
    CUTOFF,
    FORWARD_CHECK,
    SOLVED,
    KernelState,
    SolverConfig,
    solve,
)

import reference
from reference import validate

SRC = Path(solver.__file__).resolve().parent.parent


def desk_instance():
    square = generate_complete(18, derive_seed(81, "instance"))
    return poke_holes(square, HoleSpec(mode=BALANCED, holes_per_line=7), derive_seed(81, "mask"))


def multi_alldiff_instances():
    """The 48 instances of the multi-alldiff benchmark workload (order 20,
    8 holes per line, seed 81)."""
    out = []
    for i in range(48):
        square = generate_complete(20, derive_seed(81, "inst", i))
        out.append(poke_holes(square, HoleSpec.balanced(8), derive_seed(81, "mask", i)))
    return out


def run_on_a_fresh_state(instance, config, seed):
    """The record of solve's run, before it builds the solved square."""
    state = KernelState(fc_kernel.for_order(instance.order))
    return state.run(instance, seed, config, [] if config.trace_enabled else None)


@st.composite
def instances(draw, min_order=3, max_order=10):
    """Orders 3-10 by default: holes poked into a complete square (always
    completable), or symbols scattered without a Latin conflict (often not
    completable)."""
    n = draw(st.integers(min_order, max_order))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        cells = [list(row) for row in generate_complete(n, rng.randrange(2**32)).cells]
        for i in rng.sample(range(n * n), draw(st.integers(0, n * n))):
            cells[i // n][i % n] = HOLE
    else:
        cells = [[HOLE] * n for _ in range(n)]
        density = draw(st.floats(0.05, 0.6))
        for i in range(n * n):
            r, c = divmod(i, n)
            if rng.random() < density:
                used = set(cells[r]) | {cells[k][c] for k in range(n)}
                free = [s for s in range(1, n + 1) if s not in used]
                if free:
                    cells[r][c] = rng.choice(free)
    return PartialLatinSquare.from_rows(cells)


run_draws = given(
    instance=instances(),
    seed=st.integers(0, 2**63),
    horizon=st.integers(1, 60),
    cutoff=st.one_of(st.none(), st.integers(0, 400)),
)


class TestIdentityWithPythonState:
    """Equal RunRecords: outcome, choice points, assignment, trace, stats,
    summary and the exhausted flag."""

    @staticmethod
    def _same_run_record(instance, seed, propagation, traced, horizon, cutoff):
        if cutoff is None and instance.order > 6:
            cutoff = 5000
        config = SolverConfig(cutoff=cutoff, propagation=propagation, horizon=horizon,
                              trace_enabled=traced)
        assert solve(instance, config, seed) == reference.solve(instance, config, seed)

    @settings(max_examples=200, deadline=None)
    @run_draws
    def test_same_run_record(self, instance, seed, horizon, cutoff):
        self._same_run_record(instance, seed, FORWARD_CHECK, True, horizon, cutoff)

    @pytest.mark.parametrize("propagation, traced", [
        (FORWARD_CHECK, False), (ALLDIFF_REGIN, True), (ALLDIFF_REGIN, False)])
    @settings(max_examples=200, deadline=None)
    @run_draws
    def test_same_run_record_at_level(self, propagation, traced, instance, seed, horizon,
                                      cutoff):
        self._same_run_record(instance, seed, propagation, traced, horizon, cutoff)

    def test_desk_runs(self):
        instance = desk_instance()
        for propagation in (FORWARD_CHECK, ALLDIFF_REGIN):
            config = SolverConfig(cutoff=2000, propagation=propagation, horizon=50,
                                  trace_enabled=True)
            outcomes = set()
            for i in range(50):
                seed = derive_seed(81, "run", i)
                got = solve(instance, config, seed)
                assert got == reference.solve(instance, config, seed), (propagation, i)
                outcomes.add(got.outcome)
            if propagation == FORWARD_CHECK:
                assert CUTOFF in outcomes and len(outcomes) == 2

    def test_multi_alldiff_runs(self):
        config = SolverConfig(cutoff=20000, propagation=ALLDIFF_REGIN, horizon=10,
                              trace_enabled=True)
        prunings = 0
        for i, instance in enumerate(multi_alldiff_instances()):
            seed = derive_seed(81, "run", i)
            got = solve(instance, config, seed)
            assert got == reference.solve(instance, config, seed), i
            prunings += got.stats.alldiff_prunings
        assert prunings > 0

    def test_line_variance_squares_with_pow(self):
        # Python's float ** 2 calls libm pow; in this run some deviation d
        # has pow(d, 2.0) != d * d, so a kernel that multiplies writes a
        # different traced row
        instance = poke_holes(generate_complete(15, 1), HoleSpec.unbalanced(100), 5)
        config = SolverConfig(cutoff=50, propagation=FORWARD_CHECK, horizon=50,
                              trace_enabled=True)
        assert solve(instance, config, 1) == reference.solve(instance, config, 1)

    def test_step_budget_of_one(self, monkeypatch):
        # the kernel returns to Python after every choice point and resumes
        monkeypatch.setattr(solver, "_RUN_STEPS", 1)
        desk = desk_instance()
        multi = multi_alldiff_instances()[:4]
        for propagation, cases in ((FORWARD_CHECK, [desk] * 4), (ALLDIFF_REGIN, [desk] + multi)):
            for traced in (False, True):
                config = SolverConfig(cutoff=2000, propagation=propagation, horizon=10,
                                      trace_enabled=traced)
                for i, instance in enumerate(cases):
                    seed = derive_seed(81, "run", i)
                    assert solve(instance, config, seed) == reference.solve(instance, config, seed)


    @pytest.mark.parametrize("rows", [1, 3])
    def test_small_row_buffer(self, monkeypatch, rows):
        # the kernel pauses whenever the row buffer fills, and Python empties it
        monkeypatch.setattr(solver, "_TRACE_ROWS", rows)
        desk = desk_instance()
        multi = multi_alldiff_instances()[:4]
        for propagation, cases in ((FORWARD_CHECK, [desk] * 4), (ALLDIFF_REGIN, [desk] + multi)):
            config = SolverConfig(cutoff=2000, propagation=propagation, horizon=50,
                                  trace_enabled=True)
            for i, instance in enumerate(cases):
                seed = derive_seed(81, "run", i)
                assert solve(instance, config, seed) == reference.solve(instance, config, seed)

    def test_large_horizon_allocates_a_bounded_buffer(self):
        # no cutoff and a horizon of ten million on a run solved in a few
        # choice points: the buffer holds _TRACE_ROWS rows, not one per
        # allowed choice point
        kernel = fc_kernel.load()

        class RecordingFFI:
            def __init__(self):
                self.sizes = []

            def new(self, *args):
                obj = kernel.ffi.new(*args)
                self.sizes.append(kernel.ffi.sizeof(obj))
                return obj

            def __getattr__(self, name):
                return getattr(kernel.ffi, name)

        instance = desk_instance()
        config = SolverConfig(cutoff=None, horizon=10**7, trace_enabled=True,
                              propagation=ALLDIFF_REGIN)
        ffi = RecordingFFI()
        state = KernelState(SimpleNamespace(ffi=ffi, lib=kernel.lib))
        trace = []
        state.run(instance, derive_seed(81, "run", 1), config, trace)
        assert 0 < len(trace) and max(ffi.sizes) <= solver._TRACE_ROWS * 14 * 8
        seed = derive_seed(81, "run", 1)
        assert solve(instance, config, seed) == reference.solve(instance, config, seed)


# Runs an order-6 square with one hole, which root propagation fills, at
# both levels and traced; prints each (outcome, choice points, exhausted,
# trace rows) tuple.
SEARCH_SOLVED_STATE = textwrap.dedent("""
    from restartlab import fc_kernel, solver
    from restartlab.latin import HOLE, PartialLatinSquare
    rows = [[(r + c) % 6 + 1 for c in range(6)] for r in range(6)]
    rows[2][3] = HOLE
    instance = PartialLatinSquare.from_rows(rows)
    for level in (solver.FORWARD_CHECK, solver.ALLDIFF_REGIN):
        config = solver.SolverConfig(propagation=level, horizon=1000, trace_enabled=True)
        state = solver.KernelState(fc_kernel.load())
        trace = []
        rec = state.run(instance, 5, config, trace)
        assert rec.post_propagation_size == 0
        print(rec.outcome, rec.choice_points, rec.exhausted, len(trace))
""")


def test_search_on_a_solved_state():
    # in a child process, so that a crash in the kernel fails this test
    # instead of ending the test run
    proc = subprocess.run(
        [sys.executable, "-c", SEARCH_SOLVED_STATE],
        env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, (proc.returncode, proc.stderr)
    assert proc.stdout.splitlines() == ["SOLVED 0 False 0"] * 2


def recomputed_views(n, domain, symbol):
    """The line-symbol masks, size buckets and open cells' domain sizes that
    _fc_kernel.h defines, computed from the domains and symbols alone."""
    bits = (np.asarray(domain, dtype=np.uint64)[:, None] >> np.arange(n, dtype=np.uint64)) & 1
    by_cell = bits.reshape(n, n, n)  # row, column, value
    weights = np.uint64(1) << np.arange(n, dtype=np.uint64)
    rows = (by_cell * weights[None, :, None]).sum(axis=1, dtype=np.uint64)  # row, value
    cols = (by_cell * weights[:, None, None]).sum(axis=0, dtype=np.uint64)  # column, value
    line_symbol = np.concatenate([rows, cols]).T.ravel()  # value, line
    sizes = bits.sum(axis=1)
    size_rows = np.zeros((n + 1, n), dtype=np.uint64)
    for c in np.flatnonzero(np.asarray(symbol) == 0):
        size_rows[sizes[c], c // n] |= np.uint64(1) << np.uint64(c % n)
    return line_symbol.tolist(), size_rows.ravel().tolist(), sizes.tolist()


class ViewCheckingLib:
    """A kernel's lib whose fc_init, fc_propagate_root and fc_run check,
    after they return, that the state's two views and its open cells'
    domain sizes equal their recomputation from its domains and symbols."""

    def __init__(self, kernel):
        self._kernel = kernel
        self.checks = 0

    def __getattr__(self, name):
        return getattr(self._kernel.lib, name)

    def _check(self, st):
        ffi, n = self._kernel.ffi, st.n
        symbol = ffi.unpack(st.symbol, n * n)
        line_symbol, size_rows, sizes = recomputed_views(n, ffi.unpack(st.domain, n * n), symbol)
        assert ffi.unpack(st.line_symbol, 2 * n * n) == line_symbol
        assert ffi.unpack(st.size_rows, (n + 1) * n) == size_rows
        kept = ffi.unpack(st.domain_size, n * n)
        assert [k for k, s in zip(kept, symbol) if s == 0] == [
            k for k, s in zip(sizes, symbol) if s == 0]
        self.checks += 1

    def fc_init(self, st):
        ok = self._kernel.lib.fc_init(st)
        self._check(st)
        return ok

    def fc_propagate_root(self, st):
        ok = self._kernel.lib.fc_propagate_root(st)
        self._check(st)
        return ok

    def fc_run(self, st, rng, budget):
        status = self._kernel.lib.fc_run(st, rng, budget)
        self._check(st)
        return status


class TestChannelledViews:
    """The kernel's line-symbol masks and domain-size buckets stay exact
    through every assignment, pruning, filtering and undo: the kernel
    returns after every choice point and each return is checked."""

    @staticmethod
    def _solve_checking_views(cases, propagation, cutoff):
        libs = []

        class Checking(KernelState):
            def __init__(self, kernel):
                libs.append(ViewCheckingLib(kernel))
                super().__init__(SimpleNamespace(ffi=kernel.ffi, lib=libs[-1]))

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solver, "_RUN_STEPS", 1)
            mp.setattr(solver, "KernelState", Checking)
            for traced in (False, True):
                config = SolverConfig(cutoff=cutoff, propagation=propagation, horizon=10,
                                      trace_enabled=traced)
                for instance, seed in cases:
                    solve(instance, config, seed)
        return sum(lib.checks for lib in libs)

    def test_desk_and_multi_runs(self):
        desk = desk_instance()
        multi = multi_alldiff_instances()[:4]
        seeds = [derive_seed(81, "run", i) for i in range(5)]
        for propagation, cases in ((FORWARD_CHECK, [desk] * 3), (ALLDIFF_REGIN, [desk] + multi)):
            checks = self._solve_checking_views(list(zip(cases, seeds)), propagation, 300)
            # each solve checks after fc_init and fc_propagate_root, then
            # after each of its choice points
            solves = 2 * len(cases)
            assert checks > solves * (2 + (100 if propagation == FORWARD_CHECK else 1))

    @pytest.mark.parametrize("propagation", [FORWARD_CHECK, ALLDIFF_REGIN])
    @settings(max_examples=200, deadline=None)
    @given(instance=instances(5, 12), seed=st.integers(0, 2**63),
           cutoff=st.integers(0, 300))
    def test_drawn_instances(self, propagation, instance, seed, cutoff):
        self._solve_checking_views([(instance, seed)], propagation, cutoff)


class TestStateChoice:
    @staticmethod
    def _recorded(monkeypatch, module):
        """The list of the KernelStates that module builds from now on."""
        made = []

        class Recording(KernelState):
            def __init__(self, *args):
                super().__init__(*args)
                made.append(self)

        monkeypatch.setattr(module, "KernelState", Recording)
        return made

    @classmethod
    def _states(cls, monkeypatch, propagation):
        """The KernelStates one solve() builds."""
        made = cls._recorded(monkeypatch, solver)
        solve(desk_instance(), SolverConfig(cutoff=100, propagation=propagation), 1)
        return made

    def test_forward_check_runs_on_the_kernel(self, monkeypatch):
        assert len(self._states(monkeypatch, FORWARD_CHECK)) == 1

    def test_alldiff_runs_on_the_kernel(self, monkeypatch):
        assert len(self._states(monkeypatch, ALLDIFF_REGIN)) == 1

    def test_a_peak_search_builds_one_state(self, monkeypatch):
        # no candidate reaches the ratio, so all four are probed
        made = self._recorded(monkeypatch, harness)
        instance, info = harness.find_heavy_tail_instance(
            8, HoleSpec.balanced(4), 81, probe_runs=3, ratio=1e9, max_candidates=4)
        assert instance is None and len(info["trials"]) == 4
        assert len(made) == 1

    def test_orders_above_64_are_refused(self):
        # domains no longer fit the kernel's 64-bit masks; the Python
        # reference, which has no such limit, solves the instance
        n = fc_kernel.MAX_ORDER + 1
        cyclic = [[(r + c) % n + 1 for c in range(n)] for r in range(n)]
        cyclic[0][0] = HOLE
        instance = PartialLatinSquare.from_rows(cyclic)
        with pytest.raises(ValueError, match="maximum order 64"):
            solve(instance, SolverConfig(propagation=ALLDIFF_REGIN))
        with pytest.raises(ValueError, match="maximum order 64"):
            fc_kernel.for_order(n)
        assert fc_kernel.for_order(fc_kernel.MAX_ORDER) is fc_kernel.load()
        assert reference.solve(instance, SolverConfig(propagation=ALLDIFF_REGIN)).choice_points == 0

    def test_unavailable_kernel_raises(self, monkeypatch):
        def load():
            raise fc_kernel.KernelUnavailable("no C compiler (cc) on PATH")

        monkeypatch.setattr(fc_kernel, "load", load)
        with pytest.raises(fc_kernel.KernelUnavailable, match="no C compiler"):
            solve(desk_instance(), SolverConfig(propagation=FORWARD_CHECK))



class TestKernelSummaries:
    """The kernel's running statistics give features.summarize's values bit
    for bit, and one state reused across runs runs each like a fresh one."""

    @pytest.mark.parametrize("propagation", [FORWARD_CHECK, ALLDIFF_REGIN])
    @settings(max_examples=200, deadline=None)
    @given(instance=instances(5, 12), seed=st.integers(0, 2**63),
           horizon=st.integers(2, 300), cutoff=st.none() | st.integers(0, 400))
    def test_equal_summarize(self, propagation, instance, seed, horizon, cutoff):
        # runs stopped by the cutoff, before or after the horizon, included
        config = SolverConfig(cutoff=cutoff, propagation=propagation, horizon=horizon,
                              trace_enabled=True)
        rec = run_on_a_fresh_state(instance, config, seed)
        due = horizon if cutoff is None else min(horizon, cutoff)
        if len(rec.trace) < due or due < 2:
            assert rec.summary is None
        else:
            assert rec.summary == summarize(rec.trace, horizon).values.tobytes()

    @pytest.mark.parametrize("propagation", [FORWARD_CHECK, ALLDIFF_REGIN])
    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), n=st.integers(3, 10), seed=st.integers(0, 2**63),
           horizon=st.integers(2, 80))
    def test_no_summary_exactly_when_solved_before_the_horizon(
            self, propagation, data, n, seed, horizon):
        # the one rule by which the dataset harness drops a run: on a
        # completable instance, with cutoff >= horizon >= 2
        square = generate_complete(n, data.draw(st.integers(0, 2**32)))
        holes = data.draw(st.integers(0, n * n))
        instance = poke_holes(square, HoleSpec.unbalanced(holes), data.draw(st.integers(0, 2**32)))
        cutoff = data.draw(st.none() | st.integers(horizon, horizon + 100))
        config = SolverConfig(cutoff=cutoff, propagation=propagation, horizon=horizon,
                              trace_enabled=True)
        rec = KernelState(fc_kernel.load()).run(instance, seed, config)
        assert not rec.exhausted
        assert (rec.summary is None) == (rec.outcome == SOLVED and rec.choice_points < horizon)
        if rec.summary is not None:
            assert len(rec.summary) == 126 * 8

    @pytest.mark.parametrize("propagation, limits", [
        (FORWARD_CHECK, ((50, 60), (100, 60), (300, 1000))),
        (ALLDIFF_REGIN, ((3, 5), (10, 5), (20, 20))),
    ])
    def test_benchmark_runs_censored_or_not(self, propagation, limits):
        # the desk instance under forward checking, the multi-alldiff
        # instances under alldiff filtering, where they are not trivial
        instances = ([desk_instance()] * 6 if propagation == FORWARD_CHECK
                     else multi_alldiff_instances()[:6])
        outcomes = set()
        for horizon, cutoff in limits:
            config = SolverConfig(cutoff=cutoff, propagation=propagation, horizon=horizon,
                                  trace_enabled=True)
            for i, instance in enumerate(instances):
                rec = run_on_a_fresh_state(instance, config, derive_seed(81, "run", i))
                outcomes.add(rec.outcome)
                if len(rec.trace) == min(horizon, cutoff):
                    assert rec.summary == summarize(rec.trace, horizon).values.tobytes()
        assert outcomes == {SOLVED, CUTOFF}

    @staticmethod
    def _runs_like_fresh_states(state, instance, config, seed):
        # the records compare every field, the summary's bytes included
        trace = [] if config.trace_enabled else None
        assert state.run(instance, seed, config, trace) == run_on_a_fresh_state(
            instance, config, seed)

    @pytest.mark.parametrize("propagation", [FORWARD_CHECK, ALLDIFF_REGIN])
    def test_one_state_runs_like_fresh_states(self, propagation):
        # runs alternate between instances, repeating some, and between
        # propagation levels (the first at propagation), traced and
        # untraced, ended by the cutoff or not, and the last runs the desk
        # instance, of another order and hole count: every run field must be
        # reset, each run must set its level, and the buffers must fit
        other = ALLDIFF_REGIN if propagation == FORWARD_CHECK else FORWARD_CHECK
        multi = multi_alldiff_instances()[:4]
        state = KernelState(fc_kernel.load())
        for i in range(17):
            instance = desk_instance() if i == 16 else multi[i % 3 if i < 8 else 3]
            config = SolverConfig(cutoff=(40, 2000)[i % 2],
                                  propagation=(propagation, other)[i % 5 % 2],
                                  horizon=(10, 60)[i % 4 < 2], trace_enabled=i % 3 != 2)
            self._runs_like_fresh_states(state, instance, config, derive_seed(81, "run", i))

    def test_a_refused_instance_leaves_the_state_usable(self):
        # the clash repeats a given of the desk instance's first row in that
        # row, so it has the desk instance's order and hole count
        desk, multi = desk_instance(), multi_alldiff_instances()[0]
        rows = [list(row) for row in desk.cells]
        first, second = [c for c, v in enumerate(rows[0]) if v is not HOLE][:2]
        rows[0][second] = rows[0][first]
        clash = PartialLatinSquare.from_rows(rows)
        config = SolverConfig(cutoff=2000, propagation=ALLDIFF_REGIN, horizon=50,
                              trace_enabled=True)
        state = KernelState(fc_kernel.load())
        for i, instance in enumerate([clash, desk, clash, clash, desk, clash, multi]):
            if instance is clash:
                with pytest.raises(StructureError,
                                   match="^instance violates the Latin property$"):
                    state.run(instance, i, config)
            else:
                self._runs_like_fresh_states(state, instance, config, derive_seed(81, "run", i))

    def test_a_set_stop_event_ends_the_search(self, monkeypatch):
        monkeypatch.setattr(solver, "_RUN_STEPS", 1)
        config = SolverConfig(propagation=FORWARD_CHECK)
        state = KernelState(fc_kernel.load())
        stop = threading.Event()
        stop.set()
        rec = state.run(desk_instance(), derive_seed(81, "run", 1), config, stop=stop)
        assert (rec.outcome, rec.choice_points, rec.exhausted) == (CUTOFF, 1, False)


@st.composite
def checked_squares(draw):
    """Partial squares of orders 1-64 (order 64 uses bit 63 of the masks):
    a cyclic Latin square with its rows, columns and symbols permuted, then
    holes at a drawn rate (0 leaves none), then, unless the draw is "none",
    one symbol written into a cell and into another cell of its row, its
    column or both."""
    n = draw(st.sampled_from([1, 2, 64]) | st.integers(1, 64))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    rows, cols, syms = (rng.sample(range(n), n) for _ in range(3))
    cells = [[syms[(rows[r] + cols[c]) % n] + 1 for c in range(n)] for r in range(n)]
    rate = draw(st.sampled_from([0.0, 1.0]) | st.floats(0, 1))
    for i in range(n * n):
        if rng.random() < rate:
            cells[i // n][i % n] = HOLE
    kind = draw(st.sampled_from(["none", "row", "column", "both"]))
    if n > 1 and kind != "none":
        r, c, v = rng.randrange(n), rng.randrange(n), rng.randint(1, n)
        cells[r][c] = v
        if kind in ("row", "both"):
            cells[r][rng.choice([k for k in range(n) if k != c])] = v
        if kind in ("column", "both"):
            cells[rng.choice([k for k in range(n) if k != r])][c] = v
    return PartialLatinSquare.from_rows(cells)


# The order-64 cyclic square with symbol 64 (bit 63) written into cell (0, 0):
# it already stands at (0, 63) and (63, 0).
_CYCLIC_64 = [[(r + c) % 64 + 1 for c in range(64)] for r in range(64)]
_CLASH_64 = [[64] + _CYCLIC_64[0][1:]] + _CYCLIC_64[1:]


@pytest.mark.parametrize("propagation", [FORWARD_CHECK, ALLDIFF_REGIN])
@settings(max_examples=150, deadline=None)
@given(instance=checked_squares())
@example(instance=PartialLatinSquare.from_rows(_CYCLIC_64))
@example(instance=PartialLatinSquare.from_rows(_CLASH_64))
def test_the_kernel_checks_the_latin_property(propagation, instance):
    """A run on a KernelState, and so solve, raises StructureError exactly
    when validate reports a repeated symbol."""
    config = SolverConfig(cutoff=0, propagation=propagation)
    kernel = fc_kernel.for_order(instance.order)
    for run in (lambda: KernelState(kernel).run(instance, 0, config),
                lambda: solve(instance, config)):
        if validate(instance):
            with pytest.raises(StructureError, match="^instance violates the Latin property$"):
                run()
        else:
            run()


BUILD_AND_SOLVE = textwrap.dedent("""
    import sys
    from pathlib import Path
    from restartlab import fc_kernel, harness, latin, learn, policy, solver
    from restartlab.latin import generate_complete, poke_holes, HoleSpec, BALANCED
    fc_kernel._cache_dirs = lambda: [Path(sys.argv[1])]
    inst = poke_holes(generate_complete(8, 1), HoleSpec(mode=BALANCED, holes_per_line=4), 2)
    config = solver.SolverConfig(propagation=solver.FORWARD_CHECK)
    print(solver.solve(inst, config, 3).outcome)
""")


def test_concurrent_builds_share_one_cache(tmp_path):
    cache = tmp_path / "cache"
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", BUILD_AND_SOLVE, str(cache)],
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        for _ in range(2)
    ]
    for proc in procs:
        out, err = proc.communicate(timeout=300)
        assert proc.returncode == 0, err
        assert out.strip() == "SOLVED"
    built = [p.name for p in cache.iterdir()]
    assert len(built) == 1 and built[0].startswith("_fc_")


# Loads the kernel from the cache directory argv[1] and writes an instance to
# argv[2] through the CLI, then prints the exit code and the number of builds.
# With argv[3] == "vanish" the build is deleted just before its first load, as
# another process sharing the cache may do.
LOAD_AND_GENERATE = textwrap.dedent("""
    import sys
    from pathlib import Path
    from restartlab import cli, fc_kernel
    cache, out, vanish = Path(sys.argv[1]), sys.argv[2], sys.argv[3] == "vanish"
    fc_kernel._cache_dirs = lambda: [cache]
    builds = []
    build, load = fc_kernel._build, fc_kernel._import
    def counted_build(*args):
        builds.append(args)
        build(*args)
    def deleting_load(name, target):
        if vanish and not builds:
            target.unlink()
        return load(name, target)
    fc_kernel._build, fc_kernel._import = counted_build, deleting_load
    code = cli.main(["generate", "--order", "8", "--holes", "32", "--balanced", "-o", out])
    print(code, len(builds))
""")


def load_and_generate(cache, out, mode="keep"):
    """(exit code, builds) of one LOAD_AND_GENERATE process."""
    proc = subprocess.run(
        [sys.executable, "-c", LOAD_AND_GENERATE, str(cache), str(out), mode],
        env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    code, builds = proc.stdout.split()[-2:]
    return int(code), int(builds)


def set_age(path, days):
    stamp = time.time() - days * 24 * 3600
    os.utime(path, (stamp, stamp))


def test_a_build_removes_old_builds_and_keeps_recent_ones(tmp_path):
    cache = tmp_path / "cache"
    cache.mkdir()
    suffix = sysconfig.get_config_var("EXT_SUFFIX")
    old, recent = cache / f"_fc_old{suffix}", cache / f"_fc_recent{suffix}"
    other_abi = cache / "_fc_old.abi3.so"
    for path, days in ((old, 8), (recent, 6), (other_abi, 8)):
        path.write_bytes(b"")
        set_age(path, days)
    assert load_and_generate(cache, tmp_path / "a.txt") == (0, 1)
    built = set(cache.iterdir()) - {recent, other_abi}
    assert not old.exists() and len(built) == 1
    # a build in use stays: each load refreshes its mtime, and builds nothing
    (target,) = built
    set_age(target, 8)
    assert load_and_generate(cache, tmp_path / "b.txt") == (0, 0)
    assert time.time() - target.stat().st_mtime < 3600
    assert set(cache.iterdir()) == {target, recent, other_abi}


def test_a_build_deleted_before_its_load_is_rebuilt(tmp_path):
    cache = tmp_path / "cache"
    assert load_and_generate(cache, tmp_path / "a.txt") == (0, 1)
    # exit 0 after one rebuild, not exit 4 (the kernel is unavailable)
    assert load_and_generate(cache, tmp_path / "b.txt", "vanish") == (0, 1)
    assert read_instance(str(tmp_path / "a.txt")) == read_instance(str(tmp_path / "b.txt"))
    assert len(list(cache.iterdir())) == 1


@pytest.mark.skipif(shutil.which(fc_kernel.COMPILER) is None, reason="no C compiler")
def test_kernel_compiles_without_warnings():
    proc = subprocess.run(
        [fc_kernel.COMPILER, "-Wall", "-Wextra", "-Werror", "-fsyntax-only",
         f"-I{fc_kernel.HEADER.parent}", str(fc_kernel.SOURCE)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**63 + 5, 2**64 - 1, 987654321012345])
def test_mt_seed_is_random_seed(seed):
    kernel = fc_kernel.load()
    state = kernel.ffi.new("mt_state *")
    kernel.lib.mt_seed(state, seed)
    internal = random.Random(seed).getstate()[1]
    assert kernel.ffi.unpack(state.mt, 624) + [state.index] == list(internal)


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**64 - 1) | st.integers(2**64, 2**300))
@example(seed=0)
@example(seed=2**32 - 1)
@example(seed=2**32)
@example(seed=2**40 + 3)
@example(seed=2**64 - 1)
@example(seed=2**128 + 1)
def test_pcg64_seed_is_numpy_pcg64(seed):
    # one, two and more 32-bit words: SeedSequence mixes words past the
    # fourth in after the pool
    stream = fc_kernel.pcg64(seed)
    assert np.random.PCG64(seed).state == {
        "bit_generator": "PCG64",
        "state": {"state": stream.state_hi << 64 | stream.state_lo,
                  "inc": stream.inc_hi << 64 | stream.inc_lo},
        "has_uint32": stream.has_uint32,
        "uinteger": stream.uinteger,
    }


@settings(max_examples=200, deadline=None)
@given(sizes=st.lists(st.integers(0, 5000), min_size=1, max_size=3),
       seed=st.integers(0, 2**64 - 1))
@example(sizes=[0, 1, 2], seed=0)
@example(sizes=[3818], seed=81)
@example(sizes=[48, 5000], seed=2**64 - 1)
def test_pcg64_permutation_is_numpy_permutation(sizes, seed):
    # permutations drawn one after another on one stream, so later ones may
    # start on a buffered half-word; the streams end alike
    kernel = fc_kernel.load()
    stream, rng = fc_kernel.pcg64(seed), np.random.default_rng(seed)
    for n in sizes:
        perm = np.empty(n, dtype=np.int64)
        kernel.lib.pcg64_permutation(stream, kernel.ffi.from_buffer("long long[]", perm), n)
        assert perm.tolist() == rng.permutation(n).tolist()
    state = rng.bit_generator.state
    assert (stream.state_hi << 64 | stream.state_lo, stream.has_uint32, stream.uinteger) == (
        state["state"]["state"], state["has_uint32"], state["uinteger"])


def test_cdef_declares_every_entry_point_called():
    """A kernel function that latin, solver, policy, learn, fc_kernel or the
    tests' reference calls but the header, cffi's cdef, leaves out would
    only fail when the call runs; each must be declared and defined."""
    declared = set(re.findall(r"(\w+)\(", fc_kernel.HEADER.read_text()))
    called = set()
    for module in (latin, solver, policy, learn, fc_kernel, reference):
        # lib, _lib or kernel.lib, not hashlib or contextlib
        called |= set(re.findall(r"(?<![a-z])lib\.(\w+)\(", Path(module.__file__).read_text()))
    assert {"fc_init", "fc_propagate_root", "fc_regin_filter", "fc_run", "lq_fill",
            "lq_hole_pattern", "mt_seed", "pcg64_price_rounds", "pcg64_seed",
            "pcg64_permutation"} <= called
    assert called <= declared
    source = fc_kernel.SOURCE.read_text()
    for name in declared:
        assert re.search(rf"^(?!static)\w[\w ]*\b{name}\(", source, re.M), name


def test_module_name_covers_the_header():
    # a build made from an older header is never loaded
    source = fc_kernel.SOURCE.read_text()
    header = fc_kernel.HEADER.read_text()
    name = fc_kernel._module_name(source, header, "2.0")
    assert name == fc_kernel._module_name(source, header, "2.0")
    assert name != fc_kernel._module_name(source, header + "\n", "2.0")


MISSING_HEADER = textwrap.dedent("""
    from restartlab import fc_kernel
    try:
        fc_kernel.load()
    except fc_kernel.KernelUnavailable as exc:
        print("KernelUnavailable", exc)
""")


def test_missing_header_is_a_reason(tmp_path):
    # a package installed without the header cannot build its kernel and says why
    package = tmp_path / "restartlab"
    shutil.copytree(SRC / "restartlab", package,
                    ignore=shutil.ignore_patterns("_fc_kernel.h", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "-c", MISSING_HEADER],
        env=dict(os.environ, PYTHONPATH=str(tmp_path)),
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("KernelUnavailable cannot read the kernel source")
    assert "_fc_kernel.h" in proc.stdout
