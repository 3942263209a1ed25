"""Randomized completion search: soundness, completeness, propagation."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from restartlab.latin import (
    BALANCED,
    HOLE,
    UNBALANCED,
    HoleSpec,
    PartialLatinSquare,
    StructureError,
    generate_complete,
    poke_holes,
)
from restartlab.solver import (
    ALLDIFF_REGIN,
    CUTOFF,
    FORWARD_CHECK,
    SOLVED,
    SolverConfig,
    solve,
)

from reference import _regin_masks, iter_completions, regin_filter, validate


def alldiff(**fields):
    """Alldiff, the level these tests were written at (the default is
    forward checking)."""
    return SolverConfig(propagation=ALLDIFF_REGIN, **fields)


def qwh(n, holes, seed, balanced=False):
    sq = generate_complete(n, seed)
    if balanced:
        spec = HoleSpec(mode=BALANCED, holes_per_line=holes)
    else:
        spec = HoleSpec(mode=UNBALANCED, total_holes=holes)
    return poke_holes(sq, spec, seed + 1)


def assert_solves(instance, record):
    assert record.outcome == SOLVED
    sol = record.assignment
    assert sol is not None
    assert sol.is_complete()
    assert validate(sol) == []
    n = instance.order
    for r in range(n):
        for c in range(n):
            if instance.cells[r][c] is not HOLE:
                assert sol.cells[r][c] == instance.cells[r][c]


class TestSolveBasics:
    @pytest.mark.parametrize("prop", [FORWARD_CHECK, ALLDIFF_REGIN])
    def test_solves_small_instances(self, prop):
        for seed in range(10):
            inst = qwh(5, 12, seed)
            rec = solve(inst, SolverConfig(propagation=prop), seed=seed)
            assert_solves(inst, rec)

    def test_complete_instance_zero_choice_points(self):
        sq = generate_complete(5, seed=3)
        rec = solve(sq, alldiff(), seed=0)
        assert rec.outcome == SOLVED
        assert rec.choice_points == 0
        assert rec.assignment == sq

    def test_rejects_invalid_instance(self):
        bad = PartialLatinSquare.from_rows([[1, HOLE], [1, HOLE]])
        with pytest.raises(StructureError):
            solve(bad, alldiff(), seed=0)

    def test_deterministic_per_seed(self):
        inst = qwh(7, 30, seed=5)
        cfg = alldiff(trace_enabled=True, horizon=50)
        a = solve(inst, cfg, seed=9)
        b = solve(inst, cfg, seed=9)
        assert a.choice_points == b.choice_points
        assert a.assignment == b.assignment
        assert a.trace == b.trace

    def test_varies_across_seeds(self):
        inst = qwh(8, 40, seed=2)
        lens = {solve(inst, alldiff(), seed=s).choice_points for s in range(12)}
        assert len(lens) > 1

    def test_post_propagation_size_reported(self):
        inst = qwh(6, 10, seed=4)
        rec = solve(inst, alldiff(), seed=0)
        assert 0 <= rec.post_propagation_size <= inst.hole_count()

    def test_unsatisfiable_reports_exhausted_cutoff(self):
        dead = PartialLatinSquare.from_rows(
            [[1, 2, 3], [2, 3, HOLE], [HOLE, HOLE, 1]]
        )
        rec = solve(dead, SolverConfig(propagation=FORWARD_CHECK), seed=0)
        assert rec.outcome == CUTOFF
        assert rec.exhausted
        assert rec.assignment is None


class TestCutoffSemantics:
    def test_cutoff_zero_never_branches(self):
        inst = qwh(8, 40, seed=1)
        rec = solve(inst, alldiff(cutoff=0), seed=0)
        assert rec.choice_points == 0
        assert rec.outcome in (SOLVED, CUTOFF)

    def test_cutoff_bounds_choice_points(self):
        inst = qwh(9, 50, seed=3)
        for cut in [1, 5, 20]:
            rec = solve(inst, alldiff(cutoff=cut), seed=7)
            assert rec.choice_points <= cut

    def test_cutoff_run_resumable_consistency(self):
        # same seed, growing cutoffs: the run is the same prefix each time
        inst = qwh(9, 55, seed=8)
        full = solve(inst, alldiff(), seed=11)
        assert full.outcome == SOLVED
        for cut in [1, 3, full.choice_points]:
            rec = solve(inst, alldiff(cutoff=cut), seed=11)
            if rec.outcome == SOLVED:
                assert rec.choice_points == full.choice_points
            else:
                assert rec.choice_points == cut

    def test_solved_exactly_at_cutoff(self):
        # a run needing T choice points still solves with cutoff == T
        inst = qwh(8, 45, seed=6)
        full = solve(inst, alldiff(), seed=2)
        if full.choice_points == 0:
            pytest.skip("root propagation solved it")
        rec = solve(inst, alldiff(cutoff=full.choice_points), seed=2)
        assert rec.outcome == SOLVED


class TestTrace:
    def test_trace_length_tracks_horizon(self):
        inst = qwh(9, 55, seed=4)
        rec = solve(inst, alldiff(trace_enabled=True, horizon=10), seed=3)
        assert rec.trace is not None
        assert len(rec.trace) == min(10, rec.choice_points)

    def test_trace_disabled_is_none(self):
        inst = qwh(6, 20, seed=4)
        rec = solve(inst, alldiff(trace_enabled=False), seed=3)
        assert rec.trace is None

    def test_trace_prefix_stable_under_horizon(self):
        # lengthening the horizon must not change earlier snapshots
        inst = qwh(9, 55, seed=14)
        short = solve(inst, alldiff(trace_enabled=True, horizon=5), seed=5)
        long = solve(inst, alldiff(trace_enabled=True, horizon=40), seed=5)
        assert long.trace[: len(short.trace)] == short.trace

    def test_tracing_does_not_alter_search(self):
        inst = qwh(9, 55, seed=21)
        plain = solve(inst, alldiff(), seed=6)
        traced = solve(inst, alldiff(trace_enabled=True, horizon=30), seed=6)
        assert plain.choice_points == traced.choice_points
        assert plain.assignment == traced.assignment


class TestSoundnessSweep:
    @pytest.mark.parametrize("prop", [FORWARD_CHECK, ALLDIFF_REGIN])
    def test_orders_2_to_5(self, prop):
        rng = random.Random(99)
        cfg = SolverConfig(propagation=prop)
        for trial in range(25):
            n = rng.choice([2, 3, 4, 5])
            holes = rng.randrange(0, n * n + 1)
            inst = qwh(n, holes, seed=trial)
            rec = solve(inst, cfg, seed=trial * 3 + 1)
            assert_solves(inst, rec)


def _symbols(mask):
    return {v + 1 for v in range(64) if mask >> v & 1}


@st.composite
def line_domains(draw):
    """Bitmask domains of 1-64 cells over 1-64 values.  Random lines at any
    density are mostly infeasible or unpruned.  Planted lines hold a system of
    distinct values and are cut into blocks of cells; a tight block keeps its
    domains within its block's planted values, while the other blocks also
    get scattered extra values, which the filter must prune where they fall
    on a tight block's values."""
    k = draw(st.integers(1, 64))
    planted = draw(st.booleans())
    values = draw(st.integers(k if planted else 1, 64))
    density = draw(st.floats(0.0, 1.0))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    if not planted:
        doms = [sum(1 << v for v in range(values) if rng.random() < density)
                for _ in range(k)]
        return [d or 1 << rng.randrange(values) for d in doms]
    system = rng.sample(range(values), k)
    extra = draw(st.floats(0.0, 0.5))
    doms = []
    while len(doms) < k:
        block = system[len(doms):len(doms) + rng.randint(1, k - len(doms))]
        tight = rng.random() < 0.5
        for v in block:
            d = 1 << v | sum(1 << w for w in block if rng.random() < density)
            if not tight:
                d |= sum(1 << w for w in range(values) if rng.random() < extra)
            doms.append(d)
    return doms


class TestReginFilter:
    def test_empty_line(self):
        assert regin_filter([]) == []

    def test_empty_domain_infeasible(self):
        assert regin_filter([{1, 2}, set()]) is None

    def test_pigeonhole_infeasible(self):
        assert regin_filter([{1, 2}, {1, 2}, {1, 2}]) is None

    def test_classic_pruning(self):
        # cells 0,1 lock symbols {1,2}; symbol 1 and 2 must leave cell 2
        out = regin_filter([{1, 2}, {1, 2}, {1, 2, 3}])
        assert out == [{1, 2}, {1, 2}, {3}]

    def test_no_pruning_when_all_supported(self):
        out = regin_filter([{1, 2, 3}, {1, 2, 3}, {1, 2, 3}])
        assert out == [{1, 2, 3}, {1, 2, 3}, {1, 2, 3}]

    def test_lines_up_to_the_kernel_masks(self):
        # domains are 64-bit masks and a line has at most 64 cells
        assert regin_filter([{64}, {63, 64}]) == [{64}, {63}]
        full = set(range(1, 65))
        assert regin_filter([full] * 64) == [full] * 64

    @settings(max_examples=300, deadline=None)
    @given(line_domains())
    def test_kernel_filter_matches_reference(self, doms):
        prunings = _regin_masks(doms)
        filtered = list(doms)
        for u, b in prunings or ():
            filtered[u] ^= b
        out = regin_filter([_symbols(d) for d in doms])
        assert out == (None if prunings is None else [_symbols(d) for d in filtered])

    def test_exact_against_enumeration(self):
        # a value survives iff some system of pairwise-distinct choices uses it
        rng = random.Random(7)
        for _ in range(120):
            k = rng.randrange(1, 5)
            symbols = list(range(1, rng.randrange(k, 7) + 1))
            doms = [
                {v for v in symbols if rng.random() < 0.6} or {rng.choice(symbols)}
                for _ in range(k)
            ]
            out = regin_filter(doms)
            supported = [set() for _ in range(k)]
            feasible = False
            for combo in itertools.product(*doms):
                if len(set(combo)) == k:
                    feasible = True
                    for i, v in enumerate(combo):
                        supported[i].add(v)
            if not feasible:
                assert out is None
            else:
                assert out == supported


    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(1, 2**6 - 1), min_size=1, max_size=6))
    def test_prunings_listed_by_cell_then_value(self, doms):
        # the solver applies prunings in this order, and the alldiff_prunings
        # counter and every trace depend on it
        supported = [0] * len(doms)
        feasible = False
        values = [[v for v in range(6) if d >> v & 1] for d in doms]
        for combo in itertools.product(*values):
            if len(set(combo)) == len(doms):
                feasible = True
                for u, v in enumerate(combo):
                    supported[u] |= 1 << v
        expected = [
            (u, 1 << v) for u, d in enumerate(doms) for v in range(6)
            if d >> v & 1 and not supported[u] >> v & 1
        ]
        assert _regin_masks(list(doms)) == (expected if feasible else None)


class TestReginAgainstCompletions:
    def test_never_prunes_completion_supported_value(self):
        # order <= 4, exhaustive: any value used by some completion of the
        # instance must survive per-line filtering
        rng = random.Random(5)
        for trial in range(30):
            n = rng.choice([3, 4])
            inst = qwh(n, rng.randrange(1, n * n + 1), seed=trial)
            comps = list(iter_completions(inst))
            if not comps:
                continue
            for r in range(n):
                doms = []
                for c in range(n):
                    v = inst.cells[r][c]
                    if v is not HOLE:
                        doms.append({v})
                    else:
                        used = {
                            inst.cells[r][k]
                            for k in range(n)
                            if inst.cells[r][k] is not HOLE
                        } | {
                            inst.cells[k][c]
                            for k in range(n)
                            if inst.cells[k][c] is not HOLE
                        }
                        doms.append(set(range(1, n + 1)) - used)
                out = regin_filter(doms)
                assert out is not None
                for c in range(n):
                    used_values = {comp.cells[r][c] for comp in comps}
                    assert used_values <= out[c]


class TestPropagationLevels:
    def test_regin_never_longer_than_fc(self):
        # stronger propagation explores no more choice points on average
        fc = SolverConfig(propagation=FORWARD_CHECK)
        rg = SolverConfig(propagation=ALLDIFF_REGIN)
        tot_fc = tot_rg = 0
        for seed in range(8):
            inst = qwh(9, 5, seed, balanced=True)
            tot_fc += solve(inst, fc, seed=seed).choice_points
            tot_rg += solve(inst, rg, seed=seed).choice_points
        assert tot_rg <= tot_fc

    def test_both_levels_agree_on_solvability(self):
        for seed in range(10):
            inst = qwh(6, 20, seed)
            a = solve(inst, SolverConfig(propagation=FORWARD_CHECK), seed=seed)
            b = solve(inst, SolverConfig(propagation=ALLDIFF_REGIN), seed=seed)
            assert a.outcome == SOLVED and b.outcome == SOLVED


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(2, 6),
    frac=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32),
)
def test_solver_property_sound(n, frac, seed):
    holes = int(frac * n * n)
    inst = qwh(n, holes, seed=seed % 1000)
    rec = solve(inst, alldiff(), seed=seed)
    assert_solves(inst, rec)
