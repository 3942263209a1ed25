"""Latin-square generation, validation, and hole poking."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from restartlab import fc_kernel, latin
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
from restartlab.seeds import derive_seed

import reference
from reference import count_completions, iter_completions, validate


def brute_force_completions(instance):
    """Count completions by per-row permutation enumeration.

    Independent of the package's search code: rows are filled with
    permutations consistent with the fixed cells, pruning on column clashes.
    """
    n = instance.order
    count = 0

    def fill(r, columns):
        nonlocal count
        if r == n:
            count += 1
            return
        fixed = instance.cells[r]
        for perm in itertools.permutations(range(1, n + 1)):
            ok = True
            for c, v in enumerate(perm):
                if fixed[c] is not HOLE and fixed[c] != v:
                    ok = False
                    break
                if v in columns[c]:
                    ok = False
                    break
            if not ok:
                continue
            for c, v in enumerate(perm):
                columns[c].add(v)
            fill(r + 1, columns)
            for c, v in enumerate(perm):
                columns[c].remove(v)

    fill(0, [set() for _ in range(n)])
    return count


def empty_square(n):
    return PartialLatinSquare.from_rows([[HOLE] * n for _ in range(n)])


class TestPartialLatinSquare:
    def test_from_rows_round_trip(self):
        sq = PartialLatinSquare.from_rows([[1, 2], [2, 1]])
        assert sq.order == 2
        assert sq.cells[0][1] == 2
        assert sq.is_complete()
        assert sq.hole_count() == 0

    def test_holes_iteration(self):
        sq = PartialLatinSquare.from_rows([[1, HOLE], [HOLE, 1]])
        assert sorted(sq.holes()) == [(0, 1), (1, 0)]
        assert sq.hole_count() == 2
        assert not sq.is_complete()

    def test_rejects_bad_symbol(self):
        with pytest.raises(StructureError):
            PartialLatinSquare.from_rows([[1, 3], [2, 1]])
        with pytest.raises(StructureError):
            PartialLatinSquare.from_rows([[0, 1], [1, 0]])
        with pytest.raises(StructureError):
            PartialLatinSquare.from_rows([[True, 1], [1, True]])

    def test_rejects_ragged_rows(self):
        with pytest.raises(StructureError):
            PartialLatinSquare(order=2, cells=((1, 2), (1,)))
        with pytest.raises(StructureError):
            PartialLatinSquare(order=3, cells=((1, 2), (2, 1)))


class TestValidate:
    def test_valid_square_returns_empty(self):
        assert validate(PartialLatinSquare.from_rows([[1, 2], [2, 1]])) == []

    def test_row_duplicate_reported(self):
        out = validate(PartialLatinSquare.from_rows([[1, 1], [2, 2]]))
        kinds = {(v.kind, v.index, v.symbol) for v in out}
        assert ("row", 0, 1) in kinds
        assert ("row", 1, 2) in kinds

    def test_column_duplicate_reported(self):
        out = validate(PartialLatinSquare.from_rows([[1, 2], [1, 2]]))
        kinds = {(v.kind, v.index, v.symbol) for v in out}
        assert ("column", 0, 1) in kinds
        assert ("column", 1, 2) in kinds

    def test_holes_never_violate(self):
        assert validate(empty_square(4)) == []


class TestGenerateComplete:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 12])
    def test_output_is_complete_and_valid(self, n):
        sq = generate_complete(n, seed=7)
        assert sq.order == n
        assert sq.is_complete()
        assert validate(sq) == []

    def test_deterministic_per_seed(self):
        assert generate_complete(6, seed=3) == generate_complete(6, seed=3)

    def test_varies_across_seeds(self):
        squares = {generate_complete(5, seed=s).cells for s in range(20)}
        assert len(squares) > 1

    def test_covers_all_order_3_squares(self):
        # 12 distinct order-3 Latin squares; a uniform-ish sampler should
        # reach every one of them within a few hundred seeds.
        seen = {generate_complete(3, seed=s).cells for s in range(400)}
        assert len(seen) == 12


class TestHoleSpec:
    def test_unbalanced_needs_total(self):
        with pytest.raises(StructureError):
            HoleSpec(mode=UNBALANCED)

    def test_balanced_needs_per_line(self):
        with pytest.raises(StructureError):
            HoleSpec(mode=BALANCED)

    def test_unknown_mode_rejected(self):
        with pytest.raises(StructureError):
            HoleSpec(mode="diagonal", total_holes=3)


class TestPokeHoles:
    def test_unbalanced_exact_count(self):
        sq = generate_complete(6, seed=1)
        inst = poke_holes(sq, HoleSpec(mode=UNBALANCED, total_holes=13), seed=5)
        assert inst.hole_count() == 13

    def test_unbalanced_preserves_filled_cells(self):
        sq = generate_complete(6, seed=1)
        inst = poke_holes(sq, HoleSpec(mode=UNBALANCED, total_holes=10), seed=9)
        for r in range(6):
            for c in range(6):
                v = inst.cells[r][c]
                assert v is HOLE or v == sq.cells[r][c]

    def test_unbalanced_total_bounds(self):
        sq = generate_complete(4, seed=2)
        with pytest.raises(StructureError):
            poke_holes(sq, HoleSpec(mode=UNBALANCED, total_holes=17), seed=0)

    @pytest.mark.parametrize("h", [0, 1, 3, 5, 6, 7, 8])
    def test_balanced_line_counts(self, h):
        n = 8
        sq = generate_complete(n, seed=h)
        inst = poke_holes(sq, HoleSpec(mode=BALANCED, holes_per_line=h), seed=h + 1)
        assert inst.hole_count() == n * h
        for r in range(n):
            assert sum(1 for c in range(n) if inst.cells[r][c] is HOLE) == h
        for c in range(n):
            assert sum(1 for r in range(n) if inst.cells[r][c] is HOLE) == h

    def test_balanced_h_equals_n(self):
        sq = generate_complete(5, seed=3)
        inst = poke_holes(sq, HoleSpec(mode=BALANCED, holes_per_line=5), seed=1)
        assert inst.hole_count() == 25

    def test_balanced_h_too_large(self):
        sq = generate_complete(5, seed=3)
        with pytest.raises(StructureError):
            poke_holes(sq, HoleSpec(mode=BALANCED, holes_per_line=6), seed=1)

    def test_requires_complete_square(self):
        inst = PartialLatinSquare.from_rows([[1, HOLE], [HOLE, 1]])
        with pytest.raises(StructureError):
            poke_holes(inst, HoleSpec(mode=UNBALANCED, total_holes=1), seed=0)

    def test_deterministic_per_seed(self):
        sq = generate_complete(7, seed=11)
        spec = HoleSpec(mode=BALANCED, holes_per_line=3)
        assert poke_holes(sq, spec, seed=4) == poke_holes(sq, spec, seed=4)
        masks = {poke_holes(sq, spec, seed=s).cells for s in range(10)}
        assert len(masks) > 1

    def test_balanced_mask_varies_rows(self):
        # A balanced pattern is h disjoint permutation-like sets, so two
        # different rows rarely share the same hole columns for h << n.
        sq = generate_complete(9, seed=0)
        inst = poke_holes(sq, HoleSpec(mode=BALANCED, holes_per_line=2), seed=7)
        cols = [
            tuple(c for c in range(9) if inst.cells[r][c] is HOLE) for r in range(9)
        ]
        assert len(set(cols)) > 1


class TestCompletions:
    def test_empty_3x3_has_12(self):
        inst = empty_square(3)
        assert count_completions(inst) == 12
        assert brute_force_completions(inst) == 12

    def test_empty_4x4_has_576(self):
        inst = empty_square(4)
        assert count_completions(inst) == 576

    def test_iter_matches_brute_force_on_partials(self):
        rng = random.Random(0)
        for trial in range(12):
            n = rng.choice([3, 4])
            sq = generate_complete(n, seed=trial)
            holes = rng.randrange(0, n * n + 1)
            inst = poke_holes(
                sq, HoleSpec(mode=UNBALANCED, total_holes=holes), seed=trial
            )
            got = list(iter_completions(inst))
            assert len(got) == brute_force_completions(inst)
            for comp in got:
                assert comp.is_complete()
                assert validate(comp) == []
                for r in range(n):
                    for c in range(n):
                        if inst.cells[r][c] is not HOLE:
                            assert comp.cells[r][c] == inst.cells[r][c]

    def test_unsatisfiable_partial_has_zero(self):
        # 1 2 .      third row forces symbol 3 twice in column 2
        # 2 . 1
        # . 1 2  ->  actually completable; build a real dead end instead
        inst = PartialLatinSquare.from_rows(
            [[1, 2, HOLE], [2, HOLE, HOLE], [HOLE, HOLE, 1]]
        )
        # fix (0,2)=3, (1,1)=3 impossible together with (2,2)=1:
        dead = PartialLatinSquare.from_rows(
            [[1, 2, 3], [2, 3, HOLE], [HOLE, HOLE, 1]]
        )
        assert count_completions(dead) == 0
        assert count_completions(inst) == brute_force_completions(inst)

    def test_count_cap(self):
        assert count_completions(empty_square(4), cap=10) == 10


@settings(max_examples=40, deadline=None)
@given(n=st.integers(min_value=1, max_value=6), seed=st.integers(0, 2**40))
def test_generate_always_valid(n, seed):
    sq = generate_complete(n, seed)
    assert sq.is_complete()
    assert validate(sq) == []


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=7),
    h=st.integers(min_value=0, max_value=7),
    seed=st.integers(0, 2**40),
)
def test_balanced_poke_always_balanced(n, h, seed):
    if h > n:
        return
    sq = generate_complete(n, seed)
    inst = poke_holes(sq, HoleSpec(mode=BALANCED, holes_per_line=h), seed + 1)
    for r in range(n):
        assert sum(1 for c in range(n) if inst.cells[r][c] is HOLE) == h
    for c in range(n):
        assert sum(1 for r in range(n) if inst.cells[r][c] is HOLE) == h
    for r in range(n):
        for c in range(n):
            if inst.cells[r][c] is not HOLE:
                assert inst.cells[r][c] == sq.cells[r][c]


# -- the C kernel's generators against the Python loops ----------------------

# Each kernel generator's Python loop in tests/reference.py.
REFERENCE = {latin._fill_square: reference.fill_square,
             latin._balanced_holes: reference.balanced_holes}


def both_paths(fn, n, seed, *args):
    """fn(n, *args, seed) on the kernel, and its Python reference on
    random.Random(seed)."""
    return fn(n, *args, seed), REFERENCE[fn](n, *args, random.Random(seed))


def entered_streams(seed, index):
    """mt_seed's state for seed with its index set to index, and a
    random.Random in the same state."""
    kernel = fc_kernel.load()
    state = kernel.ffi.new("mt_state *")
    kernel.lib.mt_seed(state, seed)
    state.index = index
    rng = random.Random(seed)
    version, internal, gauss_next = rng.getstate()
    rng.setstate((version, internal[:624] + (index,), gauss_next))
    return state, rng


def stream_words(state):
    """An mt_state as the word tuple of random.Random.getstate()."""
    return tuple(fc_kernel.load().ffi.unpack(state.mt, 624)) + (state.index,)


def kernel_fill(state, n):
    """latin._fill_square's kernel loop, on the given mt_state."""
    kernel = fc_kernel.load()
    ffi = kernel.ffi
    buffers = {
        "flat": ffi.new("int[]", n * n),
        "cands": ffi.new("int[]", n * n * n),
        "n_cands": ffi.new("int[]", n * n),
        "row_used": ffi.new("uint64_t[]", n),
        "col_used": ffi.new("uint64_t[]", n),
    }
    square = ffi.new("lq_square *", dict(buffers, n=n))
    while (done := kernel.lib.lq_fill(state, square, latin._FILL_STEPS)) == 0:
        pass
    assert done == 1
    return ffi.unpack(buffers["flat"], n * n)


def kernel_hole_pattern(state, n, h):
    """latin._balanced_holes's kernel loop, on the given mt_state."""
    kernel = fc_kernel.load()
    taken = kernel.ffi.new("uint64_t[]", n)
    while not kernel.lib.lq_hole_pattern(state, n, h, latin._PATTERN_RETRIES, taken):
        pass
    return kernel.ffi.unpack(taken, n)


class TestKernelGenerators:
    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(1, 16), seed=st.integers(0, 2**64 - 1))
    def test_fill_matches_python(self, n, seed):
        kernel, python = both_paths(latin._fill_square, n, seed)
        assert kernel == python

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), n=st.integers(3, 14), seed=st.integers(0, 2**64 - 1))
    def test_hole_pattern_matches_python(self, data, n, seed):
        h = data.draw(st.integers(1, min(n // 2, n - 2)))
        kernel, python = both_paths(latin._balanced_holes, n, seed, h)
        assert kernel == python

    def test_multi_alldiff_instances(self):
        # the benchmark's multi-alldiff draws: order 20, 8 holes per line
        for i in range(48):
            kernel, python = both_paths(latin._fill_square, 20, derive_seed(81, "inst", i))
            assert kernel == python, i
            kernel, python = both_paths(latin._balanced_holes, 20, derive_seed(81, "mask", i), 8)
            assert kernel == python, i

    def test_desk_instance(self):
        kernel, python = both_paths(latin._fill_square, 18, derive_seed(81, "instance"))
        assert kernel == python
        kernel, python = both_paths(latin._balanced_holes, 18, derive_seed(81, "mask"), 7)
        assert kernel == python

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), n=st.integers(3, 12), seed=st.integers(0, 2**64 - 1),
           retries=st.integers(1, 3))
    def test_hole_pattern_restarts_match_python(self, data, n, seed, retries):
        # a slot that fails within 1-3 draws restarts the pattern, so the
        # kernel is called again and reads its words from mid-block
        h = data.draw(st.integers(1, min(3, n - 2)))
        with pytest.MonkeyPatch.context() as m:
            m.setattr(latin, "_PATTERN_RETRIES", retries)
            kernel, python = both_paths(latin._balanced_holes, n, seed, h)
        assert kernel == python

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 12), seed=st.integers(0, 2**64 - 1))
    def test_fill_one_step_per_call_matches_python(self, n, seed):
        # every lq_fill call reopens the reader wherever the last one stopped
        with pytest.MonkeyPatch.context() as m:
            m.setattr(latin, "_FILL_STEPS", 1)
            kernel, python = both_paths(latin._fill_square, n, seed)
        assert kernel == python

    @settings(max_examples=30, deadline=None)
    @given(data=st.data(), index=st.sampled_from([0, 623, 624]),
           seed=st.integers(0, 2**64 - 1))
    def test_streams_entered_at_any_index_match_python(self, data, index, seed):
        # the reader tempers the block from the state's index on: at its start,
        # at its last word, or after it (regenerate first); each kernel call
        # must leave the stream where the Python loop leaves it
        n = data.draw(st.integers(3, 12))
        h = data.draw(st.integers(1, min(n // 2, n - 2)))
        state, rng = entered_streams(seed, index)
        assert kernel_hole_pattern(state, n, h) == reference.balanced_holes(n, h, rng)
        assert stream_words(state) == rng.getstate()[1]
        state, rng = entered_streams(seed, index)
        assert kernel_fill(state, n) == reference.fill_square(n, rng)
        assert stream_words(state) == rng.getstate()[1]

    @settings(max_examples=4, deadline=None)
    @given(data=st.data(), n=st.integers(15, 24), seed=st.integers(0, 2**64 - 1))
    def test_large_hole_patterns_match_python(self, data, n, seed):
        h = data.draw(st.integers(1, 8))
        kernel, python = both_paths(latin._balanced_holes, n, seed, h)
        assert kernel == python


class _NoKernel:
    """A loaded kernel that fails on any use, to show a path never touches it."""

    def __getattr__(self, name):
        raise AssertionError(f"the kernel was used ({name})")


class TestGeneratorFallbacks:
    """Where the generators go without the kernel: the patterns drawn in
    Python never touch it, and everything else is refused."""

    def test_orders_above_64_are_refused(self, monkeypatch):
        monkeypatch.setattr(fc_kernel, "load", lambda: _NoKernel())
        with pytest.raises(ValueError, match="maximum order 64"):
            generate_complete(65, 1)
        with pytest.raises(ValueError, match="maximum order 64"):
            latin._balanced_holes(65, 2, 3)

    def test_unavailable_kernel_raises(self, monkeypatch):
        square = generate_complete(9, 4)

        def load():
            raise fc_kernel.KernelUnavailable("no C compiler (cc) on PATH")

        monkeypatch.setattr(fc_kernel, "load", load)
        with pytest.raises(fc_kernel.KernelUnavailable):
            generate_complete(9, 4)
        with pytest.raises(fc_kernel.KernelUnavailable):
            poke_holes(square, HoleSpec(mode=BALANCED, holes_per_line=3), 5)

    @pytest.mark.parametrize("h", [0, 6, 7])
    def test_direct_patterns_stay_in_python(self, monkeypatch, h):
        expected = reference.balanced_holes(7, h, random.Random(1))
        monkeypatch.setattr(fc_kernel, "load", lambda: _NoKernel())
        assert latin._balanced_holes(7, h, 1) == expected

    def test_unbalanced_stays_in_python(self, monkeypatch):
        square = generate_complete(6, 2)
        expected = poke_holes(square, HoleSpec(mode=UNBALANCED, total_holes=11), 3)
        monkeypatch.setattr(fc_kernel, "load", lambda: _NoKernel())
        assert poke_holes(square, HoleSpec(mode=UNBALANCED, total_holes=11), 3) == expected
