"""Partial Latin squares: structure, generation, and hole poking.

A quasigroup-with-holes instance is built by generating a complete Latin
square and then erasing cells, which keeps the instance satisfiable by
construction.  Balanced erasure (the same number of holes in every row and
every column) produces markedly harder search problems than unconstrained
erasure at the same hole count.

Both seeded generators, the square fill and the balanced hole pattern, run
in the C kernel (see fc_kernel) for orders up to 64, each on a Mersenne
Twister that the kernel's mt_seed seeds as random.Random(seed) seeds it, so
they draw what random.Random(seed) would; the test suite's Python loops
(tests/reference.py) are their reference.  Unbalanced holes, and balanced
patterns of 0, n-1 or n holes per line, are drawn here in Python, on
random.Random(seed).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, List, Optional, Sequence, Tuple

from . import fc_kernel
from .seeds import normalize_seed

# Marker for an unfilled cell.  Symbols are 1..n, so None can never collide.
HOLE: Optional[int] = None

Cells = Tuple[Tuple[Optional[int], ...], ...]

UNBALANCED = "unbalanced"
BALANCED = "balanced"


class StructureError(ValueError):
    """Raised for malformed grids: bad shape, bad symbol range, bad hole spec."""


# The types and values a row may hold to pass construction without the
# per-cell loop (which also accepts int subclasses and words each error).
_CELL_TYPES = frozenset((int, type(HOLE)))


@lru_cache(maxsize=None)
def _cell_values(n: int) -> frozenset:
    return frozenset(range(1, n + 1)) | {HOLE}


@dataclass(frozen=True)
class PartialLatinSquare:
    """An order-n grid whose cells hold a symbol in 1..n or HOLE.

    Construction checks structure only (shape and symbol range); the Latin
    property itself is checked by the kernel's fc_init as each run starts
    (tests/reference.py keeps validate as its oracle), so that squares with
    duplicate symbols are representable and reportable.
    """

    order: int
    cells: Cells

    def __post_init__(self) -> None:
        n = self.order
        if not isinstance(n, int) or n < 1:
            raise StructureError(f"order must be a positive int, got {n!r}")
        if not isinstance(self.cells, tuple) or len(self.cells) != n:
            raise StructureError(f"expected {n} rows, got {len(self.cells)}")
        values = _cell_values(n)
        for r, row in enumerate(self.cells):
            if not isinstance(row, tuple) or len(row) != n:
                raise StructureError(f"row {r} has {len(row)} cells, expected {n}")
            if _CELL_TYPES.issuperset(map(type, row)) and values.issuperset(row):
                continue  # the common case, checked without a Python loop
            for c, v in enumerate(row):
                if v is HOLE:
                    continue
                if not isinstance(v, int) or isinstance(v, bool) or not (1 <= v <= n):
                    raise StructureError(
                        f"cell ({r},{c}) holds {v!r}, expected 1..{n} or HOLE"
                    )

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[Optional[int]]]) -> "PartialLatinSquare":
        cells = tuple(tuple(row) for row in rows)
        return cls(order=len(cells), cells=cells)

    @classmethod
    def from_flat(cls, n: int, symbols: Sequence[Optional[int]]) -> "PartialLatinSquare":
        """The order-n square whose n*n cells are listed row-major."""
        return cls.from_rows(symbols[i:i + n] for i in range(0, n * n, n))

    def holes(self) -> Iterator[Tuple[int, int]]:
        for r, row in enumerate(self.cells):
            for c, v in enumerate(row):
                if v is HOLE:
                    yield (r, c)

    def hole_count(self) -> int:
        return sum(1 for _ in self.holes())

    def is_complete(self) -> bool:
        return all(HOLE not in row for row in self.cells)


def _bits_to_symbols(mask: int) -> List[int]:
    out = []
    while mask:
        b = mask & -mask
        out.append(b.bit_length())
        mask ^= b
    return out


# Placements and retreats per kernel call while filling a square, so that a
# long search returns to Python, and to Ctrl-C, many times a second.
_FILL_STEPS = 1 << 20


def _fill_square(n: int, seed: int) -> List[int]:
    """Row-major symbols of a complete order-n Latin square drawn from
    random.Random(seed)'s stream, for 0 <= seed < 2**64."""
    kernel = fc_kernel.for_order(n)
    ffi, lib = kernel.ffi, kernel.lib
    buffers = {
        "flat": ffi.new("int[]", n * n),
        "cands": ffi.new("int[]", n * n * n),
        "n_cands": ffi.new("int[]", n * n),
        "row_used": ffi.new("uint64_t[]", n),
        "col_used": ffi.new("uint64_t[]", n),
    }
    square = ffi.new("lq_square *", dict(buffers, n=n))
    state = ffi.new("mt_state *")
    lib.mt_seed(state, seed)
    while (done := lib.lq_fill(state, square, _FILL_STEPS)) == 0:
        pass
    if done < 0:
        raise RuntimeError("backtracked past the first cell")
    return ffi.unpack(buffers["flat"], n * n)


def generate_complete(n: int, seed: int) -> PartialLatinSquare:
    """Generate a complete order-n Latin square by randomized backtracking.

    Cells are filled in row-major order; each cell draws a uniformly random
    symbol among those still legal for its row and column, backtracking on
    dead ends.  Any complete Latin rectangle extends to a full square, so the
    search never has to retreat past a completed row and always terminates.
    The construction is deterministic per seed but does not sample uniformly
    from all Latin squares.
    """
    if n < 1:
        raise StructureError(f"order must be >= 1, got {n}")
    return PartialLatinSquare.from_flat(n, _fill_square(n, normalize_seed(seed)))


@dataclass(frozen=True)
class HoleSpec:
    """How to erase cells: a flat total, or a per-line count for balance."""

    mode: str
    total_holes: Optional[int] = None
    holes_per_line: Optional[int] = None

    def __post_init__(self) -> None:
        if self.mode == UNBALANCED:
            if self.total_holes is None or self.total_holes < 0:
                raise StructureError("unbalanced spec needs total_holes >= 0")
        elif self.mode == BALANCED:
            if self.holes_per_line is None or self.holes_per_line < 0:
                raise StructureError("balanced spec needs holes_per_line >= 0")
        else:
            raise StructureError(f"unknown hole mode {self.mode!r}")

    @classmethod
    def unbalanced(cls, total_holes: int) -> "HoleSpec":
        return cls(mode=UNBALANCED, total_holes=total_holes)

    @classmethod
    def balanced(cls, holes_per_line: int) -> "HoleSpec":
        return cls(mode=BALANCED, holes_per_line=holes_per_line)


_PATTERN_RETRIES = 1000


def _balanced_holes(n: int, h: int, seed: int) -> List[int]:
    """Row masks (bit c of mask r for cell (r, c)) of the support of h
    pairwise-disjoint random permutation matrices, drawn from
    random.Random(seed)'s stream, for 0 <= seed < 2**64.

    Each permutation is drawn by rejection against the cells already taken,
    with the whole pattern restarted after 1000 failed draws for one slot.
    h == n and h == n-1 admit essentially one shape (everything, or all but
    one permutation), where rejection would almost never terminate, so those
    are drawn directly with the same distribution.
    """
    full = (1 << n) - 1
    if h == 0:
        return [0] * n
    if h == n:
        return [full] * n
    if h == n - 1:
        keep = list(range(n))
        random.Random(seed).shuffle(keep)
        return [full ^ 1 << c for c in keep]
    kernel = fc_kernel.for_order(n)
    ffi, lib = kernel.ffi, kernel.lib
    taken = ffi.new("uint64_t[]", n)
    state = ffi.new("mt_state *")
    lib.mt_seed(state, seed)
    while not lib.lq_hole_pattern(state, n, h, _PATTERN_RETRIES, taken):
        pass
    return ffi.unpack(taken, n)


def poke_holes(square: PartialLatinSquare, spec: HoleSpec, seed: int) -> PartialLatinSquare:
    """Erase cells from a complete square according to spec, deterministically.

    Unbalanced mode samples total_holes cell positions uniformly without
    replacement.  Balanced mode erases holes_per_line cells in every row and
    every column by composing disjoint random permutation matrices.
    """
    if not square.is_complete():
        raise StructureError("poke_holes requires a complete square")
    n = square.order
    seed = normalize_seed(seed)
    if spec.mode == UNBALANCED:
        k = spec.total_holes
        if k > n * n:
            raise StructureError(f"total_holes {k} exceeds {n * n} cells")
        masks = [0] * n
        for p in random.Random(seed).sample(range(n * n), k):
            masks[p // n] |= 1 << p % n
    else:
        h = spec.holes_per_line
        if h > n:
            raise StructureError(f"holes_per_line {h} exceeds order {n}")
        masks = _balanced_holes(n, h, seed)
    return PartialLatinSquare(order=n, cells=tuple(map(_erase, square.cells, masks)))


def _erase(row: Tuple[Optional[int], ...], mask: int) -> Tuple[Optional[int], ...]:
    """The row with a hole in each column whose bit is set in mask."""
    cells = list(row)
    for c in _bits_to_symbols(mask):
        cells[c - 1] = HOLE
    return tuple(cells)
