"""Instance generation time on the C kernel: generate_complete and balanced
poke_holes in milliseconds.

    PYTHONPATH=src python tools/bench_generation.py [--out BENCH_generation.json]

Cases:
  desk           the desk instance: order 18, 7 holes per line, square seed
                 derive_seed(81, "instance"), mask seed derive_seed(81, "mask")
  multi-alldiff  the 48 instances of the multi-alldiff benchmark workload:
                 order 20, 8 holes per line, seeds derive_seed(81, "inst", i)
                 and derive_seed(81, "mask", i); one figure is all 48
  order 34       generate_complete(34, s) and poke_holes with 9, 10 and 11
                 holes per line and seed s, for s = 1..5 (1..3 at 11 holes)

poke_holes at order 34 erases cells of the cyclic square (r + c) mod 34: the
hole pattern depends only on the order, the holes per line and the seed, and
the cyclic square needs no fill.  Every order-34 figure runs in its own
process under a TIMEOUT (300 s) limit; a case that does not finish is
recorded with "finished": false.

Each figure is the median, quartiles and range of REPEATS (7) timings, or
of one timing when the first took longer than LONG (10 s).  Next to it are
the deterministic work (instances, and hole-pattern attempts: the passes
that drew h permutations or gave up on one), nproc and the Python version.
That the kernel draws the squares and patterns of the Python reference is
the identity tests' job (tests/test_latin.py).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from restartlab import fc_kernel
from restartlab.latin import HoleSpec, PartialLatinSquare, generate_complete, poke_holes
from restartlab.seeds import derive_seed

SEED = 81
REPEATS = 7
LONG = 10.0
TIMEOUT = 300
ORDER_34_SEEDS = {9: range(1, 6), 10: range(1, 6), 11: range(1, 4)}


class _CountingLib:
    """A kernel lib that counts hole-pattern passes."""

    def __init__(self, lib):
        self._lib = lib
        self.patterns = 0

    def __getattr__(self, name):
        return getattr(self._lib, name)

    def lq_hole_pattern(self, *args):
        self.patterns += 1
        return self._lib.lq_hole_pattern(*args)


class _CountingKernel:
    def __init__(self, kernel):
        self.ffi = kernel.ffi
        self.lib = _CountingLib(kernel.lib)


@contextlib.contextmanager
def counting():
    """The kernel, with its hole-pattern passes counted, for the block."""
    kernel = _CountingKernel(fc_kernel.load())
    saved = fc_kernel.load
    fc_kernel.load = lambda: kernel
    try:
        yield kernel.lib
    finally:
        fc_kernel.load = saved


def timings(fn):
    """Milliseconds of REPEATS calls of fn, or of one when it is slow."""
    out = []
    while len(out) < REPEATS:
        t0 = time.perf_counter()
        fn()
        out.append((time.perf_counter() - t0) * 1e3)
        if out[0] > LONG * 1e3:
            break
    return out


def spread(xs):
    if len(xs) == 1:
        return {"median": xs[0], "q1": xs[0], "q3": xs[0], "min": xs[0], "max": xs[0], "n": 1}
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "min": min(xs), "max": max(xs), "n": len(xs)}


def cyclic(n: int) -> PartialLatinSquare:
    return PartialLatinSquare.from_rows([[(r + c) % n + 1 for c in range(n)] for r in range(n)])


def instances(pairs, order, holes):
    """Timings of generate_complete and poke_holes over (square, mask) seeds."""
    spec = HoleSpec.balanced(holes)
    squares = [generate_complete(order, s) for s, _ in pairs]

    def generate():
        for s, _ in pairs:
            generate_complete(order, s)

    def poke():
        for square, (_, m) in zip(squares, pairs):
            poke_holes(square, spec, m)

    case = {"order": order, "holes_per_line": holes, "instances": len(pairs),
            "generate_complete_ms": spread(timings(generate))}
    with counting() as lib:
        ms = timings(poke)
    case["poke_holes_ms"] = spread(ms)
    case["pattern_attempts"] = lib.patterns // len(ms)
    return case


def one(kind: str, seed: int, holes: int) -> dict:
    """One order-34 figure, run in a child process."""
    if kind == "generate_complete":
        return {"ms": timings(lambda: generate_complete(34, seed))}
    square = cyclic(34)
    spec = HoleSpec.balanced(holes)
    with counting() as lib:
        ms = timings(lambda: poke_holes(square, spec, seed))
    return {"ms": ms, "pattern_attempts": lib.patterns // len(ms)}


def order_34(kind: str, seed: int, holes: int) -> dict:
    case = {"order": 34, "seed": seed, "timeout_s": TIMEOUT}
    if kind == "poke_holes":
        case["holes_per_line"] = holes
    argv = [sys.executable, __file__, "--one", kind, str(seed), str(holes)]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        case["finished"] = False
        return case
    if proc.returncode != 0:
        raise RuntimeError(f"{argv} exited {proc.returncode}: {proc.stderr.strip()}")
    result = json.loads(proc.stdout)
    case["finished"] = True
    case["process_s"] = time.perf_counter() - t0
    case[f"{kind}_ms"] = spread(result["ms"])
    if "pattern_attempts" in result:
        case["pattern_attempts"] = result["pattern_attempts"]
    return case


def show(name, case):
    parts = [f"{name:24}"]
    for key in ("generate_complete_ms", "poke_holes_ms"):
        if key in case:
            parts.append(f"{key} {case[key]['median']:10.2f} (q1 {case[key]['q1']:.2f},"
                         f" q3 {case[key]['q3']:.2f}, n {case[key]['n']})")
    if case.get("finished") is False:
        parts.append(f"did not finish within {TIMEOUT} s")
    if "pattern_attempts" in case:
        parts.append(f"{case['pattern_attempts']} attempts")
    print(" ".join(parts), flush=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="BENCH_generation.json")
    ap.add_argument("--one", nargs=3, metavar=("KIND", "SEED", "HOLES"), help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    try:
        fc_kernel.load()
    except fc_kernel.KernelUnavailable as exc:
        print(f"the C kernel is unavailable: {exc}", file=sys.stderr)
        return 1
    if args.one:
        kind, seed, holes = args.one
        print(json.dumps(one(kind, int(seed), int(holes))))
        return 0
    multi = [(derive_seed(SEED, "inst", i), derive_seed(SEED, "mask", i)) for i in range(48)]
    cases = []
    for name, case in [
        ("desk", lambda: instances([(derive_seed(SEED, "instance"), derive_seed(SEED, "mask"))], 18, 7)),
        ("multi-alldiff", lambda: instances(multi, 20, 8)),
    ]:
        case = dict(case=name, **case())
        cases.append(case)
        show(name, case)
    for seed in range(1, 6):
        case = dict(case="order 34", **order_34("generate_complete", seed, 0))
        cases.append(case)
        show(f"generate_complete 34 s={seed}", case)
    for holes, seeds in ORDER_34_SEEDS.items():
        for seed in seeds:
            case = dict(case="order 34", **order_34("poke_holes", seed, holes))
            cases.append(case)
            show(f"poke_holes 34 h={holes} s={seed}", case)
    result = {
        "benchmark": "instance generation milliseconds on the C kernel",
        "command": "PYTHONPATH=src python tools/bench_generation.py",
        "repeats": REPEATS,
        "environment": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
        "cases": cases,
    }
    Path(args.out).write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
