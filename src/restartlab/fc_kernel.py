"""Build and load the C kernel (`_fc_kernel.c`) through cffi.

The kernel runs the solver's whole search at both propagation levels (forward
checking and Regin alldiff filtering), tracing the feature rows and writing
their summary itself, on a Mersenne Twister seeded as `random.Random(seed)` seeds it; and
the two seeded instance generators of `latin` (square fill and balanced hole
pattern) on a copy of a `random.Random` state (`mt_stream`).  For
`policy.simulate_policy` it prices every round of every trial on a copy of
numpy's PCG64 state (`pcg64_stream`): it draws what the numpy round loop
draws, `Generator.integers` rows and `Generator.random` flips, and only
skips the draws of a round that no run can win.

Its constants, structs and entry points are declared once, in
`_fc_kernel.h`: the C source includes that header, and cffi reads it as the
declarations Python sees.  The kernel is compiled on first use, never at
import: cffi emits the wrapper source and one `cc -O2 -shared -fPIC` call
compiles it.  The module file is named by the SHA-256 of everything that
goes into it (both files, the cffi version and the flags) and lives in the
first usable cache directory ($XDG_CACHE_HOME/restartlab or
~/.cache/restartlab, then a per-user directory under the system temp dir).
A finished build is moved into place with os.replace, so concurrent
builders never see a partial file.  The cache keeps every build that some
process has loaded within the last week (each load refreshes its build's
mtime), so checkouts of different revisions sharing one cache do not
rebuild each other's module; a new build removes the other, older ones.

The kernel is required, as cffi is: the solver, the two generators and the
policy rounds have no other implementation (their Python oracles live in
the test suite, in tests/reference.py).  When cffi, the compiler, either
kernel file or every cache directory is unavailable, `load` raises
KernelUnavailable saying why, and `for_order` also refuses orders above
MAX_ORDER.
"""

from __future__ import annotations

import array
import contextlib
import functools
import hashlib
import importlib.util
import io
import os
import random
import shutil
import subprocess
import sysconfig
import tempfile
import time
from pathlib import Path
from typing import List

SOURCE = Path(__file__).with_name("_fc_kernel.c")
HEADER = SOURCE.with_suffix(".h")

COMPILER = "cc"
CFLAGS = ("-O2", "-shared", "-fPIC")

# Domains and line masks are 64-bit masks.
MAX_ORDER = 64

# A superseded build that has not been loaded for this long is removed.
_STALE_SECONDS = 7 * 24 * 3600

_MASK64 = (1 << 64) - 1


class KernelUnavailable(Exception):
    """The kernel cannot be built or loaded here; the message says why."""


def _cache_dirs() -> List[Path]:
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    return [Path(base) / "restartlab",
            Path(tempfile.gettempdir()) / f"restartlab-{os.getuid()}"]


def _usable(d: Path) -> bool:
    try:
        d.mkdir(mode=0o700, parents=True, exist_ok=True)
    except OSError:
        return False
    return os.access(d, os.W_OK | os.X_OK) and d.stat().st_uid == os.getuid()


def _module_name(source: str, header: str, backend_version: str) -> str:
    h = hashlib.sha256()
    for part in (source, header, backend_version, " ".join(CFLAGS)):
        h.update(part.encode("utf-8"))
        h.update(b"\0")
    return "_fc_" + h.hexdigest()


def _build(name: str, source: str, header: str, target: Path) -> None:
    try:
        import cffi
    except ImportError as exc:
        raise KernelUnavailable(f"cffi is not installed ({exc})") from None
    cc = shutil.which(COMPILER)
    if cc is None:
        raise KernelUnavailable(f"no C compiler ({COMPILER}) on PATH")
    ffi = cffi.FFI()
    ffi.cdef(header)
    ffi.set_source(name, source)
    with tempfile.TemporaryDirectory(dir=target.parent, prefix=".build-") as tmp:
        c_file = os.path.join(tmp, name + ".c")
        so_file = os.path.join(tmp, target.name)
        with contextlib.redirect_stdout(io.StringIO()):  # cffi announces the file
            ffi.emit_c_code(c_file)
        include = sysconfig.get_paths()["include"]
        try:
            proc = subprocess.run(
                [cc, *CFLAGS, f"-I{include}", f"-I{HEADER.parent}", c_file, "-o", so_file],
                capture_output=True, text=True, timeout=300,
            )
        except subprocess.TimeoutExpired as exc:
            raise KernelUnavailable(f"{COMPILER} did not finish ({exc})") from None
        if proc.returncode != 0:
            last = (proc.stderr.strip().splitlines() or ["no output"])[-1]
            raise KernelUnavailable(f"{COMPILER} exited {proc.returncode}: {last}")
        os.replace(so_file, target)


def _load():
    try:
        import _cffi_backend
    except ImportError as exc:
        raise KernelUnavailable(f"cffi is not installed ({exc})") from None
    try:
        source = SOURCE.read_text(encoding="utf-8")
        header = HEADER.read_text(encoding="utf-8")
    except OSError as exc:
        raise KernelUnavailable(f"cannot read the kernel source ({exc})") from None
    name = _module_name(source, header, _cffi_backend.__version__)
    filename = name + sysconfig.get_config_var("EXT_SUFFIX")
    cache = next((d for d in _cache_dirs() if _usable(d)), None)
    if cache is None:
        raise KernelUnavailable("no writable cache directory")
    target = cache / filename
    # Load first and build only when that fails, so a build that another
    # process removes at any moment is rebuilt rather than a failure.
    try:
        module = _import(name, target)
    except (ImportError, OSError):
        try:
            _build(name, source, header, target)
        except OSError as exc:
            raise KernelUnavailable(f"cannot build in {cache} ({exc})") from None
        _remove_stale(target)
        try:
            module = _import(name, target)
        except (ImportError, OSError) as exc:
            raise KernelUnavailable(f"cannot load {target} ({exc})") from None
    with contextlib.suppress(OSError):
        os.utime(target)  # marks the build as in use
    return module


def _import(name: str, target: Path):
    spec = importlib.util.spec_from_file_location(name, target)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _remove_stale(target: Path) -> None:
    """Delete the other builds of target's EXT_SUFFIX in its directory that
    no process has loaded for _STALE_SECONDS (every load refreshes its build's
    mtime), ignoring errors: another process may be removing one too."""
    cutoff = time.time() - _STALE_SECONDS
    for path in target.parent.glob("_fc_*" + sysconfig.get_config_var("EXT_SUFFIX")):
        with contextlib.suppress(OSError):
            if path != target and path.stat().st_mtime < cutoff:
                path.unlink()


@contextlib.contextmanager
def mt_stream(ffi, rng: random.Random):
    """rng's Mersenne Twister state as a kernel mt_state; afterwards rng
    continues from wherever the kernel left the stream.

    The state tuple of getstate, 624 words and the index, is laid out as an
    mt_state (a uint32_t[624] and an int, without padding), so it is copied
    into one array of 32-bit words and read back from it whole."""
    version, internal, gauss_next = rng.getstate()
    words = array.array("I", internal)
    yield ffi.cast("mt_state *", ffi.from_buffer(words))
    rng.setstate((version, tuple(words), gauss_next))


@contextlib.contextmanager
def pcg64_stream(ffi, bit_generator):
    """A PCG64 bit generator's state as a kernel pcg64_state; afterwards the
    generator continues from wherever the kernel left the stream."""
    state = bit_generator.state
    lcg = state["state"]
    st = ffi.new("pcg64_state *", {
        "state_hi": lcg["state"] >> 64, "state_lo": lcg["state"] & _MASK64,
        "inc_hi": lcg["inc"] >> 64, "inc_lo": lcg["inc"] & _MASK64,
        "has_uint32": state["has_uint32"], "uinteger": state["uinteger"],
    })
    yield st
    lcg["state"] = st.state_hi << 64 | st.state_lo
    state["has_uint32"] = st.has_uint32
    state["uinteger"] = st.uinteger
    bit_generator.state = state


@functools.lru_cache(maxsize=None)
def load():
    """The compiled kernel module (with `.ffi` and `.lib`), built at most once
    per process; KernelUnavailable says why there is none."""
    return _load()


def for_order(n: int):
    """The kernel, for a square of order n: ValueError above MAX_ORDER, whose
    domains and line masks no longer fit 64 bits, else load()."""
    if n > MAX_ORDER:
        raise ValueError(f"order {n} exceeds the C kernel's maximum order {MAX_ORDER}")
    return load()
