"""The RK4 driver's compiled loop, kernel.multiply's compiled graded product
and the trajectory CSV's float text: rk4.c, built on first use, loaded with
ctypes.

Nothing is built at import. The first `Program.runner()`, `product()` or
`status()` builds rk4.c with COMPILER and FLAGS into CACHE as
rk4-<checksums of the source and flags>.so, through a temp file and os.replace,
and removes the libraries of other keys, so the cache holds one. The
compiler's output is captured and the build has a timeout. A cached library
is loaded without a compiler. Then the first use picks the library's
complex-multiply spelling that matches np.multiply on this host (see
rk4.c). Without a compiler, or with a failed build or load, `runner()` and
`product()` return None, and the driver runs its numpy loop and
kernel.multiply its numpy product. If numpy matches neither spelling,
only `runner()` does: the product has no complex multiply. `status()` and
`product_status()` say which it is. `formatter()` writes the text that
repr writes, so it is there exactly when the library loads (and gcc has
128-bit integers); without it the CSV writer formats with repr itself.
"""

import ctypes
import functools
import math
import os
import shutil
import tempfile
import threading
import zlib
from pathlib import Path

import numpy as np

SOURCE = Path(__file__).with_name("rk4.c")
CACHE = Path(__file__).with_name("__pycache__")
COMPILER = "gcc"
# -fno-tree-vectorize: gcc 12's SLP vectorizer turns the fma entry points'
# p*c - q*d, p*d + q*c pairs into vfmaddsub even with -ffp-contract=off.
# rk4.c's own vector code, the fused ladder's, keeps every bit: each lane runs
# the scalar ops in their order, unfused here, and nothing sets FTZ or DAZ.
FLAGS = ("-O2", "-ffp-contract=off", "-fno-fast-math", "-fno-tree-vectorize", "-shared",
         "-fPIC")
BUILD_TIMEOUT = 60  # seconds
TEXT_BYTES = 25  # rk4.c's longest float text, -1.2345678901234567e-308, and a separator

_F64, _C128 = np.dtype(np.float64), np.dtype(np.complex128)
_P = ctypes.c_void_p


class _Program(ctypes.Structure):  # rk4.c's program
    _fields_ = [(name, ctypes.c_int64) for name in ("rows", "dim", "n_pairs")] + [
        (name, _P) for name in ("left", "right", "target", "re_sign", "im_sign")] + [
        (name, ctypes.c_int64) for name in ("turn_rows", "eta_mask")] + [
        (name, _P) for name in ("sq", "level")]


_lock = threading.Lock()
_chosen = None  # what _load returns: the library's entry points, or why numpy runs


def _build() -> Path:
    """The cached library, built first if it is not there (OSError
    otherwise)."""
    # a cache key, not a security hash: hashlib would map OpenSSL (3.6 MB RSS)
    key = SOURCE.read_bytes() + " ".join(FLAGS).encode()
    lib = CACHE / f"rk4-{zlib.crc32(key):08x}{zlib.adler32(key):08x}.so"
    if lib.exists():
        return lib
    compiler = shutil.which(COMPILER)
    if compiler is None:
        raise OSError(f"no C compiler {COMPILER!r} on PATH")
    import subprocess  # here, not at import: only a build needs it

    CACHE.mkdir(exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=".rk4-", suffix=".so", dir=CACHE)
    os.close(fd)
    try:
        try:
            proc = subprocess.run([compiler, *FLAGS, "-o", tmp, str(SOURCE), "-lm"],
                                  capture_output=True, text=True, timeout=BUILD_TIMEOUT)
        except subprocess.SubprocessError as exc:  # the timeout, after a kill and a wait
            raise OSError(str(exc)) from exc
        if proc.returncode != 0:
            tail = (proc.stderr.strip().splitlines() or ["no output"])[-1]
            raise OSError(f"{COMPILER} exited {proc.returncode}: {tail}")
        os.replace(tmp, lib)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)
    for stale in CACHE.glob("rk4-*.so"):
        if stale != lib:
            stale.unlink(missing_ok=True)
    return lib


def _spelling_probe():
    """Complex pairs whose products tell the two spellings apart, whichever
    product the fma fuses, and pairs of full-mantissa parts of both signs
    (not np.random's: importing it costs a run 6 MB of resident memory)."""
    x, y = 1 + 2.0**-30, 1 + 2.0**-29
    crafted = [(complex(x, x), complex(x, x)), (complex(x, -x), complex(x, x)),
               (complex(x, y), complex(x, y)), (complex(y, x), complex(x, -y))]
    for k in range(1, 65):
        sign = -1.0 if k % 3 == 0 else 1.0
        crafted.append((complex(sign * math.sqrt(k + 1), math.log(k / 32.5)),
                        complex(math.log(k + 1.5), -sign * math.sqrt(k + 0.25))))
    return tuple(np.array(side, dtype=np.complex128) for side in zip(*crafted))


def _reference(a, b):
    """numpy's products of the probe pairs, which a spelling must match."""
    return np.multiply(a, b)


@functools.cache
def _pow10_table() -> np.ndarray:
    """rk4.c's table g of Schubfach's 126-bit powers of ten, for k in
    [-324, 292]: with 10^-k = beta 2^r and 2^125 <= beta < 2^126, g =
    floor(beta) + 1, as the pair (g >> 63, g mod 2^63). Exact integers,
    built on the formatter's first use and kept."""
    pairs = []
    for k in range(-324, 293):
        if k <= 0:
            n = 10**-k
            r = n.bit_length() - 126
            beta = n >> r if r >= 0 else n << -r
        else:  # 1 / 10^k, which is no power of two
            n = 10**k
            beta = (1 << (n.bit_length() + 125)) // n
        g = beta + 1
        pairs.append((g >> 63, g & ((1 << 63) - 1)))
    return np.array(pairs, dtype=np.uint64)


def _formatter(fn):
    """format_rows(block) over rk4.c's cohstab_format_rows `fn`: the text
    of a C-contiguous 2-D float64 block, each row
    ",".join(map(repr, row)) + "\n", through one buffer of the block's
    size."""
    def format_rows(block):
        if not (isinstance(block, np.ndarray) and block.dtype == _F64 and block.ndim == 2
                and block.flags.c_contiguous and block.shape[1] > 0):
            raise ValueError("block is not a C-contiguous 2-D float64 array with columns")
        out = np.empty(block.size * TEXT_BYTES, dtype=np.uint8)
        n = fn(*block.shape, block.ctypes.data, _pow10_table().ctypes.data, out.ctypes.data)
        return str(out[:n], "ascii")

    return format_rows


def _load():
    """({RHS kind: chunk function} or why the numpy loop runs, spelling,
    product, formatter or None), or the reason there is no library."""
    try:
        lib = ctypes.CDLL(str(_build()))
    except OSError as exc:
        return f"no compiled library ({exc})"
    lib.cohstab_multiply.argtypes = [ctypes.c_int64, ctypes.c_int64, _P, _P, _P, _P]
    lib.cohstab_multiply.restype = None
    for name in ("cohstab_cmul_plain", "cohstab_cmul_fma"):
        getattr(lib, name).argtypes = [ctypes.c_int64, _P, _P, _P]
    fmt = getattr(lib, "cohstab_format_rows", None)  # compiled out without __int128
    if fmt is not None:
        fmt.argtypes = [ctypes.c_int64, ctypes.c_int64, _P, _P, _P]
        fmt.restype = ctypes.c_int64
        fmt = _formatter(fmt)
    a, b = _spelling_probe()
    want = _reference(a, b)
    spellings = ("fma", "plain") if lib.cohstab_has_fma() else ("plain",)
    for spelling in spellings:
        got = np.empty_like(a)
        getattr(lib, f"cohstab_cmul_{spelling}")(len(a), a.ctypes.data, b.ctypes.data,
                                                  got.ctypes.data)
        if np.array_equal(got.view(np.uint64), want.view(np.uint64)):
            runs = {"plan": getattr(lib, f"cohstab_rk4_chunk_{spelling}"),
                    "ladder": getattr(lib, f"cohstab_rk4_ladder_{spelling}")}
            for run in runs.values():
                run.argtypes = [ctypes.POINTER(_Program), ctypes.c_int64, _P, _P, _P, _P, _P]
                run.restype = None
            return runs, spelling, lib.cohstab_multiply, fmt
    # the product and the formatter have no complex multiply, so they run
    # whatever the spelling
    return ("numpy's complex multiply matches neither compiled spelling", None,
            lib.cohstab_multiply, fmt)


def _library():
    global _chosen
    with _lock:
        if _chosen is None:
            _chosen = _load()
        return _chosen


def status() -> str:
    """Which loop the RK4 driver runs for a compiled program, with its
    complex-multiply spelling and how wide its boson ladder runs, loading
    the library if no run has yet."""
    chosen = _library()
    reason = chosen if isinstance(chosen, str) else chosen[0]
    if isinstance(reason, str):
        return f"numpy loop: {reason}"
    width = "two levels per AVX register" if chosen[1] == "fma" else "scalar"  # see rk4.c
    return (f"compiled C loop ({SOURCE.name}), {chosen[1]} complex-multiply spelling, "
            f"boson ladder {width}")


def product_status() -> str:
    """Which graded product kernel.multiply runs, loading the library if no
    run has yet."""
    chosen = _library()
    if isinstance(chosen, str):
        return f"numpy (pyref.py): {chosen}"
    return f"compiled C ({SOURCE.name})"


def product():
    """rk4.c's cohstab_multiply(n_gen, rows, sign, a, b, out), which checks
    nothing, or None if kernel.multiply runs its numpy product."""
    chosen = _chosen if _chosen is not None else _library()
    return None if isinstance(chosen, str) else chosen[2]


def formatter():
    """format_rows(block), the text of rk4.c's cohstab_format_rows: each row
    of a C-contiguous 2-D float64 block as ",".join(map(repr, row)) + "\n",
    or None if the library does not load or was built by a gcc without
    128-bit integers."""
    chosen = _chosen if _chosen is not None else _library()
    return None if isinstance(chosen, str) else chosen[3]


class Program:
    """An RHS as rk4.c runs it, its indices and sizes checked here, once.

    Program(plan, turn_rows, eta_mask) is a fused plan's: the plan over a
    state of as many rows as its out, the first `turn_rows` rows multiplied
    by -1j, and given `eta_mask` the Grassmann law's post-ops on the next
    two rows (zeta, phi), eta at eta_mask and delta at the body.
    Program.ladder(sq) is the boson Schrödinger RHS."""

    def __init__(self, plan, turn_rows: int, eta_mask=None):
        rows, dim = plan.out_shape
        left, right, target = (np.ascontiguousarray(i, dtype=np.int64) for i in plan.pairs)
        # the struct points into these
        self._arrays = (left, right, target, *(np.ascontiguousarray(s[0]) for s in plan.sign))
        n = rows * dim
        if not (plan.strides == [n, 4, n] and 0 <= turn_rows <= rows
                and (eta_mask is None or (turn_rows <= rows - 2 and 0 <= eta_mask < dim))
                and all(((i >= 0) & (i < size)).all()
                        for i, size in ((left, n), (right, 4), (target, n)))):
            raise ValueError("the plan is not one rk4.c can run")
        self.kind, self.state = "plan", (rows, dim)
        self.struct = _Program(rows, dim, len(left), *(a.ctypes.data for a in self._arrays),
                               turn_rows, -1 if eta_mask is None else eta_mask, None, None)

    @classmethod
    def ladder(cls, sq):
        """The boson Schrödinger RHS on len(sq) + 1 levels, sq the float64
        ladder table boson._ladder_sqrt(levels) that the numpy RHS reads."""
        if not (isinstance(sq, np.ndarray) and sq.dtype == _F64 and sq.ndim == 1):
            raise ValueError("sq is not a 1-D float64 array")
        self = cls.__new__(cls)
        levels = len(sq) + 1
        # the struct points into these: the factors sq and 0 .. levels - 1 as
        # rk4.c multiplies them, widened to (x, +0.0) once here
        self._arrays = tuple(np.array(x, dtype=_C128) for x in (sq, np.arange(levels)))
        self.kind, self.state = "ladder", (levels,)
        self.struct = _Program(1, levels, 0, None, None, None, None, None, 0, -1,
                               *(a.ctypes.data for a in self._arrays))
        return self

    def runner(self):
        """run(table, dts, pair, states) over one block of grid steps, or
        None if the driver runs its numpy loop."""
        chosen = _library()
        runs = chosen if isinstance(chosen, str) else chosen[0]
        if isinstance(runs, str):
            return None
        fn, state = runs[self.kind], self.state
        work = np.empty((5,) + state, dtype=np.complex128)

        def run(table, dts, pair, states):
            """K grid steps: table (K, 5, 4) and dts (K, 3) as
            dynamics._coeff_tables yields them, pair (2,) + the state's
            shape updated in place, and pair[0] after grid step j + 1
            copied to states[j], of shape (K,) + the state's."""
            steps = len(dts)
            for name, a, dtype, shape in (
                    ("table", table, _C128, (steps, 5, 4)), ("dts", dts, _F64, (steps, 3)),
                    ("pair", pair, _C128, (2,) + state),
                    ("states", states, _C128, (steps,) + state)):
                if not (isinstance(a, np.ndarray) and a.dtype == dtype
                        and a.flags.c_contiguous and a.shape == shape):
                    raise ValueError(f"{name} is not a C-contiguous {dtype} array "
                                     f"of shape {shape}")
            if not pair.flags.writeable or not states.flags.writeable:
                raise ValueError("pair and states must be writeable")
            # self, not only its struct: run keeps the arrays it points into alive
            fn(ctypes.byref(self.struct), steps, table.ctypes.data, dts.ctypes.data,
               pair.ctypes.data, states.ctypes.data, work.ctypes.data)

        return run
