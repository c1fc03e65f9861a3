"""The RK4 driver's compiled loop: rk4.c, built on first use, loaded with ctypes.

Nothing is built at import. The first `Program.runner()` or `status()`
builds rk4.c with COMPILER and FLAGS into CACHE as
rk4-<checksums of the source and flags>.so, through a temp file and os.replace,
and removes the libraries of other keys, so the cache holds one. The
compiler's output is captured and the build has a timeout. A cached library
is loaded without a compiler. Then the first use picks the library's
complex-multiply spelling that matches np.multiply on this host (see
rk4.c). Without a compiler, with a failed build or load, or if numpy
matches neither spelling, `runner()` returns None and the driver runs its
numpy loop; `status()` says which it is.
"""

import ctypes
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
# p*c - q*d, p*d + q*c pairs into vfmaddsub even with -ffp-contract=off
FLAGS = ("-O2", "-ffp-contract=off", "-fno-fast-math", "-fno-tree-vectorize", "-shared",
         "-fPIC")
BUILD_TIMEOUT = 60  # seconds

_I64, _F64, _C128 = np.dtype(np.int64), np.dtype(np.float64), np.dtype(np.complex128)
_P = ctypes.c_void_p


class _Program(ctypes.Structure):  # rk4.c's program
    _fields_ = [(name, ctypes.c_int64) for name in ("rows", "dim", "n_pairs")] + [
        (name, _P) for name in ("left", "right", "target", "re_sign", "im_sign")] + [
        (name, ctypes.c_int64) for name in ("turn_rows", "law_row", "eta_mask",
                                            "delta_mask")] + [("sq", _P)]


_lock = threading.Lock()
_chosen = None  # ({RHS kind: chunk function}, spelling), or why the numpy loop runs


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


def _load():
    """({RHS kind: chunk function}, spelling), or the reason there is none."""
    try:
        lib = ctypes.CDLL(str(_build()))
    except OSError as exc:
        return f"no compiled library ({exc})"
    for name in ("cohstab_cmul_plain", "cohstab_cmul_fma"):
        getattr(lib, name).argtypes = [ctypes.c_int64, _P, _P, _P]
    a, b = _spelling_probe()
    want = np.multiply(a, b)
    spellings = ("fma", "plain") if lib.cohstab_has_fma() else ("plain",)
    for spelling in spellings:
        got = np.empty_like(a)
        getattr(lib, f"cohstab_cmul_{spelling}")(len(a), a.ctypes.data, b.ctypes.data,
                                                  got.ctypes.data)
        if np.array_equal(got.view(np.uint64), want.view(np.uint64)):
            runs = {"plan": getattr(lib, f"cohstab_rk4_chunk_{spelling}"),
                    "ladder": getattr(lib, f"cohstab_rk4_ladder_{spelling}")}
            for run in runs.values():
                run.argtypes = [ctypes.POINTER(_Program), ctypes.c_int64, _P, _P, _P,
                                ctypes.c_int64, _P, _P, _P]
                run.restype = None
            return runs, spelling
    return "numpy's complex multiply matches neither compiled spelling"


def _library():
    global _chosen
    with _lock:
        if _chosen is None:
            _chosen = _load()
        return _chosen


def status() -> str:
    """Which loop the RK4 driver runs for a compiled program, loading the
    library if no run has yet."""
    chosen = _library()
    if isinstance(chosen, str):
        return f"numpy loop: {chosen}"
    return f"compiled C loop ({SOURCE.name}), {chosen[1]} complex-multiply spelling"


class Program:
    """An RHS as rk4.c runs it, its indices and sizes checked here, once.

    Program(plan, turn_rows, law) is a fused plan's: the plan over a state
    of as many rows as its out, the first `turn_rows` rows multiplied by
    -1j, and with `law` = (row, eta mask, delta mask) the Grassmann law's
    post-ops on rows row, row + 1. Program.ladder(sq) is the boson
    Schrödinger RHS."""

    def __init__(self, plan, turn_rows: int, law=None):
        rows, dim = plan.out_shape
        left, right, target = (np.ascontiguousarray(i, dtype=np.int64) for i in plan.pairs)
        # the struct points into these
        self._arrays = (left, right, target, *(np.ascontiguousarray(s[0]) for s in plan.sign))
        law_row, eta_mask, delta_mask = (-1, 0, 0) if law is None else law
        n = rows * dim
        if not (plan.strides == [n, 4, n] and 0 <= turn_rows <= rows
                and (law is None or 0 <= law_row <= rows - 2)
                and 0 <= eta_mask < dim and 0 <= delta_mask < dim
                and all(((i >= 0) & (i < size)).all()
                        for i, size in ((left, n), (right, 4), (target, n)))):
            raise ValueError("the plan is not one rk4.c can run")
        self.kind, self.state = "plan", (rows, dim)
        self.struct = _Program(rows, dim, len(left),
                               *(a.ctypes.data for a in self._arrays),
                               turn_rows, law_row, eta_mask, delta_mask, None)

    @classmethod
    def ladder(cls, sq):
        """The boson Schrödinger RHS on len(sq) + 1 levels, sq the float64
        np.sqrt(np.arange(1, levels)) that the numpy RHS multiplies by."""
        if not (isinstance(sq, np.ndarray) and sq.dtype == _F64 and sq.ndim == 1):
            raise ValueError("sq is not a 1-D float64 array")
        self = cls.__new__(cls)
        self._arrays = (np.ascontiguousarray(sq),)  # the struct points into it
        self.kind, self.state = "ladder", (len(sq) + 1,)
        self.struct = _Program(1, len(sq) + 1, 0, None, None, None, None, None, 0, -1, 0, 0,
                               self._arrays[0].ctypes.data)
        return self

    def runner(self):
        """run(table, dts, pair, rec_step, rec_out) over one chunk, or None
        if the driver runs its numpy loop."""
        chosen = _library()
        if isinstance(chosen, str):
            return None
        fn, state = chosen[0][self.kind], self.state
        work = np.empty((5,) + state, dtype=np.complex128)
        ref = ctypes.byref(self.struct)

        def run(table, dts, pair, rec_step, rec_out):
            """One chunk of grid steps: table (K, 8, 4) and dts (K, 3) as
            dynamics._coeff_tables yields them, pair (2,) + the state's
            shape updated in place, and pair[0] after grid step rec_step[r]
            (1..K, ascending) copied to rec_out[r]."""
            steps = len(dts)
            for name, a, dtype, shape in (
                    ("table", table, _C128, (steps, 8, 4)), ("dts", dts, _F64, (steps, 3)),
                    ("pair", pair, _C128, (2,) + state),
                    ("rec_step", rec_step, _I64, (len(rec_step),)),
                    ("rec_out", rec_out, _C128, (len(rec_step),) + state)):
                if not (isinstance(a, np.ndarray) and a.dtype == dtype
                        and a.flags.c_contiguous and a.shape == shape):
                    raise ValueError(f"{name} is not a C-contiguous {dtype} array "
                                     f"of shape {shape}")
            if not pair.flags.writeable or not rec_out.flags.writeable:
                raise ValueError("pair and rec_out must be writeable")
            fn(ref, steps, table.ctypes.data, dts.ctypes.data, pair.ctypes.data,
               len(rec_step), rec_step.ctypes.data, rec_out.ctypes.data, work.ctypes.data)

        return run
