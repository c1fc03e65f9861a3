"""Graded-product kernel with backend selection.

The batched numpy kernel is the default. The compiled Cython extension,
when built, can be selected instead; it loops over the rows of a batch and
is slower end to end than the batched numpy kernel. Both run the same
table-driven scatter-add in the same order, so results are bit-identical,
whatever the batch size. The COHERENCE_KERNEL environment variable
("compiled" | "python") pins the initial choice; set_backend switches at
runtime (used by the benchmark and the equivalence tests).
"""

import os

import numpy as np

from . import pyref, tables

try:
    from . import _graded
except ImportError:
    _graded = None


def _compiled_multiply(x, y, n_gen):
    left, right, target, sign = tables.mul_table(n_gen)
    out = np.zeros(x.shape, dtype=np.complex128)
    for xr, yr, row in zip(x, y, out):
        _graded.graded_multiply(
            xr.view(np.float64), yr.view(np.float64),
            left, right, target, sign,
            row.view(np.float64),
        )
    return out


_BACKENDS = {"python": pyref.graded_multiply}
if _graded is not None:
    _BACKENDS["compiled"] = _compiled_multiply


def available_backends():
    return tuple(sorted(_BACKENDS))


def _initial_backend():
    env = os.environ.get("COHERENCE_KERNEL", "auto").lower()
    if env in _BACKENDS:
        return env
    if env not in ("", "auto"):
        raise ValueError(
            f"COHERENCE_KERNEL={env!r}; expected one of {available_backends()} or 'auto'"
        )
    return "python"


_active = _initial_backend()


def get_backend() -> str:
    return _active


def set_backend(name: str) -> None:
    global _active
    if name not in _BACKENDS:
        raise ValueError(f"unknown kernel backend {name!r}; have {available_backends()}")
    _active = name


def multiply(x: np.ndarray, y: np.ndarray, n_gen: int) -> np.ndarray:
    """Graded product of dense coefficient arrays over n_gen generators.

    x and y are one array of shape (dim,) or a batch of shape (B, dim),
    dim = 2**n_gen; the result has their shape, and row b of a batch is the
    product of row b of x and row b of y, bit-identical to a single call.
    """
    x = np.ascontiguousarray(x, dtype=np.complex128)
    y = np.ascontiguousarray(y, dtype=np.complex128)
    dim = 1 << n_gen
    if x.shape != y.shape or x.ndim not in (1, 2) or x.shape[-1] != dim:
        raise ValueError(f"operands of shape {x.shape} and {y.shape} are not "
                         f"(dim,) or (B, dim) with dim = {dim}")
    if x.ndim == 1:
        return _BACKENDS[_active](x[None], y[None], n_gen)[0]
    return _BACKENDS[_active](x, y, n_gen)


def conjugate(x: np.ndarray, n_gen: int) -> np.ndarray:
    """Antilinear conjugation of a dense coefficient array, row-wise on a batch."""
    inv, sign = tables.conj_gather(n_gen)
    return sign * np.conj(x.take(inv, axis=-1))


def grade_signs(n_gen: int) -> np.ndarray:
    return tables.parity_signs(n_gen)
