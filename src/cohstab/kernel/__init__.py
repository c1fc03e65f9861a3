"""Graded-product kernel: the table-driven scatter-add of tables.mul_table.

Products sum each target's pairs in table order, so results are
bit-identical whatever the batch size. multiply runs them in compiled C
(cohstab_multiply in rk4.c) where the library loads, and otherwise through
the batched numpy plans of pyref, which stay the bitwise oracle; plans of
bilinear, a spec's fused plans, run in numpy. The RK4 driver runs a fused
plan's whole loop in compiled C where it can (see compiled and rk4.c), with
the same arithmetic.
"""

import threading

import numpy as np

from . import compiled, pyref, tables

#: Byte budget of one block of work: of rows in multiply's numpy plans, of
#: records in the per-record observers, of grid steps in the RK4 driver's
#: coefficient tables, of grid times in invariant_residual.
TABLE_BYTES = 256 * 1024

_local = threading.local()  # kernel.multiply's plans, one per generator count


def multiply(x: np.ndarray, y: np.ndarray, n_gen: int) -> np.ndarray:
    """Graded product of dense coefficient arrays over n_gen generators.

    x and y are one array of shape (dim,) or a batch of shape (B, dim),
    dim = 2**n_gen; the result has their shape, and row b of a batch is the
    product of row b of x and row b of y, bit-identical to a single call.
    The compiled product takes the whole batch in one call; the numpy plan
    a block of rows at a time (row_blocks).
    """
    x = np.ascontiguousarray(x, dtype=np.complex128)
    y = np.ascontiguousarray(y, dtype=np.complex128)
    dim = 1 << n_gen
    if x.shape != y.shape or x.ndim not in (1, 2) or x.shape[-1] != dim:
        raise ValueError(f"operands of shape {x.shape} and {y.shape} are not "
                         f"(dim,) or (B, dim) with dim = {dim}")
    sign = tables.mul_table(n_gen)[3]  # refuses n_gen outside 0..MAX_GENERATORS
    product = compiled.product()
    if product is not None:
        out = np.empty_like(x)
        product(n_gen, x.size >> n_gen, sign.ctypes.data, x.ctypes.data, y.ctypes.data,
                out.ctypes.data)
        return out
    plans = _local.__dict__.setdefault("plans", {})
    if n_gen not in plans:  # x * y on blocks of one row
        plans[n_gen] = pyref.Plan(n_gen, (((0, 0, None, None), (1, 0, None, None), 0),),
                                  ((1, dim),) * 3)
    a, b = x.reshape(-1, dim), y.reshape(-1, dim)
    blocks = row_blocks(len(a), 64 * 3**n_gen)
    if len(blocks) == 1:  # returned as the plan makes it
        return pyref.evaluate(plans[n_gen], a, b).reshape(x.shape)
    out = np.empty_like(a)
    for rows in blocks:
        out[rows] = pyref.evaluate(plans[n_gen], a[rows], b[rows])[:, 0]
    return out.reshape(x.shape)


def row_blocks(n_rows: int, row_bytes: int) -> list[slice]:
    """n_rows rows in blocks of as many rows of row_bytes as fit TABLE_BYTES,
    at least one. A numpy plan's row takes 64 B (three intp indices, five
    float64 work slots) per table pair, 3**n_gen pairs for multiply."""
    step = max(1, TABLE_BYTES // row_bytes)
    return [slice(i, i + step) for i in range(0, n_rows, step)]


def bilinear_plan(n_gen: int, products, shapes) -> pyref.Plan:
    """A plan of a sum of graded products per row (see pyref._block_pairs)."""
    return pyref.Plan(n_gen, products, shapes)


def bilinear(plan: pyref.Plan, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """A plan over rows a (R, ...) and b (R, ...): (R,) + out's row shape.

    A spec's fused plan (dynamics._rhs), whose products keep at most
    one pair per target each, shares one bincount sum per target, bit for
    bit as their own sums added in order: a sum starts at +0.0, so it is
    never -0.0 and adding +-0.0 to it changes no bit; (0 + a) + b equals
    (0 + a) + (0 + b), and a sign folded onto a zero operand changes
    nothing. A DenseHamiltonian's stages build no plan: their products go
    through one kernel.multiply call a stage, compiled where it loads."""
    return pyref.evaluate(plan, a, b)


def conjugate(x: np.ndarray, n_gen: int) -> np.ndarray:
    """Antilinear conjugation of a dense coefficient array, row-wise on a batch."""
    inv, sign = tables.conj_gather(n_gen)
    return sign * np.conj(x.take(inv, axis=-1))
