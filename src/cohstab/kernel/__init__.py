"""Graded-product kernel: one batched numpy implementation (see pyref).

Products run the table-driven scatter-add of tables.mul_table in table
order, so results are bit-identical whatever the batch size. A caller that
knows which monomials of an operand are structural zeros can pass a
support, and the products skip the table pairs that would multiply them;
for finite operands that leaves every result bit unchanged.
"""

import numpy as np

from . import pyref, tables


def multiply(x: np.ndarray, y: np.ndarray, n_gen: int, support=None) -> np.ndarray:
    """Graded product of dense coefficient arrays over n_gen generators.

    x and y are one array of shape (dim,) or a batch of shape (B, dim),
    dim = 2**n_gen; the result has their shape, and row b of a batch is the
    product of row b of x and row b of y, bit-identical to a single call.

    `support`, if given, is a tuple of S entries (left, right), one per row
    of each block of S rows: row b takes entry b % S, and B must be a
    multiple of S. `left` and `right` are tuples of the masks at which that
    row's x and y may be non-zero, or None for any mask. Table pairs with an
    operand outside its support are skipped. Their products are +-0.0 when
    the other operand is finite, and adding +-0.0 to a sum that starts at
    +0.0 changes no bit, so the result equals the full product's bit for
    bit; a skipped pair that would multiply 0 by inf or NaN is the one case
    where it does not (the full product has NaN there).
    """
    x = np.ascontiguousarray(x, dtype=np.complex128)
    y = np.ascontiguousarray(y, dtype=np.complex128)
    dim = 1 << n_gen
    if x.shape != y.shape or x.ndim not in (1, 2) or x.shape[-1] != dim:
        raise ValueError(f"operands of shape {x.shape} and {y.shape} are not "
                         f"(dim,) or (B, dim) with dim = {dim}")
    rows = len(x) if x.ndim == 2 else 1
    if support is not None and (not support or rows % len(support)):
        raise ValueError(f"{rows} rows are not a whole number of blocks of "
                         f"the support's {len(support)} rows")
    if x.ndim == 1:
        return pyref.graded_multiply(x[None], y[None], n_gen, support)[0]
    return pyref.graded_multiply(x, y, n_gen, support)


def conjugate(x: np.ndarray, n_gen: int) -> np.ndarray:
    """Antilinear conjugation of a dense coefficient array, row-wise on a batch."""
    inv, sign = tables.conj_gather(n_gen)
    return sign * np.conj(x.take(inv, axis=-1))


def grade_signs(n_gen: int) -> np.ndarray:
    return tables.parity_signs(n_gen)
