"""Pure-numpy graded-product kernel over a batch of coefficient rows.

Works on the real/imaginary components explicitly so every operation is a
single IEEE rounding (numpy's vectorized complex multiply may contract to
FMA on some CPUs). The accumulation is np.bincount with weights: one
sequential pass `out[idx[k]] += w[k]` from zero, over row-major (row, pair)
indices, so each target sums its pairs in table order and every batch size
gives bit-identical rows.

Gathers go through precomputed intp indices into the flat float64 views,
and the products land in reusable work buffers: one plan per generator
count and support, grown to the largest batch seen, smaller batches using
its leading rows. A support (see kernel.multiply) keeps only the table
pairs whose operands may be non-zero, still in table order; without one a
plan keeps every pair. Plans are per thread, so concurrent evolutions share
no buffers.
"""

import threading

import numpy as np

from . import tables

_local = threading.local()

_FULL = ((None, None),)


def _block_pairs(n_gen: int, support):
    """(left, right, target, sign) of the pairs kept in one block of
    len(support) rows, row by row, each row's in table order; the indices
    are complex slots of a (len(support), dim) block."""
    left, right, target, sign = tables.mul_table(n_gen)
    dim = 1 << n_gen
    rows = []
    for r, (lsup, rsup) in enumerate(support):
        keep = np.ones(sign.size, dtype=bool)
        for index, masks in ((left, lsup), (right, rsup)):
            if masks is not None:
                masks = np.asarray(masks, dtype=np.intp)
                if masks.ndim != 1 or np.any((masks < 0) | (masks >= dim)):
                    raise ValueError(f"support masks {masks} are not masks "
                                     f"over {n_gen} generators")
                keep &= np.isin(index, masks)
        at = r * dim
        rows.append((left[keep] + at, right[keep] + at, target[keep] + at, sign[keep]))
    return tuple(np.concatenate(part) for part in zip(*rows))


class _Plan:
    """Gather/scatter indices and five work buffers for up to `rows` rows,
    a whole number of blocks of the support's rows."""

    __slots__ = ("rows", "block", "left", "right", "target", "sign", "work", "views")

    def __init__(self, n_gen: int, support, rows: int):
        left, right, target, sign = _block_pairs(n_gen, support)
        self.rows = rows
        self.block = len(support)
        start = np.arange(rows // self.block, dtype=np.intp)[:, None] * (self.block << n_gen)
        # float offset of a coefficient's real part in a (rows, dim) complex array
        self.left = (2 * (left + start)).ravel()
        self.right = (2 * (right + start)).ravel()
        self.target = (target + start).ravel()  # complex slot of the product
        self.sign = sign
        self.work = np.empty(5 * self.left.size)
        self.views = {}

    def leading(self, rows: int):
        """Index and buffer views over the first `rows` rows (cached)."""
        views = self.views.get(rows)
        if views is None:
            blocks = rows // self.block
            n = blocks * self.sign.size
            work = self.work[:5 * n]
            views = self.views[rows] = (
                self.left[:n], self.right[:n], self.target[:n],
                # p and q of every block, for the sign
                work[:2 * n].reshape(2 * blocks, self.sign.size),
                *work.reshape(5, n),
            )
        return views


def _plan(n_gen: int, support, rows: int) -> _Plan:
    plans = getattr(_local, "plans", None)
    if plans is None:
        plans = _local.plans = {}
    key = (n_gen, support)
    plan = plans.get(key)
    if plan is None or plan.rows < rows:
        plan = plans[key] = _Plan(n_gen, support or _FULL, rows)
    return plan


def graded_multiply(x: np.ndarray, y: np.ndarray, n_gen: int, support=None) -> np.ndarray:
    """Row-wise graded products of C-contiguous complex128 (B, dim) arrays;
    B is a multiple of len(support) (see kernel.multiply)."""
    rows = x.shape[0]
    plan = _plan(n_gen, support, rows)
    left, right, target, pq, p, q, c, d, re = plan.leading(rows)
    xf = x.ravel().view(np.float64)
    yf = y.ravel().view(np.float64)
    xf.take(left, out=p, mode="clip")
    xf[1:].take(left, out=q, mode="clip")
    yf.take(right, out=c, mode="clip")
    yf[1:].take(right, out=d, mode="clip")
    np.multiply(pq, plan.sign, out=pq)  # p = sign * x_re, q = sign * x_im
    np.multiply(p, c, out=re)
    np.multiply(p, d, out=p)
    np.multiply(q, d, out=d)
    np.subtract(re, d, out=re)  # re = p*c - q*d
    np.multiply(q, c, out=c)
    np.add(p, c, out=p)  # im = p*d + q*c
    out = np.empty(x.shape, dtype=np.complex128)
    out.real = np.bincount(target, re, x.size).reshape(x.shape)
    out.imag = np.bincount(target, p, x.size).reshape(x.shape)
    return out
