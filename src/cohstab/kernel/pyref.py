"""Pure-numpy graded-product kernel over a batch of coefficient rows.

Works on the real/imaginary components explicitly so every operation is a
single IEEE rounding (numpy's vectorized complex multiply may contract to
FMA on some CPUs). The accumulation is np.bincount with weights: one
sequential pass `out[idx[k]] += w[k]` from zero, over row-major (row, pair)
indices, so each target sums its pairs in table order as the compiled loop
does, and both backends and every batch size give bit-identical rows.

Gathers go through precomputed intp indices into the flat float64 views,
and the products land in reusable work buffers: one plan per generator
count, grown to the largest batch seen, smaller batches using its leading
rows. Plans are per thread, so concurrent evolutions share no buffers.
"""

import threading

import numpy as np

from . import tables

_local = threading.local()


class _Plan:
    """Gather/scatter indices and five work buffers for up to `rows` rows."""

    __slots__ = ("rows", "left", "right", "target", "sign", "work", "views")

    def __init__(self, n_gen: int, rows: int):
        left, right, target, sign = tables.mul_table(n_gen)
        self.rows = rows
        row = np.arange(rows, dtype=np.intp)[:, None] << n_gen
        # float offset of a coefficient's real part in a (rows, dim) complex array
        self.left = (2 * (left + row)).ravel()
        self.right = (2 * (right + row)).ravel()
        self.target = (target + row).ravel()  # complex slot of the product
        self.sign = sign
        self.work = np.empty(5 * self.left.size)
        self.views = {}

    def leading(self, rows: int):
        """Index and buffer views over the first `rows` rows (cached)."""
        views = self.views.get(rows)
        if views is None:
            n = rows * self.sign.size
            work = self.work[:5 * n]
            views = self.views[rows] = (
                self.left[:n], self.right[:n], self.target[:n],
                work[:2 * n].reshape(2 * rows, -1),  # p and q of every row, for the sign
                *work.reshape(5, n),
            )
        return views


def _plan(n_gen: int, rows: int) -> _Plan:
    plans = getattr(_local, "plans", None)
    if plans is None:
        plans = _local.plans = {}
    plan = plans.get(n_gen)
    if plan is None or plan.rows < rows:
        plan = plans[n_gen] = _Plan(n_gen, rows)
    return plan


def graded_multiply(x: np.ndarray, y: np.ndarray, n_gen: int) -> np.ndarray:
    """Row-wise graded products of C-contiguous complex128 (B, dim) arrays."""
    rows = x.shape[0]
    plan = _plan(n_gen, rows)
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
