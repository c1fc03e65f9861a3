"""Pure-numpy bilinear plans: out[t] = sum_k s_k * a[l_k] * b[r_k] over flat
complex operands, a batch of row blocks at a time.

Works on the real/imaginary components explicitly so every operation is a
single IEEE rounding (numpy's vectorized complex multiply may contract to
FMA on some CPUs); a's coefficient takes separate real and imaginary signs.
The accumulation is np.bincount with weights, one per component: one
sequential pass `out[idx[k]] += w[k]` from +0.0, over row-major (block,
pair) indices, so each target sums its pairs in the plan's order and every
batch size gives bit-identical rows.

Every plan's pairs come from _block_pairs. Gathers go through precomputed
intp indices into the flat float64 views, and the products land in five
reusable work buffers, grown to the largest batch seen, smaller batches
using their leading rows. kernel.multiply caches its plans per thread, one
per generator count, so concurrent evolutions share no buffers.
"""

from math import prod

import numpy as np

from . import tables


def _block_pairs(n_gen: int, products, shapes):
    """(a, b, out, re_sign, im_sign) of the pairs kept in one block: the
    graded products x*y of `products` (x, y, row of out), each in table
    order. A factor is (operand, row, masks, op): a row of a (operand 0) or
    b (1), the masks it may be non-zero at (None: any; pairs off them are
    skipped), and op None, "gi" (grade involution), "neg" or "conj" (a only).
    `shapes` holds the (rows, width) of a block of a, b and out; a row of
    width 1 holds the coefficient of its factor's one mask."""
    left, right, target, sign = tables.mul_table(n_gen)
    dim = 1 << n_gen
    parts = []
    for x, y, row in products:
        keep = np.ones(sign.size, dtype=bool)
        for index, (_, _, masks, _) in ((left, x), (right, y)):
            if masks is not None:
                masks = np.asarray(masks, dtype=np.intp)
                if masks.ndim != 1 or np.any((masks < 0) | (masks >= dim)):
                    raise ValueError(f"support masks {masks} are not masks "
                                     f"over {n_gen} generators")
                keep &= np.isin(index, masks)
        at, re, im = [None, None], sign[keep], sign[keep]
        for mask, (operand, frow, _, op) in ((left[keep], x), (right[keep], y)):
            if op == "gi":
                re, im = (s * tables.parity_signs(n_gen)[mask] for s in (re, im))
            elif op == "neg":
                re, im = -re, -im
            elif op == "conj":  # conj(f)[m] = conj_sign[m] * conj(f[inv[m]])
                inv, conj_sign = tables.conj_gather(n_gen)
                re, im, mask = re * conj_sign[mask], -im * conj_sign[mask], inv[mask]
            at[operand] = frow * shapes[operand][1] + mask % shapes[operand][1]
        parts.append((*at, row * dim + target[keep], re, im))
    return tuple(np.concatenate(part) for part in zip(*parts))


class Plan:
    """The pairs of _block_pairs, and their indices and work buffers for up
    to `rows` rows of a, one block each."""

    def __init__(self, n_gen: int, products, shapes):
        *self.pairs, re, im = _block_pairs(n_gen, products, shapes)
        self.sign = np.stack((re, im))[:, None]
        self.strides = [prod(shape) for shape in shapes]  # a block of a, b, out
        self.out_shape = tuple(shapes[2])
        self.rows = 0

    def leading(self, rows: int):
        """Index and buffer views over the first `rows` rows (cached)."""
        if rows > self.rows:
            start = np.arange(rows, dtype=np.intp)[:, None]
            a, b, out = (i + start * s for i, s in zip(self.pairs, self.strides))
            # float offsets of a coefficient's real part, complex slots of out
            self.index = ((2 * a).ravel(), (2 * b).ravel(), out.ravel())
            self.work = np.empty(5 * self.index[0].size)
            self.views = {}
            self.rows = rows
        views = self.views.get(rows)
        if views is None:
            pairs = self.sign.shape[-1]
            work = self.work[:5 * rows * pairs]
            views = self.views[rows] = (
                *(index[:rows * pairs] for index in self.index),
                work[:2 * rows * pairs].reshape(2, rows, pairs),  # p and q
                *work.reshape(5, -1),
            )
        return views


def evaluate(plan: Plan, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The plan over complex128 a and b, a block per row; returns
    (len(a),) + the plan's out shape."""
    rows = len(a)
    left, right, target, pq, p, q, c, d, re = plan.leading(rows)
    af, bf = (v.reshape(-1).view(np.float64) for v in (a, b))
    af.take(left, out=p, mode="clip")
    af[1:].take(left, out=q, mode="clip")
    bf.take(right, out=c, mode="clip")
    bf[1:].take(right, out=d, mode="clip")
    np.multiply(pq, plan.sign, out=pq)  # p = re_sign * a_re, q = im_sign * a_im
    np.multiply(p, c, out=re)
    np.multiply(p, d, out=p)
    np.multiply(q, d, out=d)
    np.subtract(re, d, out=re)  # re = p*c - q*d
    np.multiply(q, c, out=c)
    np.add(p, c, out=p)  # im = p*d + q*c
    size = rows * plan.strides[2]
    out = np.empty(size, dtype=np.complex128)
    out.real = np.bincount(target, re, size)
    out.imag = np.bincount(target, p, size)
    return out.reshape((-1,) + plan.out_shape)
