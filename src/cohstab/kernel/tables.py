"""Sign/index tables for the dense bitmask representation.

Monomials over 2m generators are encoded as bitmasks with generators in
ascending index order; index 2k is a generator, index 2k+1 its conjugate.
All tables are cached per generator count, which must lie in
0..MAX_GENERATORS (ValueError otherwise).
"""

from functools import lru_cache

import numpy as np

MAX_GENERATORS = 8


def _check(n_gen: int) -> None:  # run once per n_gen, when a table is first built
    if not 0 <= n_gen <= MAX_GENERATORS:
        raise ValueError(f"{n_gen} generators; tables are built for 0..{MAX_GENERATORS}")


def _reorder_sign(a: int, b: int) -> int:
    # Parity of inversions when concatenating the ascending generator lists
    # of masks a and b and sorting: for each j in b, count bits of a above j.
    s = 0
    j = 0
    bb = b
    while bb:
        if bb & 1:
            s += bin(a >> (j + 1)).count("1")
        bb >>= 1
        j += 1
    return -1 if s & 1 else 1


@lru_cache(maxsize=None)
def mul_table(n_gen: int):
    """Flat (left, right, target, sign) arrays over all non-overlapping mask pairs."""
    _check(n_gen)
    dim = 1 << n_gen
    left, right, target, sign = [], [], [], []
    for a in range(dim):
        for b in range(dim):
            if a & b:
                continue
            left.append(a)
            right.append(b)
            target.append(a ^ b)
            sign.append(_reorder_sign(a, b))
    return (
        np.asarray(left, dtype=np.int32),
        np.asarray(right, dtype=np.int32),
        np.asarray(target, dtype=np.int32),
        np.asarray(sign, dtype=np.float64),
    )


@lru_cache(maxsize=None)
def conj_table(n_gen: int):
    """Permutation and sign for the antilinear conjugation involution.

    A monomial g_{i1}..g_{ik} (ascending) maps to g*_{ik}..g*_{i1}; the sign
    is the parity of sorting the image sequence back to canonical order.
    """
    _check(n_gen)
    dim = 1 << n_gen
    perm = np.zeros(dim, dtype=np.int64)
    sign = np.zeros(dim, dtype=np.float64)
    for mask in range(dim):
        indices = [i for i in range(n_gen) if mask >> i & 1]
        image = [i ^ 1 for i in reversed(indices)]
        inv = sum(
            1
            for p in range(len(image))
            for q in range(p + 1, len(image))
            if image[p] > image[q]
        )
        perm[mask] = sum(1 << i for i in image)
        sign[mask] = -1.0 if inv & 1 else 1.0
    return perm, sign


@lru_cache(maxsize=None)
def conj_gather(n_gen: int):
    """conj_table as a gather: (inv, sign[inv]) with inv = argsort(perm), so
    conjugation is out[k] = sign[inv[k]] * conj(x[inv[k]])."""
    perm, sign = conj_table(n_gen)
    inv = np.argsort(perm)
    return inv, sign[inv]


@lru_cache(maxsize=None)
def degrees(n_gen: int):
    """Monomial degree (popcount) per mask."""
    _check(n_gen)
    masks = np.arange(1 << n_gen)
    deg = np.zeros_like(masks)
    for i in range(n_gen):
        deg += masks >> i & 1
    return deg


@lru_cache(maxsize=None)
def parity_signs(n_gen: int):
    """+1 on even monomials, -1 on odd ones (grade involution)."""
    return np.where(degrees(n_gen) & 1, -1.0, 1.0)


@lru_cache(maxsize=None)
def derivative_table(n_gen: int, gen_index: int):
    """(source, target, sign) for the left derivative by one generator."""
    if not 0 <= gen_index < n_gen:
        raise ValueError(f"generator index {gen_index} out of range")
    bit = 1 << gen_index
    masks = np.arange(1 << n_gen)
    source = masks[(masks & bit) != 0]
    below = degrees(n_gen)[source & (bit - 1)]
    sign = np.where(below & 1, -1.0, 1.0)
    return source.astype(np.int64), (source ^ bit).astype(np.int64), sign
