"""Finite-dimensional complex Grassmann algebra.

Generators come in conjugate pairs (g, g*) stored at indices (2k, 2k+1).
Elements are dense complex coefficient vectors over the 2^(2m) basis
monomials, each monomial a bitmask with generators in ascending index
order. All operations are pure; values are immutable after construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from numbers import Number
from typing import Iterable, Mapping

import numpy as np

from . import kernel
from .errors import MismatchedGenerators, NotInvertible, NotOddLinear, UnknownPair
from .kernel import tables

#: Coefficients at or below this magnitude are dropped from term views.
PRUNE_TOL = 1e-15

#: Absolute tolerance for the algebra's exact polynomial identities.
IDENTITY_TOL = 1e-13


@dataclass(frozen=True)
class GeneratorSet:
    """Labels for 2m generators, conjugate pairs adjacent."""

    names: tuple[str, ...]

    def __post_init__(self):
        if len(self.names) % 2:
            raise ValueError("generators must come in conjugate pairs")
        if len(self.names) > tables.MAX_GENERATORS:
            raise ValueError(f"at most {tables.MAX_GENERATORS} generators supported")
        if len(set(self.names)) != len(self.names):
            raise ValueError("generator names must be distinct")

    @classmethod
    def from_pairs(cls, labels: Iterable[str]) -> "GeneratorSet":
        names: list[str] = []
        for label in labels:
            names.extend((label, label + "*"))
        return cls(tuple(names))

    @property
    def m(self) -> int:
        return len(self.names) // 2

    @property
    def n_generators(self) -> int:
        return len(self.names)

    @property
    def dim(self) -> int:
        return 1 << self.n_generators

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"unknown generator {name!r}") from None

    @cached_property
    def monomial_labels(self) -> tuple[str, ...]:
        """Each basis monomial's label, by mask: its generators' names in
        ascending index order, space-separated, and "1" for the body. A
        mask's label is its lowest generator's name, then the label of the
        mask without it."""
        labels = ["1"]
        for mask in range(1, self.dim):
            rest = mask & (mask - 1)
            low = self.names[(mask ^ rest).bit_length() - 1]
            labels.append(f"{low} {labels[rest]}" if rest else low)
        return tuple(labels)

    def gen(self, which: int | str) -> "Multivector":
        """The generator as a Multivector; accepts an index or a name."""
        i = self.index(which) if isinstance(which, str) else which
        if not 0 <= i < self.n_generators:
            raise KeyError(f"generator index {i} out of range")
        coeffs = np.zeros(self.dim, dtype=np.complex128)
        coeffs[1 << i] = 1.0
        return Multivector(self, coeffs)

    def scalar(self, value: complex) -> "Multivector":
        coeffs = np.zeros(self.dim, dtype=np.complex128)
        coeffs[0] = value
        return Multivector(self, coeffs)

    def zero(self) -> "Multivector":
        return Multivector(self, np.zeros(self.dim, dtype=np.complex128))

    def one(self) -> "Multivector":
        return self.scalar(1.0)


class Multivector:
    """Element of the Grassmann algebra over a fixed GeneratorSet."""

    __slots__ = ("gens", "coeffs")

    def __init__(self, gens: GeneratorSet, coeffs: np.ndarray, _copy: bool = True):
        arr = np.array(coeffs, dtype=np.complex128, copy=_copy)
        if arr.shape != (gens.dim,):
            raise ValueError(f"expected {gens.dim} coefficients, got {arr.shape}")
        arr.flags.writeable = False
        object.__setattr__(self, "gens", gens)
        object.__setattr__(self, "coeffs", arr)

    def __setattr__(self, name, value):
        raise AttributeError("Multivector is immutable")

    @classmethod
    def from_terms(cls, gens: GeneratorSet, terms: Mapping[int, complex]) -> "Multivector":
        coeffs = np.zeros(gens.dim, dtype=np.complex128)
        for mask, value in terms.items():
            if not 0 <= mask < gens.dim:
                raise ValueError(f"monomial mask {mask} out of range")
            coeffs[mask] = value
        return cls(gens, coeffs, _copy=False)

    # -- views -----------------------------------------------------------

    @property
    def terms(self) -> dict[int, complex]:
        """Nonzero monomial coefficients (pruned at PRUNE_TOL; NaN is kept)."""
        return {
            int(mask): complex(c)
            for mask, c in enumerate(self.coeffs)
            if not abs(c) <= PRUNE_TOL
        }

    @property
    def body(self) -> complex:
        return complex(self.coeffs[0])

    def soul(self) -> "Multivector":
        coeffs = self.coeffs.copy()
        coeffs[0] = 0.0
        return Multivector(self.gens, coeffs, _copy=False)

    def even_part(self) -> "Multivector":
        keep = (tables.degrees(self.gens.n_generators) & 1) == 0
        return Multivector(self.gens, np.where(keep, self.coeffs, 0.0), _copy=False)

    def odd_part(self) -> "Multivector":
        keep = (tables.degrees(self.gens.n_generators) & 1) == 1
        return Multivector(self.gens, np.where(keep, self.coeffs, 0.0), _copy=False)

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.coeffs)))

    # -- algebra ---------------------------------------------------------

    def _check_gens(self, other: "Multivector") -> None:
        if self.gens != other.gens:
            raise MismatchedGenerators(
                f"operands over {self.gens.names} vs {other.gens.names}"
            )

    def __add__(self, other):
        if isinstance(other, Multivector):
            self._check_gens(other)
            return Multivector(self.gens, self.coeffs + other.coeffs, _copy=False)
        if isinstance(other, Number):
            coeffs = self.coeffs.copy()
            coeffs[0] += other
            return Multivector(self.gens, coeffs, _copy=False)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Multivector):
            self._check_gens(other)
            return Multivector(self.gens, self.coeffs - other.coeffs, _copy=False)
        if isinstance(other, Number):
            return self + (-other)
        return NotImplemented

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return Multivector(self.gens, -self.coeffs, _copy=False)

    def __mul__(self, other):
        if isinstance(other, Multivector):
            self._check_gens(other)
            out = kernel.multiply(self.coeffs, other.coeffs, self.gens.n_generators)
            return Multivector(self.gens, out, _copy=False)
        if isinstance(other, Number):
            return Multivector(self.gens, self.coeffs * other, _copy=False)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, Number):
            return Multivector(self.gens, other * self.coeffs, _copy=False)
        return NotImplemented

    def __truediv__(self, other):
        if isinstance(other, Number):
            return Multivector(self.gens, self.coeffs / other, _copy=False)
        return NotImplemented

    def conjugate(self) -> "Multivector":
        out = kernel.conjugate(self.coeffs, self.gens.n_generators)
        return Multivector(self.gens, out, _copy=False)

    def grade_involution(self) -> "Multivector":
        signs = tables.parity_signs(self.gens.n_generators)
        return Multivector(self.gens, signs * self.coeffs, _copy=False)

    def is_self_conjugate(self, tol: float = IDENTITY_TOL) -> bool:
        return (self.conjugate() - self).sup_norm() <= tol

    # -- comparison / display ---------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Multivector):
            return NotImplemented
        return self.gens == other.gens and np.array_equal(self.coeffs, other.coeffs)

    __hash__ = None

    def isclose(self, other: "Multivector", tol: float = IDENTITY_TOL) -> bool:
        self._check_gens(other)
        return (self - other).sup_norm() <= tol

    def __repr__(self):
        parts = []
        for mask, c in self.terms.items():
            label = self.gens.monomial_labels[mask]
            parts.append(f"({c})" if mask == 0 else f"({c})*[{label}]")
        return " + ".join(parts) if parts else "0"


# -- module-level operations --------------------------------------------


def multiply(x: Multivector, y: Multivector) -> Multivector:
    """Graded product; zero whenever monomial masks intersect."""
    return x * y


def conjugate(x: Multivector) -> Multivector:
    """Antilinear involution: reverse each monomial and star each generator."""
    return x.conjugate()


def grade_involution(x: Multivector) -> Multivector:
    """even(x) - odd(x); the sign an odd operator picks passing a coefficient."""
    return x.grade_involution()


def exponential(x):
    """exp(x) = exp(body) * (terminating soul series); of each row of rows (R, dim)."""
    if isinstance(x, Multivector):
        return Multivector(x.gens, exponential(x.coeffs[None])[0])
    # exp(body) as one scalar per row, which a vectorised exp need not match
    scale = np.array([complex(np.exp(b)) for b in x[:, 0]], dtype=np.complex128)
    return _soul_series(x, lambda t, k: t / k) * scale[:, None]


def invert(x):
    """Exact inverse by the geometric soul series; of each row of rows (R, dim)."""
    if isinstance(x, Multivector):
        return Multivector(x.gens, invert(x.coeffs[None])[0])
    body = x[:, :1]
    bad = ~(np.isfinite(body) & (body != 0.0))
    if bad.any():
        raise NotInvertible(f"element has body {complex(body[bad][0])}; an inverse "
                            "needs a finite non-zero one")
    return _soul_series(x / body, lambda t, k: t * (-1.0)) / body


def _n_gen(x: np.ndarray) -> int:  # of coefficient rows (..., dim), dim = 2**n_gen
    n_gen = x.shape[-1].bit_length() - 1
    if not 0 <= n_gen <= tables.MAX_GENERATORS or x.shape[-1] != 1 << n_gen:
        raise ValueError(f"rows of width {x.shape[-1]} are not 2**n wide, "
                         f"n <= {tables.MAX_GENERATORS}")
    return n_gen


def _soul_series(x: np.ndarray, step) -> np.ndarray:
    """Per row of x (R, dim): 1 + t_1 + t_2 + ..., t_k = step(t_(k-1) * soul,
    k), soul the row without its body. Each row stops at its own first
    all-zero term, which it does not add, and no later term reaches it."""
    n_gen = _n_gen(x)
    soul = x.copy()
    soul[:, 0] = 0.0
    acc = np.zeros_like(soul)
    acc[:, 0] = 1.0
    term, live = acc.copy(), np.arange(len(soul))
    for k in range(1, n_gen + 1):
        term = step(kernel.multiply(term, soul[live], n_gen), k)
        nonzero = np.abs(term).max(axis=1) != 0.0
        live, term = live[nonzero], term[nonzero]
        if not live.size:
            break
        acc[live] += term
    return acc


def _odd_degree_one_rows(x: np.ndarray) -> np.ndarray:
    off = np.abs(x[:, tables.degrees(_n_gen(x)) != 1])
    return off.max(axis=1, initial=0.0) <= PRUNE_TOL  # NaN: not odd degree-one


def left_derivative(x: Multivector, gen_index: int) -> Multivector:
    """Delete one generator from each monomial containing it, left-to-right sign."""
    source, target, sign = tables.derivative_table(x.gens.n_generators, gen_index)
    out = np.zeros_like(x.coeffs)
    out[target] = sign * x.coeffs[source]
    return Multivector(x.gens, out, _copy=False)


def berezin_pair(x: Multivector, pair: int | str) -> Multivector:
    """Integrate over one conjugate pair: innermost dg, then dg*."""
    if isinstance(pair, str):
        k = x.gens.index(pair) // 2
    else:
        k = pair
    if not 0 <= k < x.gens.m:
        raise UnknownPair(f"pair index {k} out of range for m={x.gens.m}")
    return left_derivative(left_derivative(x, 2 * k), 2 * k + 1)


def require_odd_degree_one(x, what: str = "element") -> None:
    if not _odd_degree_one_rows(x.coeffs[None] if isinstance(x, Multivector) else x).all():
        raise NotOddLinear(f"{what} must be odd of degree one, got {x!r}")


def random_multivector(gens: GeneratorSet, rng: np.random.Generator,
                       scale: float = 1.0) -> Multivector:
    """Uniform random coefficients in a box; test helper, not physics."""
    re = rng.uniform(-scale, scale, gens.dim)
    im = rng.uniform(-scale, scale, gens.dim)
    return Multivector(gens, re + 1j * im, _copy=False)
