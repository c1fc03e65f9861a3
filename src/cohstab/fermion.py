"""One-mode fermion Fock space with Grassmann-valued amplitudes.

Operators are left-coefficient expansions O = c_i*I + c_minus*b + c_plus*b†
+ c_n*b†b with Multivector coefficients; states carry Multivector amplitudes
written to the left of |0> and |1>. When a basis operator of odd parity
passes a coefficient, the coefficient picks up its grade involution:
b (c|1>) = gi(c) |0>, matching b zeta = -zeta b.
"""

from __future__ import annotations

import numpy as np

from . import kernel
from .errors import (
    MismatchedGenerators,
    NonTerminatingSeries,
    NotALadder,
    VacuumAmplitudeZero,
)
from .grassmann import (
    GeneratorSet,
    Multivector,
    _n_gen,
    exponential,
    invert,
    require_odd_degree_one,
)

#: Largest body, per unit of an operator's size, exp_operator reads as nilpotent,
#: and make_displacement's bound on a ladder's algebra.
EXP_BODY_TOL, LADDER_TOL = 1e-13, 1e-10

# Basis slots: identity, b, b†, b†b.
_ID, _ANN, _CRE, _NUM = 0, 1, 2, 3
_PARITY = (0, 1, 1, 0)

# Products of basis elements as lists of (slot, sign); absent keys are zero.
_BASIS_MUL = {
    (_ID, _ID): ((_ID, 1),),
    (_ID, _ANN): ((_ANN, 1),),
    (_ID, _CRE): ((_CRE, 1),),
    (_ID, _NUM): ((_NUM, 1),),
    (_ANN, _ID): ((_ANN, 1),),
    (_ANN, _CRE): ((_ID, 1), (_NUM, -1)),   # b b† = I - b†b
    (_ANN, _NUM): ((_ANN, 1),),             # b b†b = b
    (_CRE, _ID): ((_CRE, 1),),
    (_CRE, _ANN): ((_NUM, 1),),             # b† b = b†b
    (_NUM, _ID): ((_NUM, 1),),
    (_NUM, _CRE): ((_CRE, 1),),             # b†b b† = b†
    (_NUM, _NUM): ((_NUM, 1),),
}

class FermionOperator:
    """Left-coefficient operator over {I, b, b†, b†b}."""

    __slots__ = ("gens", "c_i", "c_minus", "c_plus", "c_n")

    def __init__(self, gens: GeneratorSet, c_i: Multivector, c_minus: Multivector,
                 c_plus: Multivector, c_n: Multivector):
        for c in (c_i, c_minus, c_plus, c_n):
            if c.gens != gens:
                raise MismatchedGenerators("operator coefficients over a foreign set")
        object.__setattr__(self, "gens", gens)
        object.__setattr__(self, "c_i", c_i)
        object.__setattr__(self, "c_minus", c_minus)
        object.__setattr__(self, "c_plus", c_plus)
        object.__setattr__(self, "c_n", c_n)

    def __setattr__(self, name, value):
        raise AttributeError("FermionOperator is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, gens: GeneratorSet) -> "FermionOperator":
        z = gens.zero()
        return cls(gens, z, z, z, z)

    @classmethod
    def identity(cls, gens: GeneratorSet) -> "FermionOperator":
        z = gens.zero()
        return cls(gens, gens.one(), z, z, z)

    @classmethod
    def annihilator(cls, gens: GeneratorSet) -> "FermionOperator":
        z = gens.zero()
        return cls(gens, z, gens.one(), z, z)

    @classmethod
    def creator(cls, gens: GeneratorSet) -> "FermionOperator":
        z = gens.zero()
        return cls(gens, z, z, gens.one(), z)

    @classmethod
    def number(cls, gens: GeneratorSet) -> "FermionOperator":
        z = gens.zero()
        return cls(gens, z, z, z, gens.one())

    @classmethod
    def scaled_identity(cls, coeff: Multivector) -> "FermionOperator":
        z = coeff.gens.zero()
        return cls(coeff.gens, coeff, z, z, z)

    # -- structure ---------------------------------------------------------

    def coefficients(self) -> tuple[Multivector, Multivector, Multivector, Multivector]:
        return (self.c_i, self.c_minus, self.c_plus, self.c_n)

    def sup_norm(self) -> float:
        # np.max, unlike max, propagates a NaN wherever it sits
        return float(np.max([c.sup_norm() for c in self.coefficients()]))

    def _check_gens(self, other) -> None:
        if self.gens != other.gens:
            raise MismatchedGenerators("operands over different generator sets")

    def __add__(self, other):
        if not isinstance(other, FermionOperator):
            return NotImplemented
        self._check_gens(other)
        a, b = self.coefficients(), other.coefficients()
        return FermionOperator(self.gens, *(x + y for x, y in zip(a, b)))

    def __sub__(self, other):
        if not isinstance(other, FermionOperator):
            return NotImplemented
        self._check_gens(other)
        a, b = self.coefficients(), other.coefficients()
        return FermionOperator(self.gens, *(x - y for x, y in zip(a, b)))

    def __neg__(self):
        return FermionOperator(self.gens, *(-c for c in self.coefficients()))

    def __mul__(self, other):
        if isinstance(other, FermionOperator):
            return compose(self, other)
        if isinstance(other, Multivector):
            return compose(self, FermionOperator.scaled_identity(other))
        if isinstance(other, (int, float, complex)):
            return FermionOperator(self.gens, *(c * other for c in self.coefficients()))
        return NotImplemented

    def __rmul__(self, other):
        # Left multiplication by a coefficient: plain scaling, no parity sign.
        if isinstance(other, Multivector):
            return FermionOperator(self.gens, *(other * c for c in self.coefficients()))
        if isinstance(other, (int, float, complex)):
            return FermionOperator(self.gens, *(other * c for c in self.coefficients()))
        return NotImplemented

    def adjoint(self) -> "FermionOperator":
        rows = _adjoint_rows(np.stack([c.coeffs for c in self.coefficients()]))
        return FermionOperator(self.gens, *(Multivector(self.gens, r, _copy=False) for r in rows))

    def is_selfadjoint(self, tol: float = 1e-12) -> bool:
        d = self.adjoint() - self
        return d.sup_norm() <= tol

    def isclose(self, other: "FermionOperator", tol: float = 1e-13) -> bool:
        return (self - other).sup_norm() <= tol

    def __repr__(self):
        labels = ("I", "b", "b+", "b+b")
        parts = [
            f"[{c!r}]*{lab}"
            for c, lab in zip(self.coefficients(), labels)
            if not c.sup_norm() <= 1e-15
        ]
        return " + ".join(parts) if parts else "0"


class FermionState:
    """Pair of Multivector amplitudes on |0> and |1>."""

    __slots__ = ("gens", "psi0", "psi1")

    def __init__(self, gens: GeneratorSet, psi0: Multivector, psi1: Multivector):
        if psi0.gens != gens or psi1.gens != gens:
            raise MismatchedGenerators("state amplitudes over a foreign set")
        object.__setattr__(self, "gens", gens)
        object.__setattr__(self, "psi0", psi0)
        object.__setattr__(self, "psi1", psi1)

    def __setattr__(self, name, value):
        raise AttributeError("FermionState is immutable")

    @classmethod
    def vacuum(cls, gens: GeneratorSet) -> "FermionState":
        return cls(gens, gens.one(), gens.zero())

    @classmethod
    def one_fermion(cls, gens: GeneratorSet) -> "FermionState":
        return cls(gens, gens.zero(), gens.one())

    def __add__(self, other):
        if not isinstance(other, FermionState):
            return NotImplemented
        if self.gens != other.gens:
            raise MismatchedGenerators("states over different generator sets")
        return FermionState(self.gens, self.psi0 + other.psi0, self.psi1 + other.psi1)

    def __sub__(self, other):
        if not isinstance(other, FermionState):
            return NotImplemented
        if self.gens != other.gens:
            raise MismatchedGenerators("states over different generator sets")
        return FermionState(self.gens, self.psi0 - other.psi0, self.psi1 - other.psi1)

    def __neg__(self):
        return FermionState(self.gens, -self.psi0, -self.psi1)

    def __rmul__(self, other):
        # Coefficients multiply componentwise from the left.
        if isinstance(other, (Multivector, int, float, complex)):
            return FermionState(self.gens, other * self.psi0, other * self.psi1)
        return NotImplemented

    def sup_norm(self) -> float:
        return float(np.max([self.psi0.sup_norm(), self.psi1.sup_norm()]))

    def isclose(self, other: "FermionState", tol: float = 1e-13) -> bool:
        return (self - other).sup_norm() <= tol

    def __repr__(self):
        return f"[{self.psi0!r}]|0> + [{self.psi1!r}]|1>"


# -- operations ------------------------------------------------------------


# The coefficient slot and the amplitude of each product of _apply_rows and dynamics._rhs.
_APPLY_SLOTS, _APPLY_AMPS = np.array([[_ID, _ID, _ANN, _NUM, _CRE], [0, 1, 1, 1, 0]])

# The slot pairs (i, j) of _BASIS_MUL in its order, as gather indices; the
# pairs whose left slot is odd; and the (pair, slot, np.add or np.subtract)
# scatter of their products, so each slot sums its products in pair order.
_PAIR_LEFT = np.array([i for i, _ in _BASIS_MUL])
_PAIR_RIGHT = np.array([j for _, j in _BASIS_MUL])
_PAIR_ODD = np.flatnonzero([_PARITY[i] for i, _ in _BASIS_MUL])
_PAIR_SCATTER = tuple((k, slot, np.add if sign > 0 else np.subtract)
                      for k, targets in enumerate(_BASIS_MUL.values())
                      for slot, sign in targets)


def _compose_coeff_arrays(c1s, c2s, n_gen: int) -> np.ndarray:
    """Array-level graded product over the 4-slot basis; shared by compose
    and the integrators (which avoid building operator objects per stage).

    c1s and c2s are (4, dim) or a batch (R, 4, dim), composed row by row;
    all twelve slot pairs of every row go through one kernel call. A pair
    with an all-zero operand adds an exact +0.0 product to a sum that starts
    at +0.0, which changes no bit for finite operands.
    """
    c1s = np.asarray(c1s)
    right = np.asarray(c2s)[..., _PAIR_RIGHT, :]
    # gi on the pairs with an odd left slot only: a product by 1 can flip a -0.0
    right[..., _PAIR_ODD, :] = kernel.tables.parity_signs(n_gen) * right[..., _PAIR_ODD, :]
    dim = 1 << n_gen
    prod = kernel.multiply(c1s[..., _PAIR_LEFT, :].reshape(-1, dim),
                           right.reshape(-1, dim), n_gen).reshape(right.shape)
    out = np.zeros(c1s.shape, dtype=np.complex128)
    slots, prod = out.reshape(-1, 4, dim), prod.reshape(-1, len(_PAIR_LEFT), dim)
    for k, slot, add in _PAIR_SCATTER:
        add(slots[:, slot], prod[:, k], out=slots[:, slot])
    return out


def _commutator_coeff_arrays(c1s, c2s, n_gen: int) -> np.ndarray:
    """c1s c2s - c2s c1s per row of batches (R, 4, dim), both orders in one
    _compose_coeff_arrays call: rows compose on their own, so bit for bit as two."""
    prod = _compose_coeff_arrays(np.concatenate((c1s, c2s)), np.concatenate((c2s, c1s)), n_gen)
    return prod[:len(c1s)] - prod[len(c1s):]


def _adjoint_rows(c: np.ndarray) -> np.ndarray:
    """Adjoint slot rows (..., 4, dim): b, b† swapped and grade-involuted; conjugated; +0.0."""
    swapped = c[..., [_ID, _CRE, _ANN, _NUM], :]
    swapped[..., 1:3, :] *= kernel.tables.parity_signs(_n_gen(c))
    return 0.0 + kernel.conjugate(swapped, _n_gen(c))


def compose(o1: FermionOperator, o2: FermionOperator) -> FermionOperator:
    """Graded operator product: o2's coefficient passes through o1's basis part."""
    o1._check_gens(o2)
    gens = o1.gens
    out = _compose_coeff_arrays(
        [c.coeffs for c in o1.coefficients()],
        [c.coeffs for c in o2.coefficients()],
        gens.n_generators,
    )
    return FermionOperator(gens, *(Multivector(gens, row, _copy=False) for row in out))


def adjoint(o: FermionOperator) -> FermionOperator:
    return o.adjoint()


def commutator(o1: FermionOperator, o2: FermionOperator) -> FermionOperator:
    return compose(o1, o2) - compose(o2, o1)


def anticommutator(o1: FermionOperator, o2: FermionOperator) -> FermionOperator:
    return compose(o1, o2) + compose(o2, o1)


def apply(o: FermionOperator, s: FermionState) -> FermionState:
    """Act on a state; odd basis parts grade-involute the amplitude they pass."""
    if o.gens != s.gens:
        raise MismatchedGenerators("operator and state over different generator sets")
    slots = np.stack([c.coeffs for c in o.coefficients()])[None]
    return _state(s.gens, _apply_rows(slots, _rows(s), s.gens.n_generators)[0])


def _apply_rows(c: np.ndarray, psi: np.ndarray, n_gen: int) -> np.ndarray:
    """H psi per row of slot rows c (R, 4, dim) and amplitudes psi (R, 2, dim):
    c_i*psi0 + c_minus*gi(psi1) and (c_i*psi1 + c_n*psi1) + c_plus*gi(psi0),
    the five products in one kernel.multiply call."""
    right = psi.take(_APPLY_AMPS, axis=1)
    right[:, 2::2] *= kernel.tables.parity_signs(n_gen)  # gi(psi1), gi(psi0)
    prod = _amplitude_products(c.take(_APPLY_SLOTS, axis=1), right, n_gen)
    out = prod[:, :2] + prod[:, 2:4]
    out[:, 1] += prod[:, 4]
    return out


def exp_operator(o: FermionOperator) -> FermionOperator:
    """Finite power series exp(o); the scalar part of c_i splits off exactly.

    Requires every remaining coefficient to be nilpotent (zero body), which
    makes the series terminate; otherwise NonTerminatingSeries.
    """
    gens = o.gens
    scalar = o.c_i.body
    rest = o - FermionOperator.scaled_identity(gens.scalar(scalar))
    scale = max(1.0, rest.sup_norm())
    for name, c in zip(("c_i", "c_minus", "c_plus", "c_n"), rest.coefficients()):
        if not abs(c.body) <= EXP_BODY_TOL * scale:
            raise NonTerminatingSeries(
                f"{name} has nonzero body {c.body}; series would not terminate"
            )
    acc = FermionOperator.identity(gens)
    term = FermionOperator.identity(gens)
    max_power = gens.n_generators + 3
    for k in range(1, max_power + 1):
        term = compose(term, rest) * (1.0 / k)
        if term.sup_norm() == 0.0:
            break
        acc = acc + term
    else:
        raise NonTerminatingSeries(f"series not exhausted after {max_power} powers")
    return acc * complex(np.exp(scalar))


def make_coherent(zeta):
    """Normalized annihilation eigenstate for an odd degree-one eigenvalue;
    on eigenvalue rows (R, dim), the amplitudes (R, 2, dim) of each row's."""
    require_odd_degree_one(zeta, "coherent-state eigenvalue")
    if isinstance(zeta, Multivector):
        return _state(zeta.gens, make_coherent(zeta.coeffs[None])[0])
    n_gen = _n_gen(zeta)
    n = exponential(-0.5 * kernel.multiply(kernel.conjugate(zeta, n_gen), zeta, n_gen))
    return np.stack((n, -kernel.multiply(n, zeta, n_gen)), axis=1)


def make_displacement(zeta: Multivector, ladder: FermionOperator) -> FermionOperator:
    """exp(L†ζ - ζ*L) for any operator satisfying the ladder algebra.

    With L = U b U† the evolved ladder, exp(L†ζ - ζ*L) U|0> = U|ζ> only when
    U commutes with ζ, i.e. for a parity-even Hamiltonian. Under c-number
    forcing U mixes parity and ζ picks up V(t) = P(t)P on its way through U
    (P = I - 2b†b, P(t) = U P U†): the identity becomes
    exp(L†Vζ - ζ*V†L) U|0> = U|ζ>, and V†L is not a ladder.
    """
    require_odd_degree_one(zeta, "displacement parameter")
    gens = ladder.gens
    ident = FermionOperator.identity(gens)
    lad_dag = ladder.adjoint()
    if not (anticommutator(ladder, lad_dag) - ident).sup_norm() <= LADDER_TOL:
        raise NotALadder("anticommutator {L, L+} deviates from the identity")
    if not compose(ladder, ladder).sup_norm() <= LADDER_TOL:
        raise NotALadder("L^2 deviates from zero")
    zeta_op = FermionOperator.scaled_identity(zeta)
    zconj_op = FermionOperator.scaled_identity(zeta.conjugate())
    return exp_operator(compose(lad_dag, zeta_op) - compose(zconj_op, ladder))


def inner_product(s1, s2):
    """<s1|s2> = conj(psi0_1) psi0_2 + conj(psi1_1) psi1_2 (a Multivector);
    on amplitude rows (R, 2, dim), the coefficient rows (R, dim) of each."""
    if isinstance(s1, FermionState):
        if s1.gens != s2.gens:
            raise MismatchedGenerators("states over different generator sets")
        return Multivector(s1.gens, inner_product(_rows(s1), _rows(s2))[0])
    n_gen = _n_gen(s1)
    prod = _amplitude_products(kernel.conjugate(s1, n_gen), s2, n_gen)
    return prod[:, 0] + prod[:, 1]


def extract_eigenvalue(s):
    """Annihilation eigenvalue and relative residual of a candidate state;
    on amplitude rows (R, 2, dim), the eigenvalues (R, dim) and residuals
    (R,) of each, NaN (both parts) and inf on a row without a vacuum body,
    where a state without one raises VacuumAmplitudeZero."""
    if isinstance(s, FermionState):
        psi = _rows(s)
        if not _has_vacuum(psi)[0]:
            raise VacuumAmplitudeZero("state has no vacuum-amplitude body")
        lam, res = extract_eigenvalue(psi)
        return Multivector(s.gens, lam[0]), float(res[0])
    n_gen = _n_gen(s)
    lam, residual = np.full(s.shape[::2], complex(np.nan, np.nan)), np.full(len(s), np.inf)
    has = _has_vacuum(s)
    psi = s[has]
    g1 = kernel.tables.parity_signs(n_gen) * psi[:, 1]
    lam[has] = kernel.multiply(g1, invert(psi[:, 0]), n_gen)
    diff = -_amplitude_products(np.repeat(lam[has][:, None], 2, axis=1), psi, n_gen)
    diff[:, 0] += g1  # b|psi> - lam|psi>, b|psi> = (g1, 0)
    residual[has] = np.abs(diff).max(axis=(1, 2)) / _norm_bodies(psi).real
    return lam, residual


def _rows(s: FermionState) -> np.ndarray:
    """s as the one row of the row-batched forms above: (1, 2, dim)."""
    return np.stack((s.psi0.coeffs, s.psi1.coeffs))[None]


def _state(gens: GeneratorSet, psi: np.ndarray) -> FermionState:
    return FermionState(gens, Multivector(gens, psi[0]), Multivector(gens, psi[1]))


def _amplitude_products(a: np.ndarray, b: np.ndarray, n_gen: int) -> np.ndarray:
    """a * b per amplitude, a and b amplitude rows (R, k, dim)."""
    rows = (-1, a.shape[-1])
    return kernel.multiply(a.reshape(rows), b.reshape(rows), n_gen).reshape(a.shape)


def _record_blocks(psi: np.ndarray) -> list[slice]:
    """Blocks of amplitude rows psi, (R, 2, dim) or a boson's (R, levels),
    R >= 1, for the per-record observers: as many rows as fit TABLE_BYTES at
    five times a row's bytes, about what extract_eigenvalue or a block of
    reference states holds per row at once (4.0-5.1, measured from 64 rows)."""
    return kernel.row_blocks(len(psi), 5 * psi[0].nbytes)


def _norm_bodies(psi: np.ndarray) -> np.ndarray:  # <psi|psi>'s body; only bodies reach it
    return inner_product(psi[..., :1], psi[..., :1])[:, 0]


def _has_vacuum(psi: np.ndarray) -> np.ndarray:
    # Python's abs (libm hypot) on the vacuum body, as the gate always had it
    return np.array([abs(complex(b)) >= 1e-150 for b in psi[:, 0, 0]], dtype=bool)
