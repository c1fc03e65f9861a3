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
    exponential,
    invert,
    require_odd_degree_one,
)

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

_ADJOINT_SLOT = (_ID, _CRE, _ANN, _NUM)


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
        return max(c.sup_norm() for c in self.coefficients())

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
        out = [self.gens.zero()] * 4
        for slot, c in enumerate(self.coefficients()):
            target = _ADJOINT_SLOT[slot]
            cc = c.grade_involution() if _PARITY[slot] else c
            out[target] = out[target] + cc.conjugate()
        return FermionOperator(self.gens, *out)

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
            if not c.is_zero(1e-15)
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
        return max(self.psi0.sup_norm(), self.psi1.sup_norm())

    def norm_body(self) -> float:
        return float(inner_product(self, self).body.real)

    def isclose(self, other: "FermionState", tol: float = 1e-13) -> bool:
        return (self - other).sup_norm() <= tol

    def __repr__(self):
        return f"[{self.psi0!r}]|0> + [{self.psi1!r}]|1>"


# -- operations ------------------------------------------------------------


def _compose_coeff_arrays(c1s, c2s, n_gen: int):
    """Array-level graded product over the 4-slot basis; shared by compose
    and the integrators (which avoid building operator objects per stage)."""
    gsigns = kernel.grade_signs(n_gen)
    out = [np.zeros(1 << n_gen, dtype=np.complex128) for _ in range(4)]
    lefts, rights, slots = [], [], []
    for i in range(4):
        c1 = c1s[i]
        if not np.any(c1):
            continue
        for j in range(4):
            targets = _BASIS_MUL.get((i, j))
            if targets is None:
                continue
            c2 = c2s[j]
            if not np.any(c2):
                continue
            lefts.append(c1)
            rights.append(gsigns * c2 if _PARITY[i] else c2)
            slots.append(targets)
    if slots:
        coeffs = kernel.multiply(np.stack(lefts), np.stack(rights), n_gen)
        for coeff, targets in zip(coeffs, slots):
            for slot, sign in targets:
                out[slot] += sign * coeff
    return out


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
    g0 = s.psi0.grade_involution()
    g1 = s.psi1.grade_involution()
    psi0 = o.c_i * s.psi0 + o.c_minus * g1
    psi1 = o.c_i * s.psi1 + o.c_n * s.psi1 + o.c_plus * g0
    return FermionState(s.gens, psi0, psi1)


def exp_operator(o: FermionOperator, body_tol: float = 1e-13) -> FermionOperator:
    """Finite power series exp(o); the scalar part of c_i splits off exactly.

    Requires every remaining coefficient to be nilpotent (zero body), which
    makes the series terminate; otherwise NonTerminatingSeries.
    """
    gens = o.gens
    scalar = o.c_i.body
    rest = o - FermionOperator.scaled_identity(gens.scalar(scalar))
    scale = max(1.0, rest.sup_norm())
    for name, c in zip(("c_i", "c_minus", "c_plus", "c_n"), rest.coefficients()):
        if abs(c.body) > body_tol * scale:
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


def make_coherent(zeta: Multivector) -> FermionState:
    """Normalized annihilation eigenstate for an odd degree-one eigenvalue."""
    require_odd_degree_one(zeta, "coherent-state eigenvalue")
    n = exponential(-0.5 * (zeta.conjugate() * zeta))
    return FermionState(zeta.gens, n, -(n * zeta))


def make_displacement(zeta: Multivector, ladder: FermionOperator,
                      ladder_tol: float = 1e-10) -> FermionOperator:
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
    if anticommutator(ladder, lad_dag).__sub__(ident).sup_norm() > ladder_tol:
        raise NotALadder("anticommutator {L, L+} deviates from the identity")
    if compose(ladder, ladder).sup_norm() > ladder_tol:
        raise NotALadder("L^2 deviates from zero")
    zeta_op = FermionOperator.scaled_identity(zeta)
    zconj_op = FermionOperator.scaled_identity(zeta.conjugate())
    return exp_operator(compose(lad_dag, zeta_op) - compose(zconj_op, ladder))


def inner_product(s1: FermionState, s2: FermionState) -> Multivector:
    """<s1|s2> = conj(psi0_1) psi0_2 + conj(psi1_1) psi1_2 (a Multivector)."""
    if s1.gens != s2.gens:
        raise MismatchedGenerators("states over different generator sets")
    return s1.psi0.conjugate() * s2.psi0 + s1.psi1.conjugate() * s2.psi1


def extract_eigenvalue(s: FermionState) -> tuple[Multivector, float]:
    """Annihilation eigenvalue and relative residual of a candidate state."""
    if abs(s.psi0.body) < 1e-150:
        raise VacuumAmplitudeZero("state has no vacuum-amplitude body")
    lam = s.psi1.grade_involution() * invert(s.psi0)
    applied = apply(FermionOperator.annihilator(s.gens), s)
    diff = applied - (lam * s)
    return lam, diff.sup_norm() / s.norm_body()
