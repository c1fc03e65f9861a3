"""Time-dependent coefficient functions.

A CoefficientFn is a finite sum of constants, monomials c*t^k (k <= 3) and
harmonics A*cos(w*t + p) / A*sin(w*t + p). The family is closed under
differentiation, evaluates deterministically in double precision, and is
cheap to compare structurally (scenario round-trips rely on that).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

MAX_POLY_POWER = 3


@dataclass(frozen=True)
class ConstTerm:
    value: complex

    def __call__(self, t):
        # np.full copies the value's bits; value * ones would turn a -0.0
        # part into +0.0 and differ from the scalar branch
        return np.full(np.shape(t), self.value, dtype=complex) \
            if np.ndim(t) else self.value

    def derivative(self):
        return ()


@dataclass(frozen=True)
class PolyTerm:
    coef: complex
    power: int

    def __post_init__(self):
        if not 1 <= self.power <= MAX_POLY_POWER:
            raise ValueError(f"polynomial power must be 1..{MAX_POLY_POWER}")

    def __call__(self, t):
        return self.coef * np.asarray(t, dtype=float) ** self.power

    def derivative(self):
        if self.power == 1:
            return (ConstTerm(self.coef),)
        return (PolyTerm(self.coef * self.power, self.power - 1),)


@dataclass(frozen=True)
class TrigTerm:
    amp: complex
    fn: str  # "cos" | "sin"
    freq: float
    phase: float = 0.0

    def __post_init__(self):
        if self.fn not in ("cos", "sin"):
            raise ValueError("trig kind must be 'cos' or 'sin'")

    def __call__(self, t):
        arg = self.freq * np.asarray(t, dtype=float) + self.phase
        return self.amp * (np.cos(arg) if self.fn == "cos" else np.sin(arg))

    def derivative(self):
        if self.fn == "cos":
            return (TrigTerm(-self.amp * self.freq, "sin", self.freq, self.phase),)
        return (TrigTerm(self.amp * self.freq, "cos", self.freq, self.phase),)


Term = Union[ConstTerm, PolyTerm, TrigTerm]


@dataclass(frozen=True)
class CoefficientFn:
    terms: tuple[Term, ...] = ()

    def __call__(self, t):
        if not self.terms:
            return np.zeros_like(np.asarray(t, dtype=float), dtype=complex) \
                if np.ndim(t) else complex(0.0)
        acc = self.terms[0](t)
        for term in self.terms[1:]:
            acc = acc + term(t)
        return acc

    def derivative(self) -> "CoefficientFn":
        out: list[Term] = []
        for term in self.terms:
            out.extend(term.derivative())
        return CoefficientFn(tuple(out))

    def scale(self, c: complex) -> "CoefficientFn":
        out: list[Term] = []
        for term in self.terms:
            if isinstance(term, ConstTerm):
                out.append(ConstTerm(term.value * c))
            elif isinstance(term, PolyTerm):
                out.append(PolyTerm(term.coef * c, term.power))
            else:
                out.append(TrigTerm(term.amp * c, term.fn, term.freq, term.phase))
        return CoefficientFn(tuple(out))

    def __add__(self, other):
        if isinstance(other, CoefficientFn):
            return CoefficientFn(self.terms + other.terms)
        return NotImplemented

    def is_structurally_zero(self) -> bool:
        return all(
            (isinstance(t, ConstTerm) and t.value == 0)
            or (isinstance(t, PolyTerm) and t.coef == 0)
            or (isinstance(t, TrigTerm) and t.amp == 0)
            for t in self.terms
        )


def zero_fn() -> CoefficientFn:
    return CoefficientFn(())


def const_fn(c: complex) -> CoefficientFn:
    return CoefficientFn((ConstTerm(c),))


def poly_fn(c: complex, power: int) -> CoefficientFn:
    return CoefficientFn((PolyTerm(c, power),))


def cos_fn(amp: complex, freq: float, phase: float = 0.0) -> CoefficientFn:
    return CoefficientFn((TrigTerm(amp, "cos", freq, phase),))


def sin_fn(amp: complex, freq: float, phase: float = 0.0) -> CoefficientFn:
    return CoefficientFn((TrigTerm(amp, "sin", freq, phase),))


def complex_pair(re: CoefficientFn, im: CoefficientFn) -> CoefficientFn:
    """Combine two real-valued functions into re + i*im."""
    return re + im.scale(1j)
