"""Truncated one-mode boson Fock space.

Amplitudes live on |0>..|nmax|; truncation loss is tracked as a metric, not
hidden. The generalized displacement exponentiates A = beta*a + gamma by a
direct power series so it also works for ladder invariants.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import SeriesStalled, TruncationTooSmall

#: Default Fock-space cutoff; ample for |z| <= 1 workloads.
DEFAULT_NMAX = 64

#: Largest cutoff a constructor builds (16 KiB of amplitudes), checked first.
MAX_NMAX = 1024

#: Acceptable coherent-state tail mass beyond the cutoff.
TAIL_TOL = 1e-9

#: `displace` stops at a term below DISPLACE_TERM_TOL or fails after DISPLACE_MAX_TERMS.
DISPLACE_TERM_TOL, DISPLACE_MAX_TERMS = 1e-14, 500


@dataclass(frozen=True)
class BosonLadderInvariant:
    """Pair (beta, gamma) in the invariant ladder A = beta*a + gamma."""

    beta: complex
    gamma: complex


class BosonState:
    """Complex amplitudes c_0..c_nmax."""

    __slots__ = ("amps",)

    def __init__(self, amps: np.ndarray, _copy: bool = True):
        arr = np.array(amps, dtype=np.complex128, copy=_copy)
        if arr.ndim != 1 or arr.size < 2:
            raise ValueError("amplitudes must be a vector with nmax >= 1")
        arr.flags.writeable = False
        object.__setattr__(self, "amps", arr)

    def __setattr__(self, name, value):
        raise AttributeError("BosonState is immutable")

    @classmethod
    def vacuum(cls, nmax: int = DEFAULT_NMAX) -> "BosonState":
        return cls.number_state(0, nmax)

    @classmethod
    def number_state(cls, n: int, nmax: int = DEFAULT_NMAX) -> "BosonState":
        _check_nmax(nmax)
        if not 0 <= n <= nmax:
            raise ValueError(f"number state {n} outside 0..{nmax}")
        amps = np.zeros(nmax + 1, dtype=np.complex128)
        amps[n] = 1.0
        return cls(amps, _copy=False)

    @property
    def nmax(self) -> int:
        return self.amps.size - 1

    def norm_sq(self) -> float:
        return float(np.sum(np.abs(self.amps) ** 2))

    def norm(self) -> float:
        return float(np.sqrt(self.norm_sq()))

    def __add__(self, other):
        if not isinstance(other, BosonState):
            return NotImplemented
        return BosonState(self.amps + other.amps, _copy=False)

    def __sub__(self, other):
        if not isinstance(other, BosonState):
            return NotImplemented
        return BosonState(self.amps - other.amps, _copy=False)

    def __rmul__(self, other):
        if isinstance(other, (int, float, complex)):
            return BosonState(other * self.amps, _copy=False)
        return NotImplemented

    def __repr__(self):
        return f"BosonState(nmax={self.nmax}, norm={self.norm():.6g})"


def _check_nmax(nmax: int) -> None:
    """Refuse (ValueError) a cutoff outside 1..MAX_NMAX."""
    if not 1 <= nmax <= MAX_NMAX:
        raise ValueError(f"nmax must be in 1..{MAX_NMAX}, got {nmax}")


def coherent_tail_mass(z: complex, nmax: int) -> float:
    """Poisson tail beyond nmax for mean |z|^2; NaN for a non-finite z."""
    _check_nmax(nmax)
    lam = abs(z) ** 2
    if not np.isfinite(lam):
        return np.nan
    if lam == 0.0:
        return 0.0
    terms = np.zeros(nmax + 1)
    terms[0] = np.exp(-lam)
    for n in range(1, nmax + 1):
        terms[n] = terms[n - 1] * lam / n
    return max(0.0, 1.0 - float(np.sum(terms)))


def make_coherent_boson(z: complex, nmax: int = DEFAULT_NMAX) -> BosonState:
    """c_n = exp(-|z|^2/2) z^n / sqrt(n!), truncated with a tail-mass guard."""
    tail = coherent_tail_mass(z, nmax)  # refuses nmax outside 1..MAX_NMAX
    if not tail <= TAIL_TOL:
        raise TruncationTooSmall(
            f"tail mass {tail:.3e} exceeds {TAIL_TOL} at nmax={nmax} for |z|={abs(z):.3g}"
        )
    amps = np.zeros(nmax + 1, dtype=np.complex128)
    amps[0] = np.exp(-abs(z) ** 2 / 2)
    for n in range(1, nmax + 1):
        amps[n] = amps[n - 1] * z / np.sqrt(n)
    return BosonState(amps, _copy=False)


@functools.lru_cache
def _ladder_sqrt(levels: int) -> np.ndarray:
    """The ladder's read-only float64 factors sqrt(1..levels-1), rk4.c's too."""
    sq = np.sqrt(np.arange(1, levels))
    sq.flags.writeable = False
    return sq


def _lower(amps: np.ndarray) -> np.ndarray:
    # a: c_n <- sqrt(n+1) c_{n+1}, along the last axis
    out = np.zeros_like(amps)
    out[..., :-1] = _ladder_sqrt(amps.shape[-1]) * amps[..., 1:]
    return out


def _raise(amps: np.ndarray) -> np.ndarray:
    # a†: c_n <- sqrt(n) c_{n-1}, along the last axis; |nmax+1> is dropped
    out = np.zeros_like(amps)
    out[..., 1:] = _ladder_sqrt(amps.shape[-1]) * amps[..., :-1]
    return out


def apply_ladder(which: str, s: BosonState) -> BosonState:
    """Apply a, a† ("adag") or a†a ("n") on the truncated amplitudes."""
    if which == "a":
        return BosonState(_lower(s.amps), _copy=False)
    if which in ("adag", "a+"):
        return BosonState(_raise(s.amps), _copy=False)
    if which in ("n", "adaga"):
        return BosonState(np.arange(s.amps.size) * s.amps, _copy=False)
    raise ValueError(f"unknown ladder {which!r}; expected 'a', 'adag' or 'n'")


def displace(inv: BosonLadderInvariant, z: complex, s: BosonState) -> BosonState:
    """exp(A†z - z*A) with A = beta*a + gamma, by direct power series."""
    beta, gamma = inv.beta, inv.gamma
    scalar = z * np.conj(gamma) - np.conj(z) * gamma
    cu = z * np.conj(beta)
    cd = -np.conj(z) * beta

    def x_apply(v: np.ndarray) -> np.ndarray:
        return cu * _raise(v) + cd * _lower(v) + scalar * v

    acc = s.amps.copy()
    term = s.amps.copy()
    for k in range(1, DISPLACE_MAX_TERMS + 1):
        term = x_apply(term) / k
        size = np.max(np.abs(term))
        # bail out well before float overflow would poison the next product
        if not np.isfinite(size) or size > 1e150:
            raise SeriesStalled(f"displacement series diverged at term {k}")
        acc = acc + term
        if size < DISPLACE_TERM_TOL:
            return BosonState(acc, _copy=False)
    raise SeriesStalled(f"displacement series not converged after {DISPLACE_MAX_TERMS} terms")


def expectation_number(s: BosonState) -> float:
    """Mean occupation <a†a> of the (not necessarily normalized) state."""
    return float(np.sum(np.arange(s.amps.size) * np.abs(s.amps) ** 2) / s.norm_sq())


def expectation_lowering(s: BosonState) -> complex:
    """<a> = <psi|a psi> / <psi|psi>."""
    return eigenvalue_lsq(s)[0]


def eigenvalue_lsq(s):
    """Least-squares annihilation eigenvalue <a> and relative residual; on
    amplitude rows (R, levels), those of each row as arrays (R,), bit for bit
    as its BosonState alone: np.vdot and np.linalg.norm run a row at a time."""
    rows = s.amps[None] if isinstance(s, BosonState) else s
    norm_sq, low = np.sum(np.abs(rows) ** 2, axis=-1), _lower(rows)
    lam = np.array([np.vdot(a, b) for a, b in zip(rows, low)]) / norm_sq
    res = np.array([np.linalg.norm(r) for r in low - lam[:, None] * rows]) / np.sqrt(norm_sq)
    if isinstance(s, BosonState):
        return complex(lam[0]), float(res[0])
    return lam, res
