"""Exact arithmetic in Q(w), w a primitive t-th root of unity.

Elements are dense vectors of Fractions of length phi(t), representing
polynomials in w reduced modulo the t-th cyclotomic polynomial.  No
floating point anywhere; an element is inverted through its Galois
conjugates, the other conjugates' product over the norm.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import NamedTuple


def _poly_mul(p: list, q: list) -> list:
    out = [0] * (len(p) + len(q) - 1) if p and q else []
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return out


@lru_cache(maxsize=None)
def cyclotomic_poly(t: int) -> tuple[int, ...]:
    """Coefficients of Phi_t, ascending, computed by dividing x^t - 1 over Z
    by the monic cyclotomic polynomials of the proper divisors of t."""
    if t < 1:
        raise ValueError(f"t must be positive, got {t}")
    num = [-1] + [0] * (t - 1) + [1]
    for d in range(1, t):
        if t % d == 0:
            den = cyclotomic_poly(d)
            k = len(den) - 1
            # Phi_d is monic, so synthetic division stays in Z; it leaves the
            # remainder in num[:k] and the quotient in num[k:].
            for s in reversed(range(len(num) - k)):
                for i, x in enumerate(den[:k]):
                    num[s + i] -= num[s + k] * x
            if any(num[:k]):
                raise ArithmeticError(f"Phi_{d} does not divide x^{t} - 1 exactly")
            num = num[k:]
    return tuple(num)


class CycloField(NamedTuple):
    """Q(w) for w a fixed primitive t-th root of unity."""

    t: int
    phi: tuple[int, ...]

    @property
    def degree(self) -> int:
        return len(self.phi) - 1

    def elem(self, coeffs) -> "CycloElem":
        vec = [Fraction(c) for c in coeffs]
        if len(vec) < self.degree:
            vec += [Fraction(0)] * (self.degree - len(vec))
        return CycloElem(self, tuple(self._reduce(vec)))

    def _reduce(self, vec: list[Fraction]) -> list[Fraction]:
        # Phi_t is monic, so x^deg = -(phi_0 + phi_1 x + ... + phi_{deg-1} x^{deg-1}).
        deg = self.degree
        for k in range(len(vec) - 1, deg - 1, -1):
            c = vec[k]
            if c:
                vec[k] = Fraction(0)
                for i in range(deg):
                    vec[k - deg + i] -= c * self.phi[i]
        return vec[:deg]

    def from_rational(self, a) -> "CycloElem":
        return self.elem([Fraction(a)])

    @property
    def zero(self) -> "CycloElem":
        return self.from_rational(0)

    @property
    def one(self) -> "CycloElem":
        return self.from_rational(1)

    @property
    def omega(self) -> "CycloElem":
        return self.elem([0, 1])


@lru_cache(maxsize=None)
def field(t: int) -> CycloField:
    return CycloField(t, cyclotomic_poly(t))


def omega_pow(fld: CycloField, k: int) -> "CycloElem":
    """Canonical representative of w^(k mod t)."""
    k %= fld.t
    return fld.elem([0] * k + [1])


class CycloElem:
    """Immutable element of a CycloField; equality is coefficient-wise."""

    __slots__ = ("field", "coeffs")

    def __init__(self, fld: CycloField, coeffs: tuple[Fraction, ...]):
        object.__setattr__(self, "field", fld)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, *args):
        raise AttributeError("CycloElem is immutable")

    def _coerce(self, other):
        if isinstance(other, CycloElem):
            if other.field.t != self.field.t:
                raise ValueError("mixed cyclotomic fields")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.from_rational(other)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return CycloElem(self.field, tuple(a + b for a, b in zip(self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return CycloElem(self.field, tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return CycloElem(self.field, tuple(a - b for a, b in zip(self.coeffs, o.coeffs)))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        prod = _poly_mul(list(self.coeffs), list(o.coeffs))
        prod = [Fraction(c) for c in prod]
        return CycloElem(self.field, tuple(self.field._reduce(prod)))

    __rmul__ = __mul__

    def _conjugate(self, k: int) -> "CycloElem":
        """sigma_k, which sends w to w^k; a field automorphism for k prime to t."""
        t = self.field.t
        vec = [Fraction(0)] * t
        for i, c in enumerate(self.coeffs):
            vec[i * k % t] += c
        return CycloElem(self.field, tuple(self.field._reduce(vec)))

    def inv(self) -> "CycloElem":
        """The product of the other conjugates sigma_k(self), 1 < k < t prime
        to t, divided by the norm, that product times self.  The sigma_k
        permute the roots of Phi_t, so they fix the norm: it is rational."""
        if not self:
            raise ZeroDivisionError("division by zero in Q(w)")
        others = self.field.one
        for k in range(2, self.field.t):
            if gcd(k, self.field.t) == 1:
                others = others * self._conjugate(k)
        norm, *rest = (self * others).coeffs
        if any(rest):
            raise ArithmeticError(f"the norm of {self} is not rational")
        return CycloElem(self.field, tuple(c / norm for c in others.coeffs))

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inv()

    def __pow__(self, k: int) -> "CycloElem":
        # Square up to the lowest set bit, start there, and square no more
        # after the highest one: x ** 1 costs no multiplication.
        if not k:
            return self.field.one
        base = self.inv() if k < 0 else self
        k = abs(k)
        while not k & 1:
            base = base * base
            k >>= 1
        acc = base
        while k := k >> 1:
            base = base * base
            if k & 1:
                acc = acc * base
        return acc

    def __eq__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self.coeffs == o.coeffs

    def __hash__(self):
        return hash((self.field.t, self.coeffs))

    def __bool__(self):
        return any(self.coeffs)

    def __repr__(self):
        terms = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                mono = "w" if i == 1 else f"w^{i}"
                terms.append(mono if c == 1 else f"-{mono}" if c == -1 else f"{c}*{mono}")
        body = " + ".join(terms).replace("+ -", "- ") if terms else "0"
        return f"({body} : t={self.field.t})"
