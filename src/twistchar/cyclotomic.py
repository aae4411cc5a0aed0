"""Exact arithmetic in Q(w), w a primitive t-th root of unity.

Elements are dense vectors of Fractions of length phi(t), representing
polynomials in w reduced modulo the t-th cyclotomic polynomial.  No
floating point anywhere; inversion runs extended Euclid against Phi_t
over the rationals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache


def _poly_trim(p: list) -> list:
    while p and p[-1] == 0:
        p.pop()
    return p


def _poly_mul(p: list, q: list) -> list:
    out = [0] * (len(p) + len(q) - 1) if p and q else []
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return out


@lru_cache(maxsize=None)
def cyclotomic_poly(t: int) -> tuple[int, ...]:
    """Coefficients of Phi_t, ascending, computed by dividing x^t - 1
    by the cyclotomic polynomials of the proper divisors of t."""
    if t < 1:
        raise ValueError(f"t must be positive, got {t}")
    num = [Fraction(-1)] + [Fraction(0)] * (t - 1) + [Fraction(1)]
    for d in range(1, t):
        if t % d == 0:
            num, rem = _poly_divmod(num, cyclotomic_poly(d))
            if rem:
                raise ArithmeticError(f"Phi_{d} does not divide x^{t} - 1 exactly")
    return tuple(int(c) for c in num)


@dataclass(frozen=True)
class CycloField:
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


def _poly_divmod(num: list[Fraction], den: list[Fraction]):
    num = _poly_trim(list(num))
    den = _poly_trim(list(den))
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    quot = [Fraction(0)] * max(0, len(num) - len(den) + 1)
    while num and len(num) >= len(den):
        c = num[-1] / den[-1]
        shift = len(num) - len(den)
        quot[shift] = c
        for i, x in enumerate(den):
            num[shift + i] -= c * x
        num = _poly_trim(num)
    return quot, num


def _poly_sub(p: list[Fraction], q: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * max(len(p), len(q))
    for i, x in enumerate(p):
        out[i] += x
    for i, x in enumerate(q):
        out[i] -= x
    return _poly_trim(out)


def _poly_xgcd(a: list[Fraction], b: list[Fraction]):
    """Extended Euclid over Q[x]; returns (s, g) with s*a = g mod b."""
    old_r, r = _poly_trim(list(a)), _poly_trim(list(b))
    old_s, s = [Fraction(1)], []
    while r:
        q, rem = _poly_divmod(old_r, r)
        old_r, r = r, rem
        old_s, s = s, _poly_sub(old_s, _poly_mul(q, s))
    return old_s, old_r


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

    def inv(self) -> "CycloElem":
        if not self:
            raise ZeroDivisionError("division by zero in Q(w)")
        phi = [Fraction(c) for c in self.field.phi]
        s, g = _poly_xgcd(list(self.coeffs), phi)
        # Phi_t is irreducible over Q, so the gcd is a nonzero constant.
        lead = g[-1]
        vec = [c / lead for c in s]
        vec += [Fraction(0)] * (self.field.degree - len(vec))
        return CycloElem(self.field, tuple(self.field._reduce(vec)))

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inv()

    def __pow__(self, k: int) -> "CycloElem":
        base = self.inv() if k < 0 else self
        k = abs(k)
        acc = self.field.one
        while k:
            if k & 1:
                acc = acc * base
            base = base * base
            k >>= 1
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
