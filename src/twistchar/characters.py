"""Weyl characters of the classical groups, evaluated exactly.

Two independent routes.  `weyl_character` is a ratio of two determinants
whose entries are powers of rational evaluation points.  The four families:

  GL  s_la      det(x_i^(b_j))             / det(x_i^(n-j))
  SP  sp_la     det(x_i^(b_j+1) - xbar_i^(b_j+1)) / same at la = empty
  OO  oo_la     det(x_i^(b_j+1) - xbar_i^(b_j))   / same at la = empty
  OE  oe_la     det(x_i^(b_j) + xbar_i^(b_j)) / same at la = empty, with
                the entry at b_j = 0 read as 1, half of x^0 + xbar^0

with b = beta_set(la, n) and xbar the inverse point.  The OO form uses
integer exponents only, so no square roots are ever needed.
At the points x_i = p_i/q_i each bialternant is taken over Z: row i
times an integer s_i is an int row, and the bialternant is
det(int rows) / prod s_i.  With top = b_1, the row's largest exponent:

  GL  p^b q^(top-b)                                  s_i = q^top
  SP  (p^(2b+2) - q^(2b+2)) (pq)^(top-b)             s_i = (pq)^(top+1)
  OO  (p^(2b+1) - q^(2b+1)) (pq)^(top-b)             s_i = p^top q^(top+1)
  OE  (p^(2b) + q^(2b)) (pq)^(top-b), (pq)^top at b = 0
                                                     s_i = (pq)^top

Negative points and the point 1 need no special case.

`twisted_character` evaluates the same characters at the root-of-unity
twist (X, wX, ..., w^(t-1) X) of rational points without leaving Q: it
expands them in complete homogeneous symmetric functions h_m (Jacobi-Trudi
for GL, the Koike-Terada determinants for SP/OE/OO) and uses the twist
rule  prod_i prod_k 1/(1 - w^k x_i z) = prod_i 1/(1 - x_i^t z^t).
That determinant is taken over Z: with d the lcm of the denominators of
the points (and of their inverses for SP/OE/OO), h_m = H_m / d^m for
integers H_m.  Row i scaled by d^(la_i - i) and column j by d^j turn the
entry h_(la_i-i+j) into H_(la_i-i+j); the second Koike-Terada term picks
up d^(2j) for SP and d^(2j+2) for OE/OO; the scales multiply to d^|la|.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import lcm

from .linalg import det
from .partitions import Partition, beta_set


class GroupType(Enum):
    GL = "gl"
    SP = "sp"
    OO = "oo"
    OE = "oe"


class DegeneratePointError(ValueError):
    """The Weyl denominator vanishes at the requested points."""


# (u, v, sign) of the Laurent entry x^(b+u) + sign xbar^(b+v).
_LAURENT = {GroupType.SP: (1, 1, -1), GroupType.OO: (1, 0, -1), GroupType.OE: (0, 0, 1)}


def _bialternant(g: GroupType, pts, betas) -> Fraction:
    """det of the bialternant matrix at the points p/q, over Z: row i times
    an integer s_i is an int row, divided out by the product of the s_i
    (module docstring)."""
    top = betas[0]
    rows, scale = [], 1
    if g is GroupType.GL:
        for x in pts:
            p, q = x.numerator, x.denominator
            rows.append([p ** b * q ** (top - b) for b in betas])
            scale *= q ** top
        return Fraction(det(rows), scale)
    # x^(b+u) + sign xbar^(b+v) is (p^(2b+k) + sign q^(2b+k)) / (p^(b+v) q^(b+u))
    # with k = u + v, so s_i = p^(top+v) q^(top+u) leaves (pq)^(top-b) over.
    u, v, sign = _LAURENT[g]
    k = u + v
    for x in pts:
        p, q = x.numerator, x.denominator
        pq = p * q
        rows.append([
            (p ** (2 * b + k) + sign * q ** (2 * b + k)) * pq ** (top - b)
            if b or k else pq ** top  # OE at b = 0: half of x^0 + xbar^0
            for b in betas
        ])
        scale *= p ** (top + v) * q ** (top + u)
    return Fraction(det(rows), scale)


@lru_cache(maxsize=4096)
def _denominator(g: GroupType, pts: tuple) -> Fraction:
    return _bialternant(g, pts, beta_set((), len(pts)))


def weyl_character(g: GroupType, la: Partition, pts: tuple) -> Fraction:
    """Evaluate the character of group type g at the given Fraction points.

    A partition with more parts than there are points indexes no
    representation; the character is zero by convention, and that zero is
    returned explicitly rather than raising.
    """
    n = len(pts)
    if n == 0:
        raise ValueError("at least one evaluation point is required")
    if not all(isinstance(x, Fraction) for x in pts):
        raise TypeError(f"points must be Fractions, got {pts}")
    if len(la) > n:
        return Fraction(0)
    den = _denominator(g, pts)
    if not den:
        raise DegeneratePointError(f"{g.value} denominator vanishes at {pts}")
    return _bialternant(g, pts, beta_set(la, n)) / den


@lru_cache(maxsize=4096)
def _twisted_h(xs: tuple, inverted: bool, ones: int, t: int, top: int) -> tuple:
    """Integer numerators H_0..H_top and their common denominator d, with
    h_m = H_m / d^m, of h_0..h_top of the twist of xs (and of their inverses
    when inverted), with `ones` points 1 appended after the twist.

    d is the lcm of the points' denominators, so H_tk is h_k of the integer
    t-th powers (d y)^t.  A point 1 is d/d: it turns h into its prefix
    sums, H'_m = d H'_(m-1) + H_m.
    Every partition of a scan shares its (t, n, seed) points, so the table
    is kept per point tuple and length; a table is immutable once built.
    It is keyed on what it depends on, not on the group, so SP and OE
    share one table.
    """
    ys = xs + tuple(1 / x for x in xs) if inverted else xs
    d = lcm(*(y.denominator for y in ys))
    base = [1] + [0] * (top // t)
    for y in ys:
        yt = (y.numerator * (d // y.denominator)) ** t
        for k in range(1, len(base)):
            base[k] += yt * base[k - 1]
    h = [base[m // t] if m % t == 0 else 0 for m in range(top + 1)]
    for _ in range(ones):
        h = list(accumulate(h, lambda acc, hm: d * acc + hm))
    return tuple(h), d


def twisted_character(
    g: GroupType, la: Partition, xs: tuple, t: int, ones: int = 0
) -> Fraction:
    """The character of type g at (X, wX, ..., w^(t-1) X), over Q.

    xs are the rational points X; `ones` points 1 are appended to the
    twisted tuple.  The value equals the bialternant ratio at those tn + ones
    points in Q(w) (the tests' oracle), and is rational because the point
    multiset is stable under Galois conjugation.  GL uses Jacobi-Trudi
    det(h[la_i - i + j]); SP, OE and OO use the Koike-Terada determinants
    in h of the points and their inverses, plus the point 1 for OO.
    By the twist rule, h_m of the twisted points is h_(m/t) of the t-th
    powers when t divides m and 0 otherwise; a point 1 turns h into its
    prefix sums.  There is no Weyl denominator, so the points may coincide;
    SP, OE and OO only need them nonzero.
    The matrix handed to det is the integer one of the module docstring:
    the SP term h_(la_i-i-j) becomes d^(2j) H_(la_i-i-j) and the O term
    h_(la_i-i-j-2) becomes d^(2j+2) H_(la_i-i-j-2).
    """
    if not all(isinstance(x, Fraction) for x in xs):
        raise TypeError(f"points must be Fractions, got {xs}")
    if not la:
        return Fraction(1)
    gl = g is GroupType.GL
    # Each appended one is doubled with the inverses; OO carries one of its own.
    ones_in_table = (1 if gl else 2) * ones + (g is GroupType.OO)
    h, d = _twisted_h(xs, not gl, ones_in_table, t, la[0] + len(la))

    def hm(m: int) -> int:
        return h[m] if m >= 0 else 0

    cols = range(len(la))
    d2 = [d ** (2 * j) for j in range(len(la) + 1)]
    if g is GroupType.GL:
        rows = [[hm(p - i + j) for j in cols] for i, p in enumerate(la)]
    elif g is GroupType.SP:
        rows = [
            [hm(p - i)] + [hm(p - i + j) + d2[j] * hm(p - i - j) for j in cols[1:]]
            for i, p in enumerate(la)
        ]
    else:
        rows = [
            [hm(p - i + j) - d2[j + 1] * hm(p - i - j - 2) for j in cols]
            for i, p in enumerate(la)
        ]
    return Fraction(det(rows), d ** sum(la))

