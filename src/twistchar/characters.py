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

`twisted_at_pairs` evaluates the same characters at the root-of-unity
twist (X, wX, ..., w^(t-1) X) of rational points without leaving Q: it
expands them in complete homogeneous symmetric functions h_m (Jacobi-Trudi
for GL, the Koike-Terada determinants for SP/OE/OO) and uses the twist
rule  prod_i prod_k 1/(1 - w^k x_i z) = prod_i 1/(1 - x_i^t z^t).
That determinant is taken over Z: with d the lcm of the denominators of
the points (and of their inverses for SP/OE/OO), h_m = H_m / d^m for
integers H_m.  Row i scaled by d^(la_i - i) and column j by d^j turn the
entry h_(la_i-i+j) into H_(la_i-i+j); the second Koike-Terada term
h_(la_i-i-j-s) picks up d^(2j+s): d^(2j) for SP, d^(2j+1) for OO and
d^(2j+2) for OE; the scales multiply to d^|la|.
Each row is read off the table as slices, zeros in front standing for h
at negative indices: the first terms forward, the second backward, times
column scales kept per (d, s, l(la)); no Python function runs per entry.
With no point 1, h_m is 0 unless t | m, so the matrix is block-diagonal
up to permutation, its blocks keyed by residue class (`_unbalanced`).
A block with more rows than columns makes the determinant 0
(Frobenius-Koenig), which is decided in O(l(la)) before any table or
det.  A point 1 makes h nonzero in every class, so schur1's rows keep
the full det.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import lcm
from operator import add, mul

from .linalg import det
from .partitions import Partition, beta_set


class GroupType(Enum):
    GL = "gl"
    SP = "sp"
    OO = "oo"
    OE = "oe"

    # Members are singletons compared by identity, so the identity hash
    # agrees with ==; Enum's own __hash__ runs in Python on every cache
    # lookup keyed on a group.
    __hash__ = object.__hash__


class DegeneratePointError(ValueError):
    """The Weyl denominator vanishes at the requested points."""


# (u, v, sign) of the Laurent entry x^(b+u) + sign xbar^(b+v).
_LAURENT = {GroupType.SP: (1, 1, -1), GroupType.OO: (1, 0, -1), GroupType.OE: (0, 0, 1)}

# (s, sign) of the Koike-Terada entry h_(la_i-i+j) + sign h_(la_i-i-j-s);
# GL, read by Jacobi-Trudi, has none.
_KOIKE_TERADA = {GroupType.SP: (0, 1), GroupType.OO: (1, 1), GroupType.OE: (2, -1)}

# Shared values: a Fraction is immutable, so one object serves every call.
_ZERO, _ONE = Fraction(0), Fraction(1)


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
        return _ZERO
    den = _denominator(g, pts)
    if not den:
        raise DegeneratePointError(f"{g.value} denominator vanishes at {pts}")
    return _bialternant(g, pts, beta_set(la, n)) / den


@lru_cache(maxsize=4096)
def _twisted_h(pairs: tuple, inverted: bool, ones: int, t: int, top: int) -> tuple:
    """Integer numerators H_0..H_top and their common denominator d, with
    h_m = H_m / d^m, of h_0..h_top of the twist of the points p/q given as
    their integer pairs (p, q) (and of their inverses (q, p) when
    inverted), with `ones` points 1 appended after the twist.

    No Fraction is built, and the key holds only ints, so a lookup hashes
    no Fraction.  d is the lcm of the |q|, and q divides d whatever its
    sign, so H_tk is h_k of the integer t-th powers (p d/q)^t, taken on a
    miss only.  When top < t the twist leaves only H_0 = 1, and no power
    is taken.  A point 1 is d/d: it turns h into its prefix sums,
    H'_m = d H'_(m-1) + H_m.
    Every partition of a scan shares its (t, n, seed) points, so the table
    is kept per point tuple and length; a table is immutable once built.
    It is keyed on what it depends on, not on the group, so SP, OE and OO
    share one table.
    """
    if inverted:
        pairs += tuple((q, p) for p, q in pairs)
    d = lcm(*(q for _, q in pairs))
    base = [1] + [0] * (top // t)
    if top >= t:
        for p, q in pairs:
            yt = (p * (d // q)) ** t
            for k in range(1, len(base)):
                base[k] += yt * base[k - 1]
    h = [base[m // t] if m % t == 0 else 0 for m in range(top + 1)]
    for _ in range(ones):
        h = list(accumulate(h, lambda acc, hm: d * acc + hm))
    return tuple(h), d


@lru_cache(maxsize=4096)
def _column_keys(l: int, t: int, s: int | None) -> tuple:
    # `_unbalanced`'s sorted column keys of an l x l matrix.
    if s is None:
        return tuple(sorted(j % t for j in range(l)))
    return tuple(sorted(min(j % t, (-j - s) % t) for j in range(l)))


@lru_cache(maxsize=4096)
def _unbalanced(la: Partition, t: int, s: int | None) -> bool:
    """Whether the twisted h matrix of la, with no point 1, has singular
    support, read off the residue classes of its rows and columns.

    Row i holds h_(la_i-i+j), nonzero only when t divides la_i - i + j,
    that is when column j has class r_i = (i - la_i) mod t; s is None for
    GL, whose key is that class.  The Koike-Terada second term
    h_(la_i-i-j-s) adds the class -r_i - s, so for SP, OE and OO the key
    is the orbit {r, -r - s} (as its least member).  Rows keyed k meet
    only columns keyed k, so when the row and column keys differ as
    multisets some block has more rows than columns, and the determinant
    is 0 (Frobenius-Koenig).  Every seed of a scan asks again for each of
    its cases, so the verdict is kept per (la, t, s), and the column keys,
    which are the same for every la of one length, per (l(la), t, s).
    """
    if s is None:
        rows = [(i - p) % t for i, p in enumerate(la)]
    else:
        rows = [min((i - p) % t, (p - i - s) % t) for i, p in enumerate(la)]
    rows.sort()
    return tuple(rows) != _column_keys(len(la), t, s)


@lru_cache(maxsize=4096)
def _scales(d: int, s: int, sign: int, l: int) -> tuple:
    # The Koike-Terada column scales sign d^(2j+s) of an l x l matrix over
    # the table of denominator d; SP's column 0 (s = 0) has no second term.
    return tuple(sign * d ** (2 * j + s) if j or s else 0 for j in range(l))


def point_pairs(xs: tuple) -> tuple:
    """The integer pairs (p, q) of the Fraction points p/q, q > 0: the form
    in which the point-keyed caches of both routes take them."""
    return tuple((x.numerator, x.denominator) for x in xs)


def twisted_at_pairs(g: GroupType, la: Partition, pairs: tuple, t: int, ones: int = 0) -> Fraction:
    """The character of type g at (X, wX, ..., w^(t-1) X), over Q, with
    `ones` points 1 appended to the twisted tuple; pairs are the integer
    pairs (p, q) of the rational points X = p/q (`point_pairs`).  It
    equals the bialternant ratio at those tn + ones points in Q(w), the
    tests' oracle.  There is no Weyl denominator, so the points may
    coincide.

    Nothing is checked here (`factorization.lhs_value` checks a theorem
    row's input): la is a partition with no trailing zero, as the sliced
    rows are padded for a last part of at least 1; no point is 0 for SP,
    OE and OO; t >= 1 and ones >= 0.

    The matrix handed to det is the integer one of the module docstring,
    each row sliced off the table.  With no point 1, a singular support
    is 0 before any table is built (`_unbalanced`); a point 1 fills every
    class, so those rows always take the det.  A balanced matrix takes
    one full det, not one per block.
    """
    if not la:
        return _ONE
    kt = _KOIKE_TERADA.get(g)
    if not ones and _unbalanced(la, t, None if kt is None else kt[0]):
        return _ZERO
    # Each appended one is doubled with the inverses.
    ones_in_table = ones if kt is None else 2 * ones
    # Rows read h up to top = la_1 + l(la) - 1.  The table runs on to the
    # end of top's block of t, but not past 2 top + 3: the tops of one
    # block share a table, and no table grows to the length of a large t.
    l = len(la)
    top = la[0] + l - 1
    top = min(t * (top // t + 1) - 1, 2 * top + 3)
    h, d = _twisted_h(pairs, kt is not None, ones_in_table, t, top)
    if kt is None:
        # Row i reads up from h_(la_i-i), never below h_(2-l): with l - 1
        # zeros in front, h_m sits at z[l - 1 + m].
        z = (0,) * (l - 1) + h
        rows = [z[l - 1 + p - i : 2 * l - 1 + p - i] for i, p in enumerate(la)]
    else:
        s, sign = kt
        scales = _scales(d, s, sign, l)
        # The second terms read down to h_(3-2l-s), and a backward slice
        # stops one entry below its last: with o zeros in front, h_m sits
        # at z[o + m].
        o = 2 * l - 2 + s
        z = (0,) * o + h
        rows = []
        for i, p in enumerate(la):
            a = o + p - i
            rows.append(list(map(add, z[a : a + l], map(mul, scales, z[a - s : a - s - l : -1]))))
    return Fraction(det(rows), d ** sum(la))
