"""Exact determinants over any integral-domain scalar type.

One routine, Bareiss's fraction-free elimination (Math. Comp. 22, 1968).
Every intermediate entry is a minor of the input, so an int matrix stays
in Z with no gcd, and each step's division by the previous pivot is exact.
Elimination stops at a trailing 2x2 block, whose cross product over the
previous pivot is Bareiss's last step: a row swap there flips the sign
twice, and a zero first column makes the cross product 0.
At run time every caller passes ints: both sides of each identity scale
their rows into Z first.  The tests hand it Fraction and Q(w) entries for
their oracles, and the benchmark Q(w) entries, so it stays generic: the
only requirements are +, -, *, x ** -1 for a nonzero x outside Z, and
truthiness for the zero test.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from operator import floordiv, mul


def det(rows):
    """Determinant of a square matrix given as a sequence of rows, by
    Bareiss elimination.  An int matrix gives an exact int: its divisions
    are `//`, exact in Z.  Any other scalar type multiplies by the
    reciprocal of the previous pivot, taken once per step, exactly: an int
    pivot among them takes its reciprocal as a Fraction.  The caller's
    rows are never modified."""
    m = list(rows)
    n = len(m)
    if n == 0:
        raise ValueError("empty matrix has no scalar type to produce 1 from")
    # Builtins walk the rows and entries in C.  A bool is not an int here,
    # as type(x) is int says.
    if set(map(len, m)) != {n}:
        raise ValueError("matrix is not square")
    if n == 1:
        return m[0][0]
    integral = set(map(type, chain.from_iterable(m))) == {int}
    div = floordiv if integral else mul
    negate = False
    q = None
    # Each step eliminates the first column and keeps the trailing block.
    # After k steps, entry (i, j) of the block is the minor of the input
    # (rows as swapped) on its first k rows and columns plus row k + i and
    # column k + j; the next step divides out the leading k x k minor
    # exactly, through q: that minor in Z, its reciprocal outside Z.
    while len(m) > 2:
        p = 0
        while not m[p][0]:
            p += 1
            if p == len(m):
                return m[0][0]  # a zero column: the zero of the entries' type
        if p:
            m[0], m[p] = m[p], m[0]
            negate = not negate
        pivot, *top = m[0]
        if q is None:
            m = [[pivot * a - row[0] * b for a, b in zip(row[1:], top)] for row in m[1:]]
        else:
            m = [[div(pivot * a - row[0] * b, q) for a, b in zip(row[1:], top)] for row in m[1:]]
        if integral:
            q = pivot
        else:
            # An int pivot among other scalars: its ** -1 would be a float.
            q = Fraction(1, pivot) if isinstance(pivot, int) else pivot ** -1
    (a, b), (c, e) = m
    x = a * e - b * c
    if q is not None:
        x = div(x, q)
    return -x if negate else x
