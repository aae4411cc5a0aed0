"""Exact determinants over any integral-domain scalar type.

One routine, Bareiss's fraction-free elimination (Math. Comp. 22, 1968).
Every intermediate entry is a minor of the input, so an int matrix stays
in Z with no gcd, and each step's division by the previous pivot is exact.
It works for int, Fraction and CycloElem entries alike; the only
requirements are +, -, *, x ** -1 for a nonzero x outside Z, and
truthiness for the zero test.
"""

from __future__ import annotations

from operator import floordiv, mul


def det(rows):
    """Determinant of a square matrix given as a list of row lists, by
    Bareiss elimination.  An int matrix gives an exact int: its divisions
    are `//`, exact in Z.  Any other scalar type multiplies by the
    reciprocal of the previous pivot, taken once per step."""
    m = [list(r) for r in rows]
    n = len(m)
    if any(len(r) != n for r in m):
        raise ValueError("matrix is not square")
    if n == 0:
        raise ValueError("empty matrix has no scalar type to produce 1 from")
    integral = all(type(x) is int for r in m for x in r)
    div = floordiv if integral else mul
    negate = False
    prev = None
    # Each step eliminates the first column and keeps the trailing block.
    # After k steps, entry (i, j) of the block is the minor of the input
    # (rows as swapped) on its first k rows and columns plus row k + i and
    # column k + j; prev is the leading k x k minor, which the next step
    # divides out exactly.
    while len(m) > 1:
        p = next((r for r, row in enumerate(m) if row[0]), None)
        if p is None:
            return m[0][0]  # a zero column: the zero of the entries' type
        if p:
            m[0], m[p] = m[p], m[0]
            negate = not negate
        pivot, *top = m[0]
        if prev is None:
            m = [[pivot * a - row[0] * b for a, b in zip(row[1:], top)] for row in m[1:]]
        else:
            q = prev if integral else prev ** -1
            m = [[div(pivot * a - row[0] * b, q) for a, b in zip(row[1:], top)] for row in m[1:]]
        prev = pivot
    return -m[0][0] if negate else m[0][0]
