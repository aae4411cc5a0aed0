"""Exact determinants over any field-like scalar type.

Works for Fraction entries and for CycloElem entries alike; the only
requirements are +, -, *, /, truthiness for the zero test, and an
identity obtainable as x / x.
"""

from __future__ import annotations


def _find_pivot(m, col, start):
    for r in range(start, len(m)):
        if m[r][col]:
            return r
    return None


def det(rows):
    """Determinant of a square matrix given as a list of row lists, by
    Gaussian elimination with exact division."""
    m = [list(r) for r in rows]
    n = len(m)
    if any(len(r) != n for r in m):
        raise ValueError("matrix is not square")
    if n == 0:
        raise ValueError("empty matrix has no scalar type to produce 1 from")
    sign = 1
    acc = None
    for k in range(n):
        p = _find_pivot(m, k, k)
        if p is None:
            return m[0][0] - m[0][0]
        if p != k:
            m[k], m[p] = m[p], m[k]
            sign = -sign
        pivot = m[k][k]
        acc = pivot if acc is None else acc * pivot
        for r in range(k + 1, n):
            if m[r][k]:
                factor = m[r][k] / pivot
                m[r][k] = pivot - pivot
                for c in range(k + 1, n):
                    m[r][c] = m[r][c] - factor * m[k][c]
    return acc if sign == 1 else -acc
