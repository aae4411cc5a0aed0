"""Determinants over exact scalars."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from helpers import det_perm
from twistchar.cyclotomic import field
from twistchar.linalg import det

fracs = st.fractions(min_value=-6, max_value=6, max_denominator=4)


def square(n):
    return st.lists(
        st.lists(fracs, min_size=n, max_size=n), min_size=n, max_size=n
    )


@given(st.integers(1, 5).flatmap(square))
def test_det_matches_permutation_expansion(rows):
    want = det_perm(rows)
    assert det(rows) == want


pair = st.tuples(st.integers(-4, 4), st.integers(-4, 4))


@given(
    st.integers(1, 4).flatmap(
        lambda n: st.lists(
            st.lists(pair, min_size=n, max_size=n), min_size=n, max_size=n
        )
    )
)
def test_strategies_agree_on_cyclotomic_entries(rows):
    fld = field(3)
    m = [[fld.elem(list(ab)) for ab in row] for row in rows]
    want = det_perm(m)
    assert det(m) == want


@given(st.lists(fracs, min_size=2, max_size=4, unique=True))
def test_vandermonde_product(xs):
    n = len(xs)
    rows = [[x ** (n - j) for j in range(1, n + 1)] for x in xs]
    want = Fraction(1)
    for i in range(n):
        for j in range(i + 1, n):
            want *= xs[i] - xs[j]
    assert det(rows) == want


# Small entries make zero pivots and row swaps likely; large ones make a
# float anywhere in the elimination lose digits.
ints = st.one_of(st.integers(-3, 3), st.integers(-(10**12), 10**12))


@given(
    st.integers(1, 6).flatmap(
        lambda n: st.lists(st.lists(ints, min_size=n, max_size=n), min_size=n, max_size=n)
    )
)
def test_int_matrices_give_exact_ints(rows):
    got = det(rows)
    assert type(got) is int
    assert got == det_perm(rows)


def test_int_determinants_are_exact():
    assert det([[2, 1], [1, 2]]) == 3
    assert type(det([[2, 1], [1, 2]])) is int
    assert det([[10**20 + 1, 1], [10**20, 1]]) == 1
    # A zero leading pivot, and a zero pivot that appears after one step.
    for rows in ([[0, 2, 1], [3, 1, 0], [1, 0, 4]], [[1, 1, 0], [1, 1, 1], [0, 1, 1]]):
        got = det(rows)
        assert type(got) is int and got == det_perm(rows) != 0
    singular = det([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    assert type(singular) is int and singular == 0
    assert det([[0, 0], [0, 5]]) == 0


# Elimination stops at the trailing 2x2 block.  In these its first column
# is zero after one step and after two: (0, nonzero), where Bareiss would
# swap, and (0, 0), a zero column.
FINISHES = [
    [[1, 1, 0], [1, 1, 1], [0, 1, 1]],
    [[1, 2, 3], [2, 4, 5], [3, 6, 7]],
    [[1, 0, 0, 2], [0, 1, 0, 3], [1, 1, 0, 6], [0, 0, 1, 7]],
    [[1, 0, 1, 2], [0, 1, 1, 3], [1, 1, 2, 5], [2, 0, 2, 7]],
]


def test_the_two_by_two_finish_in_every_scalar_type():
    fld = field(5)
    w = fld.omega
    for rows in FINISHES:
        want = det_perm(rows)
        assert want == (-1 if rows in FINISHES[::2] else 0)
        assert det(rows) == want
        assert det([[Fraction(x, 3) for x in row] for row in rows]) == Fraction(want, 3 ** len(rows))
        # Row i times the unit w^i keeps every zero minor zero.
        m = [[fld.from_rational(x) * w ** i for x in row] for i, row in enumerate(rows)]
        assert det(m) == det_perm(m)


def test_rows_may_be_tuples_and_are_left_unchanged():
    # A zero leading pivot makes the first step swap rows.
    six = [[int(i + j == 5) + (i == j == 5) for j in range(6)] for i in range(6)]
    for rows in FINISHES + [[[5]], [[0, 2], [3, 1]], [[0, 1, 2], [0, 3, 4], [5, 6, 8]], six]:
        before = [list(row) for row in rows]
        want = det_perm(rows)
        assert det(tuple(map(tuple, rows))) == det(rows) == want
        assert rows == before


def test_singular_matrices_give_exact_zero():
    rows = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
    assert det(rows) == 0
    w = field(5).omega
    dep = [[w, w * 2], [w * 3, w * 6]]
    assert det(dep) == field(5).zero


def test_error_cases():
    with pytest.raises(ValueError):
        det([[Fraction(1), Fraction(2)]])
    with pytest.raises(ValueError):
        det([])


def test_a_ragged_or_empty_matrix_is_refused():
    for rows in ([[1, 2], [3]], [[1], [2, 3]], [[1, 2, 3], [4, 5, 6], [7, 8]], [[]]):
        with pytest.raises(ValueError, match="not square"):
            det(rows)
    with pytest.raises(ValueError, match="empty matrix"):
        det([])


def test_a_mix_of_ints_and_fractions_gives_the_exact_fraction():
    # The leading int pivot's reciprocal is taken exactly, not as a float.
    for rows in (
        [[2, Fraction(1, 2), 0], [1, 1, 1], [0, 3, Fraction(1, 3)]],
        [[3, 1, 0, 2], [1, Fraction(2, 5), 1, 0], [0, 1, 4, 1], [2, 0, 1, Fraction(-1, 7)]],
        [[Fraction(1, 2), 1, 0], [1, 2, 3], [0, 1, 1]],
    ):
        got = det(rows)
        assert type(got) is Fraction and got == det_perm(rows)


def test_bool_entries_are_not_taken_for_ints():
    # type(x) is int is False for a bool, so a bool matrix takes the
    # reciprocal branch, whose exact answer is a Fraction, not an int.
    eye = [[i == j for j in range(4)] for i in range(4)]
    got = det(eye)
    assert got == 1 and type(got) is Fraction
    assert type(det([[1 if x else 0 for x in row] for row in eye])) is int
