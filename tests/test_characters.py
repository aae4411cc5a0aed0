"""Classical-group characters as exact bialternant ratios.

`weyl_character` takes rational points only.  At points in Q(w) the tests
use their oracle, `helpers.bialternant`, and check it here against
tableaux and the rank-one and rank-two closed forms."""

from fractions import Fraction
from itertools import combinations, combinations_with_replacement, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    bialternant,
    bialternant_denominator,
    embed,
    entry_matrix,
    partitions_strategy,
    schur_ssyt,
    twisted_points,
)
from twistchar import characters
from twistchar.characters import (
    DegeneratePointError,
    GroupType,
    twisted_character,
    weyl_character,
)
from twistchar.cyclotomic import CycloElem, field
from twistchar.factorization import _POINT_SETS, sample_points
from twistchar.linalg import det
from twistchar.partitions import beta_set, partitions_up_to

P = partitions_strategy(max_part=4, max_len=4)

POINTS = {
    1: (Fraction(7, 2),),
    2: (Fraction(7, 2), Fraction(5, 3)),
    3: (Fraction(7, 2), Fraction(5, 3), Fraction(9, 4)),
}


def test_schur_matches_tableau_enumeration():
    for n, vals in POINTS.items():
        pts = embed(vals, 3)
        for la in partitions_up_to(5):
            if len(la) > n + 1:
                continue
            assert bialternant(GroupType.GL, la, pts) == schur_ssyt(la, pts)


def test_rank_one_families():
    (x,) = embed([Fraction(5, 2)], 2)
    xb = x.inv()
    zero, one = x.field.zero, x.field.one
    for k in range(7):
        row = (k,) if k else ()
        sp = bialternant(GroupType.SP, row, (x,))
        assert sp == sum((x ** (k - 2 * j) for j in range(k + 1)), zero)
        oo = bialternant(GroupType.OO, row, (x,))
        assert oo == sum((x ** j for j in range(-k, k + 1)), zero)
        oe = bialternant(GroupType.OE, row, (x,))
        assert oe == (x ** k + xb ** k if k else one)


def test_small_rank_two_values():
    x, y = embed([Fraction(5, 2), Fraction(4, 3)], 2)
    zero, one = x.field.zero, x.field.one
    vs = (x, x.inv(), y, y.inv())
    e1 = sum(vs, zero)
    e2 = sum((a * b for a, b in combinations(vs, 2)), zero)
    h2 = sum((a * b for a, b in combinations_with_replacement(vs, 2)), zero)
    assert bialternant(GroupType.SP, (), (x, y)) == one
    assert bialternant(GroupType.SP, (1,), (x, y)) == e1
    # Lambda^2 of the defining representation splits off one copy of the
    # symplectic form; Sym^2 is the whole adjoint.
    assert bialternant(GroupType.SP, (1, 1), (x, y)) == e2 - one
    assert bialternant(GroupType.SP, (2,), (x, y)) == h2
    vs1 = vs + (one,)
    e1b = sum(vs1, zero)
    e2b = sum((a * b for a, b in combinations(vs1, 2)), zero)
    assert bialternant(GroupType.OO, (), (x, y)) == one
    assert bialternant(GroupType.OO, (1,), (x, y)) == e1b
    # Lambda^2 of the defining representation is the whole adjoint here.
    assert bialternant(GroupType.OO, (1, 1), (x, y)) == e2b
    assert bialternant(GroupType.OE, (1,), (x, y)) == e1


def test_long_partitions_give_zero_and_empty_points_raise():
    pts = embed([Fraction(5, 2), Fraction(4, 3)], 2)
    zero = pts[0].field.zero
    assert bialternant(GroupType.GL, (1, 1, 1), pts) == zero
    assert bialternant(GroupType.SP, (2, 1, 1), pts) == zero
    assert bialternant(GroupType.OO, (1, 1, 1), pts) == zero
    assert bialternant(GroupType.OE, (3, 2, 1), pts) == zero
    for g in GroupType:
        got = weyl_character(g, (3, 2, 1), (Fraction(5, 2), Fraction(4, 3)))
        assert got == 0 and type(got) is Fraction
        with pytest.raises(ValueError):
            weyl_character(g, (1,), ())


def test_rational_points_stay_in_q():
    for n, vals in POINTS.items():
        pts = embed(vals, 3)
        for g in GroupType:
            for la in partitions_up_to(3, max_length=n):
                got = weyl_character(g, la, vals)
                assert type(got) is Fraction
                assert pts[0].field.from_rational(got) == bialternant(g, la, pts)
    with pytest.raises(TypeError):
        weyl_character(GroupType.GL, (1,), (2, 3))
    with pytest.raises(TypeError):
        weyl_character(GroupType.GL, (1,), embed(POINTS[2], 3))
    with pytest.raises(TypeError):
        twisted_character(GroupType.SP, (1,), (2,), 3)


def test_degenerate_points_are_reported():
    same = embed([Fraction(3), Fraction(3)], 2)
    with pytest.raises(DegeneratePointError):
        bialternant(GroupType.GL, (1,), same)
    with pytest.raises(DegeneratePointError):
        bialternant(GroupType.SP, (1,), embed([1], 2))
    with pytest.raises(DegeneratePointError):
        bialternant(GroupType.OO, (1,), embed([1], 2))


def test_degenerate_negative_points_are_reported():
    # Two equal points at -Y: equal rows, so the integer denominator is 0.
    pts = _POINT_SETS["-Y"]((Fraction(9, 4), Fraction(9, 4)))
    for g in GroupType:
        for _ in range(2):
            with pytest.raises(DegeneratePointError):
                weyl_character(g, (1,), pts)


def test_rational_bialternant_hands_det_only_ints(monkeypatch):
    seen = []

    def checked(rows):
        seen.extend(type(x) for row in rows for x in row)
        return det(rows)

    monkeypatch.setattr(characters, "det", checked)
    characters._denominator.cache_clear()
    ys = (Fraction(7, 2), Fraction(-5, 3))
    # Every layout whose Weyl denominator is nonzero: SP and OO vanish at
    # the point 1, and SP, OO and OE wherever x_i x_j = 1.
    layouts = {
        GroupType.GL: ("Y", "Y,1", "Y,1/Y", "-Y"),
        GroupType.SP: ("Y", "-Y"),
        GroupType.OO: ("Y", "-Y"),
        GroupType.OE: ("Y", "Y,1", "-Y"),
    }
    for g, ats in layouts.items():
        for at in ats:
            pts = _POINT_SETS[at](ys)
            for la in partitions_up_to(5, max_length=len(pts)):
                assert type(weyl_character(g, la, pts)) is Fraction
    assert set(seen) == {int}


RATIONAL = st.one_of(
    st.just(Fraction(1)),
    st.fractions(min_value=-9, max_value=9, max_denominator=7).filter(bool),
)


@given(
    st.sampled_from(list(GroupType)),
    st.sampled_from(sorted(_POINT_SETS)),
    st.lists(RATIONAL, min_size=1, max_size=3),
    st.sampled_from(list(partitions_up_to(6))),
)
@settings(max_examples=300, deadline=None)
def test_rational_bialternant_matches_the_fraction_entry_matrix(g, at, ys, la):
    # The oracle's entry matrix at Fraction points is the oracle of the
    # integer one: row i of the same matrix times s_i, divided out after.
    # A row scale that is off by a factor common to la and the empty
    # partition cancels in the character, so the denominator is compared
    # on its own too.
    pts = _POINT_SETS[at](tuple(ys))
    n = len(pts)
    if len(la) > n:
        assert weyl_character(g, la, pts) == 0
        return
    den = det(entry_matrix(g, pts, beta_set((), n)))
    assert characters._denominator(g, pts) == den
    if not den:
        with pytest.raises(DegeneratePointError):
            weyl_character(g, la, pts)
        return
    got = weyl_character(g, la, pts)
    assert type(got) is Fraction
    assert got == det(entry_matrix(g, pts, beta_set(la, n))) / den


@given(P)
@settings(max_examples=30, deadline=None)
def test_schur_is_symmetric_in_the_points(la):
    pts = embed([Fraction(5, 2), Fraction(4, 3), Fraction(9, 7)], 2)
    vals = {bialternant(GroupType.GL, la, p) for p in permutations(pts)}
    assert len(vals) == 1


@given(partitions_strategy(max_part=4, max_len=3))
@settings(max_examples=30, deadline=None)
def test_schur_column_translation(la):
    pts = embed([Fraction(5, 2), Fraction(4, 3), Fraction(9, 7)], 2)
    n = len(pts)
    prod = pts[0] * pts[1] * pts[2]
    lifted = tuple(p + 1 for p in la) + (1,) * (n - len(la))
    assert bialternant(GroupType.GL, lifted, pts) == prod * bialternant(
        GroupType.GL, la, pts
    )


def _twisted_bialternant(g, la, xs, t, ones):
    """The bialternant oracle at the twisted xs in Q(w_t) with `ones` points 1
    appended.  Where points 1 make the bialternant 0/0 (SP and OO with any,
    GL and OE with two), they move to u_i = 1 + i s: times prod u_i^low,
    low = la_1 for the Laurent groups and 0 for GL, the value is a
    polynomial in s of degree at most ones (la_1 + low), read at s = 0 by
    Lagrange interpolation through one more nonzero s than that degree."""
    tw = twisted_points(embed(xs, t), t)
    try:
        val = bialternant(g, la, tw + embed([1] * ones, t))
    except DegeneratePointError:
        pass
    else:
        assert not any(val.coeffs[1:])
        return val.coeffs[0]
    top = la[0] if la else 0
    low = 0 if g is GroupType.GL else top
    samples = []
    # Alternating signs keep the u_i small; no u_i is 0, 1 or -1.
    for s in (1, -3, 2, -4, 3, -5, 4, -6, 5, -7, 6, -8, 7)[: ones * (top + low) + 1]:
        us = [Fraction(1 + i * s) for i in range(1, ones + 1)]
        val = bialternant(g, la, tw + embed(us, t))
        assert not any(val.coeffs[1:])
        v = val.coeffs[0]
        for u in us:
            v *= u ** low
        samples.append((s, v))
    total = Fraction(0)
    for s, v in samples:
        for r, _ in samples:
            if r != s:
                v *= Fraction(-r, s - r)
        total += v
    return total


@pytest.mark.parametrize("t", range(2, 7))
def test_integer_table_matches_the_bialternant_with_points_one(t):
    # At t = 2 the points' denominators 2 and 3 make d = 6 for GL, and
    # their inverses d = 210 for SP and O.  Beyond, one point keeps the
    # Q(w) bialternant small: d = 2 for GL and 14 for SP and O.  (1, 1)
    # reads d^2 H_0 in SP and (3, 1) d^4 H_0 in O.  The 0/0 cases need
    # interpolation, and run at t <= 3 only.
    xs = (Fraction(7, 2), Fraction(5, 3))[: 2 if t == 2 else 1]
    for g in GroupType:
        for ones in range(3):
            if ones > (0 if g in (GroupType.SP, GroupType.OO) else 1) and t > 3:
                continue
            for la in [(), (1,), (2,), (1, 1), (2, 1), (3, 1), (2, 2)]:
                want = _twisted_bialternant(g, la, xs, t, ones)
                assert twisted_character(g, la, xs, t, ones=ones) == want, (g, la, ones)


def test_twisted_character_hands_det_only_ints(monkeypatch):
    seen = []

    def checked(rows):
        seen.extend(type(x) for row in rows for x in row)
        return det(rows)

    monkeypatch.setattr(characters, "det", checked)
    characters._twisted_h.cache_clear()
    xs = (Fraction(7, 2), Fraction(5, 3))
    for g in GroupType:
        for ones in range(3):
            for la in partitions_up_to(5):
                assert type(twisted_character(g, la, xs, 3, ones=ones)) is Fraction
    assert set(seen) == {int}


def test_a_q_omega_bialternant_inverts_each_point_once(monkeypatch):
    # Each row takes its point's inverse once and raises it to every
    # exponent; det's pivot inverses are of other elements.
    pts = twisted_points(embed(POINTS[2], 3), 3)
    la = (3, 2, 1)
    bialternant_denominator.cache_clear()
    want = bialternant(GroupType.SP, la, pts)
    inverted = []
    real = CycloElem.inv

    def spy(self):
        inverted.append(self)
        return real(self)

    monkeypatch.setattr(CycloElem, "inv", spy)
    assert bialternant(GroupType.SP, la, pts) == want
    assert [inverted.count(x) for x in pts] == [1] * len(pts)
    assert want == twisted_character(GroupType.SP, la, POINTS[2], 3)


def test_a_q_omega_power_does_no_wasted_multiplication(monkeypatch):
    # Square up to the lowest set bit and no further than the highest:
    # x ** k costs (bit length - 1) squarings and (set bits - 1) products,
    # and x ** -1 costs what x.inv() does.
    x = field(5).elem([Fraction(2), Fraction(-1, 3), 0, Fraction(5)])
    want = {1: x}
    for k in range(2, 10):
        want[k] = want[k - 1] * x
    want[-1] = x.inv()
    muls = []
    real = CycloElem.__mul__

    def spy(self, other):
        muls.append(1)
        return real(self, other)

    monkeypatch.setattr(CycloElem, "__mul__", spy)

    def cost(fn):
        muls.clear()
        value = fn()
        return value, len(muls)

    _, inv_cost = cost(x.inv)
    for k in range(1, 10):
        assert cost(lambda: x ** k) == (want[k], k.bit_length() + bin(k).count("1") - 2), k
    assert cost(lambda: x ** -1) == (want[-1], inv_cost)
    assert cost(lambda: x ** 0) == (field(5).one, 0)


def test_twisted_points_layout():
    quartic = field(4)
    x = quartic.from_rational(2)
    w = quartic.omega
    assert twisted_points((x,), 4) == (
        x,
        2 * w,
        quartic.from_rational(-2),
        -(2 * w),
    )
    a, b = embed([Fraction(3), Fraction(5)], 3)
    w3 = field(3).omega
    assert twisted_points((a, b), 3) == (a, b, w3 * a, w3 * b, w3 ** 2 * a, w3 ** 2 * b)
    with pytest.raises(ValueError):
        twisted_points((a, b), 4)


def test_sample_points_are_admissible_and_deterministic():
    # The draw never reads t, so one tuple must serve every t.
    for n, seed in [(1, 0), (2, 0), (3, 1), (2, 9)]:
        pts = sample_points(n, seed)
        assert pts == sample_points(n, seed)
        assert len(pts) == n
        assert all(type(p) is Fraction for p in pts)
        vals = pts
        assert all(v > 1 for v in vals)
        for t in range(2, 9):
            assert len({v ** t for v in vals}) == n
            for i, a in enumerate(vals):
                for b in vals[i + 1 :]:
                    assert a * b != 1 and (a * b) ** t != 1
            assert len({v ** t + v ** -t for v in vals}) == n
    with pytest.raises(ValueError):
        sample_points(0, 0)


def test_sample_points_reach_large_n():
    # Numerators run up to max(80, 4n), so a large n still finds n
    # distinct values on every seed.
    for n in (60, 80, 120):
        for seed in range(20):
            pts = sample_points(n, seed)
            assert len(set(pts)) == n and all(p > 1 for p in pts), (n, seed)


def test_symplectic_value_at_cubed_points():
    for seed in range(3):
        a, b = sample_points(2, seed)
        x1, x2 = embed((a, b), 3)
        want = (
            (a + b)
            * (a * b + 1)
            * (a * a - a * b + b * b)
            * (a * a * b * b - a * b + 1)
            / (a ** 3 * b ** 3)
        )
        got = bialternant(GroupType.SP, (1,), (x1 ** 3, x2 ** 3))
        assert got == x1.field.from_rational(want)
