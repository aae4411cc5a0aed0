"""Classical-group characters as exact bialternant ratios.

`weyl_character` takes the integer pairs (p, q) of rational points p/q;
the tests call it at Fraction points through `helpers.weyl`.  At points
in Q(w) the tests use their oracle, `helpers.bialternant`, and check it
here against tableaux and the rank-one and rank-two closed forms."""

import random
from fractions import Fraction
from itertools import accumulate, combinations, combinations_with_replacement, permutations
from types import SimpleNamespace

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
    twisted,
    twisted_full_det,
    twisted_full_matrix,
    twisted_points,
    weyl,
)
from twistchar import characters, factorization
from twistchar.characters import DegeneratePointError, GroupType, point_pairs, weyl_character
from twistchar.cyclotomic import CycloElem, field
from twistchar.factorization import _POINT_SETS, TheoremId, lhs_value, predict, sample_points
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
        got = weyl(g, (3, 2, 1), (Fraction(5, 2), Fraction(4, 3)))
        assert got == 0 and type(got) is Fraction
        with pytest.raises(ValueError):
            weyl_character(g, (1,), ())
        # A negative part would take negative powers: it is refused.
        with pytest.raises(ValueError, match="negative part"):
            weyl(g, (1, -1), (Fraction(5, 2), Fraction(4, 3)))


def test_rational_points_stay_in_q():
    for n, vals in POINTS.items():
        pts = embed(vals, 3)
        for g in GroupType:
            for la in partitions_up_to(3, max_length=n):
                got = weyl(g, la, vals)
                assert type(got) is Fraction
                assert pts[0].field.from_rational(got) == bialternant(g, la, pts)
    # A point that is not an integer pair fails to unpack.
    for pts in [(2, 3), POINTS[2], embed(POINTS[2], 3)]:
        with pytest.raises(TypeError):
            weyl_character(GroupType.GL, (1,), pts)


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
    pts = _POINT_SETS["-Y"](((9, 4), (9, 4)))
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
    ys = ((7, 2), (-5, 3))
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
    # on its own too.  The point set is built from the pairs, as the right
    # side builds it, and read back as Fractions for the oracle.
    pairs = _POINT_SETS[at](point_pairs(ys))
    pts = tuple(Fraction(p, q) for p, q in pairs)
    n = len(pts)
    if len(la) > n:
        assert weyl_character(g, la, pairs) == 0
        return
    den = det(entry_matrix(g, pts, beta_set((), n)))
    assert Fraction(*characters._denominator(g, pairs)) == den
    if not den:
        with pytest.raises(DegeneratePointError):
            weyl_character(g, la, pairs)
        return
    got = weyl_character(g, la, pairs)
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
    # reads d^2 H_0 in SP, (2, 1) d^3 H_0 in OO and (3, 1) d^4 H_0 in OE.
    # The 0/0 cases need interpolation, and run at t <= 3 only.
    xs = (Fraction(7, 2), Fraction(5, 3))[: 2 if t == 2 else 1]
    for g in GroupType:
        for ones in range(3):
            if ones > (0 if g in (GroupType.SP, GroupType.OO) else 1) and t > 3:
                continue
            for la in [(), (1,), (2,), (1, 1), (2, 1), (3, 1), (2, 2)]:
                want = _twisted_bialternant(g, la, xs, t, ones)
                assert twisted(g, la, xs, t, ones=ones) == want, (g, la, ones)


def test_untwisted_rows_match_weyl_character_over_q():
    # At t = 1 the twist is the identity, so each row rule, OO's included,
    # meets the bialternant at rational points, with no Q(w).  SP's and OO's
    # denominators vanish at the point 1, so they are read without one.
    xs = (Fraction(7, 2), Fraction(-5, 3), Fraction(9, 7))
    las = list(partitions_up_to(6, max_length=3))
    assert len(las) == 23
    reads = [(g, 0) for g in GroupType] + [(GroupType.GL, 1), (GroupType.OE, 1)]
    for g, ones in reads:
        for la in las:
            want = weyl(g, la, xs + (Fraction(1),) * ones)
            assert twisted(g, la, xs, 1, ones=ones) == want, (g, la, ones)


def test_trailing_zeros_are_dropped_and_a_non_partition_refused():
    # The sliced rows assume a last part of at least 1, so lhs_value, the
    # checked entry to them, drops trailing zeros and refuses the rest.
    xs = (Fraction(7, 2), Fraction(5, 3))
    for th in TheoremId:
        for la in [(2, 1, 0), (1, 0, 0), (3, 1, 0, 0), (0,), (0, 0)]:
            for t in (2, 3):
                want = twisted(th.group, tuple(p for p in la if p), xs, t, th.ones)
                assert lhs_value(th, la, t, 2, xs) == want, (th, la, t)
        with pytest.raises(ValueError, match="not weakly decreasing"):
            lhs_value(th, (1, 2), 2, 2, xs)
        with pytest.raises(ValueError, match="negative part"):
            lhs_value(th, (1, -1), 2, 2, xs)
        assert lhs_value(th, (0,), 2, 1, (Fraction(0),)) == 1


# Rows longer than la_1 read the table deepest below 0: (1^12) reads the
# second term down to h_(-21-s).
_LONG_ROWS = [(1,) * 12, (2,) + (1,) * 11, (1,) * 11, (3, 3) + (1,) * 9]


def test_sliced_rows_match_the_entrywise_matrix(monkeypatch):
    seen = []

    def spy(rows):
        seen.append([list(row) for row in rows])
        return det(rows)

    monkeypatch.setattr(characters, "det", spy)
    xs = sample_points(2, 0)
    las = list(partitions_up_to(10))
    cases = dets = 0
    for t in range(1, 8):
        for la in las + _LONG_ROWS if t == 2 else las:
            for g in GroupType:
                for ones in range(3):
                    seen.clear()
                    got = twisted(g, la, xs, t, ones=ones)
                    assert got == twisted_full_det(g, la, xs, t, ones), (g, la, t, ones)
                    if seen:
                        assert seen == [twisted_full_matrix(g, la, xs, t, ones)[0]], (g, la, t, ones)
                        dets += 1
                    else:
                        # Only the support rule and the empty partition
                        # skip det.
                        assert not la or (not ones and not got), (g, la, t, ones)
                    cases += 1
    assert (cases, dets) == (11724, 9394)


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
                assert type(twisted(g, la, xs, 3, ones=ones)) is Fraction
    assert set(seen) == {int}


def _twisted_h_over_q(ys, ones, t, top):
    """h_0..h_top of the twist of the Fraction points ys with `ones` points
    1 appended: h_m is h_(m/t) of the y^t when t divides m, else 0."""
    base = [Fraction(1)] + [Fraction(0)] * (top // t)
    for y in ys:
        for k in range(1, len(base)):
            base[k] += y ** t * base[k - 1]
    h = [base[m // t] if m % t == 0 else 0 for m in range(top + 1)]
    for _ in range(ones):
        h = list(accumulate(h))
    return h


@pytest.mark.parametrize("t", [2, 3, 5, 7, 10**6])
def test_each_table_runs_to_the_end_of_its_block_of_t(monkeypatch, t):
    real = characters._twisted_h
    keys = []
    monkeypatch.setattr(characters, "_twisted_h", lambda *key: keys.append(key) or real(*key))
    xs = (Fraction(7, 2), Fraction(-5, 3))
    # GL's tables hold 0-3 points 1 and no inverses; SP's and OO's hold 0
    # or 2 points 1 with the inverses.
    reads = [(GroupType.GL, ones) for ones in range(4)]
    reads += [(g, ones) for g in (GroupType.SP, GroupType.OO) for ones in range(2)]
    # The rows of (top,) read h up to top = la_1 + l(la) - 1, no further.
    for top in range(1, 12):
        for g, ones in reads:
            keys.clear()
            value = twisted(g, (top,), xs, t, ones=ones)
            if not keys:
                # A singular-support call is 0 before any table is read.
                assert not ones and not value, (g, top)
                continue
            (key,) = keys
            assert key[0] == ((7, 2), (-5, 3)), key
            length = key[-1]
            h, d = real(*key)
            # The end of top's block of t, capped at 2 top + 3.
            assert length == min(t * (top // t + 1) - 1, 2 * top + 3) and len(h) == length + 1
            assert (h[: top + 1], d) == real.__wrapped__(*key[:-1], top)
            ys = xs + tuple(1 / x for x in xs) if key[1] else xs
            assert [Fraction(hm, d ** m) for m, hm in enumerate(h)] == _twisted_h_over_q(ys, key[2], t, length)
            if t > 2 * top + 3:
                assert length == 2 * top + 3, (g, ones, top)
    with pytest.raises(ZeroDivisionError, match="cannot invert a zero point"):
        lhs_value(TheoremId.SYMPLECTIC, (2,), t, 2, (Fraction(0), Fraction(3)))
    assert lhs_value(TheoremId.SCHUR_FAC, (2,), t, 2, (Fraction(0), Fraction(3))) == (9 if t == 2 else 0)
    with pytest.raises(TypeError, match="points must be Fractions"):
        lhs_value(TheoremId.SCHUR_FAC, (2,), t, 2, (2, Fraction(3)))


def _support_sweep():
    # (g, la, X, t) for t = 2..7, |la| <= 10, n = 1..3 with l(la) <= tn.
    for t in range(2, 8):
        for n in (1, 2, 3):
            xs = sample_points(n, 0)
            for la in partitions_up_to(10, max_length=t * n):
                for g in GroupType:
                    yield g, la, xs, t


_ROWS = {th.group: th for th in TheoremId if not th.ones}


def _pairing(g):
    return None if g is GroupType.GL else characters._KOIKE_TERADA[g][0]


def test_singular_support_is_zero_by_the_full_determinant():
    cases = zeros = 0
    for g, la, xs, t in _support_sweep():
        full = twisted_full_det(g, la, xs, t)
        assert twisted(g, la, xs, t) == full, (g, la, t, len(xs))
        singular = bool(la) and characters._unbalanced(la, t, _pairing(g))
        # At these points no balanced support cancels to 0 either, and the
        # rule agrees with the abacus verdict of the row without a point 1.
        assert singular == (full == 0), (g, la, t, len(xs))
        assert singular == predict(_ROWS[g], la, t, len(xs)).vanishing, (g, la, t, len(xs))
        cases, zeros = cases + 1, zeros + singular
    assert (cases, zeros) == (8632, 5977)


@pytest.mark.parametrize(
    "mutant, group",
    [
        pytest.param(lambda s: 0 if s == 1 else s, GroupType.OO, id="oo-reads-sp-s"),
        pytest.param(lambda s: None if s == 0 else s, GroupType.SP, id="sp-reads-gl-key"),
    ],
)
def test_a_wrong_support_rule_fails_the_sweep(monkeypatch, mutant, group):
    real = characters._unbalanced
    monkeypatch.setattr(characters, "_unbalanced", lambda la, t, s: real(la, t, mutant(s)))
    wrong = {
        g
        for g, la, xs, t in _support_sweep()
        if twisted(g, la, xs, t) != twisted_full_det(g, la, xs, t)
    }
    assert wrong == {group}


def test_a_zero_point_raises_before_the_support_rule():
    xs = (Fraction(0), Fraction(3))
    for g in (GroupType.SP, GroupType.OE, GroupType.OO):
        la = next(la for la in partitions_up_to(6) if la and characters._unbalanced(la, 3, _pairing(g)))
        with pytest.raises(ZeroDivisionError, match="cannot invert a zero point"):
            lhs_value(_ROWS[g], la, 3, 2, xs)
    # GL inverts no point: its singular support is 0 at once.
    assert lhs_value(TheoremId.SCHUR_FAC, (2,), 3, 2, xs) == 0


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
    assert want == twisted(GroupType.SP, la, POINTS[2], 3)


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


def test_sample_points_reach_large_n(monkeypatch):
    # Numerators run up to max(80, n^2/5), so a large n finds n distinct
    # values on every seed within a few draws, and from n = 1000 on at the
    # first.  A draw of n points takes 2n randint calls.
    calls = []

    class Counted(random.Random):
        def randint(self, low, high):
            calls.append(None)
            return super().randint(low, high)

    monkeypatch.setattr(factorization, "random", SimpleNamespace(Random=Counted))
    for n, most in [(60, 5), (80, 5), (120, 5), (1000, 1), (3000, 1)]:
        for seed in range(20):
            calls.clear()
            pts = sample_points(n, seed)
            assert len(set(pts)) == n and all(p > 1 for p in pts), (n, seed)
            assert len(calls) <= 2 * n * most, (n, seed, len(calls) // (2 * n))


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
