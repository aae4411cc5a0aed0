"""Twisted character factorizations and the determinant identities
behind them, verified in exact arithmetic."""

import json
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    bialternant,
    block_sign_oracle,
    ceil_div,
    check_block_det_lemma,
    embed,
    partitions_strategy,
    residue_counts,
    ribbon_sign,
    t_core_strips,
    twisted,
    twisted_points,
    weyl,
)
from twistchar import characters, cyclotomic, factorization, partitions
from twistchar.characters import DegeneratePointError, GroupType, point_pairs
from twistchar.cyclotomic import field
from twistchar.factorization import (
    Prediction,
    TheoremId,
    length_bound,
    lhs_value,
    predict,
    rhs_value,
    sample_points,
    verify,
)
from twistchar.linalg import det
from twistchar.partitions import (
    beta_set,
    frobenius,
    mu_padded,
    partitions_up_to,
    reading,
)

ALL = list(TheoremId)


@pytest.mark.parametrize("th", ALL, ids=[th.value for th in ALL])
@pytest.mark.parametrize(
    "t,n", [(2, 1), (2, 2), (3, 1), (4, 2), (5, 1), (6, 1), (7, 1), (8, 1)]
)
def test_identities_hold_on_small_grid(th, t, n):
    for la in partitions_up_to(5, max_length=length_bound(th, t, n)):
        rep = verify(th, la, t, n, seed=3)
        assert rep.match, (th, la, t, n)
        if rep.predicted_vanishing:
            assert not rep.lhs
            assert rep.sign_exponent is None
        else:
            assert rep.sign_exponent in (0, 1)
            assert rep.sigma_sign in (-1, 1)


def test_length_bounds():
    assert length_bound(TheoremId.SCHUR_FAC, 3, 2) == 6
    assert length_bound(TheoremId.SCHUR_ONE, 3, 2) == 7
    assert length_bound(TheoremId.SYMPLECTIC, 2, 2) == 4


def test_theorem_table():
    gl, sp, oe, oo = GroupType.GL, GroupType.SP, GroupType.OE, GroupType.OO
    table = {th.value: (th.group, th.z, th.ones) for th in ALL}
    assert table == {
        "schurfac": (gl, None, 0),
        "schur1": (gl, None, 1),
        "sympfact": (sp, 1, 0),
        "eorthfact": (oe, -1, 0),
        "oorthfact": (oo, 0, 0),
    }
    assert all(TheoremId(th.value) is th for th in ALL)


def _is_listed_form(factor):
    # A pair factor is (GL, (alpha, beta), "Y,1/Y") with a part that is not
    # empty; any other factor's partition is not empty.
    group, mu, at = factor
    if at == "Y,1/Y":
        return group is GroupType.GL and len(mu) == 2 and any(mu)
    return bool(mu)


@pytest.mark.parametrize("th", ALL, ids=[th.value for th in ALL])
def test_vanishing_is_a_zero_sign(th):
    assert "vanishing" not in Prediction._fields
    verdicts = set()
    for t in (2, 3, 4):
        for la in partitions_up_to(6, max_length=length_bound(th, t, 1)):
            pred = predict(th, la, t, 1)
            verdicts.add(pred.vanishing)
            assert pred.vanishing == (pred.sign == 0)
            # A vanishing case lists no factor, and a live one no factor 1.
            assert not (pred.vanishing and pred.factors)
            assert all(map(_is_listed_form, pred.factors)), pred
            # Only a vanishing appended-one case leaves sigma out.
            assert (pred.sigma is None) == (pred.vanishing and th.ones == 1)
    assert verdicts == {True, False}


def test_sign_exponent_values():
    def eps(th, la, t, n):
        return predict(th, la, t, n).epsilon

    assert eps(TheoremId.SYMPLECTIC, (), 3, 1) == 1
    assert eps(TheoremId.SYMPLECTIC, (3, 2, 1, 1, 1), 3, 2) == 1
    assert eps(TheoremId.ODD_ORTH, (1, 1), 2, 1) == 1
    assert eps(TheoremId.EVEN_ORTH, (5, 1), 3, 1) == 1
    for t in range(2, 5):
        for n in range(1, 4):
            base = ((t * (t - 1) // 2) * (n * (n + 1) // 2)) % 2
            assert eps(TheoremId.SCHUR_FAC, (), t, n) == base
            assert eps(TheoremId.SCHUR_ONE, (), t, n) == base
    # A vanishing case has no sign exponent.
    for th, la, t in [
        (TheoremId.SCHUR_FAC, (1,), 2),
        (TheoremId.SYMPLECTIC, (2,), 3),
        (TheoremId.ODD_ORTH, (2,), 3),
    ]:
        pred = predict(th, la, t, 1)
        assert pred.vanishing is True and pred.epsilon is None


def test_vanishing_predictions_follow_core_class():
    la = (3, 2, 1, 1, 1)
    assert not predict(TheoremId.SYMPLECTIC, la, 3, 2).vanishing
    for th in (TheoremId.SCHUR_FAC, TheoremId.SCHUR_ONE, TheoremId.EVEN_ORTH, TheoremId.ODD_ORTH):
        assert predict(th, la, 3, 2).vanishing
    assert not any(predict(th, (), 3, 1).vanishing for th in ALL)


def test_report_serialization_and_argument_checks():
    rep = verify(TheoremId.SCHUR_FAC, (2,), 2, 1, seed=0)
    d = rep.as_dict()
    assert d["theorem"] == "schurfac" and d["partition"] == [2]
    assert d["trials"] == 1 and d["match"] is True
    assert isinstance(d["lhs"], list) and isinstance(d["rhs"], list)
    assert set(d) == {
        "theorem",
        "partition",
        "t",
        "n",
        "seed",
        "trials",
        "predicted_vanishing",
        "sign_exponent",
        "sigma_sign",
        "lhs",
        "rhs",
        "match",
    }
    with pytest.raises(ValueError):
        lhs_value(TheoremId.SCHUR_FAC, (1, 1, 1), 2, 1, sample_points(1, 0))
    with pytest.raises(ValueError):
        rhs_value(predict(TheoremId.SCHUR_FAC, (1,), 2, 2), sample_points(1, 0))


def test_record_vectors_are_phi_t_long():
    rep = verify(TheoremId.SCHUR_FAC, (1,), 2, 1)
    for t in range(2, 61):
        d = rep._replace(t=t).as_dict()
        assert len(d["lhs"]) == len(d["rhs"]) == field(t).degree, t


def test_a_record_at_large_t_builds_no_field(monkeypatch):
    def never(*args):
        raise AssertionError("the record built Q(w)")

    monkeypatch.setattr(cyclotomic, "field", never)
    monkeypatch.setattr(cyclotomic, "cyclotomic_poly", never)
    d = verify(TheoremId.SCHUR_FAC, (1,), 5040, 1).as_dict()
    assert d["match"] and d["predicted_vanishing"]
    assert len(d["lhs"]) == len(d["rhs"]) == 1152
    assert d["lhs"][1:] == ["0"] * 1151


def test_a_records_seed_names_its_points(monkeypatch):
    # Seed s is checked at sample_points(n, s) and nowhere else.
    th, la, t, n, seed = TheoremId.SYMPLECTIC, (3, 2, 1, 1, 1), 3, 2, 5
    pts = sample_points(n, seed)
    good = verify(th, la, t, n, seed=seed)
    assert good.match

    real = factorization._rhs

    def perturbed(pred, pairs):
        val = real(pred, pairs)
        return val + 1 if pairs == point_pairs(pts) else val

    # verify evaluates the right side by rhs_value's core, at the points'
    # integer pairs.
    monkeypatch.setattr(factorization, "_rhs", perturbed)
    bad = verify(th, la, t, n, seed=seed)
    assert not bad.match and bad.seed == seed
    assert bad.lhs == lhs_value(th, la, t, n, pts) == good.lhs
    assert bad.rhs == good.rhs + 1
    # The neighbouring seeds draw other points, which stay unperturbed.
    for other in (seed + 1, seed + 2):
        rep = verify(th, la, t, n, seed=other)
        assert rep.match and rep.lhs != good.lhs


def test_seeds_stay_injective():
    # random.Random seeds with |a|, so seed -1 would replay seed 1's points:
    # the draw refuses it.
    th, la, t, n = TheoremId.SYMPLECTIC, (3, 2, 1, 1, 1), 3, 2
    assert random.Random(-1_000_003).random() == random.Random(1_000_003).random()
    with pytest.raises(ValueError, match="seed >= 0"):
        sample_points(n, -1)
    # The seed is checked on a _seed_pairs miss, by the draw, and a refused
    # seed is never cached: it is refused cold and after seed 0's points at
    # the same n are cached.
    factorization._seed_pairs.cache_clear()
    with pytest.raises(ValueError, match="seed >= 0"):
        verify(th, la, t, n, seed=-1)
    factorization._seed_pairs(n, 0)
    with pytest.raises(ValueError, match="seed >= 0"):
        verify(th, la, t, n, seed=-1)
    assert factorization._seed_pairs.cache_info().currsize == 1
    assert verify(th, la, t, n, seed=0).match


# ---- the point-keyed caches of the two routes ----------------------------

_CACHES = (characters._twisted_h, factorization._factor_value)


def _standing_grid():
    # scan --theorems all --t 2,3,4 --n 1,2 --max-size 7 --seeds 0, in scan order
    return [
        verify(th, la, t, n).as_dict()
        for th in ALL
        for t in (2, 3, 4)
        for n in (1, 2)
        for la in partitions_up_to(7, max_length=length_bound(th, t, n))
    ]


def _count_dets(monkeypatch) -> list:
    # Every det of both routes goes through characters.det.
    calls = []
    monkeypatch.setattr(characters, "det", lambda rows: calls.append(len(rows)) or det(rows))
    return calls


# Every runtime cache a verify reads, with its (hits, misses) over one cold
# standing pass.
_STANDING_TRAFFIC = {
    factorization._derive: (467, 640),
    reading: (508, 132),
    partitions.partners: (925, 12),
    characters._twisted_h: (530, 48),
    characters._unbalanced: (344, 496),
    characters._column_keys: (428, 68),
    characters._scales: (258, 30),
    characters._denominator: (76, 40),
    factorization._factor_value: (399, 116),
    factorization._padded: (131, 28),
    factorization._zero_pad: (1104, 3),
    factorization._seed_pairs: (1105, 2),
}


def test_caches_are_transparent_and_reused_on_the_standing_grid(monkeypatch):
    # A change that moves no work leaves each cache's traffic as it is.
    pins = _STANDING_TRAFFIC
    for cache in pins:
        cache.cache_clear()
    dets = _count_dets(monkeypatch)
    cold = _standing_grid()
    # 1077 non-empty twisted characters, of which 499 have singular support
    # and read no table; the other 578 read 48 (point pairs, inverted, ones,
    # t, length) keys of _twisted_h, a length running to the end of its
    # block of t.  515 non-empty factors over 116 (group, mu, point set,
    # pairs of X, t) keys of _factor_value.
    traffic = {cache.__name__: cache.cache_info()[:2] for cache in pins}
    assert traffic == {cache.__name__: pin for cache, pin in pins.items()}
    # One det per twisted character that reads a table, 578, and one per
    # bialternant computed, 156.
    assert len(dets) == 734
    assert _standing_grid() == cold
    assert [cache.cache_info().misses for cache in pins] == [m for _, m in pins.values()]


def test_every_row_shares_one_reading_per_case(monkeypatch):
    calls = []
    real = partitions.beta_set
    monkeypatch.setattr(partitions, "beta_set", lambda la, m: calls.append(m) or real(la, m))
    factorization._derive.cache_clear()
    reading.cache_clear()
    _standing_grid()
    # 1107 cases, 640 derivations; the five rows read 132 (la, t) between
    # them, each with one beta set: schur1's bound tn + 1 adds the 5 keys of
    # length 2t + 1.
    assert factorization._derive.cache_info().misses == 640
    info = reading.cache_info()
    assert (info.hits, info.misses) == (508, 132)
    assert len(calls) == 132
    keys = {
        (la, t)
        for t in (2, 3, 4)
        for la in partitions_up_to(7, max_length=length_bound(TheoremId.SCHUR_ONE, t, 2))
    }
    assert len(keys) == 132
    for la, t in keys:
        assert reading(la, t).n0 == max(1, ceil_div(len(la), t)), (la, t)
    assert reading.cache_info().misses == 132


def test_a_warm_scan_hashes_no_fraction_and_checks_each_case_once(monkeypatch):
    # Both routes and every point-keyed cache, the Weyl denominators' too,
    # read the points as their integer pairs, and verify checks the case
    # once per op and the seed and the points once per (n, seed), where
    # they are drawn.  So a cold pass hashes a Fraction only in
    # sample_points' distinctness set, once per drawn point: one point at
    # n = 1 and two at n = 2.  A warm pass hashes none.
    drawn = [*sample_points(1, 0), *sample_points(2, 0)]
    for cache in _STANDING_TRAFFIC:
        cache.cache_clear()
    hashed, checked = [], Counter()
    real_hash = Fraction.__hash__

    def counted(name):
        real = getattr(factorization, name)
        return lambda *args: checked.update([name]) or real(*args)

    monkeypatch.setattr(Fraction, "__hash__", lambda x: hashed.append(x) or real_hash(x))
    cold = _standing_grid()
    assert hashed == drawn
    hashed.clear()
    monkeypatch.setattr(factorization, "_check_case", counted("_check_case"))
    assert _standing_grid() == cold
    assert hashed == []
    # The seed is checked on a _seed_pairs miss, where it is drawn, and
    # _STANDING_TRAFFIC's (1105, 2) shows that a warm pass draws none.
    assert checked["_check_case"] == 1107


def test_cache_keys_keep_groups_apart():
    xs = sample_points(2, 0)
    ys = tuple(x ** 3 for x in xs)
    for cache in _CACHES:
        cache.cache_clear()
    # sp_(2) = h_2 and oe_(2) = h_2 - 1 at the same points.
    sp = factorization._factor_value(GroupType.SP, (2,), "Y", point_pairs(xs), 3)
    oe = factorization._factor_value(GroupType.OE, (2,), "Y", point_pairs(xs), 3)
    assert factorization._factor_value.cache_info().misses == 2
    assert sp == weyl(GroupType.SP, (2,), ys)
    assert oe == weyl(GroupType.OE, (2,), ys)
    assert sp == oe + 1
    # GL reads the points alone; OO reads them with their inverses.
    gl = twisted(GroupType.GL, (2, 1), xs, 3)
    oo = twisted(GroupType.OO, (2, 1), xs, 3)
    assert characters._twisted_h.cache_info().misses == 2
    assert gl != oo
    # SP and OE read OO's table (the points and their inverses, no point
    # 1, running to 5 at t = 3), through different determinants.
    sp = twisted(GroupType.SP, (3, 1), xs, 3)
    oe = twisted(GroupType.OE, (3, 1), xs, 3)
    assert characters._twisted_h.cache_info().misses == 2
    assert len({sp, oe, oo}) == 3
    tw = twisted_points(embed(xs, 3), 3)
    assert embed((sp,), 3)[0] == bialternant(GroupType.SP, (3, 1), tw)
    assert embed((oe,), 3)[0] == bialternant(GroupType.OE, (3, 1), tw)
    assert embed((oo,), 3)[0] == bialternant(GroupType.OO, (2, 1), tw)


def _t5_seeds_grid():
    # scan --theorems all --t 5 --n 1 --max-size 3 --seeds 0,...,7, in scan
    # order: every seed's pass over a (th, t, n) block before the next block.
    lines = []
    for th in ALL:
        las = list(partitions_up_to(3, max_length=length_bound(th, 5, 1)))
        lines += [
            json.dumps(verify(th, la, 5, 1, seed=seed).as_dict(), separators=(",", ":"))
            for seed in range(8)
            for la in las
        ]
    return lines


def test_each_prediction_is_derived_once_for_all_seeds(monkeypatch):
    for cache in _CACHES + (factorization._derive, characters._denominator):
        cache.cache_clear()
    dets = _count_dets(monkeypatch)
    cold = _t5_seeds_grid()
    # 35 cases, each visited once per seed, and each derived once; of the
    # 240 twisted characters the 80 without singular support read 16
    # tables, 2 per seed, and take the grid's only 80 dets.
    info = factorization._derive.cache_info()
    assert (info.hits, info.misses) == (245, 35)
    assert characters._twisted_h.cache_info()[:2] == (64, 16)
    assert len(dets) == 80
    assert _t5_seeds_grid() == cold
    assert factorization._derive.cache_info().misses == 35


def test_predict_and_verify_accept_a_list_partition():
    th, la, t, n = TheoremId.SYMPLECTIC, (3, 2, 1, 1, 1), 3, 2
    factorization._derive.cache_clear()
    pred = predict(th, list(la), t, n)
    assert pred == predict(th, la, t, n) and not hasattr(pred, "__dict__")
    assert factorization._derive.cache_info().misses == 1
    assert verify(th, list(la), t, n).as_dict() == verify(th, la, t, n).as_dict()
    # A case that fails its check is refused on every call, never cached.
    for _ in range(2):
        with pytest.raises(ValueError, match="bound for sympfact is 6"):
            predict(th, [1] * 7, t, n)
    assert factorization._derive.cache_info().currsize == 1


def test_predict_and_verify_refuse_a_non_partition():
    factorization._derive.cache_clear()
    for la in [(1, 2), (2, -1)]:
        for call in (predict, verify):
            with pytest.raises(ValueError):
                call(TheoremId.SCHUR_FAC, la, 2, 2)
    assert factorization._derive.cache_info().currsize == 0
    # A part that is not an int is refused, not truncated to a partition
    # whose record would then fail to match.
    for call in (predict, verify):
        with pytest.raises(ValueError, match="part 2.5 of"):
            call(TheoremId.SCHUR_FAC, (2.5, 1), 3, 1)
    # A trailing zero is still a partition.
    assert predict(TheoremId.SCHUR_FAC, (2, 0), 2, 2) == predict(TheoremId.SCHUR_FAC, (2,), 2, 2)


def test_a_part_equal_to_an_int_is_refused_warm_and_cold():
    # Every cache takes 2.0 for the key 2, so (2.0, 1) would read the
    # derivation of (2, 1) once that is cached.  It is refused by name
    # before any cache is read, whether or not (2, 1) is cached.
    th, t, n = TheoremId.SCHUR_FAC, 3, 1
    pts = sample_points(n, 0)
    calls = (
        lambda la: verify(th, la, t, n),
        lambda la: predict(th, la, t, n),
        lambda la: lhs_value(th, la, t, n, pts),
    )
    for warm in (False, True):
        for cache in _STANDING_TRAFFIC:
            cache.cache_clear()
        if warm:
            for call in calls:
                call((2, 1))
        for la in [(2.0, 1), (Fraction(2), 1), (2, "1")]:
            for call in calls:
                with pytest.raises(ValueError, match=r"^part .* is not an int$"):
                    call(la)


def _refuses_non_ints(call, good, bad):
    # Every cache takes 3.0 and True for 3 and 1, so each is refused by
    # name, cold and once the int case is cached.
    for warm in (False, True):
        for cache in _STANDING_TRAFFIC:
            cache.cache_clear()
        if warm:
            call(**good)
        for key, value in bad:
            with pytest.raises(ValueError) as exc:
                call(**{**good, key: value})
            assert f"{key}={value!r}" in str(exc.value)


def test_verify_refuses_a_non_int_t_n_or_seed():
    good = dict(th=TheoremId.SCHUR_FAC, la=(2, 1), t=3, n=1, seed=1)
    bad = [("t", 3.0), ("n", 1.0), ("n", True), ("seed", 1.5), ("seed", True)]
    _refuses_non_ints(verify, good, bad)


def test_predict_refuses_a_non_int_t_or_n():
    good = dict(th=TheoremId.SCHUR_FAC, la=(2, 1), t=3, n=1)
    _refuses_non_ints(predict, good, [("t", 3.0), ("n", 1.0), ("n", True)])


def test_lhs_value_refuses_a_non_int_t_or_n():
    good = dict(th=TheoremId.SCHUR_FAC, la=(2, 1), t=7, n=1, pts=sample_points(1, 0))
    _refuses_non_ints(lhs_value, good, [("t", 7.0), ("n", 1.0), ("n", True)])


def test_sample_points_refuses_a_non_int_n_or_seed():
    bad = [("n", 2.0), ("n", True), ("seed", 1.5), ("seed", True)]
    _refuses_non_ints(sample_points, dict(n=2, seed=1), bad)


def test_a_trailing_zero_is_judged_by_the_canonical_length(monkeypatch):
    # (1, 0, 0) is the partition (1,): one part, within schurfac's bound 2.
    th, t, n = TheoremId.SCHUR_FAC, 2, 1
    pts = sample_points(n, 0)
    assert predict(th, (1, 0, 0), t, n) == predict(th, (1,), t, n)
    assert lhs_value(th, [1, 0, 0], t, n, pts) == lhs_value(th, (1,), t, n, pts)
    # One case has one record form: the canonical partition.
    assert verify(th, (1, 0), t, n).as_dict() == verify(th, (1,), t, n).as_dict()
    assert verify(th, [1, 0, 0], t, n).as_dict()["partition"] == [1]
    with pytest.raises(ValueError, match="3 parts, bound for schurfac is 2"):
        predict(th, (1, 1, 1, 0), t, n)
    # On the runtime path, verify and predict, canonical input is
    # normalised by no call once its case is derived.  lhs_value, a checked
    # entry no command runs, checks every la as a partition.
    calls = []
    real = factorization.as_partition
    monkeypatch.setattr(factorization, "as_partition", lambda la: calls.append(la) or real(la))
    verify(th, (1,), t, n)
    predict(th, [1], t, n)
    assert calls == []
    verify(th, (1, 0), t, n)
    assert calls and set(calls) == {(1, 0)}


def test_a_draw_that_repeats_a_value_is_redrawn_whole():
    # Seed 636 first draws (3/2, 3/2) at n = 2.
    assert sample_points(2, 636) == (
        Fraction(29, 20),
        Fraction(10, 7),
    )


def test_a_vanishing_rhs_checks_its_points_and_is_zero():
    pred = predict(TheoremId.SCHUR_FAC, (1,), 2, 1)
    assert pred.vanishing and not pred.factors
    assert rhs_value(pred, (Fraction(3),)) == 0
    with pytest.raises(ValueError, match="expected 1 points"):
        rhs_value(pred, (Fraction(3), Fraction(5)))
    with pytest.raises(TypeError):
        rhs_value(pred, (3,))


def test_degenerate_points_raise_on_every_call():
    # Y = (4, 4) makes the GL denominator of the factor (1) vanish.
    pred = predict(TheoremId.SCHUR_FAC, (2,), 2, 2)
    assert (GroupType.GL, (1,), "Y") in pred.factors
    pts = (Fraction(2), Fraction(-2))
    factorization._factor_value.cache_clear()
    for _ in range(2):
        with pytest.raises(DegeneratePointError):
            rhs_value(pred, pts)
    assert factorization._factor_value.cache_info().currsize == 0


def test_a_patched_rhs_leaves_no_value_in_the_cache(monkeypatch):
    th, la, t, n, seed = TheoremId.SYMPLECTIC, (3, 2, 1, 1, 1), 3, 2, 5
    pred = predict(th, la, t, n)
    pts = sample_points(n, seed)
    rhs = rhs_value(pred, pts)
    real = factorization._rhs
    with monkeypatch.context() as m:
        m.setattr(factorization, "_rhs", lambda p, pairs: real(p, pairs) + 1)
        assert not verify(th, la, t, n, seed=seed).match
    assert rhs_value(pred, pts) == rhs == lhs_value(th, la, t, n, pts)
    assert verify(th, la, t, n, seed=seed).match


@pytest.mark.parametrize("seeds", [1, 3])
@pytest.mark.parametrize("th", ALL, ids=[th.value for th in ALL])
def test_verify_derives_each_prediction_once(th, seeds, monkeypatch):
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    for name in ("_epsilon", "_rhs"):
        monkeypatch.setattr(factorization, name, counted(name, getattr(factorization, name)))
    monkeypatch.setattr(partitions, "beta_set", counted("beta_set", partitions.beta_set))
    # A warm derivation or reading cache would derive nothing, and pass for
    # nothing.
    factorization._derive.cache_clear()
    reading.cache_clear()
    # (4, 4) fits n0 = 1: one beta set and epsilon at n0 for every seed,
    # and each seed's move to n = 2 flips epsilon with sigma, reading nothing.
    for seed in range(seeds):
        rep = verify(th, (4, 4), 4, 2, seed=seed)
        assert rep.match and not rep.predicted_vanishing
    assert calls == {"beta_set": 1, "_epsilon": 1, "_rhs": seeds}, calls
    # At n0 the prediction is the derived one: nothing is computed again.
    for seed in range(seeds):
        assert verify(th, (4, 4), 4, 1, seed=seed).match
    assert calls == {"beta_set": 1, "_epsilon": 1, "_rhs": 2 * seeds}, calls


@pytest.mark.parametrize("th", ALL, ids=[th.value for th in ALL])
def test_predict_reads_one_beta_set_per_case(th, monkeypatch):
    real, paddings = partitions.beta_set, []

    def counted(la, m):
        paddings.append(m)
        return real(la, m)

    monkeypatch.setattr(partitions, "beta_set", counted)
    verdicts = set()
    for t in range(2, 6):
        for n in (1, 2):
            for la in partitions_up_to(6, max_length=length_bound(th, t, n)):
                paddings.clear()
                factorization._derive.cache_clear()
                reading.cache_clear()
                verdicts.add(predict(th, la, t, n).vanishing)
                # The one beta set is taken at the least padding tn0 la
                # fits, whatever the row's points 1.
                assert paddings == [t * max(1, ceil_div(len(la), t))], (la, t, n)
                predict(th, la, t, n + 1)
                assert len(paddings) == 1, (la, t, n)
                # Every other row shares that reading, at an n whose bound
                # they all admit.
                for other in ALL:
                    predict(other, la, t, n + 1)
                assert len(paddings) == 1, (la, t, n)
    assert verdicts == {True, False}


def _least_n(th, la, t):
    return max(1, ceil_div(len(la) - th.ones, t))


def test_sign_is_the_closed_form_over_the_wide_grid():
    # The total sign is n-free: Littlewood's t-sign of la, times
    # (-1)^(sum max(a_i, b_i)) over the core's Frobenius coordinates for the
    # paired theorems, times (-1)^|mu| for even O's factor at -Y.
    live = 0
    for t in range(2, 8):
        for la in partitions_up_to(12):
            delta = ribbon_sign(la, t)
            fc = frobenius(t_core_strips(la, t))
            paired = delta * (-1) ** sum(map(max, fc.alpha, fc.beta))
            for th in ALL:
                for n in range(_least_n(th, la, t), 4):
                    pred = predict(th, la, t, n)
                    if pred.vanishing:
                        continue
                    want = delta if th.z is None else paired
                    want *= (-1) ** sum(sum(mu) for _, mu, at in pred.factors if at == "-Y")
                    assert pred.sign == want, (th, la, t, n)
                    live += 1
    assert live == 6534


def test_moved_sigma_is_the_block_sign_at_each_padding():
    # schur1's sigma sorts the class c of the point 1 first.  Its least n
    # for l = tn + 1 lies one step below the n0 it derives at, so those live
    # cases are carried back.
    back = 0
    for t in range(2, 8):
        for la in partitions_up_to(9):
            for th in ALL:
                n0 = _least_n(th, la, t)
                for n in range(n0, n0 + 4):
                    pred = predict(th, la, t, n)
                    if pred.sigma is None:
                        assert th.ones and pred.vanishing
                        continue
                    m = length_bound(th, t, n)
                    order = list(range(t))
                    if th.ones:
                        # The point 1 leaves class c one entry above n.
                        c = residue_counts(la, t, m).index(n + 1)
                        order = [c] + [i for i in range(t) if i != c]
                        back += len(la) == m
                    assert pred.sigma == block_sign_oracle(la, t, m, order), (th, la, t, n)
    assert back == 69


def test_carried_epsilon_is_the_closed_form_at_each_n():
    # predict evaluates epsilon at n0 only and flips it with sigma; its
    # closed form `_epsilon` at the case's own n is the oracle.  The
    # standing grid (t <= 4, n <= 2, |la| <= 7) lies inside the multi-n
    # grid (t <= 5, n <= 4, |la| <= 8).
    live = moved = 0
    for th in ALL:
        for t in (2, 3, 4, 5):
            for n in (1, 2, 3, 4):
                for la in partitions_up_to(8, max_length=length_bound(th, t, n)):
                    pred = predict(th, la, t, n)
                    if pred.vanishing:
                        continue
                    cls = reading(la, t).cls
                    c = cls.excess(1).index(1) if th.ones else 0
                    assert pred.epsilon == factorization._epsilon(th, t, n, cls, c), (th, la, t, n)
                    live += 1
                    moved += n != reading(la, t).n0
    assert (live, moved) == (2166, 1560)


def _split_sweep():
    # (live cases, cases whose record splits the sign wrongly) over the
    # multi-n grid: (-1)^(epsilon + sum |mu| at -Y) sigma must be the total
    # sign at the case's own n.
    live = wrong = 0
    for th in ALL:
        for t in (2, 3, 4, 5):
            for n in (1, 2, 3, 4):
                for la in partitions_up_to(8, max_length=length_bound(th, t, n)):
                    pred = factorization.predict(th, la, t, n)
                    if pred.vanishing:
                        continue
                    minus = sum(sum(mu) for _, mu, at in pred.factors if at == "-Y")
                    live += 1
                    wrong += (-1) ** (pred.epsilon + minus) * pred.sigma != pred.sign
    return live, wrong


def test_epsilon_and_sigma_split_the_sign_at_each_n():
    # The total sign is n-free, and its two record fields are carried from
    # n0 together; match never reads them, so this is their check.
    assert _split_sweep() == (2166, 0)


def test_an_uncarried_epsilon_fails_the_split(monkeypatch):
    # Mutant: sigma moves to n, but epsilon stays at its n0 value.
    real = factorization.predict

    def uncarried(th, la, t, n):
        pred = real(th, la, t, n)
        return pred._replace(epsilon=factorization._derive(th, la, t)[0].epsilon)

    monkeypatch.setattr(factorization, "predict", uncarried)
    assert _split_sweep() == (2166, 740)


def test_a_larger_n_costs_no_second_derivation():
    factorization._derive.cache_clear()
    th, la, t = TheoremId.SYMPLECTIC, (3, 2, 1, 1, 1), 3
    n0 = _least_n(th, la, t)
    assert [predict(th, la, t, n).n for n in (n0, n0 + 1, n0)] == [n0, n0 + 1, n0]
    assert factorization._derive.cache_info().misses == 1


def _base(th, la):
    # The least t past every hook of la with its points 1: from here on the
    # derivation has period 4 in t.
    return max(2, (la[0] if la else 0) + len(la) + th.ones)


def test_the_fold_past_the_hook_is_the_direct_derivation(monkeypatch):
    # The direct derivation at t itself is the oracle, over two periods
    # past the fold's start, and so is the prediction it carries to n.
    cases = 0
    for th in ALL:
        for la in partitions_up_to(8):
            base = _base(th, la)
            for t in range(base + 4, base + 12):
                folded = factorization._derive(th, la, t)
                assert folded[0].t == t
                assert folded == factorization._derive_direct(th, la, t), (th, la, t)
                cases += 1
    assert cases == 5 * 8 * 67
    folded = {
        (th, la, t, n): predict(th, la, t, n)
        for th in ALL
        for la in partitions_up_to(5)
        for t in range(_base(th, la) + 4, _base(th, la) + 8)
        for n in (1, 2, 3)
    }
    monkeypatch.setattr(factorization, "_derive", factorization._derive_direct)
    for (th, la, t, n), pred in folded.items():
        assert predict(th, la, t, n) == pred, (th, la, t, n)


def test_a_folded_derivation_lays_no_abacus_at_its_own_t():
    factorization._derive.cache_clear()
    reading.cache_clear()
    pred = predict(TheoremId.ODD_ORTH, (2, 1), 10**6, 1)
    assert pred.t == 10**6 and pred.sign and pred.factors == ()
    # One reading, at the fold's t' = 4 + (10^6 - 4) mod 4 = 4.
    assert reading.cache_info().misses == 1
    assert factorization._derive.cache_info().currsize == 2
    assert predict(TheoremId.ODD_ORTH, (2, 1), 4, 1) == pred._replace(t=4)


def test_the_left_side_is_constant_past_the_hook():
    # Past the largest hook the twist leaves only h_0 (and with a point 1
    # its prefix sums), so the left side depends on neither t, n nor the
    # points, and it is the sign of a prediction with no factor.
    for th in ALL:
        for la in partitions_up_to(5):
            base = _base(th, la)
            values = set()
            for t in range(base, base + 8):
                for n in (1, 2):
                    pred = predict(th, la, t, n)
                    assert pred.factors == (), (th, la, t, n)
                    for seed in (0, 1):
                        pairs = point_pairs(sample_points(n, seed))
                        lhs = characters.twisted_at_pairs(th.group, la, pairs, t, th.ones)
                        assert lhs == pred.sign, (th, la, t, n, seed)
                        values.add(lhs)
            assert len(values) == 1, (th, la)


def test_a_pair_of_empty_parts_is_padded_by_no_call(monkeypatch):
    # At t = 100000 oorthfact has 50000 pairs; a pair whose two quotient
    # parts are empty is 1 and is not listed, and a prediction pads no pair
    # at any n: only rhs_value pads.
    calls = []
    monkeypatch.setattr(factorization, "mu_padded", lambda *args: calls.append(args))
    factorization._derive.cache_clear()
    th, t = TheoremId.ODD_ORTH, 100000
    for n in (1, 2):
        pred = predict(th, (2, 1), t, n)
        assert not pred.vanishing and pred.factors == ()
    # A hook of length t leaves one part (1) on one pair, the same at every n.
    pairs = [
        [f for f in predict(th, (t,), t, n).factors if f[2] == "Y,1/Y"] for n in (1, 2)
    ]
    assert len(pairs[0]) == 1 and pairs[0] == pairs[1]
    assert calls == []


def test_the_factors_and_the_sign_are_n_free_on_the_standing_grid(monkeypatch):
    for th in ALL:
        for t in (2, 3, 4):
            for la in partitions_up_to(7, max_length=length_bound(th, t, 2)):
                n0 = _least_n(th, la, t)
                preds = [predict(th, la, t, n) for n in range(n0, n0 + 3)]
                assert len({(p.factors, p.sign) for p in preds}) == 1, (th, la, t)
    # rhs_value skips a pair that pads to (), so no factor value is ever
    # asked for the empty partition.
    real, mus = factorization._factor_value, []

    def spy(group, mu, *rest):
        mus.append(mu)
        return real(group, mu, *rest)

    monkeypatch.setattr(factorization, "_factor_value", spy)
    _standing_grid()
    assert mus and all(mus)


def test_factor_layout_follows_the_class_pairing():
    # Pairs i < j give GL factors at Y and 1/Y; for even t the middle class
    # 2i = t-1-z exists for Sp and O_even, and for odd t for O_odd.
    gl, sp, oe, oo = GroupType.GL, GroupType.SP, GroupType.OE, GroupType.OO
    for t in range(2, 9):
        even = t % 2 == 0
        want = {
            TheoremId.SYMPLECTIC: {(gl, "Y,1/Y"): (t - 1) // 2, (sp, "Y"): 1, (oo, "Y"): even},
            TheoremId.EVEN_ORTH: {(gl, "Y,1/Y"): (t - 1) // 2, (oe, "Y"): 1, (oo, "-Y"): even},
            TheoremId.ODD_ORTH: {(gl, "Y,1/Y"): t // 2, (oo, "Y"): not even},
        }
        # (t^t) has an empty core and the quotient part (1) on every class,
        # so no factor is 1 and every one is listed.
        for th, layout in want.items():
            pred = predict(th, (t,) * t, t, 1)
            got = Counter((group, at) for group, _, at in pred.factors)
            assert got == +Counter(layout), (th, t)


# ---- the Q route against the Q(w) bialternant oracle --------------------
#
# lhs_value works over Q with h-determinants and the twist rule; the
# oracle is the bialternant ratio at the tn twisted points in Q(w).

GROUP = {
    TheoremId.SCHUR_FAC: GroupType.GL,
    TheoremId.SCHUR_ONE: GroupType.GL,
    TheoremId.SYMPLECTIC: GroupType.SP,
    TheoremId.EVEN_ORTH: GroupType.OE,
    TheoremId.ODD_ORTH: GroupType.OO,
}


def twisted_oracle(th, la, t, pts):
    tw = twisted_points(embed(pts, t), t)
    if th is TheoremId.SCHUR_ONE:
        tw += (field(t).one,)
    return bialternant(GROUP[th], la, tw)


@pytest.mark.parametrize(
    "t,n,max_size",
    [(2, 1, 6), (2, 2, 6), (3, 1, 6), (3, 2, 6), (4, 1, 6), (4, 2, 6), (5, 1, 5), (6, 1, 5)],
)
def test_lhs_matches_bialternant_oracle(t, n, max_size):
    pts = sample_points(n, seed=4)
    for th in ALL:
        for la in partitions_up_to(max_size, max_length=length_bound(th, t, n)):
            assert lhs_value(th, la, t, n, pts) == twisted_oracle(th, la, t, pts), (th, la)


@given(
    st.sampled_from(ALL),
    partitions_strategy(3, 3),
    st.integers(2, 5),
    st.integers(1, 2),
    st.integers(0, 50),
)
@settings(max_examples=40, deadline=None)
def test_twisted_values_are_rational_and_agree(th, la, t, n, seed):
    if len(la) > length_bound(th, t, n):
        return
    pts = sample_points(n, seed)
    want = twisted_oracle(th, la, t, pts)
    assert not any(want.coeffs[1:])
    assert lhs_value(th, la, t, n, pts) == want.coeffs[0]


def test_lhs_value_checks_the_point_count_and_type():
    th = TheoremId.SCHUR_FAC
    with pytest.raises(ValueError, match="expected 2 points, got 1"):
        lhs_value(th, (1,), 3, 2, sample_points(1, 0))
    with pytest.raises(ValueError, match="expected 2 points, got 3"):
        lhs_value(th, (1,), 3, 2, (2, 3, 5))
    # The empty partition's value is 1 without a table, yet its points are checked.
    for la in [(1,), ()]:
        with pytest.raises(TypeError, match=r"points must be Fractions, got \(2, 3\)"):
            lhs_value(th, la, 3, 2, (2, 3))


def test_non_rational_points_are_rejected():
    fld = field(3)
    pts = (fld.from_rational(2), fld.elem([1, 1]))
    with pytest.raises(TypeError, match="must be Fractions"):
        lhs_value(TheoremId.SCHUR_FAC, (1,), 3, 2, pts)
    with pytest.raises(TypeError, match="must be Fractions"):
        rhs_value(predict(TheoremId.SCHUR_FAC, (1,), 3, 2), pts)


@pytest.mark.parametrize("th", ALL, ids=[th.value for th in ALL])
def test_padding_choice_does_not_matter(th):
    for la, t in [((3, 1), 2), ((2, 2, 1), 3), ((4, 2, 2, 1), 2)]:
        base = -(-len(la) // t)
        for n in (base, base + 1, base + 2):
            assert verify(th, la, t, n, seed=2).match


@given(partitions_strategy(4, 4), partitions_strategy(4, 4), st.integers(1, 3))
@settings(max_examples=40, deadline=None)
def test_padded_weight_swap_symmetry(front, back, n):
    if len(front) + len(back) > 2 * n:
        return
    pts = sample_points(n, seed=11)
    both = tuple(x ** 2 for x in pts) + tuple(x ** -2 for x in pts)
    a = weyl(GroupType.GL, mu_padded(front, back, n), both)
    b = weyl(GroupType.GL, mu_padded(back, front, n), both)
    assert a == b


# ---- determinant identities for single residue classes ----------------
#
# Columns are indexed by the beta entries of one residue class; the
# ratio against the empty-partition matrix reproduces the character of
# the quotient component at the t-th powers of the points.


def class_betas(la, t, n):
    out = [[] for _ in range(t)]
    for x in beta_set(la, t * n):
        out[x % t].append(x)
    return [sorted(c, reverse=True) for c in out]


def amat(pts, betas, q, bar=False):
    if bar:
        return [[(1 / x) ** (b + q) for b in betas] for x in pts]
    return [[x ** (b + q) for b in betas] for x in pts]


def msub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def madd(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def hstack(a, b):
    return [ra + rb for ra, rb in zip(a, b)]


def full_class_cases(max_size=6, grid=((2, 1), (2, 2), (3, 1))):
    """Yield (points, class betas, empty-partition betas, quotient, p)
    for every residue class of full count n."""
    for t, n in grid:
        pts = sample_points(n, seed=7)
        cb0 = class_betas((), t, n)
        for la in partitions_up_to(max_size, max_length=t * n):
            cb = class_betas(la, t, n)
            quo = reading(la, t).quotient
            for p in range(t):
                if len(cb[p]) == n:
                    yield pts, t, cb[p], cb0[p], quo[p], p


def test_single_class_schur_determinant():
    seen = 0
    for pts, t, betas, betas0, comp, p in full_class_cases():
        xt = tuple(x ** t for x in pts)
        lhs = weyl(GroupType.GL, comp, xt)
        assert lhs == det(amat(pts, betas, 0)) / det(amat(pts, betas0, 0))
        seen += 1
    assert seen > 90


def test_single_class_symplectic_determinant():
    seen = 0
    for pts, t, betas, betas0, comp, p in full_class_cases():
        xt = tuple(x ** t for x in pts)
        lhs = weyl(GroupType.SP, comp, xt)
        num = det(msub(amat(pts, betas, t - p), amat(pts, betas, t - p, bar=True)))
        den = det(msub(amat(pts, betas0, t - p), amat(pts, betas0, t - p, bar=True)))
        assert lhs == num / den
        seen += 1
    assert seen > 90


def test_single_class_odd_orthogonal_determinant():
    # the shifted exponent is integral only for even t
    seen = 0
    for pts, t, betas, betas0, comp, p in full_class_cases(
        grid=((2, 1), (2, 2), (4, 1))
    ):
        q = t // 2 - p
        xt = tuple(x ** t for x in pts)
        lhs = weyl(GroupType.OO, comp, xt)
        num = det(msub(amat(pts, betas, q), amat(pts, betas, q, bar=True)))
        den = det(msub(amat(pts, betas0, q), amat(pts, betas0, q, bar=True)))
        assert lhs == num / den
        seen += 1
    assert seen > 90


def test_single_class_even_orthogonal_determinant():
    seen = 0
    for pts, t, betas, betas0, comp, p in full_class_cases():
        n = len(pts)
        xt = tuple(x ** t for x in pts)
        lhs = weyl(GroupType.OE, comp, xt)
        num = det(madd(amat(pts, betas, -p), amat(pts, betas, -p, bar=True)))
        den = det(madd(amat(pts, betas0, -p), amat(pts, betas0, -p, bar=True)))
        delta = 1 if len(comp) < n else 0
        assert lhs == (2 * (num / den)) / (1 + delta)
        seen += 1
    assert seen > 90


def test_paired_class_block_determinant():
    seen = 0
    for t, n in ((2, 1), (2, 2), (3, 1), (3, 2), (4, 1)):
        pts = sample_points(n, seed=7)
        xt = tuple(x ** t for x in pts)
        xt_both = xt + tuple(1 / x for x in xt)
        cb0 = class_betas((), t, n)
        for la in partitions_up_to(6, max_length=t * n):
            cb = class_betas(la, t, n)
            quo = reading(la, t).quotient
            nps = [len(c) for c in cb]
            for p in range(t):
                for q in range(t):
                    if p == q or nps[p] + nps[q] != 2 * n:
                        continue
                    rho = mu_padded(quo[q], quo[p], n)
                    lhs = weyl(GroupType.GL, rho, xt_both)
                    top = hstack(
                        amat(pts, cb[q], -q), amat(pts, cb[p], t - p, bar=True)
                    )
                    bot = hstack(
                        amat(pts, cb[q], -q, bar=True), amat(pts, cb[p], t - p)
                    )
                    top0 = hstack(
                        amat(pts, cb0[q], -q), amat(pts, cb0[p], t - p, bar=True)
                    )
                    bot0 = hstack(
                        amat(pts, cb0[q], -q, bar=True), amat(pts, cb0[p], t - p)
                    )
                    sgn = (-1) ** ((nps[p] * (nps[p] - 1) // 2 + n * (n - 1) // 2) % 2)
                    assert lhs == sgn * (det(top + bot) / det(top0 + bot0))
                    seen += 1
    assert seen > 200


def test_block_determinant_closed_form():
    cases = [
        (1, 1, [1]),
        (1, 2, [2]),
        (2, 1, [1, 1]),
        (2, 2, [2, 2]),
        (2, 2, [1, 3]),
        (2, 2, [3, 1]),
        (3, 2, [2, 2, 2]),
        (3, 2, [1, 2, 3]),
        (3, 2, [1, 1, 4]),
        (3, 2, [4, 1, 1]),
        (4, 1, [1, 1, 1, 1]),
        (4, 2, [1, 2, 2, 3]),
        (4, 2, [3, 2, 2, 1]),
        (4, 2, [2, 1, 3, 2]),
    ]
    for k, n, dims in cases:
        for seed in range(4):
            assert check_block_det_lemma(k, n, dims, seed), (k, n, dims, seed)
    with pytest.raises(ValueError):
        check_block_det_lemma(2, 2, [1, 2], 0)
    with pytest.raises(ValueError):
        check_block_det_lemma(2, 2, [0, 8], 0)
    with pytest.raises(ValueError):
        check_block_det_lemma(2, 2, [1, 1, 2], 0)
