"""Beta sets, cores, quotients, signs, and core classification."""

import random
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from helpers import block_sign_oracle, ceil_div, partitions_strategy, t_core_strips
from twistchar import factorization, partitions
from twistchar.cli import main
from twistchar.factorization import TheoremId, length_bound, predict
from twistchar.partitions import (
    Abacus,
    CoreClass,
    FrobeniusCoords,
    abacus,
    as_partition,
    beta_set,
    class_pairs,
    classify_core,
    conjugate,
    core_from_offsets,
    core_size,
    frobenius,
    from_beta_set,
    from_frobenius,
    is_core_beads,
    is_t_core,
    is_z_asymmetric,
    mu_padded,
    partitions_of,
    partitions_up_to,
    partners,
    rank,
    size,
    t_core,
    z_asymmetric_arms,
    z_asymmetric_up_to,
)
from twistchar.series import enum_z_cores, phi

P = partitions_strategy()


def test_as_partition_normalizes():
    assert as_partition([3, 2, 0, 0]) == (3, 2)
    assert as_partition(()) == ()
    assert as_partition([5]) == (5,)
    with pytest.raises(ValueError):
        as_partition([2, 3])
    with pytest.raises(ValueError):
        as_partition([2, -1])


def test_beta_set_values():
    assert beta_set((4, 2, 2, 1), 4) == (7, 4, 3, 1)
    assert beta_set((), 3) == (2, 1, 0)
    assert beta_set((2, 2), 3) == (4, 3, 0)
    with pytest.raises(ValueError):
        beta_set((1, 1), 1)


@given(P, st.integers(0, 4))
def test_beta_set_roundtrip(la, extra):
    m = len(la) + extra
    assert from_beta_set(beta_set(la, m)) == la


def test_from_beta_set_rejects_bad_input():
    assert from_beta_set(()) == ()
    with pytest.raises(ValueError):
        from_beta_set((1, 1))
    with pytest.raises(ValueError):
        from_beta_set((0, 1))
    with pytest.raises(ValueError):
        from_beta_set((-1,))


def test_conjugate_values():
    assert conjugate((4, 2, 2, 1)) == (4, 3, 1, 1)
    assert conjugate(()) == ()


@given(P)
def test_conjugate_is_an_involution(la):
    assert conjugate(conjugate(la)) == la
    assert size(conjugate(la)) == size(la)


def test_frobenius_values():
    fc = frobenius((4, 2, 2, 1))
    assert fc.alpha == (3, 0) and fc.beta == (3, 1)
    assert frobenius(()) == FrobeniusCoords((), ())
    assert rank((4, 2, 2, 1)) == 2
    assert rank(()) == 0


@given(P)
def test_frobenius_roundtrip(la):
    fc = frobenius(la)
    assert from_frobenius(fc.alpha, fc.beta) == la
    swapped = frobenius(conjugate(la))
    assert swapped.alpha == fc.beta and swapped.beta == fc.alpha


def test_frobenius_reads_no_conjugate(monkeypatch):
    # The legs are column lengths, but only the first rank(la) of them are
    # read, so frobenius must not build the conjugate (la_1 entries).
    las = list(partitions_up_to(14))
    zs = range(-3, 4)
    want = {}
    for la in las:
        conj = conjugate(la)
        r = rank(la)
        legs = tuple(conj[j] - (j + 1) for j in range(r))
        want[la] = (FrobeniusCoords(tuple(la[i] - (i + 1) for i in range(r)), legs),
                    [is_z_asymmetric(la, z) for z in zs])

    def never(la):
        raise AssertionError("frobenius built the conjugate")

    monkeypatch.setattr(partitions, "conjugate", never)
    for la in las:
        assert (frobenius(la), [is_z_asymmetric(la, z) for z in zs]) == want[la], la
    huge = frobenius((10**20 - 1, 3, 1))
    assert huge == FrobeniusCoords((10**20 - 2, 1), (2, 0))


def test_from_frobenius_inverts_frobenius():
    for la in partitions_up_to(12):
        assert from_frobenius(*frobenius(la)) == la
    assert from_frobenius((3, 0), (3, 1)) == (4, 2, 2, 1)
    assert from_frobenius((), ()) == ()
    for alpha, beta in [((1,), ()), ((0, 1), (1, 0)), ((1, 1), (2, 0)), ((0,), (-1,))]:
        with pytest.raises(ValueError):
            from_frobenius(alpha, beta)


@pytest.mark.parametrize("z", range(-4, 9))
def test_z_asymmetric_construction_matches_the_filter(z):
    for max_size in range(17):
        built = sorted(z_asymmetric_up_to(z, max_size))
        assert built == sorted(la for la in partitions_up_to(max_size) if is_z_asymmetric(la, z))
    assert list(z_asymmetric_up_to(z, -1)) == []


@pytest.mark.parametrize("z", range(-4, 9))
def test_z_asymmetric_walk_carries_each_size(z):
    # ... and each beta set at the length, bit x set for each entry x.
    walked = []
    for arms, used, beads in z_asymmetric_arms(z, 20):
        la = from_frobenius(arms, [a + z for a in arms])
        assert used == size(la)
        assert beads == sum(1 << x for x in beta_set(la, len(la))), la
        walked.append(arms)
    assert walked == sorted(walked)
    assert list(z_asymmetric_arms(z, -1)) == []


@pytest.mark.parametrize("t", range(2, 10))
def test_cut_walk_yields_the_t_cores_of_the_whole_walk(t):
    # The cut drops only subtrees without a t-core, so the cut walk is the
    # whole walk filtered by the closure test, item for item and in order.
    for z in range(-t - 1, t + 2):
        whole = [item for item in z_asymmetric_arms(z, 40) if is_core_beads(item[2], t)]
        assert list(z_asymmetric_arms(z, 40, t)) == whole, z
        assert whole[0] == ((), 0, 0)


def test_frobenius_beta_set_is_the_beta_set_at_the_length():
    # The reading the walk's bitmask rests on, for every partition: at
    # m = l(la) = beta_1 + 1 the beta set is {m + alpha_i} and {0..m-1}
    # without {m - 1 - beta_i}.  Where la is z-asymmetric the walk agrees.
    walked = {}
    for z in range(-13, 14):
        for arms, _, beads in z_asymmetric_arms(z, 14):
            walked[from_frobenius(arms, [a + z for a in arms])] = beads
    for la in partitions_up_to(14):
        fc = frobenius(la)
        m = fc.beta[0] + 1 if fc.beta else 0
        entries = set(range(m)) - {m - 1 - b for b in fc.beta} | {m + a for a in fc.alpha}
        assert entries == set(beta_set(la, len(la))), la
        assert (la in walked) == any(is_z_asymmetric(la, z) for z in range(-13, 14)), la
        if la in walked:
            assert walked[la] == sum(1 << x for x in entries), la


def test_asymmetric_families_of_six():
    sym = [la for la in partitions_of(6) if is_z_asymmetric(la, 1)]
    orth = [la for la in partitions_of(6) if is_z_asymmetric(la, -1)]
    assert sym == [(3, 1, 1, 1), (2, 2, 2)]
    assert sorted(orth) == sorted(conjugate(la) for la in sym)
    assert is_z_asymmetric((), 5)
    assert is_z_asymmetric((2,), -1)
    assert not is_z_asymmetric((1,), -1)


@given(P)
def test_zero_asymmetric_means_self_conjugate(la):
    assert is_z_asymmetric(la, 0) == (la == conjugate(la))


@given(P, st.integers(-2, 3))
def test_conjugation_negates_z(la, z):
    assert is_z_asymmetric(la, z) == is_z_asymmetric(conjugate(la), -z)


def test_core_values():
    assert t_core((4, 2, 2, 1), 2) == (2, 1)
    assert t_core((3, 2, 1, 1, 1), 3) == (1, 1)
    assert t_core((), 4) == ()
    with pytest.raises(ValueError):
        t_core((2, 1), 1)


@pytest.mark.parametrize("t", range(2, 7))
def test_core_tests_agree(t):
    for la in partitions_up_to(14):
        core = t_core(la, t)
        assert is_t_core(la, t) == (core == la) == (t_core_strips(la, t) == la), la
    with pytest.raises(ValueError):
        is_t_core((2, 1), 1)
    # beta((2,1), 2) = {3, 1} is a 2-core's, beta((2,2), 2) = {3, 2} is not.
    assert is_core_beads(0b1010, 2) and not is_core_beads(0b1100, 2)


@given(P, st.integers(2, 5))
def test_core_routes_agree(la, t):
    core = t_core(la, t)
    assert core == t_core_strips(la, t)
    assert t_core(core, t) == core


def test_quotient_values():
    assert abacus((4, 2, 2, 1), 2, 4).quotient == ((2,), (1,))
    assert abacus((3, 2, 1, 1, 1), 3, 6).quotient == ((), (1,), (1,))
    with pytest.raises(ValueError):
        abacus((1, 1), 2, 1)


@given(P, st.integers(2, 5), st.integers(0, 2))
def test_core_and_quotient_carry_the_size(la, t, extra):
    m = max(1, len(la)) + extra
    quo = abacus(la, t, m).quotient
    assert len(quo) == t
    assert size(la) == size(t_core(la, t)) + t * sum(size(q) for q in quo)


@given(P, st.integers(2, 5), st.integers(0, 3))
def test_quotient_rotates_under_padding_shift(la, t, extra):
    m = max(1, len(la)) + extra
    old = abacus(la, t, m).quotient
    new = abacus(la, t, m + 1).quotient
    assert new == tuple(old[(i - 1) % t] for i in range(t))


def test_residue_count_values():
    ab = abacus((3, 2, 1, 1, 1), 3, 6)
    assert ab.counts == (3, 1, 2)
    assert ab.runners == ((2, 1, 0), (1,), (2, 0))
    with pytest.raises(ValueError):
        abacus((1,), 1, 2)


@given(P, st.integers(2, 5), st.integers(0, 2))
def test_residue_counts_shift_with_padding(la, t, extra):
    m = max(1, len(la)) + extra
    before = abacus(la, t, m).counts
    after = abacus(la, t, m + t).counts
    assert after == tuple(x + 1 for x in before)


def test_classify_core_values():
    cls = classify_core((4, 2, 2, 1), 2, 2)
    assert cls == CoreClass((-1, 1))
    assert cls.core == (2, 1) and cls.self_conjugate and cls.rank == 1
    assert not (cls.empty or cls.symplectic or cls.orthogonal)
    assert cls.single_row is None
    cls = classify_core((3, 2, 1, 1, 1), 3, 2)
    assert cls == CoreClass((1, -1, 0))
    assert cls.core == (1, 1) and cls.symplectic and cls.rank == 1
    assert not (cls.empty or cls.orthogonal or cls.self_conjugate)
    assert cls.single_row is None


def test_classify_core_single_row():
    assert classify_core((2, 2), 2, 1).single_row == 0
    assert classify_core((2, 2), 2, 1).empty
    assert classify_core((1,), 2, 1).single_row == 1
    assert classify_core((3, 2, 1), 2, 2).single_row is None
    every = classify_core((), 3, 1)
    assert every.empty and every.symplectic and every.orthogonal
    assert every.self_conjugate and every.single_row == 0 and every.rank == 0


def test_classify_core_rejects_long_partitions():
    with pytest.raises(ValueError):
        classify_core((1,) * 5, 3, 1)


def test_partner_values():
    assert partners(5, None) == (0, 1, 2, 3, 4)
    assert partners(5, 1) == (3, 2, 1, 0, 4)
    assert partners(5, -1) == (0, 4, 3, 2, 1)
    assert partners(5, 0) == (4, 3, 2, 1, 0)
    # a partner t-1-z-i outside 0..t-1 leaves class i paired with itself
    assert partners(5, 2) == (2, 1, 0, 3, 4)
    assert partners(5, -2) == (0, 1, 4, 3, 2)
    assert partners(5, 4) == partners(5, -4) == (0, 1, 2, 3, 4)


@pytest.mark.parametrize("t", range(2, 8))
def test_core_class_z_asymmetry_matches_frobenius(t):
    for la in partitions_up_to(16):
        if is_t_core(la, t):
            cls = CoreClass(abacus(la, t, max(1, len(la))).offsets)
            for z in range(-6, 9):
                assert cls.z_asymmetric(z) == is_z_asymmetric(la, z), (la, z)


def _bead_removal_oracle(core, t, z, ones):
    """Whether some `ones` beads of the core's beta set at padding tn + ones
    can be removed to leave the residue counts z-paired: n + c_i beads in
    class i with c_i + c_(t-1-z-i) = 0, or c_i = 0 for a class paired with
    itself (every class when z is None).  n leaves every class beads."""
    n = len(core) + 2
    beta = beta_set(core, t * n + ones)
    mate = [i if z is None or not 0 <= t - 1 - z - i < t else t - 1 - z - i for i in range(t)]
    for removed in combinations(beta, ones):
        c = [-n] * t
        for x in set(beta) - set(removed):
            c[x % t] += 1
        if all(c[i] + c[mate[i]] == 0 for i in range(t)):
            return True
    return False


@pytest.mark.parametrize("t", range(2, 8))
def test_z_pairing_rule_matches_bead_removal(t):
    cores = {t_core_strips(la, t) for la in partitions_up_to(13)}
    live = set()
    for core in cores:
        cls = CoreClass(abacus(core, t, max(1, len(core))).offsets)
        for z in [None, *range(-t - 1, t + 2)]:
            for ones in (0, 1):
                want = _bead_removal_oracle(core, t, z, ones)
                assert cls.z_asymmetric(z, ones) == want, (core, z, ones)
                live.add((ones, want))
        assert cls.empty == (core == ())
        row = cls.single_row
        assert (row is not None) == (len(core) <= 1)
        assert row is None or core == ((row,) if row else ())
    assert live == {(0, True), (0, False), (1, True), (1, False)}


@pytest.mark.parametrize("th", list(TheoremId), ids=[th.value for th in TheoremId])
def test_predict_reads_each_verdict_through_one_rule(th, monkeypatch):
    calls = []
    real = CoreClass.z_asymmetric

    def counted(self, z, ones=0, pairing=None):
        calls.append((z, ones))
        assert pairing in (None, partners(len(self.offsets), z))
        return real(self, z, ones, pairing)

    def refused(self):
        raise AssertionError("a prediction reads single_row or empty")

    monkeypatch.setattr(CoreClass, "z_asymmetric", counted)
    monkeypatch.setattr(CoreClass, "single_row", property(refused))
    monkeypatch.setattr(CoreClass, "empty", property(refused))
    verdicts = set()
    for t in range(2, 6):
        for n in (1, 2):
            for la in partitions_up_to(6, max_length=length_bound(th, t, n)):
                calls.clear()
                factorization._derive.cache_clear()
                verdicts.add(predict(th, la, t, n).vanishing)
                assert calls == [(th.z, th.ones)], (la, t, n)
                # A larger n moves the one verdict, and reads no rule.
                predict(th, la, t, n + 1)
                assert calls == [(th.z, th.ones)], (la, t, n)
    assert verdicts == {True, False}


@given(P, st.integers(2, 4), st.integers(1, 3))
def test_classify_core_ignores_padding_choice(la, t, n):
    n = max(n, ceil_div(len(la), t))
    assert classify_core(la, t, n) == classify_core(la, t, n + 1)


@given(P, st.integers(2, 7), st.integers(0, 8))
def test_abacus_offsets_are_the_core_at_any_padding(la, t, extra):
    base = abacus(la, t, max(1, len(la))).offsets
    assert abacus(la, t, max(1, len(la)) + extra).offsets == base
    assert sum(base) == 0
    assert core_from_offsets(base) == t_core_strips(la, t)


def _padded_core(offsets):
    # Every runner filled from position 0 at padding t * (-min offsets):
    # at least t beads for any core other than the empty one.
    t, n = len(offsets), -min(offsets)
    beads = (t * j + i for i, o in enumerate(offsets) for j in range(n + o))
    return from_beta_set(sorted(beads, reverse=True))


@pytest.mark.parametrize("t", range(2, 9))
def test_core_from_offsets_matches_the_padded_construction(t):
    for la in partitions_up_to(13):
        offsets = abacus(la, t, max(1, len(la))).offsets
        assert core_from_offsets(offsets) == _padded_core(offsets) == t_core_strips(la, t), la


@pytest.mark.parametrize("t", range(2, 10))
def test_core_size_matches_the_built_core_and_the_gks_form(t):
    # Garvan-Kim-Stanton: the t-core with offsets o (sum 0) has
    # sum_i (t/2) o_i^2 + i o_i cells.
    rng = random.Random(t)
    seen = 0
    while seen < 300:
        offsets = [rng.randint(-4, 4) for _ in range(t - 1)]
        offsets.append(-sum(offsets))
        if abs(offsets[-1]) > 4:
            continue
        seen += 1
        gks = t * sum(o * o for o in offsets) + 2 * sum(i * o for i, o in enumerate(offsets))
        assert 2 * core_size(tuple(offsets)) == 2 * size(core_from_offsets(tuple(offsets))) == gks
    assert core_size((0,) * t) == 0


def test_core_from_offsets_builds_only_the_rows_of_the_core(monkeypatch):
    lengths = []

    def measured(b):
        b = tuple(b)
        lengths.append(len(b))
        return from_beta_set(b)

    monkeypatch.setattr(partitions, "from_beta_set", measured)
    cores = enum_z_cores(0, 20000, 10)
    assert len(lengths) == len(cores) == 13
    assert sorted(lengths) == sorted(len(la) for la in cores)
    assert max(lengths) <= 10


def test_empty_partition_sign_closed_form():
    for t in range(2, 6):
        for n in range(1, 4):
            exp = (t * (t - 1) // 2) * (n * (n + 1) // 2)
            assert abacus((), t, t * n).block_sign() == (-1 if exp % 2 else 1)


def test_sign_values():
    # The abacus is the beta set on runners; signs are computed on request.
    assert Abacus._fields == ("beta", "runners")
    assert abacus((3, 2, 1, 1, 1), 3, 6).block_sign() == -1
    assert abacus((2, 2), 2, 3).block_sign(0) == -1
    with pytest.raises(ValueError):
        abacus((1,) * 7, 3, 6)


@given(P, st.integers(2, 7), st.integers(0, 8))
def test_signs_match_quadratic_oracle(la, t, extra):
    m = len(la) + extra
    ab = abacus(la, t, m)
    assert ab.beta == beta_set(la, m)
    assert ab.block_sign() == block_sign_oracle(la, t, m, range(t))
    for c in range(t):
        order = [c] + [i for i in range(t) if i != c]
        assert ab.block_sign(c) == block_sign_oracle(la, t, m, order), c


@pytest.mark.parametrize("t", [100, 173, 300])
def test_block_sign_at_large_t_matches_quadratic_oracle(t):
    # Beads land on a few of many runners, and first ranges over all t
    # classes, empty runners included.
    wide = [(2 * t + 3, t, 7, 1, 1), (3 * t, 2 * t + 1, t + 1, t - 1)]
    for la, m in [((5, 3, 3, 1), 6), (wide[0], 5), (wide[0], 9), (wide[1], 4), (wide[1], 7)]:
        ab = abacus(la, t, m)
        assert ab.block_sign() == block_sign_oracle(la, t, m, range(t))
        for c in range(t):
            order = [c] + [i for i in range(t) if i != c]
            assert ab.block_sign(c) == block_sign_oracle(la, t, m, order), (la, c)


def test_only_a_prediction_reads_the_block_sign(monkeypatch, capsys):
    calls = []
    real = Abacus.block_sign

    def counted(self, first=None):
        calls.append(first)
        return real(self, first)

    monkeypatch.setattr(Abacus, "block_sign", counted)
    for t in range(2, 5):
        for la in partitions_up_to(6):
            t_core(la, t)
            classify_core(la, t, ceil_div(len(la), t) or 1)
    for z, t in [(1, 3), (-1, 3), (0, 4)]:
        for la in enum_z_cores(z, t, 20):
            phi(la, z, t)
    assert main(["classify", "3,2,1,1,1", "--t", "3", "--n", "2", "--json"]) == 0
    assert main(["classify", "3,2,1,1,1", "--t", "3", "--n", "2"]) == 0
    capsys.readouterr()
    assert calls == []
    # The spy sees the calls of a prediction.
    factorization._derive.cache_clear()
    predict(TheoremId.SCHUR_ONE, (), 3, 1)
    predict(TheoremId.SCHUR_FAC, (), 3, 1)
    assert calls == [0, None]
    # A larger n moves the derived sign and reads no block sign.
    predict(TheoremId.SCHUR_ONE, (), 3, 2)
    predict(TheoremId.SCHUR_FAC, (), 3, 2)
    assert calls == [0, None]


def test_class_pairs_are_the_ordered_pairs_of_partners():
    for t in range(2, 13):
        for z in range(-t - 2, t + 3):
            want = [(i, j) for i, j in enumerate(partners(t, z)) if i < j]
            assert list(class_pairs(t, z)) == want, (t, z)
            assert [j - i for i, j in want] == sorted((j - i for i, j in want), reverse=True)


def test_mu_padded_values():
    assert mu_padded((1,), (), 2) == (1,)
    assert mu_padded((), (), 3) == ()
    assert mu_padded((2, 1), (1, 1), 2) == (3, 2)
    assert mu_padded((), (2, 1), 2) == (2, 2, 1)
    with pytest.raises(ValueError):
        mu_padded((1, 1, 1), (1, 1), 2)


@given(partitions_strategy(6, 5), partitions_strategy(6, 5), st.integers(1, 5))
def test_mu_padded_weight(front, back, n):
    if len(front) + len(back) > 2 * n:
        return
    mu = mu_padded(front, back, n)
    first = back[0] if back else 0
    assert sum(mu) == 2 * n * first + sum(front) - sum(back)
    assert len(mu) <= 2 * n


def test_partition_generation_order():
    assert list(partitions_of(4)) == [
        (4,),
        (3, 1),
        (2, 2),
        (2, 1, 1),
        (1, 1, 1, 1),
    ]
    assert list(partitions_of(5, max_length=2)) == [(5,), (4, 1), (3, 2)]
    assert list(partitions_of(0)) == [()]
    assert list(partitions_of(-1)) == []
    assert list(partitions_up_to(3)) == [
        (),
        (1,),
        (2,),
        (1, 1),
        (3,),
        (2, 1),
        (1, 1, 1),
    ]


def test_partition_counts_match_sympy():
    from sympy.functions.combinatorial.numbers import partition

    for m in range(1, 26):
        assert sum(1 for _ in partitions_of(m)) == partition(m)
