"""Beta sets, cores, quotients, signs, and core classification."""

import random
import re
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from helpers import (
    block_sign_oracle,
    ceil_div,
    conjugate,
    core_size,
    from_frobenius,
    is_core_beads,
    is_t_core,
    is_z_asymmetric,
    lattice_cores,
    partitions_strategy,
    residue_counts,
    t_core_strips,
    z_asymmetric_up_to,
)
from twistchar import factorization, partitions
from twistchar.cli import main
from twistchar.factorization import TheoremId, length_bound, predict
from twistchar.partitions import (
    CoreClass,
    FrobeniusCoords,
    Reading,
    as_partition,
    beta_set,
    class_pairs,
    core_from_offsets,
    frobenius,
    from_beta_set,
    mu_padded,
    partitions_of,
    partitions_up_to,
    partners,
    rank,
    reading,
    size,
    z_asymmetric_arms,
)

P = partitions_strategy()


def test_as_partition_normalizes():
    assert as_partition([3, 2, 0, 0]) == (3, 2)
    assert as_partition(()) == ()
    assert as_partition([5]) == (5,)
    with pytest.raises(ValueError):
        as_partition([2, 3])
    with pytest.raises(ValueError):
        as_partition([2, -1])
    # A part that is not an int is refused by name, not truncated.
    for bad in (2.5, Fraction(5, 2), 2.0):
        with pytest.raises(ValueError, match=re.escape(f"part {bad!r} of ")):
            as_partition([bad, 1])


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


def test_frobenius_reads_no_conjugate():
    # The legs are column lengths, but only the first rank(la) of them are
    # read, so frobenius must not build the conjugate (la_1 entries); the
    # runtime has no conjugate to build it with.
    las = list(partitions_up_to(14))
    zs = range(-3, 4)
    want = {}
    for la in las:
        conj = conjugate(la)
        r = rank(la)
        legs = tuple(conj[j] - (j + 1) for j in range(r))
        want[la] = (FrobeniusCoords(tuple(la[i] - (i + 1) for i in range(r)), legs),
                    [is_z_asymmetric(la, z) for z in zs])

    assert not hasattr(partitions, "conjugate")
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
    assert reading((4, 2, 2, 1), 2).cls.core == (2, 1)
    assert reading((3, 2, 1, 1, 1), 3).cls.core == (1, 1)
    assert reading((), 4).cls.core == ()
    # A trailing zero is read in canonical form.
    assert reading((4, 2, 2, 1, 0), 2).cls.core == (2, 1)
    with pytest.raises(ValueError):
        reading((2, 1), 1)


@pytest.mark.parametrize("t", range(2, 7))
def test_core_tests_agree(t):
    for la in partitions_up_to(14):
        core = reading(la, t).cls.core
        assert is_t_core(la, t) == (core == la) == (t_core_strips(la, t) == la), la
    with pytest.raises(ValueError):
        is_t_core((2, 1), 1)
    # beta((2,1), 2) = {3, 1} is a 2-core's, beta((2,2), 2) = {3, 2} is not.
    assert is_core_beads(0b1010, 2) and not is_core_beads(0b1100, 2)


@given(P, st.integers(2, 5))
def test_core_routes_agree(la, t):
    core = reading(la, t).cls.core
    assert core == t_core_strips(la, t)
    assert reading(core, t).cls.core == core


def _class_quotient(la, t, m):
    # Each class of beta(la, m), divided by t, read as a beta set.
    b = beta_set(la, m)
    return tuple(from_beta_set([x // t for x in b if x % t == i]) for i in range(t))


def test_quotient_values():
    assert reading((4, 2, 2, 1), 2).quotient == ((2,), (1,))
    assert reading((3, 2, 1, 1, 1), 3).quotient == ((), (1,), (1,))
    with pytest.raises(ValueError):
        reading((1, 1), 1)


@given(P, st.integers(2, 5))
def test_core_and_quotient_carry_the_size(la, t):
    quo = reading(la, t).quotient
    assert len(quo) == t
    assert size(la) == size(reading(la, t).cls.core) + t * sum(size(q) for q in quo)


@given(P, st.integers(2, 5), st.integers(0, 3))
def test_quotient_rotates_under_padding_shift(la, t, extra):
    # The reading's quotient is the one at every multiple of t; one more
    # bead, as schur1's point 1 adds, rotates it by one.
    quo = reading(la, t).quotient
    m = t * (reading(la, t).n0 + extra)
    assert _class_quotient(la, t, m) == quo
    assert _class_quotient(la, t, m + 1) == quo[-1:] + quo[:-1]


def test_residue_count_values():
    assert residue_counts((3, 2, 1, 1, 1), 3, 6) == (3, 1, 2)
    assert reading((3, 2, 1, 1, 1), 3)[:2] == (2, CoreClass((1, -1, 0)))
    with pytest.raises(ValueError):
        reading((1,), 1)


@given(P, st.integers(2, 5), st.integers(0, 2))
def test_residue_counts_shift_with_padding(la, t, extra):
    # At padding tn, class i holds n + offsets[i] entries, for every n that
    # la fits.
    n0, cls = reading(la, t)[:2]
    n = n0 + extra
    assert residue_counts(la, t, t * n) == tuple(n + o for o in cls.offsets)


def test_classify_core_values():
    cls = reading((4, 2, 2, 1), 2).cls
    assert cls == CoreClass((-1, 1))
    assert cls.core == (2, 1) and cls.z_asymmetric(0) and cls.rank == 1
    assert not (cls.z_asymmetric(None) or cls.z_asymmetric(1) or cls.z_asymmetric(-1))
    assert not cls.z_asymmetric(None, 1)
    cls = reading((3, 2, 1, 1, 1), 3).cls
    assert cls == CoreClass((1, -1, 0))
    assert cls.core == (1, 1) and cls.z_asymmetric(1) and cls.rank == 1
    assert not (cls.z_asymmetric(None) or cls.z_asymmetric(-1) or cls.z_asymmetric(0))
    assert not cls.z_asymmetric(None, 1)


def test_classify_core_single_row():
    # With a point 1 appended and no pairing, a core of at most one row (c)
    # survives, and the point 1 leaves its one bead above n in class c.
    cls = reading((2, 2), 2).cls
    assert cls.z_asymmetric(None, 1) and cls.excess(1).index(1) == 0
    assert cls.z_asymmetric(None)
    cls = reading((1,), 2).cls
    assert cls.z_asymmetric(None, 1) and cls.excess(1).index(1) == 1
    assert not reading((3, 2, 1), 2).cls.z_asymmetric(None, 1)
    every = reading((), 3).cls
    assert all(every.z_asymmetric(z) for z in (None, 1, -1, 0))
    assert every.z_asymmetric(None, 1) and every.excess(1).index(1) == 0 and every.rank == 0


def test_classify_core_rejects_long_partitions():
    # The appended-one theorem's bound tn + 1 is predict's.
    with pytest.raises(ValueError):
        predict(TheoremId.SCHUR_ONE, (1,) * 5, 3, 1)
    # The bound reads the canonical length, and so does the reading.
    assert reading((1, 1, 1, 0), 2).cls == reading((1, 1, 1), 2).cls
    assert predict(TheoremId.SCHUR_ONE, (1, 1, 1, 0), 2, 1).n == 1


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
            cls = reading(la, t).cls
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
        cls = reading(core, t).cls
        for z in [None, *range(-t - 1, t + 2)]:
            for ones in (0, 1):
                want = _bead_removal_oracle(core, t, z, ones)
                assert cls.z_asymmetric(z, ones) == want, (core, z, ones)
                live.add((ones, want))
        assert cls.z_asymmetric(None) == (core == ())
        assert cls.z_asymmetric(None, 1) == (len(core) <= 1)
        if len(core) <= 1:
            row = cls.excess(1).index(1)
            assert core == ((row,) if row else ())
    assert live == {(0, True), (0, False), (1, True), (1, False)}


@pytest.mark.parametrize("th", list(TheoremId), ids=[th.value for th in TheoremId])
def test_predict_reads_each_verdict_through_one_rule(th, monkeypatch):
    calls = []
    real = CoreClass.z_asymmetric

    def counted(self, z, ones=0):
        calls.append((z, ones))
        return real(self, z, ones)

    monkeypatch.setattr(CoreClass, "z_asymmetric", counted)
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
    # The class read at padding tn is the one read at t(n + 1).
    n = max(n, ceil_div(len(la), t))
    offsets = reading(la, t).cls.offsets
    for m in (n, n + 1):
        assert tuple(c - m for c in residue_counts(la, t, t * m)) == offsets


@given(P, st.integers(2, 7), st.integers(0, 8))
def test_abacus_offsets_are_the_core_at_any_padding(la, t, extra):
    # Raising the padding m to a multiple tn of t gives class i the count
    # n + offsets[i], whatever m is.
    base = reading(la, t).cls.offsets
    m = max(1, len(la)) + extra
    n = ceil_div(m, t)
    counts = residue_counts(la, t, m)
    k = t * n - m
    assert tuple(counts[(i - k) % t] + (i < k) - n for i in range(t)) == base
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
        offsets = reading(la, t).cls.offsets
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
    cores = lattice_cores(0, 20000, 10)
    assert len(lengths) == len(cores) == 13
    assert sorted(lengths) == sorted(len(la) for la in cores)
    assert max(lengths) <= 10


def test_empty_partition_sign_closed_form():
    for t in range(2, 6):
        for n in range(1, 4):
            exp = (t * (t - 1) // 2) * (n * (n + 1) // 2)
            if n == 1:
                assert reading((), t).sign == (-1 if exp % 2 else 1)
            # Carried from n0 = 1 to n.
            assert predict(TheoremId.SCHUR_FAC, (), t, n).sigma == (-1 if exp % 2 else 1)


def test_sign_values():
    # A reading keeps what the rows read, not its runners: they grow with t.
    assert Reading._fields == ("n0", "cls", "quotient", "sign")
    assert reading((3, 2, 1, 1, 1), 3).sign == -1
    with pytest.raises(ValueError):
        reading((1, 2), 3)


@given(P, st.integers(2, 7))
def test_signs_match_quadratic_oracle(la, t):
    n0 = reading(la, t).n0
    assert n0 == max(1, ceil_div(len(la), t))
    assert reading(la, t).sign == block_sign_oracle(la, t, t * n0, range(t))


@pytest.mark.parametrize("t", [100, 173, 300])
def test_block_sign_at_large_t_matches_quadratic_oracle(t):
    # Beads land on a few of many runners, empty runners included.
    wide = [(2 * t + 3, t, 7, 1, 1), (3 * t, 2 * t + 1, t + 1, t - 1)]
    for la in [(5, 3, 3, 1), *wide, (1,) * (t + 1)]:
        m = t * reading(la, t).n0
        assert reading(la, t).sign == block_sign_oracle(la, t, m, range(t)), la
    # schur1's sigma sorts the class c of its point 1 first, at padding
    # tn + 1.  Those partitions vanish there; these live ones have the
    # cores (3), (t - 2) and (), and (3, 1^t) is carried back from n0 = 2.
    # The point 1 leaves class c one entry above n.
    live = [(2 * t + 3, t - 1, t - 2, 2, 1), (2 * t - 1, t - 1), (2 * t, t), (3,) + (1,) * t]
    for la in live:
        n0 = max(1, ceil_div(len(la) - 1, t))
        for n in range(n0, n0 + 3):
            m = t * n + 1
            c = residue_counts(la, t, m).index(n + 1)
            order = [c] + [i for i in range(t) if i != c]
            sigma = predict(TheoremId.SCHUR_ONE, la, t, n).sigma
            assert sigma == block_sign_oracle(la, t, m, order), (la, n)


def test_every_caller_shares_one_reading_per_case(capsys):
    # classify and every theorem row read the same cached reading: one miss
    # per (la, t), whatever the caller and whatever the form of la.
    factorization._derive.cache_clear()
    reading.cache_clear()
    keys = set()
    for t in range(2, 5):
        for la in partitions_up_to(6):
            n = ceil_div(len(la), t) or 1
            for th in TheoremId:
                predict(th, la, t, n)
            predict(TheoremId.SCHUR_ONE, list(la) + [0], t, n)
            keys.add((la, t))
    for z, t in [(1, 3), (-1, 3), (0, 4)]:
        for la in lattice_cores(z, t, 20):
            n = ceil_div(len(la), t) or 1
            argv = ["classify", ",".join(map(str, la)), "--t", str(t), "--n", str(n), "--json"]
            assert main(argv) == 0
            keys.add((la, t))
    assert main(["classify", "3,2,1,1,1", "--t", "3", "--n", "2", "--json"]) == 0
    assert main(["classify", "3,2,1,1,1", "--t", "3", "--n", "2"]) == 0
    capsys.readouterr()
    keys.add(((3, 2, 1, 1, 1), 3))
    info = reading.cache_info()
    assert (info.misses, len(keys)) == (105, 105), info


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
    assert list(partitions_of(0, max_length=0)) == [()]
    assert list(partitions_of(3, max_length=0)) == []
    assert list(partitions_up_to(-1)) == []
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
