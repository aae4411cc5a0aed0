"""End-to-end acceptance sweep.

One test per published criterion.  Every comparison is exact (Fractions
or cyclotomic vectors, never floats), so the tolerance everywhere is
zero.  Each test prints a single PASS line with its case count.
"""

import random
import time
from fractions import Fraction

from helpers import (
    bialternant,
    check_asymmetric_core_counts,
    check_asymmetry_beta_forms,
    check_block_det_lemma,
    check_classification_flags,
    check_complement_conjugate,
    check_complement_conjugate_converse,
    check_conjugate_residue_counts,
    check_core_quotient_size,
    check_core_residue_counts,
    check_quotient_beta_relation,
    check_quotient_criterion,
    check_rank_formulas,
    check_small_modulus_trivial,
    t_core_strips,
)
from twistchar.characters import GroupType, weyl_character
from twistchar.cyclotomic import field
from twistchar.factorization import (
    TheoremId,
    lhs_value,
    sample_points,
    verify,
)
from twistchar.linalg import det
from twistchar.partitions import (
    beta_set,
    is_z_asymmetric,
    partitions_of,
    partitions_up_to,
    size,
    t_core,
)
from twistchar.series import (
    enum_z_asymmetric,
    enum_z_cores,
    gf_z_asymmetric,
    gf_z_cores,
    phi,
    phi_inverse,
)


def row(k):
    return (k,) if k else ()


def test_criterion_01_gl_factorization_sweep():
    start = time.monotonic()
    cases = 0
    for t in (2, 3):
        for n in (1, 2):
            for la in partitions_up_to(10, max_length=t * n):
                vanish = t_core_strips(la, t) != ()
                firsts = []
                for seed in range(6):
                    rep = verify(TheoremId.SCHUR_FAC, la, t, n, seed=seed)
                    assert rep.match, (la, t, n, seed)
                    assert rep.predicted_vanishing == vanish
                    firsts.append(rep.lhs)
                if vanish:
                    assert all(not v for v in firsts), (la, t, n)
                else:
                    assert all(v for v in firsts), (la, t, n)
                cases += 1
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    print(f"criterion 1: PASS  {cases} partitions x 6 seeds, {elapsed:.1f}s")


def _gl2(p, q, x2, one):
    return weyl_character(GroupType.GL, tuple(v for v in (p, q) if v), (x2, one))


def _gl1(k, x2):
    return weyl_character(GroupType.GL, row(k), (x2,))


def _augmented_two_variable_form(a, b, c, x2, one):
    pa, pb, pc = a % 2, b % 2, c % 2
    if (pa, pb, pc) == (0, 1, 1):
        return -_gl2(a // 2, (b + 1) // 2, x2, one) * _gl1((c - 1) // 2, x2)
    if (pa, pb, pc) == (0, 0, 0):
        return _gl2(a // 2, c // 2, x2, one) * _gl1(b // 2, x2)
    if (pa, pb, pc) == (1, 1, 0):
        return -_gl2((b - 1) // 2, c // 2, x2, one) * _gl1((a + 1) // 2, x2)
    if (pa, pb, pc) == (1, 0, 0):
        return _gl2((a - 1) // 2, b // 2, x2, one) * _gl1(c // 2, x2)
    if (pa, pb, pc) == (1, 1, 1):
        return -_gl2((a - 1) // 2, (c - 1) // 2, x2, one) * _gl1((b + 1) // 2, x2)
    if (pa, pb, pc) == (0, 0, 1):
        return _gl2((b - 2) // 2, (c - 1) // 2, x2, one) * _gl1((a + 2) // 2, x2)
    # mixed parities (odd, even, odd) and (even, odd, even) vanish
    return Fraction(0)


def test_criterion_02_augmented_gl_sweep_and_closed_forms():
    cases = 0
    for t in (2, 3):
        n = 1
        for la in partitions_up_to(10, max_length=t * n + 1):
            vanish = len(t_core_strips(la, t)) > 1
            for seed in (1, 2):
                rep = verify(TheoremId.SCHUR_ONE, la, t, n, seed=seed)
                assert rep.match, (la, t, seed)
                # Survives exactly when the core is one row (c), c = 0 if empty.
                assert rep.predicted_vanishing == vanish
            cases += 1
    closed = 0
    for x in (Fraction(5, 2), Fraction(7, 3), Fraction(9, 4)):
        x2 = x ** 2
        one = Fraction(1)
        for a in range(6):
            for b in range(a + 1):
                for c in range(b + 1):
                    la = tuple(p for p in (a, b, c) if p)
                    got = lhs_value(TheoremId.SCHUR_ONE, la, 2, 1, (x,))
                    assert got == _augmented_two_variable_form(a, b, c, x2, one), (
                        a, b, c,
                    )
                    closed += 1
    print(f"criterion 2: PASS  {cases} sweep cases + {closed} closed-form values")


def test_criterion_03_symplectic_sweep_and_product_example():
    cases = 0
    for t in (2, 3, 4):
        for n in (1, 2):
            if t * n > 8:
                continue
            for la in partitions_up_to(10, max_length=t * n):
                rep = verify(TheoremId.SYMPLECTIC, la, t, n, seed=0)
                assert rep.match, (la, t, n)
                core = t_core_strips(la, t)
                assert rep.predicted_vanishing == (not is_z_asymmetric(core, 1))
                cases += 1
    la = (3, 2, 1, 1, 1)
    for seed in range(3):
        pts = sample_points(2, seed)
        a, b = pts
        base = (
            (a + b)
            * (a * b + 1)
            * (a * a - a * b + b * b)
            * (a * a * b * b - a * b + 1)
        )
        want = (base / (a ** 3 * b ** 3)) ** 2
        got = lhs_value(TheoremId.SYMPLECTIC, la, 3, 2, pts)
        assert got == want, seed
    print(f"criterion 3: PASS  {cases} sweep cases + squared product at 3 point pairs")


def test_criterion_04_orthogonal_sweeps_and_two_part_forms():
    cases = 0
    for th in (TheoremId.EVEN_ORTH, TheoremId.ODD_ORTH):
        for t in (2, 3, 4):
            for n in (1, 2):
                if t * n > 8:
                    continue
                for la in partitions_up_to(10, max_length=t * n):
                    rep = verify(th, la, t, n, seed=0)
                    assert rep.match, (th, la, t, n)
                    z = -1 if th is TheoremId.EVEN_ORTH else 0
                    core = t_core_strips(la, t)
                    assert rep.predicted_vanishing == (not is_z_asymmetric(core, z))
                    cases += 1
    closed = 0
    for x in (Fraction(5, 2), Fraction(7, 3), Fraction(11, 4)):
        x2 = x ** 2
        for a in range(6):
            for b in range(a + 1):
                la = tuple(p for p in (a, b) if p)
                got = lhs_value(TheoremId.EVEN_ORTH, la, 2, 1, (x,))
                if a % 2 == 1 and b % 2 == 1:
                    want = weyl_character(
                        GroupType.OO, row((b - 1) // 2), (-x2,)
                    ) * weyl_character(GroupType.OE, row((a + 1) // 2), (x2,))
                    if ((b + 1) // 2) % 2:
                        want = -want
                elif a % 2 == 0 and b % 2 == 0:
                    want = weyl_character(
                        GroupType.OO, row(a // 2), (-x2,)
                    ) * weyl_character(GroupType.OE, row(b // 2), (x2,))
                    if (a // 2) % 2:
                        want = -want
                else:
                    want = Fraction(0)
                assert got == want, ("even", a, b)
                got = lhs_value(TheoremId.ODD_ORTH, la, 2, 1, (x,))
                if (a - b) % 2 == 0:
                    want = weyl_character(
                        GroupType.GL, row((a + b) // 2), (x2, 1 / x2)
                    )
                    if a % 2:
                        want = -want
                    assert got == want, ("odd", a, b)
                else:
                    # mixed parity never vanishes; the machinery still matches
                    assert got, ("odd", a, b)
                    assert verify(TheoremId.ODD_ORTH, la, 2, 1, seed=2).match
                closed += 1
    print(f"criterion 4: PASS  {cases} sweep cases + {closed} two-part closed forms")


def test_criterion_05_core_routes_and_sizes():
    assert check_core_quotient_size(14, ts=(2, 3, 4, 5)) == []
    assert t_core((4, 2, 2, 1), 2) == (2, 1)
    assert t_core((3, 2, 1, 1, 1), 3) == (1, 1)
    print("criterion 5: PASS  both core routes and the size identity to |la| = 14")


def test_criterion_06_series_and_lattice_bijection():
    for z in (-1, 0, 1, 2):
        assert enum_z_asymmetric(z, 30) == gf_z_asymmetric(z, 30), z
    for z in (0, 1):
        for t in (3, 4, 5, 6):
            brute = [0] * 31
            for m in range(31):
                for la in partitions_of(m):
                    if is_z_asymmetric(la, z) and t_core(la, t) == la:
                        brute[m] += 1
            assert tuple(brute) == gf_z_cores(z, t, 30).coeffs, (z, t)
    pairs = [(z, t) for t in (3, 4, 5, 6) for z in range(0, t - 1)]
    for z, t in pairs:
        for la in enum_z_cores(z, t, 30):
            assert phi_inverse(phi(la, z, t), z, t) == la
        d = (t - z) // 2
        vecs = [()]
        for _ in range(d):
            vecs = [v + (c,) for v in vecs for c in (-2, -1, 0, 1, 2)]
        slopes = [t - z - 1 - 2 * i for i in range(d)]
        for v in vecs:
            la = phi_inverse(v, z, t)
            assert phi(la, z, t) == v
            assert is_z_asymmetric(la, z) and t_core(la, t) == la
            assert size(la) == sum(t * x * x - s * x for x, s in zip(v, slopes))
    assert [m for m, c in enumerate(gf_z_cores(1, 3, 20).coeffs) if c] == [0, 2, 4, 10, 14]
    assert [m for m, c in enumerate(gf_z_cores(0, 3, 20).coeffs) if c] == [0, 1, 5, 8, 16]
    print("criterion 6: PASS  products, brute-force counts, and bijection to order 30")


def test_criterion_07_families_of_matching_cores():
    for t in (3, 4, 5):
        sym = enum_z_cores(1, t, 200)
        orth = enum_z_cores(-1, t, 200)
        assert len(set(sym)) == len(sym) >= 10, t
        assert len(set(orth)) == len(orth) >= 10, t
        for la in sym:
            assert is_z_asymmetric(la, 1) and t_core(la, t) == la
        for la in orth:
            assert is_z_asymmetric(la, -1) and t_core(la, t) == la
    assert enum_z_cores(1, 2, 200) == [()]
    assert enum_z_cores(-1, 2, 200) == [()]
    print("criterion 7: PASS  10+ symplectic and 10+ orthogonal cores for t in 3..5")


def test_criterion_08_block_determinant_randomized():
    rng = random.Random(314159)
    cases = 0
    while cases < 200:
        k = rng.randint(1, 4)
        n = rng.randint(1, 3)
        kind = cases % 3
        if kind == 0:
            dims = [n] * k
        elif kind == 1:
            # mirror-paired dims, the nonvanishing branch
            dims = [0] * k
            for p in range(k // 2):
                u = rng.randint(1, 2 * n - 1) if n > 1 else 1
                dims[p] = u
                dims[k - 1 - p] = 2 * n - u
            if k % 2:
                dims[k // 2] = n
        else:
            # arbitrary composition of k*n
            total, dims = k * n, []
            for i in range(k - 1):
                u = rng.randint(1, total - (k - 1 - i))
                dims.append(u)
                total -= u
            dims.append(total)
        assert check_block_det_lemma(k, n, dims, seed=rng.randrange(10 ** 6)), (
            k, n, dims,
        )
        cases += 1
    print("criterion 8: PASS  200 randomized block determinant instances")


def test_criterion_09_beta_set_lemma_sweep():
    assert check_complement_conjugate(12) == []
    assert check_complement_conjugate_converse(9) == []
    assert check_core_residue_counts(12) == []
    assert check_conjugate_residue_counts(12) == []
    assert check_asymmetry_beta_forms(12) == []
    assert check_small_modulus_trivial(20) == []
    assert check_asymmetric_core_counts(12) == []
    assert check_classification_flags(12) == []
    assert check_rank_formulas(12) == []
    assert check_quotient_beta_relation(12) == []
    bad, instances = check_quotient_criterion(16)
    assert bad == [] and instances == 200
    print(f"criterion 9: PASS  exhaustive identities, {instances} quotient-criterion instances")


def test_criterion_10_denominator_products():
    rng = random.Random(2718)

    def draw(n):
        vals = set()
        while len(vals) < n:
            v = Fraction(rng.randint(3, 60), rng.randint(1, 2))
            if v > 1:
                vals.add(v)
        return sorted(vals)

    checked = 0
    for n in (1, 2, 3):
        exps = beta_set((), n)
        for _ in range(5):
            xs = draw(n)
            cross = Fraction(1)
            vander = Fraction(1)
            for i in range(n):
                for j in range(i + 1, n):
                    cross *= xs[i] + 1 / xs[i] - xs[j] - 1 / xs[j]
                    vander *= xs[i] - xs[j]
            assert det([[x ** e for e in exps] for x in xs]) == vander
            w = Fraction(1)
            for x in xs:
                w *= x - 1 / x
            assert (
                det([[x ** (e + 1) - (1 / x) ** (e + 1) for e in exps] for x in xs])
                == w * cross
            )
            w = Fraction(1)
            for x in xs:
                w *= x - 1
            assert (
                det([[x ** (e + 1) - (1 / x) ** e for e in exps] for x in xs])
                == w * cross
            )
            assert (
                det([[x ** e + (1 / x) ** e for e in exps] for x in xs]) == 2 * cross
            )
            checked += 4
    # halving the variables: the doubled-exponent ratio collapses onto the
    # odd-orthogonal character at negated squares
    fld = field(2)
    for n in (1, 2, 3):
        exps = beta_set((), n)
        las = [la for la in partitions_up_to(4) if len(la) <= n]
        for _ in range(5):
            ys = draw(n)
            den = det([[y ** (2 * e) + (1 / y) ** (2 * e) for e in exps] for y in ys])
            w = Fraction(1)
            for y in ys:
                w *= y + 1 / y
            pts = tuple(fld.from_rational(-y * y) for y in ys)
            for la in las:
                bt = beta_set(la, n)
                num = det(
                    [[y ** (2 * e + 1) + (1 / y) ** (2 * e + 1) for e in bt] for y in ys]
                )
                lhs = 2 * num / den
                rhs = bialternant(GroupType.OO, la, pts)
                sign = -1 if size(la) % 2 else 1
                assert fld.from_rational(lhs) == fld.from_rational(sign * w) * rhs, (
                    la, ys,
                )
                checked += 1
    print(f"criterion 10: PASS  {checked} exact product evaluations")
