"""Shared oracles and exhaustive checkers for the test suite.

The oracles are deliberately naive (permutation expansion, tableau
enumeration, quadratic inversion counts) so they cannot share a bug with
the implementations under test.  The ``check_*`` functions scan all
partitions below a size bound and return a list of counterexamples; unit
tests call them at small bounds and the acceptance sweep calls them at
the published bounds.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations

from hypothesis import strategies as st

from twistchar.cyclotomic import field
from twistchar.partitions import (
    abacus,
    beta_set,
    classify_core,
    conjugate,
    frobenius,
    is_z_asymmetric,
    partitions_up_to,
    rank,
    t_core,
    t_core_strips,
)
from twistchar.series import SeriesZ


def partitions_strategy(max_part: int = 9, max_len: int = 7):
    return st.lists(st.integers(1, max_part), max_size=max_len).map(
        lambda xs: tuple(sorted(xs, reverse=True))
    )


def ceil_div(a: int, b: int) -> int:
    return -(-a // b)


# --------------------------------------------------------------- oracles


def det_perm(rows):
    """Determinant by signed permutation expansion; fine through 5x5."""
    n = len(rows)
    total = None
    for perm in permutations(range(n)):
        inv = sum(
            1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j]
        )
        term = rows[0][perm[0]]
        for i in range(1, n):
            term = term * rows[i][perm[i]]
        if inv % 2:
            term = -term
        total = term if total is None else total + term
    return total


def iter_ssyt(la, n: int):
    """Yield row-reading words of all semistandard fillings with entries
    in 1..n."""
    cells = [(i, j) for i, row in enumerate(la) for j in range(row)]
    filling: dict[tuple[int, int], int] = {}

    def rec(k: int):
        if k == len(cells):
            yield tuple(filling[c] for c in cells)
            return
        i, j = cells[k]
        lo = 1
        if j > 0:
            lo = max(lo, filling[(i, j - 1)])
        if i > 0:
            lo = max(lo, filling[(i - 1, j)] + 1)
        for v in range(lo, n + 1):
            filling[(i, j)] = v
            yield from rec(k + 1)
            del filling[(i, j)]

    yield from rec(0)


def schur_ssyt(la, pts):
    """Schur polynomial by summing over tableaux, for any exact scalars."""
    one = pts[0] / pts[0]
    total = one - one
    for word in iter_ssyt(la, len(pts)):
        term = one
        for v in word:
            term = term * pts[v - 1]
        total = total + term
    return total


def embed(vals, t: int):
    """Rational values embedded into Q(w_t)."""
    fld = field(t)
    return tuple(fld.from_rational(Fraction(v)) for v in vals)


def inversions_quadratic(seq) -> int:
    return sum(
        1
        for i in range(len(seq))
        for j in range(i + 1, len(seq))
        if seq[i] > seq[j]
    )


def block_sign_oracle(la, t: int, m: int, class_order) -> int:
    """Sign of the permutation that sorts beta positions into residue
    blocks, with inversions counted the slow quadratic way."""
    b = beta_set(la, m)
    one_line = []
    for q in class_order:
        one_line.extend(i + 1 for i, x in enumerate(b) if x % t == q)
    return -1 if inversions_quadratic(one_line) % 2 else 1


def times_one_minus_power(s: SeriesZ, e: int) -> SeriesZ:
    """Multiply by (1 - q^e), truncated at the current order."""
    if e <= 0:
        raise ValueError(f"exponent must be positive, got {e}")
    row = list(s.coeffs)
    for m in range(s.order, e - 1, -1):
        row[m] -= row[m - e]
    return SeriesZ(tuple(row))


def qpoch_plus(first: int, step: int, order: int) -> SeriesZ:
    """prod_{k>=0} (1 + q^(first + k*step)), truncated."""
    out = SeriesZ.one(order)
    e = first
    while e <= order:
        out = out.times_one_plus_power(e)
        e += step
    return out


def qpoch_minus(first: int, step: int, order: int) -> SeriesZ:
    """prod_{k>=0} (1 - q^(first + k*step)), truncated."""
    out = SeriesZ.one(order)
    e = first
    while e <= order:
        out = times_one_minus_power(out, e)
        e += step
    return out


# ------------------------------------------------ beta-set lemma engines


def check_complement_conjugate(max_size: int) -> list:
    """beta(la, m1) and the reflected complement of beta(la', m2) tile the
    interval {0, ..., m1+m2-1}."""
    bad = []
    for la in partitions_up_to(max_size):
        mu = conjugate(la)
        width = la[0] if la else 0
        for s1 in (0, 1, 2):
            for s2 in (0, 1, 2):
                m1, m2 = len(la) + s1, width + s2
                left = set(beta_set(la, m1))
                right = {m1 + m2 - 1 - x for x in beta_set(mu, m2)}
                if left & right or left | right != set(range(m1 + m2)):
                    bad.append((la, m1, m2))
    return bad


def check_complement_conjugate_converse(max_size: int) -> list:
    """The tiling property holds for no partition other than the
    conjugate.  Quadratic in the number of partitions, keep bounds low."""
    bad = []
    las = list(partitions_up_to(max_size))
    for la in las:
        m1 = max(1, len(la))
        for mu in las:
            m2 = max(1, len(mu), la[0] if la else 0)
            left = set(beta_set(la, m1))
            right = {m1 + m2 - 1 - x for x in beta_set(mu, m2)}
            holds = not (left & right) and left | right == set(range(m1 + m2))
            if holds != (mu == conjugate(la)):
                bad.append((la, mu))
    return bad


def check_core_residue_counts(max_size: int, ts=(2, 3, 4, 5)) -> list:
    """A partition and its t-core have identical residue counts at every
    common padding."""
    bad = []
    for la in partitions_up_to(max_size):
        for t in ts:
            core = t_core(la, t)
            base = max(1, len(la))
            for m in (base, base + 1, base + t):
                if (
                    abacus(la, t, m).counts
                    != abacus(core, t, m).counts
                ):
                    bad.append((la, t, m))
    return bad


def check_conjugate_residue_counts(max_size: int, ts=(2, 3, 4, 5)) -> list:
    """n_i(la) + n_{t-1-i}(la') adds up to the two padding multipliers,
    and on t-cores that relation characterizes conjugate pairs."""
    bad = []
    las = list(partitions_up_to(max_size))
    for t in ts:
        for la in las:
            mu = conjugate(la)
            a = ceil_div(max(1, len(la)), t)
            b = ceil_div(max(1, len(mu)), t)
            for da in (0, 1):
                for db in (0, 1):
                    ca = abacus(la, t, t * (a + da)).counts
                    cb = abacus(mu, t, t * (b + db)).counts
                    tot = a + da + b + db
                    if any(
                        ca[i] + cb[t - 1 - i] != tot for i in range(t)
                    ):
                        bad.append(("forward", la, t, a + da, b + db))
        cores = [la for la in las if t_core(la, t) == la]
        for la in cores:
            a = ceil_div(max(1, len(la)), t)
            ca = abacus(la, t, t * a).counts
            for mu in cores:
                b = ceil_div(max(1, len(mu)), t)
                cb = abacus(mu, t, t * b).counts
                holds = all(
                    ca[i] + cb[t - 1 - i] == a + b for i in range(t)
                )
                if holds != (mu == conjugate(la)):
                    bad.append(("converse", la, mu, t))
    return bad


def pred_beta_pairing(la, z: int, m: int) -> bool:
    """Membership form of z-asymmetry on beta(la, m): mirror pairing
    below the gap, plus the full gap [m-z, m-1] present."""
    b = set(beta_set(la, m))
    for xi in range(0, min(m - z - 1, m - 1) + 1):
        if (xi in b) != (2 * m - z - 1 - xi not in b):
            return False
    return all(xi in b for xi in range(max(0, m - z), m))


def pred_beta_deletion(la, z: int, m: int) -> bool:
    """Deletion form: beta(la, m) arises from (alpha_i + m, m-1, ..., 0)
    by removing the values m-z-1-alpha_i that land inside [0, m-1]."""
    fc = frobenius(la)
    seq = [a + m for a in fc.alpha] + list(range(m - 1, -1, -1))
    dels = {
        m - z - 1 - a for a in fc.alpha if 0 <= m - z - 1 - a <= m - 1
    }
    want = sorted((x for x in seq if x not in dels), reverse=True)
    return want == list(beta_set(la, m))


def check_asymmetry_beta_forms(max_size: int, zs=(-1, 0, 1, 2)) -> list:
    """The hook definition of z-asymmetry agrees with both beta-set
    reformulations at every valid padding."""
    bad = []
    for z in zs:
        for la in partitions_up_to(max_size):
            for dm in (0, 1, 2):
                m = max(1, len(la)) + dm
                vals = {
                    is_z_asymmetric(la, z),
                    pred_beta_pairing(la, z, m),
                    pred_beta_deletion(la, z, m),
                }
                if len(vals) != 1:
                    bad.append((la, z, m))
    return bad


def check_small_modulus_trivial(max_size: int) -> list:
    """For 2 <= t <= z+1 the only z-asymmetric t-core is empty."""
    bad = []
    for z in (1, 2, 3):
        for t in range(2, z + 2):
            for la in partitions_up_to(max_size):
                if la and is_z_asymmetric(la, z) and t_core(la, t) == la:
                    bad.append((la, z, t))
    return bad


def check_asymmetric_core_counts(max_size: int, ts=(2, 3, 4, 5)) -> list:
    """On t-cores, z-asymmetry is equivalent to mirrored residue counts
    for every 0 <= z <= t-2."""
    bad = []
    for t in ts:
        for la in partitions_up_to(max_size):
            if t_core(la, t) != la:
                continue
            n = ceil_div(max(1, len(la)), t)
            counts = abacus(la, t, t * n).counts
            for z in range(0, t - 1):
                want = all(
                    counts[i] + counts[t - z - 1 - i] == 2 * n
                    for i in range(t - z)
                ) and all(counts[i] == n for i in range(t - z, t))
                if want != is_z_asymmetric(la, z):
                    bad.append((la, t, z))
    return bad


def check_classification_flags(max_size: int, ts=(2, 3, 4, 5)) -> list:
    """classify_core flags agree with the hook-coordinate definitions
    applied directly to the core, at the minimal padding n and at n + 1.
    The core comes from strip removal, not from residue counts, so it is
    an independent check of classify_core's own core."""
    bad = []
    for la in partitions_up_to(max_size):
        for t in ts:
            core = t_core_strips(la, t)
            n_min = ceil_div(max(1, len(la)), t)
            for n in (n_min, n_min + 1):
                cls = classify_core(la, t, n)
                ok = (
                    cls.core == core
                    and cls.empty == (core == ())
                    and cls.symplectic == is_z_asymmetric(core, 1)
                    and cls.orthogonal == is_z_asymmetric(core, -1)
                    and cls.self_conjugate == (core == conjugate(core))
                    and cls.single_row
                    == (sum(core) if len(core) <= 1 else None)
                    and cls.rank == rank(core)
                )
                if not ok:
                    bad.append((la, t, n))
    return bad


def check_rank_formulas(max_size: int, ts=(2, 3, 4, 5)) -> list:
    """Rank of the t-core from clipped residue counts, plus the folded
    sums available on symmetric cores."""
    bad = []
    for la in partitions_up_to(max_size):
        for t in ts:
            n = ceil_div(max(1, len(la)), t)
            counts = abacus(la, t, t * n).counts
            core = t_core(la, t)
            if rank(core) != sum(max(c - n, 0) for c in counts):
                bad.append(("clipped", la, t))
            if core != la:
                continue
            r = rank(la)
            if is_z_asymmetric(la, 1):
                s1 = sum(
                    abs(counts[i] - n) for i in range(0, (t - 3) // 2 + 1)
                )
                s2 = sum(
                    abs(counts[i] - n) for i in range((t - 1) // 2, t - 1)
                )
                if not (r == s1 == s2):
                    bad.append(("symplectic", la, t))
            if is_z_asymmetric(la, -1):
                s = sum(
                    abs(counts[i] - n) for i in range(1, (t - 1) // 2 + 1)
                )
                if r != s:
                    bad.append(("orthogonal", la, t))
            if la == conjugate(la):
                s = sum(
                    abs(counts[i] - n) for i in range(0, (t - 2) // 2 + 1)
                )
                if r != s:
                    bad.append(("self-conjugate", la, t))
    return bad


def check_quotient_criterion(max_size: int, ts=(2, 3, 4, 5)):
    """If the core and the mirror-paired quotient components line up,
    the whole partition inherits the symmetry type.  Returns the list of
    counterexamples and the number of instances where the hypotheses
    actually held, so callers can assert the sweep was not vacuous."""
    bad = []
    instances = 0
    for la in partitions_up_to(max_size):
        for t in ts:
            n = ceil_div(max(1, len(la)), t)
            quo = abacus(la, t, t * n).quotient
            core = t_core(la, t)
            hyp = (
                is_z_asymmetric(core, -1)
                and is_z_asymmetric(quo[0], -1)
                and all(
                    conjugate(quo[i]) == quo[t - i]
                    for i in range(1, t // 2 + 1)
                )
            )
            if hyp:
                instances += 1
                if not is_z_asymmetric(la, -1):
                    bad.append(("orthogonal", la, t))
            hyp = (
                is_z_asymmetric(core, 1)
                and is_z_asymmetric(quo[t - 1], 1)
                and all(
                    conjugate(quo[j]) == quo[t - 2 - j]
                    for j in range(0, (t - 2) // 2 + 1)
                )
            )
            if hyp:
                instances += 1
                if not is_z_asymmetric(la, 1):
                    bad.append(("symplectic", la, t))
    return bad, instances


def check_quotient_beta_relation(max_size: int, ts=(2, 3, 4, 5)) -> list:
    """Scaling the beta set of a quotient component by t recovers the
    residue-class entries of the original beta set."""
    bad = []
    for la in partitions_up_to(max_size):
        for t in ts:
            n = ceil_div(max(1, len(la)), t)
            b = beta_set(la, t * n)
            quo = abacus(la, t, t * n).quotient
            for p in range(t):
                entries = sorted(
                    (x for x in b if x % t == p), reverse=True
                )
                comp = beta_set(quo[p], len(entries))
                if [t * y + p for y in comp] != entries:
                    bad.append((la, t, p))
    return bad


def check_core_quotient_size(max_size: int, ts=(2, 3, 4, 5)) -> list:
    """The strip-removal route matches the beta-set route, and sizes obey
    |la| = |core| + t * (total quotient size)."""
    bad = []
    for la in partitions_up_to(max_size):
        for t in ts:
            core = t_core(la, t)
            if core != t_core_strips(la, t):
                bad.append(("routes", la, t))
            m = max(1, len(la))
            quo = abacus(la, t, m).quotient
            if sum(la) != sum(core) + t * sum(sum(q) for q in quo):
                bad.append(("size", la, t))
    return bad
