"""Shared oracles and exhaustive checkers for the test suite.

The oracles are deliberately naive (permutation expansion, tableau
enumeration, quadratic inversion counts, border-strip removal) so they
cannot share a bug with the implementations under test.  The partition
oracles that no command needs live here too: ``conjugate``, the
Frobenius-coordinate test ``is_z_asymmetric``, ``from_frobenius`` (the
inverse of ``partitions.frobenius``), the built family
``z_asymmetric_up_to`` with its size count ``enum_z_asymmetric``, and the
beta-set closure tests ``is_core_beads`` and ``is_t_core``.
The series oracles are ``count_sizes`` (a size histogram),
``series_product_dense`` (the product over every pair of terms),
``z_core_offsets`` (the lattice walk of ``series.z_core_sizes``, yielding
each core's runner offsets) and ``core_size`` (a core's size read off one
offsets tuple); ``pair_offsets`` and ``lattice_cores`` read that walk as
coordinates and as built cores.
``twisted`` and ``weyl`` are ``characters.twisted_at_pairs`` and
``characters.weyl_character`` at Fraction points, read as their integer
pairs.  ``twisted_full_matrix`` builds the twisted character's matrix
entry by entry, and ``twisted_full_det`` takes its determinant with no
singular-support rule.  The ``check_*``
functions scan all partitions below a size bound and return a list of
counterexamples; unit tests call them at small bounds and the acceptance
sweep calls them at the published bounds.  ``check_block_det_lemma`` is
the exception: it checks one seeded random instance and returns a bool.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from typing import Iterable, Iterator

from hypothesis import strategies as st

from twistchar import characters, series
from twistchar.characters import DegeneratePointError, GroupType
from twistchar.cyclotomic import field, omega_pow
from twistchar.factorization import TheoremId
from twistchar.linalg import det
from twistchar.partitions import (
    Partition,
    beta_set,
    class_pairs,
    core_from_offsets,
    frobenius,
    from_beta_set,
    partitions_up_to,
    rank,
    reading,
    size,
    z_asymmetric_arms,
)


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


def twisted_points(pts: tuple, t: int) -> tuple:
    """The block-ordered tn-tuple (X, wX, ..., w^(t-1) X)."""
    fld = pts[0].field if pts else field(t)
    if fld.t != t:
        raise ValueError(f"points live in Q(w_{fld.t}), expected Q(w_{t})")
    return tuple(omega_pow(fld, k) * x for k in range(t) for x in pts)


def entry_matrix(g: GroupType, pts, betas):
    """The bialternant matrix of `characters`' first table, with entries in
    the points' own scalar type (Fraction or Q(w)) and no row scaling."""
    if g is GroupType.GL:
        return [[x ** b for b in betas] for x in pts]
    # Each point is inverted once per row, not once per entry.
    pairs = [(x, x ** -1) for x in pts]
    if g is GroupType.SP:
        return [[x ** (b + 1) - y ** (b + 1) for b in betas] for x, y in pairs]
    if g is GroupType.OO:
        return [[x ** (b + 1) - y ** b for b in betas] for x, y in pairs]
    # Half of x^0 + xbar^0 = 2: the zero exponent, always in the
    # denominator and in the numerator exactly when l(la) < n, is read as
    # the scalar type's one, so the ratio needs no correction.
    return [[x ** b + y ** b if b else x ** 0 for b in betas] for x, y in pairs]


@lru_cache(maxsize=4096)
def bialternant_denominator(g: GroupType, pts: tuple):
    """The Weyl denominator at the points; every partition of one oracle
    sweep shares it."""
    return det(entry_matrix(g, pts, beta_set((), len(pts))))


def bialternant(g: GroupType, la: Partition, pts: tuple):
    """The character of type g at the points as a ratio of two bialternants
    over the points' own exact scalar type: the oracle of
    `weyl_character` and, at the twisted points in Q(w), of the left side.
    Zero past n parts and `DegeneratePointError` where the denominator
    vanishes, as in `weyl_character`."""
    n = len(pts)
    if len(la) > n:
        return pts[0] - pts[0]
    den = bialternant_denominator(g, pts)
    if not den:
        raise DegeneratePointError(f"{g.value} denominator vanishes at {pts}")
    return det(entry_matrix(g, pts, beta_set(la, n))) / den


def twisted(g: GroupType, la: Partition, xs: tuple, t: int, ones: int = 0) -> Fraction:
    """The twisted character of type g at the Fraction points xs: the
    runtime's `characters.twisted_at_pairs`, which checks nothing, at their
    integer pairs."""
    return characters.twisted_at_pairs(g, la, characters.point_pairs(xs), t, ones)


def weyl(g: GroupType, la: Partition, pts: tuple) -> Fraction:
    """The character of type g at the Fraction points pts: the runtime's
    `characters.weyl_character` at their integer pairs."""
    return characters.weyl_character(g, la, characters.point_pairs(pts))


def twisted_full_matrix(g: GroupType, la: Partition, xs: tuple, t: int, ones: int = 0) -> tuple[list, int]:
    """The integer Jacobi-Trudi / Koike-Terada matrix of `twisted_at_pairs`
    and its denominator d, built entry by entry over `_twisted_h`'s table
    with `ones` points 1 (prefix sums), taken at its own length
    la_1 + l(la), not the trimmed one."""
    gl = g is GroupType.GL
    ones_in_table = ones if gl else 2 * ones
    h, d = characters._twisted_h.__wrapped__(
        characters.point_pairs(xs), not gl, ones_in_table, t, la[0] + len(la)
    )

    def hm(m: int) -> int:
        return h[m] if m >= 0 else 0

    cols = range(len(la))
    if gl:
        rows = [[hm(p - i + j) for j in cols] for i, p in enumerate(la)]
    else:
        s, sign = characters._KOIKE_TERADA[g]
        rows = [
            [hm(p - i + j) + (sign * d ** (2 * j + s) * hm(p - i - j - s) if j or s else 0) for j in cols]
            for i, p in enumerate(la)
        ]
    return rows, d


def twisted_full_det(g: GroupType, la: Partition, xs: tuple, t: int, ones: int = 0) -> Fraction:
    """`twisted_at_pairs` with no support rule: the whole matrix of
    `twisted_full_matrix` handed to `det` every time.  The oracle of the
    singular-support rule and of the sliced rows."""
    if not la:
        return Fraction(1)
    rows, d = twisted_full_matrix(g, la, xs, t, ones)
    return Fraction(det(rows), d ** sum(la))


def conjugate(la: Partition) -> Partition:
    if not la:
        return ()
    return tuple(sum(1 for p in la if p >= j) for j in range(1, la[0] + 1))


def is_z_asymmetric(la: Partition, z: int) -> bool:
    """True when the Frobenius coordinates satisfy beta_i = alpha_i + z.

    z = 1 gives symplectic partitions, z = -1 orthogonal (the legs
    alpha_i - 1 are then automatically nonnegative), z = 0 self-conjugate.
    """
    fc = frobenius(la)
    return all(b == a + z for a, b in zip(fc.alpha, fc.beta))


def from_frobenius(alpha: Iterable[int], beta: Iterable[int]) -> Partition:
    """Inverse of frobenius: row i is alpha_i + i long and column i is
    beta_i + i long (1-based); a row below the diagonal counts the columns
    that reach it."""
    alpha, beta = tuple(alpha), tuple(beta)
    r = len(alpha)
    for seq in (alpha, beta):
        if len(seq) != r or min(seq, default=0) < 0 or any(a <= b for a, b in zip(seq, seq[1:])):
            raise ValueError(f"invalid Frobenius coordinates: {alpha} | {beta}")
    cols = [b + i + 1 for i, b in enumerate(beta)]
    below = [sum(1 for c in cols if c >= j) for j in range(r + 1, max(cols, default=0) + 1)]
    return tuple([a + i + 1 for i, a in enumerate(alpha)] + below)


def z_asymmetric_up_to(z: int, max_size: int) -> Iterator[Partition]:
    """Every z-asymmetric partition with |la| <= max_size, built from the
    arms of `z_asymmetric_arms` and legs a_i + z, in the walk's order."""
    for arms, _, _ in z_asymmetric_arms(z, max_size):
        yield from_frobenius(arms, [a + z for a in arms])


def enum_z_asymmetric(z: int, order: int) -> tuple[int, ...]:
    """Count z-asymmetric partitions of each size, built one by one from
    their Frobenius coordinates."""
    if order < 0:
        raise ValueError(f"order must be nonnegative, got {order}")
    return count_sizes(map(size, z_asymmetric_up_to(z, order)), order)


def is_core_beads(beads: int, t: int) -> bool:
    """Whether a beta set, bit x of `beads` set for each entry x, is that of
    a t-core: every entry x >= t has x - t among the entries.  The test
    holds at every padding."""
    return not (beads >> t) & ~beads


def is_t_core(la: Partition, t: int) -> bool:
    """Whether la is its own t-core, i.e. no hook length is divisible by t:
    `is_core_beads` on beta(la, l(la))."""
    if t < 2:
        raise ValueError(f"modulus must be at least 2, got {t}")
    return is_core_beads(sum(1 << x for x in beta_set(la, len(la))), t)


def count_sizes(sizes: Iterable[int], order: int) -> tuple[int, ...]:
    """Histogram of the sizes: q^m counts the sizes equal to m, 0 <= m <= order."""
    row = [0] * (order + 1)
    for m in sizes:
        if 0 <= m <= order:
            row[m] += 1
    return tuple(row)


def series_product_dense(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """`series.series_product` over every pair of coefficients."""
    order = min(len(a), len(b)) - 1
    row = [0] * (order + 1)
    for i in range(order + 1):
        for j in range(order + 1 - i):
            row[i + j] += a[i] * b[j]
    return tuple(row)


def core_size(offsets: tuple[int, ...]) -> int:
    """|core_from_offsets(offsets)| in O(t), read off the runner gaps
    c_i = t*o_i + i at the least padding, without building a beta set; the
    lattice leaf reads it at a fixed padding instead.  With
    c' = c_i - min(c), runner i holds the k = c' // t beads c' - t, ...,
    c' - kt (c' = 0 is the only multiple of t), and a beta set of L beads
    has size sum(beads) - L(L - 1)/2."""
    t = len(offsets)
    gaps = [t * o + i for i, o in enumerate(offsets)]
    first = min(gaps)
    total = length = 0
    for c in gaps:
        if c >= first + t:  # else k = 0
            c -= first
            k = c // t
            total += k * c - t * k * (k + 1) // 2
            length += k
    return total - length * (length - 1) // 2


def z_core_offsets(z: int, t: int, bound: int) -> Iterator[tuple[int, ...]]:
    """The runner offsets (length t, `partitions.core_from_offsets`) of every
    z-asymmetric t-core of size at most `bound`, for every integer z and
    t >= 2, in the walk's order: the lattice ball of `series.z_core_sizes`,
    one coordinate per class pair, with the same pair budgets.  A
    generator: its `ValueError`s fire at the first item."""
    if bound < 0:
        raise ValueError(f"bound must be nonnegative, got {bound}")
    if t < 2:
        raise ValueError(f"need t >= 2, got {t}")
    pairs, budgets = [], []
    for i, j in class_pairs(t, z):
        if t - (j - i) > bound:
            break
        pairs.append((i, j))
        budgets.append(series._coordinate_budget(t, j - i, bound))
    off = [0] * t
    if not pairs:
        yield tuple(off)
        return
    last = len(pairs) - 1

    def walk(k: int, room: int) -> Iterator[tuple[int, ...]]:
        i, j = pairs[k]
        for v, c in reversed(budgets[k]):
            if c <= room:
                off[i], off[j] = v, -v
                if k == last:
                    yield tuple(off)
                else:
                    yield from walk(k + 1, room - c)

    yield from walk(0, bound)


def pair_offsets(v, z: int, t: int) -> tuple[int, ...]:
    """The runner offsets at lattice coordinates v: v_k on the lower class
    of the k-th pair of `class_pairs(t, z)`, -v_k on its partner, and 0 on
    every class paired with itself."""
    off = [0] * t
    for (i, j), x in zip(class_pairs(t, z), v, strict=True):
        off[i], off[j] = x, -x
    return tuple(off)


def lattice_cores(z: int, t: int, bound: int) -> list[Partition]:
    """The cores whose offsets `z_core_offsets` walks, each built by
    `core_from_offsets`, sorted by size."""
    cores = map(core_from_offsets, z_core_offsets(z, t, bound))
    return sorted(cores, key=lambda la: (size(la), la))


def t_core_strips(la: Partition, t: int) -> Partition:
    """Independent oracle for the t-core: remove border strips one at a time.

    A removable strip of length t corresponds to a beta entry x with
    x - t >= 0 and x - t not already present; removal replaces x by x - t.
    The result is removal-order independent, so any scan order works.
    """
    if t < 2:
        raise ValueError(f"modulus must be at least 2, got {t}")
    entries = set(beta_set(la, max(1, len(la))))
    removed = True
    while removed:
        removed = False
        for x in sorted(entries, reverse=True):
            if x - t >= 0 and x - t not in entries:
                entries.remove(x)
                entries.add(x - t)
                removed = True
                break
    return from_beta_set(sorted(entries, reverse=True))


def ribbon_sign(la: Partition, t: int) -> int:
    """Littlewood's t-sign: (-1) to the sum of the heights of the t-ribbons
    removed to reach the t-core.  On a beta set, moving bead x to x - t
    removes a ribbon of height #{y : x - t < y < x}."""
    entries = set(beta_set(la, max(1, len(la))))
    height, removed = 0, True
    while removed:
        removed = False
        for x in sorted(entries, reverse=True):
            if x - t >= 0 and x - t not in entries:
                height += sum(x - t < y < x for y in entries)
                entries.remove(x)
                entries.add(x - t)
                removed = True
                break
    return -1 if height % 2 else 1


def inversions_quadratic(seq) -> int:
    return sum(
        1
        for i in range(len(seq))
        for j in range(i + 1, len(seq))
        if seq[i] > seq[j]
    )


def residue_counts(la, t: int, m: int) -> tuple[int, ...]:
    """How many entries of beta(la, m) lie in each class mod t, at any m."""
    return tuple(sum(x % t == i for x in beta_set(la, m)) for i in range(t))


def block_sign_oracle(la, t: int, m: int, class_order) -> int:
    """Sign of the permutation that sorts beta positions into residue
    blocks, with inversions counted the slow quadratic way."""
    b = beta_set(la, m)
    one_line = []
    for q in class_order:
        one_line.extend(i + 1 for i, x in enumerate(b) if x % t == q)
    return -1 if inversions_quadratic(one_line) % 2 else 1


def qpoch(first: int, step: int, order: int, sign: int) -> tuple[int, ...]:
    """prod_{k>=0} (1 + sign * q^(first + k*step)) for sign = 1 or -1,
    as its coefficients up to q^order."""
    if first <= 0 or step <= 0:
        raise ValueError(f"exponents must be positive, got {first} and {step}")
    row = [1] + [0] * order
    for e in range(first, order + 1, step):
        for m in range(order, e - 1, -1):
            row[m] += sign * row[m - e]
    return tuple(row)


def z_core_offsets_stack(z: int, t: int, bound: int) -> list[tuple[int, ...]]:
    """Runner offsets of the z-asymmetric t-cores of size <= bound, by a
    stack walk over every class pair i < j (offsets (v, -v), cost
    t*v^2 - (j-i)*v) that pops each pair's largest offset first: the order
    `z_core_offsets` keeps."""
    pairs = list(class_pairs(t, z))
    out, stack = [], [((), 0)]
    while stack:
        prefix, cost = stack.pop()
        if len(prefix) == len(pairs):
            off = [0] * t
            for (i, j), v in zip(pairs, prefix):
                off[i], off[j] = v, -v
            out.append(tuple(off))
            continue
        i, j = pairs[len(prefix)]
        for v in range(-bound - 1, bound + 2):
            c = t * v * v - (j - i) * v
            if cost + c <= bound:
                stack.append((prefix + (v,), cost + c))
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
            core = reading(la, t).cls.core
            base = max(1, len(la))
            for m in (base, base + 1, base + t):
                if residue_counts(la, t, m) != residue_counts(core, t, m):
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
                    ca = residue_counts(la, t, t * (a + da))
                    cb = residue_counts(mu, t, t * (b + db))
                    tot = a + da + b + db
                    if any(
                        ca[i] + cb[t - 1 - i] != tot for i in range(t)
                    ):
                        bad.append(("forward", la, t, a + da, b + db))
        cores = [la for la in las if reading(la, t).cls.core == la]
        for la in cores:
            a = ceil_div(max(1, len(la)), t)
            ca = residue_counts(la, t, t * a)
            for mu in cores:
                b = ceil_div(max(1, len(mu)), t)
                cb = residue_counts(mu, t, t * b)
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
                if la and is_z_asymmetric(la, z) and reading(la, t).cls.core == la:
                    bad.append((la, z, t))
    return bad


def check_asymmetric_core_counts(max_size: int, ts=(2, 3, 4, 5)) -> list:
    """On t-cores, z-asymmetry is equivalent to mirrored residue counts
    for every 0 <= z <= t-2."""
    bad = []
    for t in ts:
        for la in partitions_up_to(max_size):
            if reading(la, t).cls.core != la:
                continue
            n = ceil_div(max(1, len(la)), t)
            counts = residue_counts(la, t, t * n)
            for z in range(0, t - 1):
                want = all(
                    counts[i] + counts[t - z - 1 - i] == 2 * n
                    for i in range(t - z)
                ) and all(counts[i] == n for i in range(t - z, t))
                if want != is_z_asymmetric(la, z):
                    bad.append((la, t, z))
    return bad


def check_classification_flags(max_size: int, ts=(2, 3, 4, 5)) -> list:
    """The reading's verdict for each theorem row, z_asymmetric(z, ones),
    agrees with the hook-coordinate definition of the row's class applied
    directly to the core, and so does the class c of the point 1 when a
    single-row core keeps the appended-one row alive.  The core comes from
    strip removal, not from residue counts, so it is an independent check
    of the reading's own core."""
    bad = []
    for la in partitions_up_to(max_size):
        for t in ts:
            core = t_core_strips(la, t)
            defined = {
                TheoremId.SCHUR_FAC: core == (),
                TheoremId.SCHUR_ONE: len(core) <= 1,
                TheoremId.SYMPLECTIC: is_z_asymmetric(core, 1),
                TheoremId.EVEN_ORTH: is_z_asymmetric(core, -1),
                TheoremId.ODD_ORTH: core == conjugate(core),
            }
            cls = reading(la, t).cls
            ok = (
                cls.core == core
                and all(cls.z_asymmetric(th.z, th.ones) == defined[th] for th in TheoremId)
                and (len(core) > 1 or cls.excess(1).index(1) == sum(core))
                and cls.rank == rank(core)
            )
            if not ok:
                bad.append((la, t))
    return bad


def check_rank_formulas(max_size: int, ts=(2, 3, 4, 5)) -> list:
    """Rank of the t-core from clipped residue counts, plus the folded
    sums available on symmetric cores."""
    bad = []
    for la in partitions_up_to(max_size):
        for t in ts:
            n = ceil_div(max(1, len(la)), t)
            counts = residue_counts(la, t, t * n)
            core = reading(la, t).cls.core
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
            quo = reading(la, t).quotient
            core = reading(la, t).cls.core
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
            quo = reading(la, t).quotient
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
            core = reading(la, t).cls.core
            if core != t_core_strips(la, t):
                bad.append(("routes", la, t))
            quo = reading(la, t).quotient
            if sum(la) != sum(core) + t * sum(sum(q) for q in quo):
                bad.append(("size", la, t))
    return bad


# ------------------------------------------------ block determinant lemma


def _rand_matrix(rng: random.Random, rows: int, cols: int) -> list[list[Fraction]]:
    return [
        [Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(cols)]
        for _ in range(rows)
    ]


def _hstack(blocks: list[list[list[Fraction]]]) -> list[list[Fraction]]:
    rows = len(blocks[0])
    return [[x for blk in blocks for x in blk[r]] for r in range(rows)]


def _scale_sub(a: int, u, b: int, v) -> list[list[Fraction]]:
    return [
        [a * ux - b * vx for ux, vx in zip(urow, vrow)] for urow, vrow in zip(u, v)
    ]


def check_block_det_lemma(k: int, n: int, dims: list[int], seed: int) -> bool:
    """Randomized check of the structured block determinant evaluation.

    Draws random rational n x u_j blocks U_j, V_j and coefficients gamma
    (with the last two gamma columns equal), assembles the kn x kn block
    matrix whose column blocks mix U_j and V_j with mirrored coefficients,
    and compares its determinant against the closed form: zero unless the
    widths pair up as u_p + u_(k+1-p) = 2n, and otherwise a signed power
    of det(gamma) times determinants of the paired 2n x 2n blocks.  The
    same data also exercises the block-diagonal and block-antidiagonal
    determinant rules.  Occasionally forces V_j = U_j so the odd-k middle
    block degenerates to zero.
    """
    dims = list(dims)
    if len(dims) != k or any(u < 1 for u in dims) or sum(dims) != k * n:
        raise ValueError(f"dims {dims} do not fit k={k}, n={n}")
    rng = random.Random(seed)
    us = [_rand_matrix(rng, n, u) for u in dims]
    vs = us if rng.random() < 0.2 else [_rand_matrix(rng, n, u) for u in dims]
    # Fractions keep the elimination exact; int entries would hit float division.
    gamma = [[Fraction(rng.randint(-3, 3)) for _ in range(k)] for _ in range(k)]
    for row in gamma:
        row.append(row[-1])

    col_blocks = []
    for j in range(1, k + 1):
        if j <= (k + 1) // 2:
            c1, c2 = 2 * j - 1, 2 * j
        else:
            c1, c2 = 2 * k + 2 - 2 * j, 2 * k + 1 - 2 * j
        col_blocks.append(
            [_scale_sub(gamma[i][c1 - 1], us[j - 1], gamma[i][c2 - 1], vs[j - 1]) for i in range(k)]
        )
    pi = [row for j in range(k) for row in _hstack([col_blocks[jj][j] for jj in range(k)])]
    det_pi = det(pi)

    if any(dims[p] + dims[k - 1 - p] != 2 * n for p in range(k)):
        expected = Fraction(0)
    else:
        det_gamma = det([row[:k] for row in gamma]) if k > 0 else Fraction(1)
        prod = Fraction(1)
        for i in range(k // 2):
            w = [
                urow + [-x for x in vrow]
                for urow, vrow in zip(us[i], vs[k - 1 - i])
            ] + [
                [-x for x in vrow] + list(urow)
                for vrow, urow in zip(vs[i], us[k - 1 - i])
            ]
            prod *= det(w)
        sign_exp = 0
        if k % 2 == 1:
            mid = (k - 1) // 2
            w_mid = _scale_sub(1, us[mid], 1, vs[mid])
            prod *= det(w_mid)
            sign_exp = n * sum(dims[: (k - 1) // 2])
        expected = (-1) ** sign_exp * Fraction(det_gamma) ** n * prod
    ok_structured = det_pi == expected

    # Block-diagonal and block-antidiagonal rules on the same blocks.
    zero_rows = lambda r, c: [[Fraction(0)] * c for _ in range(r)]
    diag = [
        row
        for i in range(k)
        for row in _hstack(
            [us[i] if j == i else zero_rows(n, dims[j]) for j in range(k)]
        )
    ]
    # In the antidiagonal layout the column widths run in reversed block order.
    anti = [
        row
        for i in range(k)
        for row in _hstack(
            [us[i] if j == k - 1 - i else zero_rows(n, dims[k - 1 - j]) for j in range(k)]
        )
    ]
    if all(u == n for u in dims):
        prod_u = Fraction(1)
        for u in us:
            prod_u *= det(u)
        anti_sign = sum(dims[i] * dims[j] for i in range(k) for j in range(i + 1, k))
        ok_diag = det(diag) == prod_u
        ok_anti = det(anti) == (-1) ** anti_sign * prod_u
    else:
        ok_diag = det(diag) == 0
        ok_anti = det(anti) == 0
    return ok_structured and ok_diag and ok_anti
