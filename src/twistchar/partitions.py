"""Integer partition combinatorics built on beta sets.

A partition is stored as a tuple of weakly decreasing positive integers
(canonical form, no trailing zeros).  Everything here is derived from the
beta-set encoding beta_i = lambda_i + m - i.  The abacus is read at one
padding only, the least multiple tn0 of t that la fits: `reading` lays
beta(la, tn0) out on t runners in one pass, once per (la, t), and reads
off the t-core's runner offsets, which carry its classification and its
size, the quotient and the sorting sign of the class-block order.
The CLI's classify and every theorem row share that cached reading.
The z-asymmetric families are walked as Frobenius arms, and the walk
carries each beta set as a bitmask, one bead moved per arm, without
building the partition; asked for t-cores, it cuts every subtree that
cannot hold one.
"""

from __future__ import annotations

from functools import lru_cache
from operator import add, index, lt, sub
from typing import Iterable, Iterator, NamedTuple

Partition = tuple[int, ...]


def as_partition(parts: Iterable[int]) -> Partition:
    """Normalize a weakly decreasing integer sequence: drop trailing zeros.
    A part that is not an int (a float, a Fraction) is refused, not
    truncated."""
    seq = tuple(parts)
    try:
        seq = tuple(map(index, seq))
    except TypeError:
        bad = next(x for x in seq if not hasattr(type(x), "__index__"))
        raise ValueError(f"part {bad!r} of {seq} is not an int") from None
    if any(map(lt, seq, seq[1:])):
        raise ValueError(f"not weakly decreasing: {seq}")
    if seq and seq[-1] < 0:
        raise ValueError(f"negative part in {seq}")
    k = len(seq)
    while k > 0 and seq[k - 1] == 0:
        k -= 1
    return seq[:k]


def size(la: Partition) -> int:
    return sum(la)


def beta_set(la: Partition, m: int) -> tuple[int, ...]:
    """The strictly decreasing m-tuple (la_i + m - i), parts beyond l(la) read 0."""
    l = len(la)
    if m < l:
        raise ValueError(f"padding too short: m={m} < {l} parts")
    return (*map(add, la, range(m - 1, m - 1 - l, -1)), *range(m - l - 1, -1, -1))


def from_beta_set(b: Iterable[int]) -> Partition:
    """Inverse of beta_set; the padding is the length of the input."""
    entries = tuple(b)
    m = len(entries)
    for i, x in enumerate(entries):
        if x < 0 or (i + 1 < m and entries[i + 1] >= x):
            raise ValueError(f"invalid beta set: {entries}")
    return as_partition(x - m + i + 1 for i, x in enumerate(entries))


def rank(la: Partition) -> int:
    """Length of the Durfee diagonal, the largest k with la_k >= k."""
    r = 0
    for i, p in enumerate(la, start=1):
        if p >= i:
            r = i
    return r


class FrobeniusCoords(NamedTuple):
    alpha: tuple[int, ...]
    beta: tuple[int, ...]


def frobenius(la: Partition) -> FrobeniusCoords:
    """Arm and leg lengths along the diagonal, alpha_i = la_i - i, beta_j = la'_j - j.
    Only the first rank(la) columns are read, la'_j as #{i : la_i >= j}, so
    the cost does not grow with la_1."""
    r = rank(la)
    alpha = tuple(la[i] - (i + 1) for i in range(r))
    beta = tuple(sum(p > j for p in la) - (j + 1) for j in range(r))
    return FrobeniusCoords(alpha, beta)


def z_asymmetric_arms(
    z: int, max_size: int, t: int | None = None
) -> Iterator[tuple[tuple[int, ...], int, int]]:
    """Every z-asymmetric partition with |la| <= max_size, for any integer z,
    as its arms, its size and its beta set: distinct arms a_1 > ... > a_r
    with legs a_i + z >= 0, that is arms >= max(0, -z), size
    sum(2 a_i + z + 1), and beta(la, l(la)) as an int with bit x set for
    each entry x.  One depth-first walk, each arm tuple before its
    extensions, in lexicographic order of the arm tuples.  At
    m = l(la) = a_1 + z + 1 the beta set is {m + a_i} and {0..m-1}
    without {a_1 - a_i}, so each arm a after a_1 moves one bead.

    With t given, only the t-cores among them, in the same order, and the
    walk enters only subtrees that can still hold one.  A t-core's beta
    set has no violation: no bit x clear with x + t set.
    Every later arm a of a tuple lies in [low, top], top the next arm's
    bound, and only adds the bead m + a or removes the bead a_1 - a.  So a
    violation at x can be mended only by a bead added at x or one removed
    at x + t, and a tuple with a violation outside those two windows has
    no t-core below it."""
    if max_size < 0:
        return
    low = max(0, -z)
    yield (), 0, 0
    # Each entry carries the first arm a_1 and m = a_1 + z + 1 beside the
    # arms, size and beads.  A first arm a has beta set {1..m-1} and m + a.
    # Arms are pushed largest first, so the least pops first.
    stack = []
    for a in range((max_size - z - 1) // 2, low - 1, -1):
        m = a + z + 1
        stack.append(((a,), 2 * a + z + 1, 1 << (m + a) | (1 << m) - 2, m, a))
    while stack:
        arms, used, beads, m, first = stack.pop()
        top = (max_size - used - z - 1) // 2
        if arms[-1] <= top:
            top = arms[-1] - 1
        bad = (beads >> t) & ~beads if t else 0
        least = low
        if not bad:
            yield arms, used, beads
        elif top < low:
            continue
        else:
            w = (1 << (top - low + 1)) - 1
            if bad & ~(w << (m + low)) & ~((w << (first - top)) >> t):
                continue
            # The highest violation x is mended by a later arm x - m or
            # first - t - x in [low, top] (one of them is, by the windows),
            # and every later arm is at most the next one: the next arm is
            # at least the lesser mend.
            x = bad.bit_length() - 1
            grow, cut = x - m, first - t - x
            least = min(grow if low <= grow <= top else top, cut if low <= cut <= top else top)
        for a in range(top, least - 1, -1):
            grew = beads ^ 1 << (m + a) ^ 1 << (first - a)
            stack.append((arms + (a,), used + 2 * a + z + 1, grew, m, first))


def core_from_offsets(offsets: tuple[int, ...]) -> Partition:
    """The t-core with the given runner offsets (t = len(offsets)).  At any
    padding tn, runner i holds its n + offsets[i] lowest positions, so its
    first empty position is tn + c_i with c_i = t * offsets[i] + i.  Every
    position below the first gap tn + min(c) holds a bead, so only the
    beads above it are built, shifted down by the gap: c_i - min(c) - t,
    c_i - min(c) - 2t, ... while positive.  That is l(core) beads."""
    t = len(offsets)
    gaps = [t * o + i for i, o in enumerate(offsets)]
    first = min(gaps)
    beads = (y for c in gaps for y in range(c - first - t, 0, -t))
    return from_beta_set(sorted(beads, reverse=True))


@lru_cache(maxsize=4096)
def partners(t: int, z: int | None) -> tuple[int, ...]:
    """Class i's partner t-1-z-i, or i itself when that falls outside
    0..t-1, and every class itself when z is None (GL: no pairing).  For
    every integer z the t-core is z-asymmetric exactly when the runner
    offsets of each class and its partner sum to 0, so a self-paired class
    has offset 0 (Garvan-Kim-Stanton).  Kept per (t, z): every derivation
    miss reads it, and a tuple is immutable."""
    if z is None:
        return tuple(range(t))
    return tuple(j if 0 <= j < t else i for i, j in ((i, t - 1 - z - i) for i in range(t)))


def class_pairs(t: int, z: int) -> Iterator[tuple[int, int]]:
    """The pairs i < j of `partners(t, z)` in order of decreasing gap j - i,
    straight from the closed form: j = t-1-z-i lies in 0..t-1 and above i
    exactly for max(0, -z) <= i < ceil((t-1-z)/2).  Lazy, so reading the
    first few pairs costs nothing in t."""
    return ((i, t - 1 - z - i) for i in range(max(0, -z), (t - z) // 2))


class CoreClass(NamedTuple):
    """Classification of a t-core, read off its runner offsets.

    offsets[i] is runner i's count minus n at any padding tn; it does not
    depend on n and sums to 0 (`reading`).  Every verdict is read
    by `z_asymmetric` at a theorem's (z, ones); the empty core, for
    instance, is z-asymmetric for every z.
    """

    offsets: tuple[int, ...]

    @property
    def core(self) -> Partition:
        return core_from_offsets(self.offsets)

    @property
    def rank(self) -> int:
        # The sum of the positive offsets: half their absolute sum, as they sum to 0.
        return sum(map(abs, self.offsets)) // 2

    def excess(self, ones: int = 0) -> tuple[int, ...]:
        """Each class's count minus n at padding tn + ones, for ones < t:
        every entry moves up by `ones` and 0..ones-1 join, so class i holds
        offsets[i - ones] + (i < ones) above n.  The excess sums to ones."""
        o = self.offsets
        if not ones:
            return o
        return tuple(o[i - ones] + (i < ones) for i in range(len(o)))

    def z_asymmetric(self, z: int | None, ones: int = 0) -> bool:
        """Whether the character with `ones` points 1 appended survives:
        s_i + s_partner(i) >= 0 for each class i (`partners(t, z)`), s the
        excess.  As s sums to ones, this says that some `ones` beads can be
        removed to leave the counts z-paired; at ones = 0, z-asymmetry.
        The least of the t sums s_i + s_partner(i) is taken by builtins,
        with no Python frame per class; at ones = 0 s is the offsets."""
        s = self.excess(ones)
        return min(map(add, s, map(s.__getitem__, partners(len(s), z)))) >= 0


class Reading(NamedTuple):
    """What one abacus of la says, at the least padding tn0 it fits."""

    n0: int
    cls: CoreClass
    quotient: tuple[Partition, ...]
    sign: int


@lru_cache(maxsize=4096)
def reading(la: Partition, t: int) -> Reading:
    """beta(la, tn0), n0 = max(1, ceil(l/t)), laid on t runners and read
    once.  Runner i holds x // t for the entries x = i mod t; at a multiple
    of t it holds n0 + offsets[i] of them, and the offsets and the quotient
    are the same at every padding tn.  The sign is that of the permutation
    that sorts beta into class blocks in the order 0..t-1, each block
    keeping beta's order.  The runners are not kept, as they grow with t.
    la is checked on a miss only, so callers pass it in canonical form."""
    if t < 2:
        raise ValueError(f"modulus must be at least 2, got {t}")
    la = as_partition(la)
    n0 = max(1, -(-len(la) // t))
    beta = beta_set(la, t * n0)
    runners: list[list[int]] = [[] for _ in range(t)]
    for x in beta:
        runners[x % t].append(x // t)
    # A runner is strictly decreasing, so its part i (from 1) is
    # x_i - (len(r) - i), and its zero parts are the trailing ones: all of
    # them when its top entry is len(r) - 1.
    quotient = tuple(
        tuple(filter(None, map(sub, r, range(len(r) - 1, -1, -1)))) if r and r[0] >= len(r) else ()
        for r in runners
    )
    cls = CoreClass(tuple(len(r) - n0 for r in runners))
    # t lists: freed before the sign's m slots are laid.
    del runners
    # A stable sort by class lays the entries in block order; a permutation
    # of m slots with c cycles has sign (-1)^(m - c).  The sort takes each
    # t entries of beta's tail, whose classes fall, as one run, so the cost
    # stays near O(m) whatever t is.
    order = sorted(range(len(beta)), key=[x % t for x in beta].__getitem__)
    parity, seen = len(order), [False] * len(order)
    for p in range(len(order)):
        if not seen[p]:
            parity -= 1
            while not seen[p]:
                seen[p] = True
                p = order[p]
    return Reading(n0, cls, quotient, -1 if parity % 2 else 1)


def mu_padded(front: Partition, back: Partition, n: int) -> Partition:
    """back_1 + (front, 0, ..., 0, -rev(back)) padded with middle zeros to 2n parts."""
    if len(front) + len(back) > 2 * n:
        raise ValueError(
            f"length overflow: {len(front)} + {len(back)} parts exceed 2n={2 * n}"
        )
    b1 = back[0] if back else 0
    mid = 2 * n - len(front) - len(back)
    parts = [b1 + f for f in front] + [b1] * mid + [b1 - x for x in reversed(back)]
    return as_partition(parts)


def partitions_of(m: int, max_length: int | None = None) -> Iterator[Partition]:
    """All partitions of m in reverse lexicographic order: none for m < 0,
    the empty one for m = 0."""

    def rec(remaining: int, cap: int, prefix: list[int]) -> Iterator[Partition]:
        if remaining == 0:
            yield tuple(prefix)
            return
        if max_length is not None and len(prefix) >= max_length:
            return
        for part in range(min(cap, remaining), 0, -1):
            prefix.append(part)
            yield from rec(remaining - part, part, prefix)
            prefix.pop()

    yield from rec(m, m, [])


def partitions_up_to(max_size: int, max_length: int | None = None) -> Iterator[Partition]:
    """All partitions with |la| <= max_size, ordered by size then revlex."""
    for m in range(max_size + 1):
        yield from partitions_of(m, max_length)
