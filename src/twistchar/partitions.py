"""Integer partition combinatorics built on beta sets.

A partition is stored as a tuple of weakly decreasing positive integers
(canonical form, no trailing zeros).  Everything here is derived from the
beta-set encoding beta_i = lambda_i + m - i: cores, quotients, residue
counts, classification predicates and the permutation signs that show up
in character factorizations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

Partition = tuple[int, ...]


def as_partition(parts: Iterable[int]) -> Partition:
    """Normalize a weakly decreasing integer sequence: drop trailing zeros."""
    seq = tuple(int(x) for x in parts)
    for a, b in zip(seq, seq[1:]):
        if a < b:
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
    if m < len(la):
        raise ValueError(f"padding too short: m={m} < {len(la)} parts")
    return tuple((la[i] if i < len(la) else 0) + m - (i + 1) for i in range(m))


def from_beta_set(b: Iterable[int]) -> Partition:
    """Inverse of beta_set; the padding is the length of the input."""
    entries = tuple(b)
    m = len(entries)
    for i, x in enumerate(entries):
        if x < 0 or (i + 1 < m and entries[i + 1] >= x):
            raise ValueError(f"invalid beta set: {entries}")
    return as_partition(x - m + i + 1 for i, x in enumerate(entries))


def conjugate(la: Partition) -> Partition:
    if not la:
        return ()
    return tuple(sum(1 for p in la if p >= j) for j in range(1, la[0] + 1))


def rank(la: Partition) -> int:
    """Length of the Durfee diagonal, the largest k with la_k >= k."""
    r = 0
    for i, p in enumerate(la, start=1):
        if p >= i:
            r = i
    return r


@dataclass(frozen=True)
class FrobeniusCoords:
    alpha: tuple[int, ...]
    beta: tuple[int, ...]


def frobenius(la: Partition) -> FrobeniusCoords:
    """Arm and leg lengths along the diagonal, alpha_i = la_i - i, beta_j = la'_j - j."""
    conj = conjugate(la)
    r = rank(la)
    alpha = tuple(la[i] - (i + 1) for i in range(r))
    beta = tuple(conj[j] - (j + 1) for j in range(r))
    return FrobeniusCoords(alpha, beta)


def is_z_asymmetric(la: Partition, z: int) -> bool:
    """True when the Frobenius coordinates satisfy beta_i = alpha_i + z.

    z = 1 gives symplectic partitions, z = -1 orthogonal (the legs
    alpha_i - 1 are then automatically nonnegative), z = 0 self-conjugate.
    """
    fc = frobenius(la)
    return all(b == a + z for a, b in zip(fc.alpha, fc.beta))


def residue_counts(la: Partition, t: int, m: int) -> tuple[int, ...]:
    """Counts n_i of the entries of beta(la, m) in each residue class i mod t."""
    if t < 2:
        raise ValueError(f"modulus must be at least 2, got {t}")
    counts = [0] * t
    for x in beta_set(la, m):
        counts[x % t] += 1
    return tuple(counts)


def _core_from_counts(counts: tuple[int, ...], t: int) -> Partition:
    entries = [t * j + i for i, n_i in enumerate(counts) for j in range(n_i)]
    return from_beta_set(sorted(entries, reverse=True))


def t_core(la: Partition, t: int) -> Partition:
    """The t-core via per-class beta-set reconstruction.

    Each residue class with n_i entries is replaced wholesale by the n_i
    smallest values in that class, i.e. {i, t+i, ..., t(n_i-1)+i}.
    """
    return _core_from_counts(residue_counts(la, t, max(1, len(la))), t)


def t_core_strips(la: Partition, t: int) -> Partition:
    """Independent oracle for t_core: remove border strips one at a time.

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


def t_quotient(la: Partition, t: int, m: int) -> tuple[Partition, ...]:
    """The t-tuple of partitions carved from the residue classes of beta(la, m).

    Class i entries are t*bt_j + i; the bt_j, read as a beta set of length
    n_i, give the component.  The component ordering depends on m mod t:
    passing m + 1 instead of m rotates the tuple cyclically by one.
    """
    if t < 2:
        raise ValueError(f"modulus must be at least 2, got {t}")
    classes: list[list[int]] = [[] for _ in range(t)]
    for x in beta_set(la, m):
        classes[x % t].append(x // t)
    return tuple(from_beta_set(sorted(cl, reverse=True)) for cl in classes)


def partners(t: int, z: int) -> tuple[int, ...]:
    """Class i's partner t-1-z-i mod t: at padding tn the t-core is z-asymmetric
    exactly when each class and its partner hold 2n entries together.  With
    the wrap this holds for z = 1 (Sp), -1 (O_even) and 0 (O_odd) only; for
    z >= 2 the classes past t-1-z must each hold n instead."""
    return tuple((t - 1 - z - i) % t for i in range(t))


@dataclass(frozen=True)
class CoreClass:
    """Classification of the t-core of a partition, straight from residue counts.

    The flags are not mutually exclusive; the empty core, for instance, is
    simultaneously empty, symplectic, orthogonal and self-conjugate.
    single_row is the residue class c when the core is the one-row partition
    (c), with c = 0 meaning the empty core, and None when the core has two
    or more rows.
    """

    core: Partition
    empty: bool
    single_row: int | None
    symplectic: bool
    orthogonal: bool
    self_conjugate: bool
    rank: int


def classify_core(la: Partition, t: int, n: int) -> CoreClass:
    """Evaluate the core and every core predicate from residue counts at padding t*n.

    The count conditions are stable under m -> m + t (every count gains 1),
    so they are computed once, at padding t*n_eff with n_eff the least
    n' >= n that fits the parts; the core is rebuilt from the same counts.
    Accepts l(la) up to t*n + 1 because the one-row test lives at padding
    t*n + 1; its counts are derived from the ones at t*n.
    """
    if len(la) > t * n + 1:
        raise ValueError(f"partition has {len(la)} parts, bound is tn+1={t * n + 1}")
    n_eff = max(n, -(-len(la) // t))
    counts = residue_counts(la, t, t * n_eff)
    rk = sum(max(c - n_eff, 0) for c in counts)
    symplectic, orthogonal, self_conjugate = (
        all(counts[i] + counts[j] == 2 * n_eff for i, j in enumerate(partners(t, z)))
        for z in (1, -1, 0)
    )
    # At padding tn+1 every entry moves up by one and 0 joins class 0, so
    # class i holds counts[i-1] + (i == 0).  Those sum to tn+1, so the core
    # is the one row (c) exactly when class c alone differs from n.
    off = [i for i in range(t) if counts[i - 1] + (i == 0) != n_eff]
    single_row = off[0] if len(off) == 1 else None

    return CoreClass(
        core=_core_from_counts(counts, t),
        empty=rk == 0,
        single_row=single_row,
        symplectic=symplectic,
        orthogonal=orthogonal,
        self_conjugate=self_conjugate,
        rank=rk,
    )


def _block_sign(b: tuple[int, ...], t: int, class_order: Iterable[int]) -> int:
    # Sort the entries of b into class blocks in the requested order, each
    # class keeping its order within b.  Two entries swap exactly when the
    # later one's class comes first, so walking b and adding, for each
    # entry, the tally of earlier entries in classes placed after its own
    # counts the inversions.
    place = [0] * t
    for k, q in enumerate(class_order):
        place[q] = k
    tally = [0] * t
    inversions = 0
    for x in b:
        k = place[x % t]
        inversions += sum(tally[k + 1 :])
        tally[k] += 1
    return -1 if inversions % 2 else 1


def sigma_sign(la: Partition, t: int, n: int) -> int:
    """Sign of the permutation sorting beta(la, tn) into class blocks 0..t-1."""
    if len(la) > t * n:
        raise ValueError(f"partition has {len(la)} parts, bound is tn={t * n}")
    return _block_sign(beta_set(la, t * n), t, range(t))


def sigma_c_sign(la: Partition, t: int, n: int, c: int) -> int:
    """Sign of the variant sort on beta(la, tn+1) that puts class c first."""
    if not 0 <= c < t:
        raise ValueError(f"residue class {c} out of range for t={t}")
    if len(la) > t * n + 1:
        raise ValueError(f"partition has {len(la)} parts, bound is tn+1={t * n + 1}")
    order = [c] + [i for i in range(t) if i != c]
    return _block_sign(beta_set(la, t * n + 1), t, order)


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
    """All partitions of m in reverse lexicographic order."""
    if m < 0:
        return
    if m == 0:
        yield ()
        return

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
