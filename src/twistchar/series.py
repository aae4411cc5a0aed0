"""Generating functions and enumeration for skew-symmetric partition families.

A partition is z-asymmetric when its Frobenius legs exceed its arms by a
fixed offset z; z = 1, -1, 0 give the symplectic, orthogonal, and
self-conjugate families.  This module counts their t-cores three
independent ways.  The enumeration (`enum_z_asymmetric_cores`) walks the
arm tuples of the family with their sizes and beta sets
(`partitions.z_asymmetric_arms`, one bead moved per arm), keeps each
beta set that passes the same closure test as `partitions.is_t_core`, and
cuts every subtree with a violation that no later arm can mend; it
builds no partition.  The product is a truncated Pochhammer/theta
product.  The lattice walk (`z_core_offsets`) is a bijection for the
t-core members of each family, with one coordinate per class pair
i < j = t-1-z-i (`partitions.class_pairs`); it yields each core's runner
offsets, from which `partitions.core_size` reads the size off the runner
gaps, with no core built, and `enum_z_cores` builds the cores themselves.
The size comes from the bead positions, not from the walk's cost
t*v^2 - gap*v, which is the theta product's exponent.
"""

from __future__ import annotations

from itertools import chain
from math import isqrt
from typing import Iterable, Iterator

from .partitions import (
    Partition,
    abacus,
    as_partition,
    class_pairs,
    core_from_offsets,
    is_z_asymmetric,
    size,
    z_asymmetric_arms,
    z_asymmetric_up_to,
)

LatticeVec = tuple[int, ...]


class SeriesZ:
    """Integer power series in q truncated at a fixed order.  Immutable,
    and not a tuple: `+` and `len()` are not defined on it."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: tuple[int, ...]):
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, *args):
        raise AttributeError("SeriesZ is immutable")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"SeriesZ(coeffs={self.coeffs!r})"

    def __reduce__(self):
        return SeriesZ, (self.coeffs,)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, m: int) -> int:
        return self.coeffs[m]

    @classmethod
    def one(cls, order: int) -> "SeriesZ":
        return cls((1,) + (0,) * order)

    @classmethod
    def from_sizes(cls, sizes: Iterable[int], order: int) -> "SeriesZ":
        """Histogram of the sizes: q^m counts the sizes equal to m <= order."""
        row = [0] * (order + 1)
        for m in sizes:
            if 0 <= m <= order:
                row[m] += 1
        return cls(tuple(row))

    def __mul__(self, other: "SeriesZ") -> "SeriesZ":
        order = min(self.order, other.order)
        row = [0] * (order + 1)
        for i, a in enumerate(self.coeffs[: order + 1]):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs[: order + 1 - i]):
                if b:
                    row[i + j] += a * b
        return SeriesZ(tuple(row))

    def times_one_plus_power(self, e: int) -> "SeriesZ":
        """Multiply by (1 + q^e), truncated at the current order."""
        if e <= 0:
            raise ValueError(f"exponent must be positive, got {e}")
        row = list(self.coeffs)
        for m in range(self.order, e - 1, -1):
            row[m] += row[m - e]
        return SeriesZ(tuple(row))


def enum_z_asymmetric(z: int, order: int) -> SeriesZ:
    """Count z-asymmetric partitions of each size, built one by one from
    their Frobenius coordinates."""
    if order < 0:
        raise ValueError(f"order must be nonnegative, got {order}")
    return SeriesZ.from_sizes(map(size, z_asymmetric_up_to(z, order)), order)


def enum_z_asymmetric_cores(z: int, t: int, order: int) -> SeriesZ:
    """Count z-asymmetric t-cores of each size straight from the Frobenius
    arms: each arm tuple of the walk with its size, kept when the beta set
    the walk carries passes the closure test of `partitions.is_t_core`.
    The walk skips each subtree whose beta set has a violation that no
    later arm can mend.  No partition is built, and no runner offset is
    read."""
    if t < 2:
        raise ValueError(f"need t >= 2, got {t}")
    if order < 0:
        raise ValueError(f"order must be nonnegative, got {order}")
    return SeriesZ.from_sizes((used for _, used, _ in z_asymmetric_arms(z, order, t)), order)


def gf_z_asymmetric(z: int, order: int) -> SeriesZ:
    """Product form: prod (1 + q^p) over p = |z|+1, |z|+3, ...

    Each diagonal hook of a z-asymmetric partition has 2a + z + 1 cells for
    an arm a >= max(0, -z), so the hooks are distinct parts congruent to
    z+1 mod 2, the least of them |z|+1.
    """
    if order < 0:
        raise ValueError(f"order must be nonnegative, got {order}")
    out = SeriesZ.one(order)
    e = abs(z) + 1
    while e <= order:
        out = out.times_one_plus_power(e)
        e += 2
    return out


def theta_f(a_exp: int, b_exp: int, order: int) -> SeriesZ:
    """Two-variable theta sum with a = q^a_exp, b = q^b_exp.

    Terms are q^(a_exp*n(n+1)/2 + b_exp*n(n-1)/2) over all integers n;
    a_exp + b_exp > 0 makes only finitely many land under the truncation.
    """
    if a_exp + b_exp <= 0:
        raise ValueError(f"need a_exp + b_exp > 0, got {a_exp} + {b_exp}")
    if order < 0:
        raise ValueError(f"order must be nonnegative, got {order}")
    row = [0] * (order + 1)
    reach = 2 * (isqrt(2 * order // max(1, a_exp + b_exp)) + 2)
    for n in range(-reach, reach + 1):
        m = a_exp * (n * (n + 1) // 2) + b_exp * (n * (n - 1) // 2)
        if 0 <= m <= order:
            row[m] += 1
    return SeriesZ(tuple(row))


def gf_z_cores(z: int, t: int, order: int) -> SeriesZ:
    """Theta-product generating function for z-asymmetric t-cores."""
    if not 0 <= z <= t - 2:
        raise ValueError(f"need 0 <= z <= t-2, got z={z}, t={t}")
    out = SeriesZ.one(order)
    # Factor i has a = 2i + z + 1 and b = 2t - 2i - z - 1.  Past q^0 its
    # least terms are q^a and q^b, so it is 1 + O(q^(order+1)) unless
    # a <= order, that is i <= low, or b <= order, that is i >= high.
    top, low = (t - z - 2) // 2, (order - z - 1) // 2
    high = max(low + 1, -((order + z + 1 - 2 * t) // 2))
    for i in chain(range(min(low, top) + 1), range(max(high, 0), top + 1)):
        out = out * theta_f(2 * i + z + 1, 2 * t - 2 * i - z - 1, order)
    return out


def _pairs(z: int, t: int) -> Iterator[tuple[int, int]]:
    # The lattice coordinates of the z-asymmetric t-cores: one per class
    # pair i < j, the offset of class i (class j holds its negative), in
    # order of decreasing gap.
    if t < 2:
        raise ValueError(f"need t >= 2, got {t}")
    return class_pairs(t, z)


def phi(la: Partition, z: int, t: int) -> LatticeVec:
    """Lattice coordinates of a z-asymmetric t-core: the runner offset
    n_i - n of the lower class i of each pair i < j (`partitions.partners`),
    with n_i the count of beta elements in class i mod t at any padding tn."""
    pairs = list(_pairs(z, t))
    la = as_partition(la)
    offsets = abacus(la, t, max(1, len(la))).offsets
    if not is_z_asymmetric(la, z) or core_from_offsets(offsets) != la:
        raise ValueError(f"{la} is not a {z}-asymmetric {t}-core")
    return tuple(offsets[i] for i, _ in pairs)


def phi_inverse(v: LatticeVec, z: int, t: int) -> Partition:
    """Rebuild the unique z-asymmetric t-core with the given coordinates:
    the lower class of each pair gets offset v_k and its partner -v_k, every
    self-paired class 0."""
    pairs = list(_pairs(z, t))
    if len(v) != len(pairs):
        raise ValueError(f"expected a vector of length {len(pairs)}, got {len(v)}")
    return core_from_offsets(_offsets(pairs, v, t))


def _offsets(pairs: list[tuple[int, int]], v: LatticeVec, t: int) -> tuple[int, ...]:
    # Class i of each pair gets v_k and its partner j gets -v_k.
    off = [0] * t
    for (i, j), x in zip(pairs, v):
        off[i], off[j] = x, -x
    return tuple(off)


def _coordinate_budget(t: int, gap: int, bound: int) -> list[tuple[int, int]]:
    # A pair i < j = i + gap at offsets (v, -v) adds t*v^2 - gap*v cells,
    # at least t*|v|*(|v| - 1) since gap < t, so every offset within the
    # bound has |v| <= isqrt(bound // t) + 1.
    r = isqrt(bound // t) + 1
    return [(v, c) for v in range(-r, r + 1) if (c := t * v * v - gap * v) <= bound]


def z_core_offsets(z: int, t: int, bound: int) -> Iterator[tuple[int, ...]]:
    """The runner offsets (length t, `partitions.core_from_offsets`) of every
    z-asymmetric t-core of size at most `bound`, for every integer z and
    t >= 2, in the walk's order: the lattice ball of the coordinate map, one
    coordinate per class pair.  A pair's coordinate v adds t*v^2 - gap*v
    cells.  With no pair, as when |z| >= t-1, the only such core is the
    empty one.  A generator: its `ValueError`s fire at the first item."""
    if bound < 0:
        raise ValueError(f"bound must be nonnegative, got {bound}")
    # A pair whose only offset within the bound is 0 holds offset 0 in
    # every core, so the walk leaves it out.  Offsets (1, -1) cost the
    # least, t - gap, and `_pairs` comes in order of decreasing gap, so
    # the pairs that can move come first.
    pairs, budgets = [], []
    for i, j in _pairs(z, t):
        if t - (j - i) > bound:
            break
        pairs.append((i, j))
        budgets.append(_coordinate_budget(t, j - i, bound))
    stack = [((), 0)]
    while stack:
        prefix, cost = stack.pop()
        i = len(prefix)
        if i == len(pairs):
            yield _offsets(pairs, prefix, t)
            continue
        for v, c in budgets[i]:
            if cost + c <= bound:
                stack.append((prefix + (v,), cost + c))


def enum_z_cores(z: int, t: int, bound: int) -> list[Partition]:
    """All z-asymmetric t-cores of size at most `bound`, sorted by size: each
    offset vector of `z_core_offsets` built into its partition."""
    cores = map(core_from_offsets, z_core_offsets(z, t, bound))
    return sorted(cores, key=lambda la: (size(la), la))
