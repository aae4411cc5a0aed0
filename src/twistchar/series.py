"""Generating functions and enumeration for skew-symmetric partition families.

A partition is z-asymmetric when its Frobenius legs exceed its arms by a
fixed offset z; z = 1, -1, 0 give the symplectic, orthogonal, and
self-conjugate families.  This module counts them three independent ways:
direct construction from Frobenius coordinates
(`partitions.z_asymmetric_up_to`, whose t-cores `twistchar series` keeps by
beta-set closure), truncated Pochhammer/theta products, and a lattice
bijection for the t-core members of each family.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt
from typing import Iterable

from .partitions import (
    Partition,
    abacus,
    as_partition,
    conjugate,
    core_from_offsets,
    is_z_asymmetric,
    partners,
    size,
    z_asymmetric_up_to,
)

LatticeVec = tuple[int, ...]


@dataclass(frozen=True)
class SeriesZ:
    """Integer power series in q truncated at a fixed order."""

    coeffs: tuple[int, ...]

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
    for i in range((t - z - 2) // 2 + 1):
        out = out * theta_f(2 * i + z + 1, 2 * t - 2 * i - z - 1, order)
    return out


def _lattice_dim(z: int, t: int) -> int:
    return (t - z) // 2


def phi(la: Partition, z: int, t: int) -> LatticeVec:
    """Lattice coordinates of a z-asymmetric t-core: its first (t-z)//2
    runner offsets, n_i - n with n_i the count of beta elements in class
    i mod t at any padding tn."""
    if not 0 <= z <= t - 2:
        raise ValueError(f"need 0 <= z <= t-2, got z={z}, t={t}")
    la = as_partition(la)
    offsets = abacus(la, t, max(1, len(la))).offsets
    if not is_z_asymmetric(la, z) or core_from_offsets(offsets) != la:
        raise ValueError(f"{la} is not a {z}-asymmetric {t}-core")
    return offsets[: _lattice_dim(z, t)]


def phi_inverse(v: LatticeVec, z: int, t: int) -> Partition:
    """Rebuild the unique z-asymmetric t-core with the given coordinates:
    class i gets offset v_i and its partner -v_i, every other class 0."""
    if not 0 <= z <= t - 2:
        raise ValueError(f"need 0 <= z <= t-2, got z={z}, t={t}")
    d = _lattice_dim(z, t)
    if len(v) != d:
        raise ValueError(f"expected a vector of length {d}, got {len(v)}")
    pair = partners(t, z)
    off = [0] * t
    for i in range(d):
        off[i], off[pair[i]] = v[i], -v[i]
    return core_from_offsets(tuple(off))


def _coordinate_budget(z: int, t: int, i: int, bound: int) -> list[tuple[int, int]]:
    # Cost of setting coordinate i to v is t*v^2 - b_i*v, which is 0 only
    # at v = 0 and at least |v| otherwise, so the scan below terminates.
    b_i = t - z - 1 - 2 * i
    out = []
    for direction in (1, -1):
        v = 0 if direction == 1 else -1
        while True:
            cost = t * v * v - b_i * v
            if cost > bound:
                break
            out.append((v, cost))
            v += direction
    return sorted(out)


def enum_z_cores(z: int, t: int, bound: int) -> list[Partition]:
    """All z-asymmetric t-cores of size at most `bound`, sorted by size.

    For 0 <= z <= t-2 this walks the lattice ball of the coordinate map;
    z = -1 is handled by conjugating the z = 1 family, and t = 2 (where
    only staircases are 2-cores) by scanning staircases directly.
    """
    if t < 2:
        raise ValueError(f"need t >= 2, got {t}")
    if t == 2 and z in (1, -1):
        out = []
        k = 0
        while k * (k + 1) // 2 <= bound:
            stair = tuple(range(k, 0, -1))
            if is_z_asymmetric(stair, z):
                out.append(stair)
            k += 1
        return sorted(out, key=lambda la: (size(la), la))
    if z == -1:
        return sorted(
            (conjugate(la) for la in enum_z_cores(1, t, bound)),
            key=lambda la: (size(la), la),
        )
    if not 0 <= z <= t - 2:
        raise ValueError(f"no enumeration route for z={z}, t={t}")

    d = _lattice_dim(z, t)
    budgets = [_coordinate_budget(z, t, i, bound) for i in range(d)]
    out = []
    stack = [((), 0)]
    while stack:
        prefix, cost = stack.pop()
        i = len(prefix)
        if i == d:
            out.append(phi_inverse(prefix, z, t))
            continue
        for v, c in budgets[i]:
            if cost + c <= bound:
                stack.append((prefix + (v,), cost + c))
    return sorted(out, key=lambda la: (size(la), la))
