"""Generating functions and enumeration for skew-symmetric partition families.

A partition is z-asymmetric when its Frobenius legs exceed its arms by a
fixed offset z; z = 1, -1, 0 give the symplectic, orthogonal, and
self-conjugate families.  This module counts their t-cores three ways.
The enumeration (`enum_z_asymmetric_cores`) walks the arm tuples of the
family with their sizes and beta sets (`partitions.z_asymmetric_arms`,
one bead moved per arm), keeps each beta set closed under x -> x - t (no
hook divisible by t), and cuts every subtree with a violation that no
later arm can mend; it builds no partition.  The product (`gf_z_cores`)
is a truncated Pochhammer/theta product.  The lattice walk
(`z_core_sizes`) is a bijection for the t-core members of each family,
with one coordinate per class pair i < j = t-1-z-i
(`partitions.class_pairs`); it reads every core at one padding, carries
the bead sum and bead count of the runners set so far down the walk,
and at each leaf reads the core's size off those two numbers, in O(1)
whatever t is, and counts it.  The product and the lattice walk take
their pairs from the same `class_pairs`; the enumeration shares neither,
so it is the check on the pair list.  The size comes from the bead
positions, not from the walk's cost t*v^2 - gap*v, which is the theta
product's exponent.  Its test oracles are `z_core_offsets`, the same
walk yielding each core's runner offsets, and `core_size`, the size read
off one offsets tuple.

A series truncated at order N is the tuple of its N+1 integer
coefficients, q^m at index m; `series_product` multiplies two.
"""

from __future__ import annotations

from math import isqrt

from .partitions import class_pairs, z_asymmetric_arms


def series_product(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Product of two coefficient tuples, truncated at the lower order.
    Only b's nonzero terms are visited: a theta factor has about
    2*sqrt(order/(a_exp + b_exp)) of them."""
    order = min(len(a), len(b)) - 1
    row = [0] * (order + 1)
    terms = [(j, y) for j, y in enumerate(b[: order + 1]) if y]
    for i, x in enumerate(a[: order + 1]):
        if x:
            for j, y in terms:
                if i + j > order:
                    break
                row[i + j] += x * y
    return tuple(row)


def enum_z_asymmetric_cores(z: int, t: int, order: int) -> tuple[int, ...]:
    """Count z-asymmetric t-cores of each size straight from the Frobenius
    arms: each arm tuple of the walk with its size, kept when the beta set
    the walk carries is closed under x -> x - t.
    The walk skips each subtree whose beta set has a violation that no
    later arm can mend.  No partition is built, and no runner offset is
    read."""
    if t < 2:
        raise ValueError(f"need t >= 2, got {t}")
    if order < 0:
        raise ValueError(f"order must be nonnegative, got {order}")
    row = [0] * (order + 1)
    for _, used, _ in z_asymmetric_arms(z, order, t):
        row[used] += 1
    return tuple(row)


def gf_z_asymmetric(z: int, order: int) -> tuple[int, ...]:
    """Product form: prod (1 + q^p) over p = |z|+1, |z|+3, ...

    Each diagonal hook of a z-asymmetric partition has 2a + z + 1 cells for
    an arm a >= max(0, -z), so the hooks are distinct parts congruent to
    z+1 mod 2, the least of them |z|+1.
    """
    if order < 0:
        raise ValueError(f"order must be nonnegative, got {order}")
    row = [1] + [0] * order
    for e in range(abs(z) + 1, order + 1, 2):
        # Times (1 + q^e): downward, so each term reads its old value.
        for m in range(order, e - 1, -1):
            row[m] += row[m - e]
    return tuple(row)


def theta_f(a_exp: int, b_exp: int, order: int) -> tuple[int, ...]:
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
    return tuple(row)


def gf_z_cores(z: int, t: int, order: int) -> tuple[int, ...]:
    """Theta-product generating function for z-asymmetric t-cores."""
    if not 0 <= z <= t - 2:
        raise ValueError(f"need 0 <= z <= t-2, got z={z}, t={t}")
    if order < 0:
        raise ValueError(f"order must be nonnegative, got {order}")
    out = (1,) + (0,) * order
    # The class pair i < j with gap g = j - i gives the factor with a = t - g
    # and b = t + g.  Past q^0 its least term is q^a, so it is
    # 1 + O(q^(order+1)) once a > order; the pairs come in decreasing gap,
    # so every later factor is too.
    for i, j in class_pairs(t, z):
        g = j - i
        if t - g > order:
            break
        out = series_product(out, theta_f(t - g, t + g, order))
    return out


def _coordinate_budget(t: int, gap: int, bound: int) -> list[tuple[int, int]]:
    # A pair i < j = i + gap at offsets (v, -v) adds t*v^2 - gap*v cells,
    # at least t*|v|*(|v| - 1) since gap < t, so every offset within the
    # bound has |v| <= isqrt(bound // t) + 1.
    r = isqrt(bound // t) + 1
    return [(v, c) for v in range(-r, r + 1) if (c := t * v * v - gap * v) <= bound]


def z_core_sizes(z: int, t: int, bound: int) -> tuple[int, ...]:
    """The lattice column: q^m counts the z-asymmetric t-cores of size m,
    0 <= m <= bound, for every integer z and t >= 2.  It walks the lattice
    ball of the coordinate map, one coordinate per class pair; a pair's
    coordinate v adds t*v^2 - gap*v cells.  With no pair, as when
    |z| >= t-1, the only such core is the empty one.  Each leaf reads its
    core's size off the bead sum and count carried down to it, builds no
    core and lists no runner."""
    if bound < 0:
        raise ValueError(f"order must be nonnegative, got {bound}")
    if t < 2:
        raise ValueError(f"need t >= 2, got {t}")
    # A pair whose only offset within the bound is 0 holds offset 0 in
    # every core, so the walk leaves it out.  Offsets (1, -1) cost the
    # least, t - gap, and `class_pairs` comes in order of decreasing gap,
    # so the pairs that can move come first.
    pairs, budgets = [], []
    for i, j in class_pairs(t, z):
        if t - (j - i) > bound:
            break
        pairs.append((i, j))
        budgets.append(_coordinate_budget(t, j - i, bound))
    row = [0] * (bound + 1)
    if not pairs:
        row[0] = 1
        return tuple(row)
    # Every core is read at one padding tn, with n the budgets' radius, so
    # runner i holds its n + o_i >= 0 beads at i, i + t, ...: h beads there
    # sum to h*i + t*h*(h - 1)/2.  A pair at coordinate v puts h = n + v on
    # class i and h = n - v on class j.  The runners no pair moves hold n
    # beads each, and their sum and count are one closed form.
    n = isqrt(bound // t) + 1
    rest = t - 2 * len(pairs)
    still = n * (t * (t - 1) // 2 - sum(i + j for i, j in pairs)) + rest * t * n * (n - 1) // 2
    last = len(pairs) - 1

    # Depth first, each pair's offsets largest first, one frame per
    # movable pair: past the stack, a ball too large to walk is refused
    # with a RecursionError.  Each frame carries the bead sum and count of
    # the runners set so far, and a leaf reads its core's size off them,
    # not from the walk's cost t*v^2 - gap*v, which is the theta product's
    # exponent: a beta set of L beads has size sum(beads) - L(L - 1)/2.
    def walk(k: int, room: int, total: int, length: int) -> None:
        i, j = pairs[k]
        for v, c in reversed(budgets[k]):
            if c > room:
                continue
            a, b = n + v, n - v  # class i's and class j's beads
            beads = total + a * i + t * a * (a - 1) // 2 + b * j + t * b * (b - 1) // 2
            count = length + a + b
            if k < last:
                walk(k + 1, room - c, beads, count)
                continue
            # Every walked core fits the bound; a wrong size is a
            # mismatched row, never an IndexError or a count from the end.
            size = beads - count * (count - 1) // 2
            if 0 <= size <= bound:
                row[size] += 1

    walk(0, bound, still, rest * n)
    return tuple(row)
