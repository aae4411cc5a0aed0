"""Assembly and exact verification of the five character factorizations.

Each theorem states that a classical-group character evaluated at the
root-of-unity-twisted tuple (X, wX, ..., w^(t-1) X) either vanishes, with
the vanishing controlled by the classification of the t-core, or splits
into a signed product of smaller characters built from the t-quotient.
Both sides are evaluated exactly over Q at seeded rational points: every
twisted value is rational, because the twisted point multiset is stable
under Galois conjugation.  The left side expands the twisted character in
complete homogeneous functions (Jacobi-Trudi / Koike-Terada with the twist
rule); the right side takes bialternant ratios at the t-th powers.  The
two routes share nothing but `det`.  Records write each value as its
coefficient vector in Q(w), which is zero past the rational part.

Each theorem is a row (left group, z, k points 1) of `TheoremId`; z
pairs the residue classes (`partitions.partners`, none for GL).  One
rule, `CoreClass.z_asymmetric(z, k)`, gives every verdict, and one loop
over the pairing the factors: each pair i < j a GL one, the self-paired
middle class 2i = t-1-z an odd orthogonal one and any other self-paired
class the left group, at (Y, 1) for the class of the point 1.

The verdict, the total sign and the factors' quotient parts do not depend
on n.  So a prediction is derived once per (theorem, partition, t), at the
least n the partition fits, and carried to a larger n with no new abacus:
epsilon by its formula, sigma by the parity of the padding steps of t, and
each pair factor with a non-empty part padded again.
"""

from __future__ import annotations

import random
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from math import comb, gcd
from typing import NamedTuple

from .characters import GroupType, twisted_character, weyl_character
# Unused here: perfbench's tracer test checks that it rebinds factorization.det.
from .linalg import det  # noqa: F401
from .partitions import (
    CoreClass,
    Partition,
    abacus,
    as_partition,
    class_pairs,
    mu_padded,
    partners,
)


class TheoremId(Enum):
    """The theorem table: name, left group, z (None: no pairing), points 1."""

    SCHUR_FAC = ("schurfac", GroupType.GL, None, 0)
    SCHUR_ONE = ("schur1", GroupType.GL, None, 1)
    SYMPLECTIC = ("sympfact", GroupType.SP, 1, 0)
    EVEN_ORTH = ("eorthfact", GroupType.OE, -1, 0)
    ODD_ORTH = ("oorthfact", GroupType.OO, 0, 0)

    def __new__(cls, name: str, group: GroupType, z: int | None, ones: int):
        th = object.__new__(cls)
        th._value_, th.group, th.z, th.ones = name, group, z, ones
        return th


def length_bound(th: TheoremId, t: int, n: int) -> int:
    return t * n + th.ones


def _check_case(th: TheoremId, la: Partition, t: int, n: int) -> None:
    if t < 2 or n < 1:
        raise ValueError(f"need t >= 2 and n >= 1, got t={t}, n={n}")
    if len(la) > length_bound(th, t, n):
        raise ValueError(
            f"partition has {len(la)} parts, bound for {th.value} is {length_bound(th, t, n)}"
        )


def _check_points(pts: tuple, n: int) -> None:
    if len(pts) != n:
        raise ValueError(f"expected {n} points, got {len(pts)}")
    if not all(isinstance(x, Fraction) for x in pts):
        raise TypeError(f"points must be Fractions, got {pts}")


def _epsilon(th: TheoremId, t: int, n: int, cls: CoreClass, c: int) -> int:
    """Parity of the global sign exponent in the right-hand side of a case
    that does not vanish.

    cls is the class of the t-core and c the class of the appended point 1
    (0 when there is none).  The residue counts are those at padding tn,
    where class j holds n_j = n + cls.offsets[j] entries, and r is the rank
    of the core.  For Sp and O one sum runs over the upper class j of each
    pair.
    """
    group, z = th.group, th.z
    if z is None:
        return ((t * (t - 1) // 2) * (n * (n + 1) // 2) - c * n) % 2
    e = -sum(comb(n + cls.offsets[j] + (z >= 0), 2) for _, j in class_pairs(t, z))
    nr = n * cls.rank
    if group is GroupType.SP and t % 2 == 0:
        e += n * (n + 1) // 2 + nr
    elif group is GroupType.OE:
        e += n * (n + t - 1) // 2 + nr if t % 2 == 0 else (t - 1) * n // 2
    elif group is GroupType.OO and t % 2 == 1:
        e += nr
    return e % 2


def lhs_value(th: TheoremId, la: Partition, t: int, n: int, pts: tuple) -> Fraction:
    """The twisted character: the theorem's group evaluated at
    (X, wX, ...), with its points 1 appended.

    pts are the rational points X; the value is rational.
    """
    _check_case(th, la, t, n)
    _check_points(pts, n)
    return twisted_character(th.group, la, pts, t, ones=th.ones)


class Prediction(NamedTuple):
    """What a theorem predicts for (th, la, t, n) before any point is drawn.

    The right-hand side is sign times the product of the factors' characters,
    a factor being (group, partition, key of _POINT_SETS).  sign is 0 on
    vanishing, else (-1)^epsilon * sigma, times (-1)^|mu| for a factor at -Y.
    sigma is None when the appended-one theorem's core has several rows."""

    t: int
    n: int
    epsilon: int | None
    sigma: int | None
    sign: int
    factors: tuple[tuple[GroupType, Partition, str], ...]

    @property
    def vanishing(self) -> bool:
        return self.sign == 0


@lru_cache(maxsize=4096)
def _derive(th: TheoremId, la: Partition, t: int) -> tuple:
    # The case's prediction at the least n0 that la fits, with what its move
    # to n > n0 reads: the class of the core, the class c of the point 1
    # (None without one), and (index, front, back) of each pair factor
    # with a non-empty quotient part.
    # Checked here, on a miss only: a refused case is never cached.
    la = as_partition(la)
    n0 = max(1, -((th.ones - len(la)) // t))
    ab = abacus(la, t, length_bound(th, t, n0))
    cls = CoreClass(ab.offsets)
    pairing = partners(t, th.z)
    if not cls.z_asymmetric(th.z, th.ones, pairing):
        # A vanishing appended-one case records no sorting sign.
        sigma = None if th.ones else ab.block_sign()
        return Prediction(t, n0, None, sigma, 0, ()), cls, None, ()

    # With a point 1 appended, c is the class it leaves one bead above n,
    # and sigma_c sorts class c first.
    c = cls.excess(th.ones).index(1) if th.ones else None
    sigma = ab.block_sign(c)
    eps = _epsilon(th, t, n0, cls, c or 0)
    odd = eps + (sigma == -1)
    quo = ab.quotient
    factors, pads = [], []
    for i, j in enumerate(pairing):
        if i < j:
            front, back, mu = quo[j], quo[i], ()
            # At large t most pairs have two empty parts, which pad to ().
            if front or back:
                pads.append((len(factors), front, back))
                mu = mu_padded(front, back, n0)
            factors.append((GroupType.GL, mu, "Y,1/Y"))
        elif i == j and th.z is not None and 2 * i == t - 1 - th.z:
            # The middle class; even O takes it at -Y, with sign (-1)^|mu|.
            minus = th.group is GroupType.OE
            factors.append((GroupType.OO, quo[i], "-Y" if minus else "Y"))
            odd += minus * sum(quo[i])
        elif i == j:
            factors.append((th.group, quo[i], "Y,1" if i == c else "Y"))
    return Prediction(t, n0, eps, sigma, -1 if odd % 2 else 1, tuple(factors)), cls, c, tuple(pads)


def predict(th: TheoremId, la: Partition, t: int, n: int) -> Prediction:
    """Read the verdict, the signs and the factors off one abacus of la at
    the least length bound tn0 + k that la fits, k the points 1, and carry
    them to n: the verdict, the total sign and the factors' quotient parts
    do not depend on n, and the split of the sign into epsilon and sigma
    moves by a closed form.  The factors follow partners(t, z), as the
    module docstring says."""
    _check_case(th, la, t, n)
    pred, cls, c, pads = _derive(th, tuple(la), t)
    s = n - pred.n
    if not s:
        return pred
    sigma = pred.sigma
    if sigma is not None:
        # From padding m to m + t each class gains one bead below the rest,
        # which adds T - c + S inversions: T = t(t-1)/2, and S the sum of
        # block position times count at m, which grows by T per step.
        T = t * (t - 1) // 2
        e = cls.excess(th.ones)
        order = sorted(range(t), key=lambda i: i != c)
        s0 = sum(k * (pred.n + e[i]) for k, i in enumerate(order))
        if (s * (T - (c or 0) + s0) + T * s * (s - 1) // 2) % 2:
            sigma = -sigma
    if pred.vanishing:
        return Prediction(t, n, None, sigma, 0, ())
    factors = list(pred.factors)
    for k, front, back in pads:
        factors[k] = (GroupType.GL, mu_padded(front, back, n), "Y,1/Y")
    return Prediction(t, n, _epsilon(th, t, n, cls, c or 0), sigma, pred.sign, tuple(factors))


# A factor's point set, built from the t-th powers Y = (x_1^t, ..., x_n^t).
_POINT_SETS = {
    "Y": lambda ys: ys,
    "Y,1": lambda ys: ys + (Fraction(1),),
    "Y,1/Y": lambda ys: ys + tuple(1 / y for y in ys),
    "-Y": lambda ys: tuple(-y for y in ys),
}


@lru_cache(maxsize=4096)
def _factor_value(group: GroupType, mu: Partition, at: str, pts: tuple, t: int) -> Fraction:
    # Every case of a scan at one (t, n, seed) shares its points, and many
    # share a factor, so each value is computed once.
    # The key holds X, not Y: Y is a function of (X, t), and hashing Y would
    # cost time that grows with t on every lookup.  A DegeneratePointError
    # is raised again on every call, never cached.
    ys = tuple(x ** t for x in pts)
    return weyl_character(group, mu, _POINT_SETS[at](ys))


def rhs_value(pred: Prediction, pts: tuple) -> Fraction:
    """The factorized side at the rational points X: pred.sign times each
    factor's bialternant ratio at its point set; exactly zero on vanishing.
    A factor of the empty partition is 1 for every group at every point
    set, so it is never evaluated."""
    _check_points(pts, pred.n)
    if pred.vanishing:
        return Fraction(0)
    val = Fraction(pred.sign)
    for group, mu, at in pred.factors:
        if mu:
            val *= _factor_value(group, mu, at, pts, pred.t)
    return val


@lru_cache(maxsize=None)
def _zero_pad(t: int) -> tuple[str, ...]:
    # phi(t) - 1 zeros, counted with t gcd calls once per t, not per record.
    return ("0",) * (sum(gcd(k, t) == 1 for k in range(t)) - 1)


class VerificationReport(NamedTuple):
    theorem: TheoremId
    partition: Partition
    t: int
    n: int
    predicted_vanishing: bool
    lhs: Fraction
    rhs: Fraction
    sign_exponent: int | None
    sigma_sign: int | None
    match: bool
    seed: int

    def as_dict(self) -> dict:
        # The record format: each value as its coefficient vector in Q(w_t),
        # phi(t) entries long, zero past the rational part.
        pad = _zero_pad(self.t)
        return {
            "theorem": self.theorem.value,
            "partition": list(self.partition),
            "t": self.t,
            "n": self.n,
            "seed": self.seed,
            # Always 1: the standing record pins and benchmark digests hash it.
            "trials": 1,
            "predicted_vanishing": self.predicted_vanishing,
            "sign_exponent": self.sign_exponent,
            "sigma_sign": self.sigma_sign,
            "lhs": [str(self.lhs), *pad],
            "rhs": [str(self.rhs), *pad],
            "match": self.match,
        }


class SamplingError(RuntimeError):
    """The point sampler ran out of retries."""


_RETRY_BUDGET = 200


@lru_cache(maxsize=4096)
def sample_points(n: int, seed: int) -> tuple[Fraction, ...]:
    """Deterministic tuple of n distinct rationals > 1, the same for every t.

    That is all the right side needs.  The t-th powers Y of distinct points
    above 1 are distinct and above 1, so 1, Y and 1/Y share no value, no
    product y_i y_j is 1 and -Y holds no 1: no Weyl denominator at Y,
    (Y, 1), (Y, 1/Y) or -Y vanishes, whatever t is.  A draw that repeats a
    value is redrawn whole; weyl_character's DegeneratePointError stays the
    exact guard.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got n={n}")
    # Numerators grow with n so that n distinct values stay likely; for
    # n <= 20 the range is 3..80, so those draws never change.
    top = max(80, 4 * n)
    rng = random.Random(seed)
    for _ in range(_RETRY_BUDGET):
        xs = []
        for _ in range(n):
            num = rng.randint(3, top)
            xs.append(Fraction(num, rng.randint(1, num - 1)))
        if len(set(xs)) == n:
            return tuple(xs)
    raise SamplingError(f"could not find {n} distinct points for seed={seed}")


# Seed s draws its points from random.Random(_SEED_STRIDE * s).  The factor
# keeps the point stream, and so the bytes, of every earlier record.
_SEED_STRIDE = 1_000_003


def check_seed(seed: int) -> None:
    """Refuse a negative seed."""
    # random.Random seeds with |a|, so a negative seed would replay the
    # points of its absolute value.
    if seed < 0:
        raise ValueError(f"need seed >= 0, got {seed}")


def verify(th: TheoremId, la: Partition, t: int, n: int, seed: int = 0) -> VerificationReport:
    """Compare lhs_value and rhs_value at the point tuple of `seed`,
    sample_points(n, _SEED_STRIDE * seed).  k point tuples for one case
    are k seeds."""
    check_seed(seed)
    pred = predict(th, la, t, n)
    pts = sample_points(n, _SEED_STRIDE * seed)
    lhs, rhs = lhs_value(th, la, t, n, pts), rhs_value(pred, pts)
    return VerificationReport(
        theorem=th,
        partition=la,
        t=t,
        n=n,
        predicted_vanishing=pred.vanishing,
        lhs=lhs,
        rhs=rhs,
        sign_exponent=pred.epsilon,
        sigma_sign=pred.sigma,
        match=lhs == rhs,
        seed=seed,
    )
