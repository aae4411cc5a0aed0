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

The verdict, the total sign and the factors do not depend on n: a pair is
kept as its parts (alpha, beta), Koike's s_[alpha; beta], and padded only
when evaluated.  So a prediction is derived once per (theorem, partition,
t), at the least n the partition fits, and carried to any n with no new
abacus: sigma by the parity of one padding step, and epsilon flips with
it, as their product does not.  The five rows share one
`partitions.reading` per (partition, t): its core class, quotient and
block sign do not depend on z, and schur1's point 1 rotates the quotient
and moves the block sign by a closed form.
"""

from __future__ import annotations

import random
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from math import comb, gcd
from operator import add
from typing import NamedTuple

from .characters import (
    _ONE,
    _ZERO,
    GroupType,
    point_pairs,
    twisted_at_pairs,
    weyl_character,
)
# Unused here: perfbench's tracer test checks that it rebinds factorization.det.
from .linalg import det  # noqa: F401
from .partitions import (
    CoreClass,
    Partition,
    as_partition,
    mu_padded,
    partners,
    reading,
)


class TheoremId(Enum):
    """The theorem table: name, left group, z (None: no pairing), points 1,
    and classify's JSON key and text label for the cores the row leaves
    alive (for the appended-one row, its value is the class c)."""

    # As for GroupType: the identity hash, in C, keys the derivation cache.
    __hash__ = object.__hash__

    SCHUR_FAC = ("schurfac", GroupType.GL, None, 0, "empty", "Empty")
    SCHUR_ONE = ("schur1", GroupType.GL, None, 1, "single_row", "SingleRow")
    SYMPLECTIC = ("sympfact", GroupType.SP, 1, 0, "symplectic", "Symplectic")
    EVEN_ORTH = ("eorthfact", GroupType.OE, -1, 0, "orthogonal", "Orthogonal")
    ODD_ORTH = ("oorthfact", GroupType.OO, 0, 0, "self_conjugate", "SelfConjugate")

    def __new__(
        cls, name: str, group: GroupType, z: int | None, ones: int, key: str, label: str
    ):
        th = object.__new__(cls)
        th._value_, th.group, th.z, th.ones, th.key, th.label = name, group, z, ones, key, label
        return th


def length_bound(th: TheoremId, t: int, n: int) -> int:
    return t * n + th.ones


def _check_case(th: TheoremId, la: Partition, t: int, n: int) -> Partition:
    """la in canonical form, once the case's t, n and length are checked."""
    # Every cache takes 3.0 and True for 3 and 1, so t and n must be ints.
    if type(t) is not int or type(n) is not int or t < 2 or n < 1:
        raise ValueError(f"need int t >= 2 and n >= 1, got t={t!r}, n={n!r}")
    # la as a tuple, its trailing zeros dropped, so that the bound reads its
    # canonical length, and refused if its sum fails or is no int, as every
    # cache takes 2.0 for 2.  Other input is checked on a miss only.
    la = tuple(la)
    try:
        whole = type(sum(la)) is int
    except TypeError:
        whole = False
    if not whole or la and not la[-1]:
        la = as_partition(la)
    if len(la) > length_bound(th, t, n):
        raise ValueError(
            f"partition has {len(la)} parts, bound for {th.value} is {length_bound(th, t, n)}"
        )
    return la


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
    pair.  `predict` takes it at n0 only; at every n it is the tests' oracle
    for the epsilon that predict carries.
    """
    group, z = th.group, th.z
    if z is None:
        return ((t * (t - 1) // 2) * (n * (n + 1) // 2) - c * n) % 2
    # The upper classes j = t-1-z-i of class_pairs(t, z) are one slice.
    upper = cls.offsets[(t - z + 1) // 2 : t - max(z, 0)]
    e = -sum(map(comb, map(add, upper, repeat(n + (z >= 0))), repeat(2)))
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

    pts are the rational points X; the value is rational.  This checks the
    case, la as a partition (its trailing zeros dropped), the points' count
    and type and, for SP, OE and OO, that no point is 0, then evaluates
    `characters.twisted_at_pairs` at the points' integer pairs.
    """
    # _check_case checks la as a partition only when it ends in 0.
    la = as_partition(_check_case(th, la, t, n))
    _check_points(pts, n)
    if la and th.group is not GroupType.GL and not all(x.numerator for x in pts):
        raise ZeroDivisionError(f"cannot invert a zero point in {pts}")
    return twisted_at_pairs(th.group, la, point_pairs(pts), t, th.ones)


class Prediction(NamedTuple):
    """What a theorem predicts for (th, la, t, n) before any point is drawn.

    The right-hand side is sign times the product of the factors' characters,
    a factor being (group, partition, key of _POINT_SETS), a pair's partition
    (alpha, beta); a factor 1 is not listed.  sign is 0 on vanishing, else
    (-1)^epsilon * sigma, times (-1)^|mu| for a factor at -Y.  sigma is None
    when the appended-one theorem's core has several rows."""

    t: int
    n: int
    epsilon: int | None
    sigma: int | None
    sign: int
    factors: tuple[tuple[GroupType, Partition | tuple[Partition, Partition], str], ...]

    @property
    def vanishing(self) -> bool:
        return self.sign == 0


@lru_cache(maxsize=4096)
def _derive(th: TheoremId, la: Partition, t: int) -> tuple:
    """The case's prediction at the n0 of its reading, with the parity of
    one padding step of sigma, all that its move to n != n0 reads; both
    sigma and step are None for a vanishing schur1 case.  la is checked by
    the reading, on a miss only: a refused case is never cached.  A t at
    least 4 past base = max(2, la_1 + l(la) + k), k the points 1, is
    derived at base + (t - base) mod 4 and given its own t back."""
    # The period.  Each t >= base passes every hook, so n0 = 1, la is its
    # own t-core and no factor is listed.  beta(la, t) holds r = rank(la)
    # beads t + la_i - i (i <= r) and t - r below t, one on each runner
    # 0..t-l-1 and t - (i - la_i) (r < i <= l): the offsets are +1 on the
    # classes la_i - i, -1 on some classes t - j (j <= l) and 0 between.
    # Class t - j pairs with j - 1 - z, so every verdict is the same.
    # - sigma: C(t - r, 2) inversions among the low beads, and C(r, 2) +
    #   sum(la_i - i) that do not depend on t; C(u, 2) mod 2 has period 4.
    #   schur1 flips it by t mod 2 when c, a fixed class or t - j, is not 0.
    # - epsilon: GL reads T = t(t-1)/2 and c n.  Sp and O add
    #   C(1 + (z >= 0), 2) for each of the (t - z)//2 - max(0, -z) pairs
    #   but a fixed few, a count of period 4 mod 2, and a fixed sum for
    #   those few; n r is fixed, and the group terms read t mod 2, t/2 or
    #   (t - 1)/2.
    # - step is tilt mod 2 at n0 = 1: offsets on odd classes, or -c, which
    #   move with t mod 2.  _predict's flip reads it and T at the own t.
    # base >= 2, so no t below 6 folds, and such a t reads nothing of la.
    if t >= 6:
        base = max(2, (la[0] if la else 0) + len(la) + th.ones)
        if t - base >= 4:
            pred, step = _derive(th, la, base + (t - base) % 4)
            return Prediction(t, *pred[1:]), step
    return _derive_direct(th, la, t)


def _derive_direct(th: TheoremId, la: Partition, t: int) -> tuple:
    # _derive read off the abacus at t itself: the fold's oracle in the tests.
    n0, cls, quo, sigma = reading(la, t)
    live = cls.z_asymmetric(th.z, th.ones)
    if not th.ones:
        # Class i, at block position i, holds n0 + offsets[i] beads.
        c, tilt = 0, sum(cls.offsets[1::2])
    elif not live:
        # A vanishing appended-one case records no sorting sign.
        return Prediction(t, n0, None, None, 0, ()), None
    else:
        # The point 1 pads to tn0 + 1: class i moves to i + 1 and bead 0
        # joins class 0, so the quotient rotates by one.  c is the class the
        # point 1 leaves one bead above n0, and sigma_c sorts it first: from
        # the order 0..t-1 at tn0, classes t-1 and then c-1 move to the
        # front and bead 0 comes last.  A live core has no offsets at c = 0,
        # else +1 at c-1 and -1 at t-1, so sigma flips when c != 0 and tn0 is odd.
        c = cls.excess(th.ones).index(1)
        quo, sigma = quo[-1:] + quo[:-1], -sigma if c and t * n0 % 2 else sigma
        # Class c leads with n0 + 1 beads and every other class holds n0,
        # so no excess sits past block position 0.
        tilt = -c
    # From padding m to m + t each class gains one bead below the rest,
    # which adds T - c + S inversions to sigma: T = t(t-1)/2, and S the sum
    # of block position times count at m, which grows by T per step.  At
    # n0, S is n0 T plus the sum of position times excess, and tilt is that
    # sum minus c, mod 2: one step has the parity of T (n0 + 1) + tilt.
    step = ((t * (t - 1) // 2) * (n0 + 1) + tilt) % 2
    if not live:
        return Prediction(t, n0, None, sigma, 0, ()), step

    eps = _epsilon(th, t, n0, cls, c)
    odd = eps + (sigma == -1)
    # Only the factors that are not 1; a pair as its n-free (alpha, beta).
    factors = []
    for i, j in enumerate(partners(t, th.z)):
        if i < j and (quo[i] or quo[j]):
            factors.append((GroupType.GL, (quo[j], quo[i]), "Y,1/Y"))
        elif i == j and quo[i] and th.z is not None and 2 * i == t - 1 - th.z:
            # The middle class; even O takes it at -Y, with sign (-1)^|mu|.
            minus = th.group is GroupType.OE
            factors.append((GroupType.OO, quo[i], "-Y" if minus else "Y"))
            odd += minus * sum(quo[i])
        elif i == j and quo[i]:
            factors.append((th.group, quo[i], "Y,1" if th.ones and i == c else "Y"))
    pred = Prediction(t, n0, eps, sigma, -1 if odd % 2 else 1, tuple(factors))
    return pred, step


def predict(th: TheoremId, la: Partition, t: int, n: int) -> Prediction:
    """Read the verdict, the signs and the factors off the reading of la at
    the least padding tn0 that la fits, n0 = max(1, ceil(l/t)) for every
    theorem, and carry them to n: the verdict, the total sign and the
    factors do not depend on n, and sigma moves by a closed form, epsilon
    flipping with it.  schur1 admits l = tn + 1, so its move may be one
    step back, to n = n0 - 1.  The factors follow partners(t, z), as the
    module docstring says."""
    return _predict(th, _check_case(th, la, t, n), t, n)


def _predict(th: TheoremId, la: Partition, t: int, n: int) -> Prediction:
    # predict on a checked case: la canonical and within the bound.  The
    # carried prediction is built positionally: _replace goes through a
    # keyword dict per call.
    pred, step = _derive(th, la, t)
    s = n - pred.n
    if not s:
        return pred
    if pred.sigma is None:
        return Prediction(pred.t, n, pred.epsilon, None, pred.sign, pred.factors)
    # s steps add s (T - c + S0) + T s(s-1)/2 inversions, S growing by T;
    # the count holds for s = -1 too.  The total sign (-1)^epsilon sigma
    # does not depend on n, so epsilon flips with sigma.
    flip = (s * step + (t * (t - 1) // 2) * (s * (s - 1) // 2)) % 2
    eps = None if pred.vanishing else (pred.epsilon + flip) % 2
    return Prediction(pred.t, n, eps, -pred.sigma if flip else pred.sigma, pred.sign, pred.factors)


# A factor's point set, built from the pairs (p^t, q^t) of Y = (x_1^t, ...).
_POINT_SETS = {
    "Y": lambda ys: ys,
    "Y,1": lambda ys: ys + ((1, 1),),
    "Y,1/Y": lambda ys: ys + tuple((q, p) for p, q in ys),
    "-Y": lambda ys: tuple((-p, q) for p, q in ys),
}


@lru_cache(maxsize=4096)
def _factor_value(group: GroupType, mu: Partition, at: str, pairs: tuple, t: int) -> Fraction:
    # Every case of a scan at one (t, n, seed) shares its points, and many
    # share a factor, so each value is computed once.
    # The key holds the integer pairs (p, q) of X, not Y: Y is a function
    # of (X, t), formed here on a miss only, and a key of ints and a group
    # hashes no Fraction.  A DegeneratePointError is raised again on every
    # call, never cached.
    ys = tuple((p ** t, q ** t) for p, q in pairs)
    return weyl_character(group, mu, _POINT_SETS[at](ys))


@lru_cache(maxsize=4096)
def _padded(pair: tuple[Partition, Partition], n: int) -> Partition:
    # A pair (alpha, beta) padded to its GL_2n partition, once per n.
    return mu_padded(*pair, n)


def rhs_value(pred: Prediction, pts: tuple) -> Fraction:
    """The factorized side at the rational points X: pred.sign times each
    factor's bialternant ratio at its point set; exactly zero on vanishing.
    A pair (alpha, beta) is padded here, to its GL_2n partition, on which
    the value cache is keyed; a factor that pads to () is 1, not evaluated.
    This checks the points, then evaluates `_rhs` at their integer pairs."""
    _check_points(pts, pred.n)
    return _rhs(pred, point_pairs(pts))


def _rhs(pred: Prediction, pairs: tuple) -> Fraction:
    # rhs_value at the integer pairs (p, q) of checked points.
    if not pred.sign:
        return _ZERO
    val = _ONE
    for group, mu, at in pred.factors:
        if at == "Y,1/Y":
            mu = _padded(mu, pred.n)
            if not mu:
                continue
        val *= _factor_value(group, mu, at, pairs, pred.t)
    return val if pred.sign > 0 else -val


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


_RETRY_BUDGET = 200

# The stride of the seeds' point streams: it keeps the points, and so the
# bytes, of every earlier record.
_SEED_STRIDE = 1_000_003


def sample_points(n: int, seed: int) -> tuple[Fraction, ...]:
    """The point tuple of a record's seed: a deterministic tuple of n
    distinct rationals > 1, the same for every t, drawn from
    random.Random(1000003 seed).

    That is all the right side needs.  The t-th powers Y of distinct points
    above 1 are distinct and above 1, so 1, Y and 1/Y share no value, no
    product y_i y_j is 1 and -Y holds no 1: no Weyl denominator at Y,
    (Y, 1), (Y, 1/Y) or -Y vanishes, whatever t is.  Being above 1, no point
    is 0, which is all the left side's SP, OE and OO need.  A draw that
    repeats a value is redrawn whole; weyl_character's DegeneratePointError
    stays the exact guard.  This refuses an n below 1, a negative seed and
    a draw that repeats a value 200 times, naming n and the seed.
    """
    if type(n) is not int or n < 1:
        raise ValueError(f"need int n >= 1, got n={n!r}")
    # random.Random seeds with |a|, so a negative seed would replay the
    # points of its absolute value.
    if type(seed) is not int or seed < 0:
        raise ValueError(f"need int seed >= 0, got seed={seed!r}")
    # Numerators run to n^2/5, so the n draws fall among about n^4/50
    # (numerator, denominator) pairs and a repeat, which redraws them all,
    # grows rarer as n grows.  For n <= 20 the range is 3..80, so those
    # draws never change.
    top = max(80, n * n // 5)
    rng = random.Random(_SEED_STRIDE * seed)
    for _ in range(_RETRY_BUDGET):
        xs = []
        for _ in range(n):
            num = rng.randint(3, top)
            xs.append(Fraction(num, rng.randint(1, num - 1)))
        if len(set(xs)) == n:
            return tuple(xs)
    raise ValueError(
        f"could not draw n={n} distinct points in {_RETRY_BUDGET} tries for seed={seed}"
    )


@lru_cache(maxsize=4096)
def _seed_pairs(n: int, seed: int) -> tuple:
    # The integer pairs of seed's points, drawn and checked once per
    # (n, seed): they are sample_points', so they are n distinct Fractions
    # above 1.  A refused seed is never cached.
    return point_pairs(sample_points(n, seed))


def verify(th: TheoremId, la: Partition, t: int, n: int, seed: int = 0) -> VerificationReport:
    """Compare lhs_value and rhs_value at the point tuple of `seed`,
    sample_points(n, seed).  k point tuples for one case are k seeds.

    The case and the seed's type are checked once per call, and the seed's
    sign and the points once per (n, seed), by sample_points where they are
    drawn; both sides are then evaluated by the cores that lhs_value and
    rhs_value call after their own checks, at the points' integer pairs."""
    la = _check_case(th, la, t, n)
    # _seed_pairs takes 1.0 and True for 1, so the type is checked per call.
    if type(seed) is not int:
        raise ValueError(f"need int seed >= 0, got seed={seed!r}")
    pairs = _seed_pairs(n, seed)
    pred = _predict(th, la, t, n)
    lhs = twisted_at_pairs(th.group, la, pairs, t, th.ones)
    rhs = _rhs(pred, pairs)
    # Positional, in field order: the keyword form costs a dict per op.
    return VerificationReport(
        th, la, t, n, pred.vanishing, lhs, rhs, pred.epsilon, pred.sigma, lhs == rhs, seed
    )
