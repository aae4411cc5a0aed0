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
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import comb

from .characters import GroupType, sample_points, twisted_character, weyl_character
from .cyclotomic import field
from .linalg import det
from .partitions import (
    CoreClass,
    Partition,
    classify_core,
    mu_padded,
    residue_counts,
    sigma_c_sign,
    sigma_sign,
    t_quotient,
)


class TheoremId(Enum):
    SCHUR_FAC = "schurfac"
    SCHUR_ONE = "schur1"
    SYMPLECTIC = "sympfact"
    EVEN_ORTH = "eorthfact"
    ODD_ORTH = "oorthfact"


def length_bound(th: TheoremId, t: int, n: int) -> int:
    return t * n + 1 if th is TheoremId.SCHUR_ONE else t * n


def predicted_vanishing(th: TheoremId, cls: CoreClass) -> bool:
    """Whether the twisted character is identically zero, read off the core."""
    if th is TheoremId.SCHUR_FAC:
        return not cls.empty
    if th is TheoremId.SCHUR_ONE:
        return cls.single_row is None
    if th is TheoremId.SYMPLECTIC:
        return not cls.symplectic
    if th is TheoremId.EVEN_ORTH:
        return not cls.orthogonal
    return not cls.self_conjugate


def epsilon(th: TheoremId, la: Partition, t: int, n: int, cls: CoreClass) -> int:
    """Parity of the global sign exponent in the theorem's right-hand side.

    cls is classify_core(la, t, n).  Only defined when the theorem's core
    classification holds; the residue counts n_i are taken at padding tn
    (the same padding the quotient and sigma use), and r is the rank of
    the core.
    """
    if predicted_vanishing(th, cls):
        raise ValueError(
            f"epsilon undefined for this class: {th.value} vanishes on core {cls.core}"
        )
    base = (t * (t - 1) // 2) * (n * (n + 1) // 2)
    if th is TheoremId.SCHUR_FAC:
        return base % 2
    if th is TheoremId.SCHUR_ONE:
        return (base - cls.single_row * n) % 2

    counts = residue_counts(la, t, t * n)
    r = cls.rank
    if th is TheoremId.SYMPLECTIC:
        e = -sum(comb(counts[i] + 1, 2) for i in range(t // 2, t - 1))
        if t % 2 == 0:
            e += n * (n + 1) // 2 + n * r
        return e % 2
    if th is TheoremId.EVEN_ORTH:
        e = -sum(comb(counts[i], 2) for i in range((t + 2) // 2, t))
        if t % 2 == 0:
            e += n * (n + t - 1) // 2 + n * r
        else:
            e += (t - 1) * n // 2
        return e % 2
    e = -sum(comb(counts[i] + 1, 2) for i in range((t + 1) // 2, t))
    if t % 2 == 1:
        e += n * r
    return e % 2


def _sorting_sign(th: TheoremId, la: Partition, t: int, n: int, cls: CoreClass) -> int | None:
    """The theorem's sorting sign: sigma at padding tn, or, for the
    appended-one theorem, sigma_c at tn+1 with c the core's one row (None
    when the core has several rows)."""
    if th is not TheoremId.SCHUR_ONE:
        return sigma_sign(la, t, n)
    if cls.single_row is None:
        return None
    return sigma_c_sign(la, t, n, cls.single_row)


def _check_args(th: TheoremId, la: Partition, t: int, n: int, pts: tuple) -> None:
    if t < 2 or n < 1:
        raise ValueError(f"need t >= 2 and n >= 1, got t={t}, n={n}")
    if len(pts) != n:
        raise ValueError(f"expected {n} points, got {len(pts)}")
    if not all(isinstance(x, Fraction) for x in pts):
        raise TypeError(f"points must be Fractions, got {pts}")
    if len(la) > length_bound(th, t, n):
        raise ValueError(
            f"partition has {len(la)} parts, bound for {th.value} is {length_bound(th, t, n)}"
        )


_LHS_GROUP = {
    TheoremId.SCHUR_FAC: GroupType.GL,
    TheoremId.SCHUR_ONE: GroupType.GL,
    TheoremId.SYMPLECTIC: GroupType.SP,
    TheoremId.EVEN_ORTH: GroupType.OE,
    TheoremId.ODD_ORTH: GroupType.OO,
}


def lhs_value(th: TheoremId, la: Partition, t: int, n: int, pts: tuple) -> Fraction:
    """The twisted character: the matching group evaluated at (X, wX, ...),
    with the point 1 appended for the appended-one theorem.

    pts are the rational points X; the value is rational.
    """
    _check_args(th, la, t, n, pts)
    return twisted_character(_LHS_GROUP[th], la, pts, t, extra_one=th is TheoremId.SCHUR_ONE)


def rhs_value(th: TheoremId, la: Partition, t: int, n: int, pts: tuple) -> Fraction:
    """The factorized side: sign times a product of quotient characters.

    pts are the rational points X; the value is rational, and is exactly
    zero when the vanishing predicate holds.
    The quotient is taken at the same padding as the permutation sign
    (tn, or tn+1 for the appended-one theorem), so the cyclic-rotation
    ambiguity of the quotient cannot desynchronize signs and factors.
    """
    _check_args(th, la, t, n, pts)
    cls = classify_core(la, t, n)
    if predicted_vanishing(th, cls):
        return Fraction(0)

    eps = epsilon(th, la, t, n, cls)
    sgn = _sorting_sign(th, la, t, n, cls)
    quo = t_quotient(la, t, length_bound(th, t, n))
    xt = tuple(x ** t for x in pts)
    xt_both = xt + tuple(1 / x for x in xt)
    one = Fraction(1)
    if th is TheoremId.SCHUR_ONE:
        c = cls.single_row
        val = weyl_character(GroupType.GL, quo[c], xt + (one,))
        for i in range(t):
            if i != c:
                val = val * weyl_character(GroupType.GL, quo[i], xt)
    elif th is TheoremId.SCHUR_FAC:
        val = one
        for comp in quo:
            val = val * weyl_character(GroupType.GL, comp, xt)
    elif th is TheoremId.SYMPLECTIC:
        val = weyl_character(GroupType.SP, quo[t - 1], xt)
        for i in range((t - 3) // 2 + 1):
            mu = mu_padded(quo[t - 2 - i], quo[i], n)
            val = val * weyl_character(GroupType.GL, mu, xt_both)
        if t % 2 == 0:
            val = val * weyl_character(GroupType.OO, quo[t // 2 - 1], xt)
    elif th is TheoremId.EVEN_ORTH:
        val = weyl_character(GroupType.OE, quo[0], xt)
        for i in range(1, (t - 1) // 2 + 1):
            mu = mu_padded(quo[t - i], quo[i], n)
            val = val * weyl_character(GroupType.GL, mu, xt_both)
        if t % 2 == 0:
            mid = quo[t // 2]
            val = val * weyl_character(GroupType.OO, mid, tuple(-x for x in xt))
            if sum(mid) % 2:
                val = -val
    else:
        val = one
        for i in range((t - 2) // 2 + 1):
            mu = mu_padded(quo[t - 1 - i], quo[i], n)
            val = val * weyl_character(GroupType.GL, mu, xt_both)
        if t % 2 == 1:
            val = val * weyl_character(GroupType.OO, quo[(t - 1) // 2], xt)

    if (eps + (sgn == -1)) % 2:
        return -val
    return val


@dataclass(frozen=True)
class VerificationReport:
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
    trials: int

    def as_dict(self) -> dict:
        # The record format: each value as its coefficient vector in Q(w_t).
        pad = ["0"] * (field(self.t).degree - 1)
        return {
            "theorem": self.theorem.value,
            "partition": list(self.partition),
            "t": self.t,
            "n": self.n,
            "seed": self.seed,
            "trials": self.trials,
            "predicted_vanishing": self.predicted_vanishing,
            "sign_exponent": self.sign_exponent,
            "sigma_sign": self.sigma_sign,
            "lhs": [str(self.lhs)] + pad,
            "rhs": [str(self.rhs)] + pad,
            "match": self.match,
        }


def _trial_seed(seed: int, k: int) -> int:
    # Injective over trials so distinct seeds never share point streams.
    return 1_000_003 * seed + k


def verify(
    th: TheoremId, la: Partition, t: int, n: int, seed: int = 0, trials: int = 1
) -> VerificationReport:
    """Compare lhs_value and rhs_value at `trials` seeded point tuples.

    The report carries the values of the first trial that mismatches, or
    of trial 0 when every trial matches.
    """
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    cls = classify_core(la, t, n)
    vanish = predicted_vanishing(th, cls)
    shown = None
    for k in range(trials):
        pts = sample_points(n, t, _trial_seed(seed, k))
        lhs = lhs_value(th, la, t, n, pts)
        rhs = rhs_value(th, la, t, n, pts)
        if shown is None or lhs != rhs:
            shown = (lhs, rhs)
        if lhs != rhs:
            break
    lhs, rhs = shown
    eps = None if vanish else epsilon(th, la, t, n, cls)
    sgn = _sorting_sign(th, la, t, n, cls)
    return VerificationReport(
        theorem=th,
        partition=la,
        t=t,
        n=n,
        predicted_vanishing=vanish,
        lhs=lhs,
        rhs=rhs,
        sign_exponent=eps,
        sigma_sign=sgn,
        match=lhs == rhs,
        seed=seed,
        trials=trials,
    )


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
