"""Generating functions, theta products, and the core lattice bijection."""

import json
import random

import pytest

from twistchar import cli, partitions, series
from helpers import (
    conjugate,
    core_size,
    count_sizes,
    enum_z_asymmetric,
    is_t_core,
    is_z_asymmetric,
    lattice_cores,
    pair_offsets,
    qpoch,
    series_product_dense,
    t_core_strips,
    z_asymmetric_up_to,
    z_core_offsets,
    z_core_offsets_stack,
)
from twistchar.partitions import (
    class_pairs,
    core_from_offsets,
    partitions_of,
    partitions_up_to,
    reading,
    size,
)
from twistchar.series import (
    enum_z_asymmetric_cores,
    gf_z_asymmetric,
    gf_z_cores,
    series_product,
    theta_f,
    z_core_sizes,
)


def test_series_arithmetic():
    a, b = (1, 2, 3), (1, 1, 1, 1)
    # Truncated at the lower order, whichever side it is on.
    assert series_product(a, b) == series_product(b, a) == (1, 3, 6)
    assert series_product((1, 0, 0, 0), a) == a
    # Sizes past the order, and negative ones, are not counted.
    assert count_sizes([0, 5, 9, -1, 5, 9], 5) == (1, 0, 0, 0, 0, 2)
    assert count_sizes([], 0) == (0,)


def test_series_product_matches_the_dense_product():
    # Runs of zeros on either side, unequal lengths and order 0: the
    # product visits b's nonzero terms only and stops past the order.
    rng = random.Random(43)
    for _ in range(400):
        a, b = (
            tuple(rng.choice((0, 0, 0, rng.randint(-3, 3))) for _ in range(rng.randint(1, 30)))
            for _ in range(2)
        )
        assert series_product(a, b) == series_product_dense(a, b), (a, b)
    for a, b in [((5,), (0,)), ((0,), (7, 1)), ((2, 1, 0), (3,)), ((0, 0, 4), (0, 0, 0, 9))]:
        assert series_product(a, b) == series_product_dense(a, b), (a, b)


def test_one_minus_power_helper():
    # A step past the order leaves one factor: (1 + q^3)(1 - q^3) = 1 - q^6.
    s = series_product(qpoch(3, 11, 10, 1), qpoch(3, 11, 10, -1))
    want = [1] + [0] * 10
    want[6] = -1
    assert s == tuple(want)
    assert qpoch(2, 7, 6, 1) == (1, 0, 1, 0, 0, 0, 0)
    for first, step in [(0, 1), (1, 0)]:
        with pytest.raises(ValueError):
            qpoch(first, step, 3, -1)


@pytest.mark.parametrize("z", range(-4, 5))
def test_enumeration_matches_product(z):
    assert enum_z_asymmetric(z, 20) == gf_z_asymmetric(z, 20)


def test_family_counts():
    assert gf_z_asymmetric(1, 6)[6] == 2
    assert gf_z_asymmetric(0, 4) == (1, 1, 0, 1, 1)
    assert gf_z_asymmetric(-1, 0) == (1,)
    # z = -2: arms from 2 give the hooks 3, 5, 7, ...
    assert gf_z_asymmetric(-2, 8) == (1, 0, 0, 1, 0, 1, 0, 1, 1)


@pytest.mark.parametrize("z", range(-4, 5))
def test_sizes_match_distinct_odd_or_even_parts(z):
    # parts correspond to 2*arm + z + 1 with arm >= max(0, -z), hence the
    # parity and the floor; the product form counts exactly these parts
    par = (z + 1) % 2
    product = gf_z_asymmetric(z, 20)
    for m in range(21):
        direct = sum(1 for la in partitions_of(m) if is_z_asymmetric(la, z))
        strict = sum(
            1
            for la in partitions_of(m)
            if len(set(la)) == len(la)
            and all(p % 2 == par and p >= abs(z) + 1 for p in la)
        )
        assert direct == strict == product[m], m


def test_theta_supports():
    assert [m for m, c in enumerate(theta_f(1, 5, 20)) if c] == [0, 1, 5, 8, 16]
    assert [m for m, c in enumerate(theta_f(2, 4, 20)) if c] == [0, 2, 4, 10, 14]
    assert all(c in (0, 1) for c in theta_f(1, 5, 60))
    assert theta_f(3, 1, 25) == theta_f(1, 3, 25)
    with pytest.raises(ValueError):
        theta_f(0, 0, 5)
    with pytest.raises(ValueError):
        theta_f(2, -2, 5)
    with pytest.raises(ValueError):
        theta_f(1, 2, -1)


def test_theta_doubling():
    for b in (1, 2, 3):
        lhs = theta_f(0, b, 36)
        rhs = theta_f(b, 3 * b, 36)
        assert lhs == tuple(2 * c for c in rhs)


@pytest.mark.parametrize("a,b", [(1, 5), (2, 4), (1, 1), (3, 4)])
def test_theta_triple_product(a, b):
    order = 30
    prod = series_product(
        series_product(qpoch(a, a + b, order, 1), qpoch(b, a + b, order, 1)),
        qpoch(a + b, a + b, order, -1),
    )
    assert theta_f(a, b, order) == prod


def test_core_product_forms():
    assert [m for m, c in enumerate(gf_z_cores(1, 3, 20)) if c] == [0, 2, 4, 10, 14]
    assert [m for m, c in enumerate(gf_z_cores(0, 3, 20)) if c] == [0, 1, 5, 8, 16]
    assert [m for m, c in enumerate(gf_z_cores(0, 2, 21)) if c] == [0, 1, 3, 6, 10, 15, 21]
    with pytest.raises(ValueError):
        gf_z_cores(-1, 3, 10)
    with pytest.raises(ValueError):
        gf_z_cores(2, 3, 10)
    with pytest.raises(ValueError):
        gf_z_cores(0, 3, -1)


def test_core_product_skips_the_factors_past_the_order(tmp_path, monkeypatch, capsys):
    # At t = 20000 all but 5 of the 10000 theta factors are 1 + O(q^11).
    real, products = series.series_product, []

    def counted(a, b):
        products.append(1)
        return real(a, b)

    monkeypatch.setattr(series, "series_product", counted)
    out = tmp_path / "series.jsonl"
    assert cli.main(["series", "--z", "0", "--t", "20000", "--N", "10", "--out", str(out)]) == 0
    capsys.readouterr()
    assert len(products) <= 5
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(rows) == 11 and all(row["product"] == row["enum"] for row in rows)


def test_core_product_is_every_theta_factor():
    for t in range(2, 10):
        for z in range(t - 1):
            for order in range(0, 3 * t, 3):
                full = (1,) + (0,) * order
                for i in range((t - z - 2) // 2 + 1):
                    factor = theta_f(2 * i + z + 1, 2 * t - 2 * i - z - 1, order)
                    full = series_product(full, factor)
                assert gf_z_cores(z, t, order) == full, (z, t, order)


def test_series_at_large_t_reads_no_partner_table(monkeypatch, capsys):
    # At t = 10^5 the walk reads one class pair and the product two theta
    # factors; neither builds the 10^5 partners nor a factor past the order.
    real, seen = series.theta_f, []

    def bounded(a, b, order):
        assert min(a, b) <= order, (a, b, order)
        seen.append((a, b))
        return real(a, b, order)

    def refused(t, z):
        raise AssertionError("partners called")

    monkeypatch.setattr(series, "theta_f", bounded)
    monkeypatch.setattr(partitions, "partners", refused)
    assert not hasattr(series, "partners")
    assert cli.main(["series", "--z", "0", "--t", "100000", "--N", "3"]) == 0
    out = capsys.readouterr().out.splitlines()
    # The self-conjugate cores (), (1) and (2, 1).
    rows = [[str(m), *[str(c)] * 3] for m, c in enumerate([1, 1, 0, 1])]
    assert [line.split() for line in out[1:]] == rows
    assert seen == [(1, 199999), (3, 199997)]


@pytest.mark.parametrize(
    "z,t",
    [(0, 2), (0, 3), (1, 3), (0, 4), (1, 4), (2, 4), (1, 5), (3, 5)],
)
def test_core_counts_three_ways(z, t):
    order = 26
    brute = [0] * (order + 1)
    for m in range(order + 1):
        for la in partitions_of(m):
            if is_z_asymmetric(la, z) and reading(la, t).cls.core == la:
                brute[m] += 1
    assert tuple(brute) == gf_z_cores(z, t, order)
    assert count_sizes(map(size, lattice_cores(z, t, order)), order) == tuple(brute)
    assert z_core_sizes(z, t, order) == tuple(brute)


@pytest.mark.parametrize("t", [3, 4])
def test_orthogonal_core_counts_brute_force(t):
    order = 18
    brute: dict[int, int] = {}
    for m in range(order + 1):
        for la in partitions_of(m):
            if is_z_asymmetric(la, -1) and reading(la, t).cls.core == la:
                brute[m] = brute.get(m, 0) + 1
    counts: dict[int, int] = {}
    for la in lattice_cores(-1, t, order):
        counts[size(la)] = counts.get(size(la), 0) + 1
    assert counts == brute


def test_lattice_coordinate_values():
    # A core's coordinates are the offsets of the lower class of each pair.
    assert reading((1, 1), 3).cls.offsets == pair_offsets((1,), 1, 3) == (1, -1, 0)
    assert reading((1,), 3).cls.offsets == pair_offsets((1,), 0, 3) == (1, 0, -1)
    assert reading((), 3).cls.offsets == pair_offsets((0,), 1, 3)
    assert core_from_offsets(pair_offsets((-1,), 1, 3)) == (2, 1, 1)
    assert core_from_offsets(pair_offsets((0, 0), 0, 4)) == ()
    # No coordinates for a 3-core that is not 1-asymmetric, for a partition
    # that is not a 3-core, nor for a 3-core that is not (-1)-asymmetric.
    assert not reading((2,), 3).cls.z_asymmetric(1)
    assert reading((3, 3, 3), 3).cls.core != (3, 3, 3)
    assert not reading((1, 1), 3).cls.z_asymmetric(-1)


@pytest.mark.parametrize(
    "z,t",
    [(0, 2), (0, 3), (1, 3), (0, 4), (1, 4), (2, 4), (0, 5), (1, 5), (2, 5), (3, 5)],
)
def test_lattice_bijection_roundtrip(z, t):
    d = (t - z) // 2
    vecs = [()]
    for _ in range(d):
        vecs = [v + (c,) for v in vecs for c in range(-2, 3)]
    slopes = [t - z - 1 - 2 * i for i in range(d)]
    for v in vecs:
        offsets = pair_offsets(v, z, t)
        la = core_from_offsets(offsets)
        assert reading(la, t).cls.offsets == offsets
        assert is_z_asymmetric(la, z) and reading(la, t).cls.core == la
        assert size(la) == sum(t * x * x - s * x for x, s in zip(v, slopes))
    cores = lattice_cores(z, t, 30)
    assert len(set(cores)) == len(cores)
    for la in cores:
        assert core_from_offsets(reading(la, t).cls.offsets) == la


def test_core_enumeration_values():
    assert lattice_cores(1, 3, 14) == [
        (),
        (1, 1),
        (2, 1, 1),
        (4, 2, 2, 1, 1),
        (5, 3, 2, 2, 1, 1),
    ]
    assert lattice_cores(-1, 3, 14) == [
        (),
        (2,),
        (3, 1),
        (5, 3, 1, 1),
        (6, 4, 2, 1, 1),
    ]
    assert lattice_cores(1, 2, 40) == [()]
    assert lattice_cores(-1, 2, 40) == [()]
    assert [size(la) for la in lattice_cores(0, 2, 15)] == [0, 1, 3, 6, 10, 15]
    assert lattice_cores(3, 4, 10) == [()]
    with pytest.raises(ValueError):
        list(z_core_offsets(1, 1, 10))
    for z in (5, 0, -1):
        with pytest.raises(ValueError, match="bound"):
            list(z_core_offsets(z, 3, -1))
    assert lattice_cores(0, 3, 0) == [()]


@pytest.mark.parametrize("z", [-3, -1, 0, 1, 2, 7])
def test_lattice_walk_at_t_above_the_bound_lists_the_whole_family(z):
    # A partition of size below t has no hook of length t, so every
    # z-asymmetric partition of size <= N < t is a t-core.
    want = sorted(z_asymmetric_up_to(z, 14), key=lambda la: (size(la), la))
    assert lattice_cores(z, 2000, 14) == want


def test_lattice_walk_leaves_out_the_pairs_that_cannot_move(monkeypatch):
    real, gaps = series._coordinate_budget, []

    def spy(t, gap, bound):
        gaps.append(gap)
        return real(t, gap, bound)

    monkeypatch.setattr(series, "_coordinate_budget", spy)
    for z, t, bound in [(0, 20, 10), (1, 20, 10), (-1, 9, 4), (0, 5, 30)]:
        # Offsets (1, -1) on the pair i < j add t - (j - i) cells; only the
        # pairs that can move are walked, and the others stay at 0.
        pairs = list(class_pairs(t, z))
        movable = [(i, j) for i, j in pairs if t - (j - i) <= bound]
        gaps.clear()
        counts = z_core_sizes(z, t, bound)
        assert gaps == [j - i for i, j in movable], (z, t)
        gaps.clear()
        vectors = list(z_core_offsets(z, t, bound))
        assert gaps == [j - i for i, j in movable], (z, t)
        still = [c for pair in pairs if pair not in movable for c in pair]
        assert all(v[c] == 0 for v in vectors for c in still), (z, t)
        # One vector per core, and one count.
        assert len({core_from_offsets(v) for v in vectors}) == len(vectors) == sum(counts)


def test_lattice_walk_keeps_the_stack_walk_order():
    for t in range(2, 10):
        for z in range(-t - 1, t + 2):
            for bound in (0, 5, 26, 60):
                want = z_core_offsets_stack(z, t, bound)
                assert list(z_core_offsets(z, t, bound)) == want, (z, t, bound)


def test_lattice_column_reads_the_sizes_of_the_walked_offsets():
    for t in range(2, 11):
        for z in range(-t - 3, t + 4):
            for bound in (0, 5, 26, 60):
                want = count_sizes(map(core_size, z_core_offsets(z, t, bound)), bound)
                assert z_core_sizes(z, t, bound) == want, (z, t, bound)


def test_lattice_column_refuses_a_negative_bound_and_t_below_2():
    # A function, not a generator: the call itself refuses.
    for z in (5, 0, -1):
        with pytest.raises(ValueError, match="order must be nonnegative, got -1"):
            z_core_sizes(z, 3, -1)
    for t in (1, 0, -2):
        with pytest.raises(ValueError, match="t >= 2"):
            z_core_sizes(0, t, 5)


@pytest.mark.parametrize("t", range(2, 7))
def test_lattice_walk_matches_the_frobenius_construction(t):
    for z in range(-t - 1, t + 2):
        walk = lattice_cores(z, t, 20)
        built = [la for la in z_asymmetric_up_to(z, 20) if is_t_core(la, t)]
        assert sorted(walk) == sorted(built), z
        assert [size(la) for la in walk] == sorted(map(size, built)), z


@pytest.mark.parametrize("t", range(2, 7))
def test_lattice_roundtrip_outside_the_product_range(t):
    # z = -1 has (t-1)//2 class pairs, z >= t-1 none (dimension 0).
    for z, d in [(-1, (t - 1) // 2), (t - 1, 0), (t, 0), (t + 3, 0)]:
        assert len(list(class_pairs(t, z))) == d
        assert reading((), t).cls.offsets == pair_offsets((0,) * d, z, t)
        vecs = [()]
        for _ in range(d):
            vecs = [v + (c,) for v in vecs for c in range(-2, 3)]
        for v in vecs:
            offsets = pair_offsets(v, z, t)
            la = core_from_offsets(offsets)
            assert reading(la, t).cls.offsets == offsets
            assert is_z_asymmetric(la, z) and is_t_core(la, t)


def test_conjugation_swaps_the_sign_of_z():
    # Both sides are lattice walks, over different class pairs.
    for t in (3, 4, 5, 6):
        for z in (1, 2, 3) if t >= 4 else (1,):
            plus = lattice_cores(z, t, 18)
            minus = lattice_cores(-z, t, 18)
            assert sorted(conjugate(la) for la in plus) == sorted(minus), (z, t)


def test_every_family_keeps_growing():
    for t in (3, 4, 5):
        for z in (-1, 0, 1):
            a, b, c = (len(lattice_cores(z, t, bound)) for bound in (50, 100, 200))
            assert a < b < c


def _enum_column_oracle(z, t, order):
    # The enum column's former route: build every z-asymmetric partition
    # and keep the t-cores.
    return count_sizes(
        (size(la) for la in z_asymmetric_up_to(z, order) if is_t_core(la, t)), order
    )


@pytest.mark.parametrize("t", range(2, 9))
def test_enum_column_matches_the_built_partitions(t):
    for z in range(-t - 1, t + 2):
        want = _enum_column_oracle(z, t, 30)
        # A smaller N truncates the same count.
        for order in range(31):
            assert enum_z_asymmetric_cores(z, t, order) == want[: order + 1], (z, order)


@pytest.mark.parametrize("t", range(2, 9))
def test_enum_column_matches_the_strip_removal_filter(t):
    # Shares neither the arm walk nor the closure test with the enum column:
    # every partition, filtered by its Frobenius coordinates and by
    # border-strip removal.
    cores = [la for la in partitions_up_to(16) if t_core_strips(la, t) == la]
    for z in range(-t - 1, t + 2):
        want = count_sizes((size(la) for la in cores if is_z_asymmetric(la, z)), 16)
        for order in range(17):
            assert enum_z_asymmetric_cores(z, t, order) == want[: order + 1], (z, order)


def test_enum_column_builds_no_partition(monkeypatch):
    want = enum_z_asymmetric_cores(1, 5, 30)

    def never(*args, **kwargs):
        raise AssertionError("the enum column built a partition")

    assert not hasattr(partitions, "from_frobenius")
    assert not hasattr(series, "core_from_offsets")
    monkeypatch.setattr(partitions, "core_from_offsets", never)
    monkeypatch.setattr(partitions, "beta_set", never)
    assert enum_z_asymmetric_cores(1, 5, 30) == want
    assert sum(want) > 1
    with pytest.raises(ValueError):
        enum_z_asymmetric_cores(1, 1, 10)
    with pytest.raises(ValueError):
        enum_z_asymmetric_cores(1, 3, -1)


@pytest.mark.parametrize("t", range(2, 9))
def test_lattice_offsets_are_those_of_the_enumerated_cores(t):
    for z in range(-t - 1, t + 2):
        for bound in (0, 1, 5, 13, 30):
            offsets = list(z_core_offsets(z, t, bound))
            cores = lattice_cores(z, t, bound)
            assert len(set(offsets)) == len(offsets) == len(cores), (z, bound)
            assert sorted(map(core_size, offsets)) == [size(la) for la in cores], (z, bound)
            # Each vector is the abacus reading of the core it builds.
            for o in offsets:
                la = core_from_offsets(o)
                assert reading(la, t).cls.offsets == o, (z, o)
    with pytest.raises(ValueError, match="bound"):
        list(z_core_offsets(0, 3, -1))
    with pytest.raises(ValueError):
        list(z_core_offsets(0, 1, 5))


def test_lattice_column_builds_no_partition(monkeypatch, capsys):
    argv = ["series", "--z", "0", "--t", "6", "--N", "40"]
    assert cli.main(argv) == 0
    want = capsys.readouterr()

    def never(*args, **kwargs):
        raise AssertionError("the series command built a core")

    monkeypatch.setattr(partitions, "core_from_offsets", never)
    monkeypatch.setattr(partitions, "from_beta_set", never)
    assert cli.main(argv) == 0
    assert capsys.readouterr() == want
    assert "ok" in want.err


@pytest.mark.parametrize("z", [-1, 0, 1])
def test_lattice_walk_at_large_t_budgets_only_the_pairs_that_move(monkeypatch, z):
    real, calls = series._coordinate_budget, []

    def counted(t, gap, bound):
        calls.append(gap)
        return real(t, gap, bound)

    monkeypatch.setattr(series, "_coordinate_budget", counted)
    order = 3
    family = len(list(z_asymmetric_up_to(z, order)))
    counts = z_core_sizes(z, 10**5, order)
    assert len(calls) <= order + 2
    assert sum(counts) == family
    calls.clear()
    offsets = list(z_core_offsets(z, 10**5, order))
    assert len(calls) <= order + 2
    assert len(offsets) == family


def test_series_at_t_past_any_list_runs_with_its_few_rows(tmp_path):
    # No hook of a partition of size <= 12 reaches t = 10**18, so every
    # column is the family's own product; the lattice leaf never lists
    # the t runners.
    p = tmp_path / "series.jsonl"
    argv = ["series", "--z", "0", "--t", str(10**18), "--N", "12", "--out", str(p)]
    assert cli.main(argv) == 0
    recs = [json.loads(ln) for ln in p.read_text().splitlines()]
    want = list(gf_z_asymmetric(0, 12))
    for column in ("enum", "product", "lattice"):
        assert [r[column] for r in recs] == want, column


@pytest.mark.parametrize("t", [999, 1000, 1001])
def test_lattice_column_reads_the_walked_sizes_at_large_t(t):
    # At N < t the padding is t and most runners hold one bead each: the
    # leaf sums them in closed form, and t's parity sets the middle class.
    for z in (-1, 0, 1, 3):
        want = count_sizes(map(core_size, z_core_offsets(z, t, 40)), 40)
        assert z_core_sizes(z, t, 40) == want, z
