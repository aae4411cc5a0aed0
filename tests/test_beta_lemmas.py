"""Exhaustive beta-set identities at small bounds.

Thin wrappers over the checker engine in helpers; the acceptance sweep
reruns the same engine at larger bounds.
"""

from helpers import (
    check_asymmetric_core_counts,
    check_asymmetry_beta_forms,
    check_classification_flags,
    check_complement_conjugate,
    check_complement_conjugate_converse,
    check_conjugate_residue_counts,
    check_core_quotient_size,
    check_core_residue_counts,
    check_quotient_beta_relation,
    check_quotient_criterion,
    check_rank_formulas,
    check_small_modulus_trivial,
    is_z_asymmetric,
    pred_beta_pairing,
)


def test_conjugate_beta_sets_tile_an_interval():
    assert check_complement_conjugate(9) == []


def test_interval_tiling_characterizes_the_conjugate():
    assert check_complement_conjugate_converse(7) == []


def test_core_keeps_residue_counts():
    assert check_core_residue_counts(9) == []


def test_conjugate_mirrors_residue_counts():
    assert check_conjugate_residue_counts(9) == []


def test_membership_forms_of_asymmetry():
    assert check_asymmetry_beta_forms(9) == []


def test_pairing_alone_is_not_enough():
    # (3,3,3) at z=1, m=3 satisfies the mirror pairing vacuously but is
    # not symplectic; the gap clause is what rules it out.
    la, z, m = (3, 3, 3), 1, 3
    assert not is_z_asymmetric(la, z)
    assert not pred_beta_pairing(la, z, m)
    b = {5, 4, 3}
    hi = 2 * m - z - 1
    assert all((xi in b) == (hi - xi not in b) for xi in range(min(m - z - 1, m - 1) + 1))


def test_small_moduli_admit_only_the_empty_core():
    assert check_small_modulus_trivial(16) == []


def test_asymmetric_cores_have_mirrored_counts():
    assert check_asymmetric_core_counts(10) == []


def test_classification_flags_match_definitions():
    assert check_classification_flags(10) == []


def test_rank_formulas():
    assert check_rank_formulas(10) == []


def test_symmetry_descends_from_quotient_and_core():
    bad, instances = check_quotient_criterion(10)
    assert bad == []
    assert instances == 80


def test_quotient_beta_sets_scale():
    assert check_quotient_beta_relation(9) == []


def test_core_strip_routes_and_sizes():
    assert check_core_quotient_size(9) == []
