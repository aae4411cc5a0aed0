"""Exact arithmetic in cyclotomic fields."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st
from sympy import Poly, Symbol
from sympy import cyclotomic_poly as sympy_cyclotomic

from twistchar.cyclotomic import cyclotomic_poly, field, omega_pow


def test_cyclotomic_polynomials_match_sympy():
    x = Symbol("x")
    for t in range(1, 31):
        want = tuple(reversed(Poly(sympy_cyclotomic(t, x), x).all_coeffs()))
        assert cyclotomic_poly(t) == want
    with pytest.raises(ValueError):
        cyclotomic_poly(0)


def test_omega_is_a_primitive_root():
    for t in range(2, 13):
        fld = field(t)
        w = fld.omega
        assert w ** t == fld.one
        assert all(w ** k != fld.one for k in range(1, t))
        value = fld.zero
        for i, c in enumerate(cyclotomic_poly(t)):
            value = value + fld.from_rational(c) * w ** i
        assert value == fld.zero
        assert sum((w ** k for k in range(1, t)), fld.one) == fld.zero


def test_reduction_examples():
    quartic = field(4)
    assert quartic.omega ** 2 == quartic.from_rational(-1)
    cubic = field(3)
    assert cubic.omega ** 2 == cubic.elem([-1, -1])
    assert cubic.degree == 2 and field(12).degree == 4


def elements(t):
    deg = field(t).degree
    coeff = st.fractions(min_value=-5, max_value=5, max_denominator=6)
    return st.lists(coeff, min_size=deg, max_size=deg).map(
        lambda cs: field(t).elem(cs)
    )


@given(st.integers(3, 9).flatmap(lambda t: st.tuples(st.just(t), elements(t))))
def test_inverse_roundtrip(t_and_x):
    t, x = t_and_x
    if not x:
        return
    assert x * x.inv() == field(t).one
    assert x.inv() * x == field(t).one
    assert x / x == field(t).one


@given(
    st.integers(3, 7).flatmap(
        lambda t: st.tuples(elements(t), elements(t), elements(t))
    )
)
def test_ring_laws(xyz):
    x, y, z = xyz
    assert x * (y + z) == x * y + x * z
    assert (x - y) + y == x
    assert x * y == y * x
    assert x + y == y + x


def test_integer_and_rational_coercion():
    fld = field(5)
    x = fld.from_rational(Fraction(2, 3))
    assert x.coeffs == (Fraction(2, 3), 0, 0, 0)
    assert x + 1 == fld.from_rational(Fraction(5, 3))
    assert 2 * x == fld.from_rational(Fraction(4, 3))
    assert fld.one - x == fld.from_rational(Fraction(1, 3))
    assert x == Fraction(2, 3)
    assert fld.one == 1 and fld.zero == 0


def test_negative_powers():
    fld = field(7)
    w = fld.omega
    assert w ** -1 == w.inv() == w ** 6
    assert w ** -3 == (w ** 3).inv()
    assert w ** 0 == fld.one
    x = fld.from_rational(Fraction(3, 2)) + w
    assert x ** -2 == (x * x).inv()


def test_omega_pow_wraps():
    fld = field(6)
    assert omega_pow(fld, 6) == fld.one
    assert omega_pow(fld, -1) == fld.omega ** 5
    assert omega_pow(fld, 2) == fld.omega * fld.omega
    assert omega_pow(fld, 0) == fld.one


def test_mixed_fields_are_rejected():
    with pytest.raises(ValueError):
        field(3).omega + field(4).omega
    with pytest.raises(ValueError):
        field(3).omega * field(6).omega
    with pytest.raises(ZeroDivisionError):
        field(3).one / field(3).zero
    with pytest.raises(ZeroDivisionError):
        field(4).zero.inv()


def test_elem_pads_and_reduces():
    fld = field(4)
    assert fld.elem([3]) == fld.from_rational(3)
    assert fld.elem([0, 0, 1]) == fld.from_rational(-1)
    assert fld.elem([0, 0, 0, 1]) == -fld.omega
