"""Coefficients: exact ratios of integer polynomials in v (v^2 = q-base), and
the ring Z[v, v^-1] checked against them."""
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from hecke.qfield import (PONE, VR_ONE, VR_ZERO, ZL_ONE, ZL_ZERO, VRat, ZLaurent,
                          pdiv_exact, pgcd, pmul, pnorm, pparse, pshift, pstr)


def test_poly_str_parse_roundtrip():
    for coeffs in [(), (1,), (-4, 1, 0, -1), (0, 2), (5,), (0, 0, 7), (0, -1)]:
        p = pnorm(coeffs)
        assert pparse(pstr(p)) == p


def test_poly_div_exact():
    assert pdiv_exact(pnorm((-1, 0, 1)), pnorm((1, 1))) == pnorm((-1, 1))
    with pytest.raises(ArithmeticError):
        pdiv_exact(pnorm((1, 1)), pnorm((0, 1)))
    with pytest.raises(ArithmeticError):
        pdiv_exact(pnorm((1, 0, 1)), pnorm((2,)))  # 1/2 coefficients


def test_poly_gcd_primitive():
    a = pmul(pnorm((-1, 1)), pnorm((1, 1)))
    b = pmul(pnorm((-1, 1)), pnorm((2, 1)))
    assert pgcd(a, b) == pnorm((-1, 1))
    assert pgcd(pnorm((2, 2)), pnorm((4,))) == pnorm((1,))


def test_vrat_cancellation():
    a = VRat(pnorm((-1, 0, 1)), pnorm((1, 1)))  # (v^2-1)/(v+1)
    assert a == VRat(pnorm((-1, 1)))
    # sign normalization: denominator keeps a positive leading coefficient
    b = VRat(pnorm((1,)), pnorm((0, -1)))
    assert str(b) == "(-1)/(v)"


def test_vrat_parse_str_roundtrip():
    for s in ["(v^2-1)/(1)", "(1)/(v^2)", "(-v^3+v-4)/(v-1)", "(0)/(1)", "(2*v)/(1)"]:
        assert str(VRat.parse(s)) == s
    assert VRat.parse("v^2-1") == VRat.parse("(v^2-1)/(1)")


def test_vrat_powers_eval():
    a = VRat.parse("(v^2-1)/(1)")
    assert a * VRat.v_pow(-2) == VRat.parse("(v^2-1)/(v^2)")
    assert VRat.v_pow(-2) * VRat.v_pow(2) == VR_ONE
    assert a.eval(Fraction(3)) == 8
    assert VRat.v_pow(-2).eval(Fraction(2)) == Fraction(1, 4)
    assert (VRat.v_pow(2) ** -1) == VRat.v_pow(-2)


def test_vrat_constants():
    assert VRat.from_fraction(Fraction(3, 4)).as_fraction() == Fraction(3, 4)
    assert VRat.from_fraction(Fraction(0)) == VR_ZERO
    assert not VR_ZERO
    assert VR_ONE.is_one()


_coef = st.integers(min_value=-4, max_value=4)
_poly = st.lists(_coef, min_size=0, max_size=4).map(lambda c: pnorm(tuple(c)))


@given(_poly, _poly, _poly)
def test_vrat_field_axioms(a, b, c):
    x, y, z = VRat(a), VRat(b), VRat(c)
    assert (x + y) * z == x * z + y * z
    assert x * y == y * x
    assert x - x == VR_ZERO
    assert x + VR_ZERO == x
    if y:
        assert (x / y) * y == x


# v^val * poly as a VRat built by hand: the reference each ZLaurent is held to
_laurent = st.tuples(st.integers(min_value=-5, max_value=5),
                     st.lists(st.integers(min_value=-6, max_value=6), max_size=5))


def _pair(spec):
    val, coeffs = spec
    p = pnorm(tuple(coeffs))
    x = VRat(pshift(p, max(val, 0)), pshift(PONE, max(-val, 0)))
    return ZLaurent.coerce(x), x


def _same(z, x):
    assert isinstance(z, ZLaurent)
    assert (z.num, z.den) == (x.num, x.den)
    assert str(z) == str(x)
    if z:
        assert z.c[0] and z.c[-1]
    else:
        assert (z.val, z.c) == (0, ())


@given(_laurent, _laurent, st.integers(min_value=-7, max_value=7))
def test_zlaurent_agrees_with_vrat(s1, s2, n):
    (z1, x1), (z2, x2) = _pair(s1), _pair(s2)
    _same(z1, x1)
    _same(z1 + z2, x1 + x2)
    _same(z1 - z2, x1 - x2)
    _same(-z1, -x1)
    _same(z1 * z2, x1 * x2)
    _same(z1 + n, x1 + n)
    _same(n - z1, n - x1)
    _same(z1 * n, x1 * n)
    _same(n * z1, x1 * VRat(n))
    assert (z1 == z2) == (x1 == x2)
    assert (z1 == n) == (x1 == n)
    if z1 == z2:
        assert hash(z1) == hash(z2)
    assert bool(z1) == bool(x1)
    for f in (Fraction(2), Fraction(-1, 3), Fraction(5, 2)):
        assert z1.eval(f) == x1.eval(f)


def test_zlaurent_constants_and_refusals():
    assert ZLaurent.coerce(0) == ZL_ZERO and not ZL_ZERO
    assert ZLaurent.coerce(Fraction(1)) == ZL_ONE == 1
    assert ZLaurent.v_pow(-2) * ZLaurent.v_pow(2) == ZL_ONE
    assert str(ZLaurent.v_pow(-2) * -3) == "(-3)/(v^2)"
    for bad in (Fraction(1, 2), VRat(1, 2), VRat(PONE, pnorm((1, 1))),
                VRat(pnorm((0, 1)), pnorm((0, 2)))):
        with pytest.raises(ValueError):
            ZLaurent.coerce(bad)
    with pytest.raises(AttributeError):
        ZL_ONE.val = 3
