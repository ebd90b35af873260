"""Coefficients: exact ratios of integer polynomials in v (v^2 = q-base), and
the ring Z[v, v^-1] checked against them."""
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from hecke.qfield import (K, PONE, VR_ONE, VR_ZERO, SizeLimitError, VRat, ZLaurent,
                          l1_norm, low_slots, pdiv_exact, pgcd, pmul, pnorm, pparse,
                          pshift, pstr, value_at_one)


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
    if z.n:
        assert z.c[0] and z.c[-1]
    else:
        assert (z.val, z.c) == (0, ())


@given(_laurent, _laurent)
def test_zlaurent_agrees_with_vrat(s1, s2):
    (z1, x1), (z2, x2) = _pair(s1), _pair(s2)
    _same(z1, x1)
    assert z1.h == sum(map(abs, x1.num))
    assert (z1 == z2) == (x1 == x2)
    if z1 == z2:
        assert hash(z1) == hash(z2)
    assert bool(z1.n) == bool(x1)
    assert ZLaurent.coerce(z1) is z1


def test_zlaurent_constants_and_refusals():
    assert ZLaurent.coerce(0) == ZLaurent(3, 0, 0) and not ZLaurent.coerce(0).n
    assert ZLaurent.coerce(Fraction(1)) == ZLaurent.v_pow(0)
    assert str(ZLaurent.coerce(VRat.v_pow(-2) * -3)) == "(-3)/(v^2)"
    for bad in (Fraction(1, 2), VRat(1, 2), VRat(PONE, pnorm((1, 1))),
                VRat(pnorm((0, 1)), pnorm((0, 2)))):
        with pytest.raises(ValueError):
            ZLaurent.coerce(bad)
    with pytest.raises(AttributeError):
        ZLaurent.v_pow(0).val = 3


# -- the packed representation: n = P(2^K), h >= l1 norm of P < 2^(K-1) ------

def _zl(val, p):
    """v^val * p as a ZLaurent, built through VRat like every boundary value."""
    num, den = (pshift(p, val), PONE) if val >= 0 else (p, pshift(PONE, -val))
    return ZLaurent.coerce(VRat(num, den))


def _l1(z):
    return sum(map(abs, z.c))


@pytest.mark.parametrize("p", [(2**62,), (-2**62,), (2**62 - 1,), (-(2**62 - 1),),
                               (2**62, -(2**62 - 1)), (-(2**62 - 1), 0, 2**62),
                               (1, -2**62, -1), (-1,), (-(2**63 - 1),)])
def test_packed_round_trip_at_slot_edges(p):
    for val in (-3, 0, 2):
        z = _zl(val, p)
        assert (z.val, z.c, z.h) == (val, p, _l1(z)) == (val, p, l1_norm(z.n))
        assert z.n == sum(c << K * i for i, c in enumerate(p))
        assert _zl(val, p) == z and hash(_zl(val, p)) == hash(z)
        assert ZLaurent(val, -z.n, z.h).c == tuple(-c for c in p)
        assert value_at_one(z.n) == sum(p)
        # zero low slots move into val
        assert ZLaurent(val - 4, z.n << 4 * K, z.h) == z
        assert str(z) == str(VRat(z.num, z.den))


def test_single_negative_slot():
    z = ZLaurent(5, -7, 7)
    assert (z.val, z.n, z.c, str(z)) == (5, -7, (-7,), "(-7*v^5)/(1)")
    assert z != ZLaurent(5, 7, 7) and value_at_one(z.n) == -7


def test_sums_that_cancel_low_slots():
    # aligned packed ints add slot by slot; the slots that cancel are the low
    # zero slots of the sum, which the constructor moves into val
    a = _zl(-3, (1, 0, 0, 2, 1))       # v^-3 + 2 + v
    b = _zl(-3, (-1, 0, 0, -2))        # -v^-3 - 2
    s = ZLaurent(-3, a.n + b.n, a.h + b.h)
    assert (s.val, s.n, s.c) == (1, 1, (1,)) and s == ZLaurent.v_pow(1)
    assert low_slots(a.n + b.n) == 4
    # the cancelled slots may hold big coefficients, and the rest be negative
    a = _zl(0, (2**60, -2**60, 5, -1))
    b = _zl(0, (-2**60, 2**60))
    s = ZLaurent(0, a.n + b.n, a.h + b.h)
    assert (s.val, s.c) == (2, (5, -1))
    assert ZLaurent(0, a.n - a.n, 0) == ZLaurent.coerce(0)


def test_bound_refusals():
    with pytest.raises(SizeLimitError):
        ZLaurent.coerce(2**63)
    with pytest.raises(SizeLimitError):
        ZLaurent.coerce(-(2**63))
    with pytest.raises(SizeLimitError):
        _zl(0, (2**62, 2**62))
    with pytest.raises(SizeLimitError):
        ZLaurent(0, 1, 2**63)
    assert ZLaurent.coerce(2**63 - 1).c == (2**63 - 1,)
    # comparing with an int is an answer, not a refusal
    assert ZLaurent.v_pow(0) != 2**63 and ZLaurent.coerce(0) != -(2**64)


def test_wide_sparse_products_agree_with_vrat():
    # labels near LABEL_CAP give wide coefficients with few nonzero slots; the
    # int product of two packed values is the packed product
    wide = [(0, (-1,) + (0,) * 199 + (1,)), (-150, (2,) + (0,) * 119 + (-1,)),
            (3, (1,) + (0,) * 40 + (3, 0, -4))]
    dense = [(0, (1, 2, 3)), (-2, tuple(range(-20, 21, 3))), (5, (7,))] + wide
    for sa in wide:
        for sb in dense:
            (za, xa), (zb, xb) = _pair(sa), _pair(sb)
            _same(ZLaurent(za.val + zb.val, za.n * zb.n, za.h * zb.h), xa * xb)

