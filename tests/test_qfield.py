"""Coefficients: the ring Q[v, v^-1] (v^2 = q_F) as num/(c*v^k), and its
packed subring Z[v, v^-1] checked against them."""
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, strategies as st

from hecke.hecke_algebra import AHA
from hecke.label_params import LabelFunction
from hecke.qfield import (K, PONE, VR_ONE, VR_ZERO, SizeLimitError, VRat, _unpack,
                          _valuation, l1_norm, low_slots, pack, packed_str, packed_vrat,
                          pcontent, pdiv_exact, pgcd, pmul, pnorm, pparse, pshift, pstr,
                          value_at_one)
from hecke.root_data import BasedRootDatum, build_root_system

from _reference import vrat_eval


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
    a = VRat(pnorm((0, -2, 0, 2)), pnorm((0, 0, 4)))  # (2v^3-2v)/(4v^2)
    assert a == VRat(pnorm((-1, 0, 1)), pnorm((0, 2)))
    assert str(a) == "(v^2-1)/(2*v)"
    # sign normalization: denominator keeps a positive leading coefficient
    b = VRat(pnorm((1,)), pnorm((0, -1)))
    assert str(b) == "(-1)/(v)"


def test_values_outside_the_ring_are_refused():
    # a denominator that is not c*v^k, also where it divides the numerator
    rs = build_root_system("A", 1)
    alg = AHA(BasedRootDatum(rs), LabelFunction.for_system(rs, (1, 1)))
    for make in (lambda: VRat(1, (1, 1)), lambda: VRat((1,), (1, 0, 1)),
                 lambda: VR_ONE / VRat((1, 1)), lambda: VRat((-1, 0, 1), (1, 1)),
                 lambda: VRat((1, 1)) ** -1,
                 lambda: alg.from_json({"terms": [{"x": [0], "w": [0], "coeff": "(1)/(v+1)"}]})):
        with pytest.raises(ValueError, match=r"outside Q\[v, v\^-1\]"):
            make()


def test_vrat_parse_str_roundtrip():
    for s in ["(v^2-1)/(1)", "(1)/(v^2)", "(-v^3+v-4)/(3*v^2)", "(0)/(1)", "(2*v)/(1)"]:
        assert str(VRat.parse(s)) == s
    assert VRat.parse("v^2-1") == VRat.parse("(v^2-1)/(1)")


@pytest.mark.parametrize("n", [0, 1, -1, 2 ** 70, -2 ** 70])
def test_vrat_hashes_like_the_int_it_equals(n):
    assert VRat(n) == n and hash(VRat(n)) == hash(n)
    assert len({VRat(n), n}) == 1


def test_vrat_powers_eval():
    a = VRat.parse("(v^2-1)/(1)")
    assert a * VRat.v_pow(-2) == VRat.parse("(v^2-1)/(v^2)")
    assert VRat.v_pow(-2) * VRat.v_pow(2) == VR_ONE
    assert vrat_eval(a, Fraction(3)) == 8
    assert vrat_eval(VRat.v_pow(-2), Fraction(2)) == Fraction(1, 4)
    assert (VRat.v_pow(2) ** -1) == VRat.v_pow(-2)


def test_vrat_constants():
    assert VRat.from_fraction(Fraction(3, 4)).as_fraction() == Fraction(3, 4)
    assert VRat.from_fraction(Fraction(0)) == VR_ZERO
    assert not VR_ZERO
    assert VR_ONE.is_one()


_coef = st.integers(min_value=-4, max_value=4)
_poly = st.lists(_coef, min_size=0, max_size=4).map(lambda c: pnorm(tuple(c)))
# c * v^k, c != 0: the units of Q[v, v^-1], so every denominator
_unit = st.tuples(st.sampled_from([-6, -2, -1, 1, 2, 3, 4]), st.integers(0, 3)).map(
    lambda t: pshift((t[0],), t[1]))
_vrat = st.tuples(_poly, _unit).map(lambda t: VRat(*t))


@given(_vrat, _vrat, _vrat, _unit, _poly)
def test_vrat_ring_axioms(x, y, z, u, p):
    assert (x + y) * z == x * z + y * z
    assert (x * y) * z == x * (y * z)
    assert (x + y) + z == x + (y + z)
    assert x * y == y * x
    assert x - x == VR_ZERO
    assert x + VR_ZERO == x and x * VR_ONE == x
    # division by a unit, both as a quotient and as a power
    u = VRat(u) * y.den[-1]
    assert (x / u) * u == x
    assert x / u == x * u ** -1 and (u ** -1) * u == VR_ONE
    assert (x / y.den[-1]) * y.den[-1] == x
    # a quotient by anything else leaves the ring, unless it is zero
    if len(p) > 1 and p.count(0) < len(p) - 1:
        if x:
            with pytest.raises(ValueError, match=r"Q\[v, v\^-1\]"):
                x / VRat(p)
        else:
            assert x / VRat(p) == VR_ZERO


# v^val * poly as a VRat built by hand: the reference each packed value is held to
_laurent = st.tuples(st.integers(min_value=-5, max_value=5),
                     st.lists(st.integers(min_value=-6, max_value=6), max_size=5))


def _pair(spec):
    val, coeffs = spec
    p = pnorm(tuple(coeffs))
    x = VRat(pshift(p, max(val, 0)), pshift(PONE, max(-val, 0)))
    return pack(x), x


def _same(z, x):
    val, n, h = z
    assert packed_vrat(val, n) == x
    assert packed_str(val, (0, n), 1) == str(x)
    if n:
        c = _unpack(n)
        assert c[0] and c[-1] and h >= sum(map(abs, c))
    else:
        assert z == (0, 0, 0)


@given(_laurent, _laurent)
def test_pack_agrees_with_vrat(s1, s2):
    (z1, x1), (z2, x2) = _pair(s1), _pair(s2)
    _same(z1, x1)
    assert z1[2] == sum(map(abs, x1.num))
    assert (z1 == z2) == (x1 == x2)
    assert bool(z1[1]) == bool(x1)
    assert pack(packed_vrat(*z1[:2])) == z1


def test_pack_constants_and_refusals():
    assert pack(0) == pack(VR_ZERO) == pack(Fraction(0)) == (0, 0, 0)
    assert pack(Fraction(1)) == pack(VR_ONE) == pack(1) == (0, 1, 1)
    val, n = pack(VRat.v_pow(-2) * -3)[:2]
    assert packed_str(val, (0, n), 1) == "(-3)/(v^2)"
    assert packed_vrat(*pack(VRat.v_pow(-2) * -3)[:2]) == VRat.v_pow(-2) * -3
    # 1/(1+v) is refused where it is built, outside Q[v, v^-1]
    for bad in (lambda: Fraction(1, 2), lambda: VRat(1, 2),
                lambda: VRat(PONE, pnorm((1, 1))), lambda: VRat(pnorm((0, 1)), pnorm((0, 2)))):
        with pytest.raises(ValueError):
            pack(bad())


# -- the packed representation: n = P(2^K), h >= l1 norm of P < 2^(K-1) ------

def _zl(val, p):
    """v^val * p packed, built through VRat like every boundary value."""
    num, den = (pshift(p, val), PONE) if val >= 0 else (p, pshift(PONE, -val))
    return pack(VRat(num, den))


@pytest.mark.parametrize("p", [(2**62,), (-2**62,), (2**62 - 1,), (-(2**62 - 1),),
                               (2**62, -(2**62 - 1)), (-(2**62 - 1), 0, 2**62),
                               (1, -2**62, -1), (-1,), (-(2**63 - 1),)])
def test_packed_round_trip_at_slot_edges(p):
    for val in (-3, 0, 2):
        z = _zl(val, p)
        v, n, h = z
        assert (v, _unpack(n), h) == (val, p, sum(map(abs, p))) == (val, p, l1_norm(n))
        assert n == sum(c << K * i for i, c in enumerate(p))
        assert _zl(val, p) == z
        assert _unpack(-n) == tuple(-c for c in p)
        assert value_at_one(n) == sum(p)
        # zero low slots move into val
        assert pack(packed_vrat(val - 4, n << 4 * K)) == z
        x = packed_vrat(val, n)
        assert packed_str(val, (0, n), 1) == str(x) == str(VRat(x.num, x.den))


def _long_coefficients():
    rng = random.Random(31)
    edge = 2 ** 62
    # 8192 dense slots of up to 49 bits and mixed signs: l1 norm below 2^62
    dense = [rng.randint(-2 ** 49, 2 ** 49) for _ in range(8192)]
    dense[0], dense[-1] = dense[0] or 1, dense[-1] or -1
    # slot edges at both ends of 8001 slots, and a sparse run of mixed signs
    sparse = [0] * 8001
    sparse[0], sparse[-1] = -edge, edge - 1
    mixed = [0] * 8500
    for i, c in zip(range(0, 8500, 1000), (2 ** 59, -2 ** 59, -1, 1, 2 ** 60, -3, -2 ** 58, 5, 7)):
        mixed[i] = c
    mixed[-1] = -(2 ** 61)
    top = [0] * 8100
    top[0], top[-1] = 1, -(2 ** 63 - 2)
    return [tuple(dense), tuple(sparse), tuple(mixed), tuple(top)]


@pytest.mark.parametrize("p", _long_coefficients(), ids=("dense", "edges", "mixed", "top"))
def test_pack_round_trip_on_long_coefficients(p):
    want = sum(c << K * i for i, c in enumerate(p) if c)
    for val in (-8200, 0, 3):
        z = _zl(val, p)
        assert z == (val, want, sum(map(abs, p)))
        num, den = (pshift(p, val), PONE) if val >= 0 else (p, pshift(PONE, -val))
        x = packed_vrat(val, z[1])
        assert x == VRat(num, den)
        assert pack(x) == z and _unpack(z[1]) == p
    # more zero low slots go into val
    assert _zl(1, (0,) * 8000 + p) == (8001, want, sum(map(abs, p)))


def test_single_negative_slot():
    z = _zl(5, (-7,))
    assert z == (5, -7, 7) and _unpack(-7) == (-7,)
    assert packed_str(5, (0, -7), 1) == "(-7*v^5)/(1)"
    assert packed_vrat(5, -7) != packed_vrat(5, 7) and value_at_one(-7) == -7


def test_sums_that_cancel_low_slots():
    # aligned packed ints add slot by slot; the slots that cancel are the low
    # zero slots of the sum, which pack moves into val
    a = _zl(-3, (1, 0, 0, 2, 1))       # v^-3 + 2 + v
    b = _zl(-3, (-1, 0, 0, -2))        # -v^-3 - 2
    s = packed_vrat(-3, a[1] + b[1])
    assert s == VRat.v_pow(1) and pack(s) == (1, 1, 1)
    assert low_slots(a[1] + b[1]) == 4
    # the cancelled slots may hold big coefficients, and the rest be negative
    a = _zl(0, (2**60, -2**60, 5, -1))
    b = _zl(0, (-2**60, 2**60))
    val, n, h = pack(packed_vrat(0, a[1] + b[1]))
    assert (val, _unpack(n), h) == (2, (5, -1), 6)
    assert packed_vrat(0, a[1] - a[1]) == VR_ZERO and pack(VR_ZERO) == (0, 0, 0)


def test_bound_refusals():
    with pytest.raises(SizeLimitError):
        pack(2**63)
    with pytest.raises(SizeLimitError):
        pack(-(2**63))
    with pytest.raises(SizeLimitError):
        _zl(0, (2**62, 2**62))
    with pytest.raises(SizeLimitError):
        _zl(-1, (2**63,))
    assert pack(2**63 - 1) == (0, 2**63 - 1, 2**63 - 1)
    assert _unpack(pack(2**63 - 1)[1]) == (2**63 - 1,)
    # comparing with an int is an answer, not a refusal
    assert packed_vrat(0, 1) != 2**63 and packed_vrat(0, 0) != -(2**64)


def test_wide_sparse_products_agree_with_vrat():
    # labels near LABEL_CAP give wide coefficients with few nonzero slots; the
    # int product of two packed values is the packed product
    wide = [(0, (-1,) + (0,) * 199 + (1,)), (-150, (2,) + (0,) * 119 + (-1,)),
            (3, (1,) + (0,) * 40 + (3, 0, -4))]
    dense = [(0, (1, 2, 3)), (-2, tuple(range(-20, 21, 3))), (5, (7,))] + wide
    for sa in wide:
        for sb in dense:
            (za, xa), (zb, xb) = _pair(sa), _pair(sb)
            _same((za[0] + zb[0], za[1] * zb[1], za[2] * zb[2]), xa * xb)
            assert pack(xa * xb)[:2] == (za[0] + zb[0], za[1] * zb[1])



def _content_loop(a):
    c = 0
    for x in a:
        c = gcd(c, x)
    return c


def _valuation_loop(p):
    i = 0
    while not p[i]:
        i += 1
    return i


# zero prefixes up to the v^4096 denominators of mu-factors at MU_EXP_CAP
_prefixed = st.tuples(st.sampled_from([0, 1, 2, 63, 64, 4095, 4096]),
                      st.lists(st.integers(min_value=-2**70, max_value=2**70),
                               min_size=1, max_size=6))


@given(_prefixed)
def test_content_and_valuation_agree_with_the_loops(spec):
    zeros, body = spec
    p = (0,) * zeros + tuple(body)
    assert pcontent(p) == _content_loop(p)
    assert pcontent(tuple(body)) == _content_loop(tuple(body))
    if any(p):
        assert _valuation(p) == _valuation_loop(p)
    assert pcontent(()) == 0
