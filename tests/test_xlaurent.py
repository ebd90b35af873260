"""Laurent polynomials in X over Q[v, v^-1]: exact division, shaped roots."""
import random
from fractions import Fraction

import pytest

from hecke.intertwiner_rank1 import composite_scalar
from hecke.mu_function import mu_factor, poles_zeros
from hecke.qfield import SizeLimitError, VRat
from hecke.xlaurent import (L_ONE, Laurent, LaurentRatio, div_exact,
                            newton_exponents, shaped_roots, synth_div)

from _reference import inv_x


def _x(e, c=1):
    return Laurent.x_pow(e, c)


def test_arithmetic_and_inversion():
    f = _x(1) + Laurent.const(2) + _x(-1)
    assert inv_x(f) == f
    assert (f - f).is_zero()
    assert f * L_ONE == f
    g = _x(1) - _x(-1)
    assert inv_x(g) == -g


def test_div_exact():
    # x^2 - x^{-2} = (1 - x^{-2}) (x^2 + 1)
    f = _x(2) - _x(-2)
    g = L_ONE - _x(-2)
    assert div_exact(f, g) == _x(2) + L_ONE
    with pytest.raises(ArithmeticError):
        div_exact(_x(1) - Laurent.const(3), g)


def test_synth_div():
    q = VRat.v_pow(2)
    f = (_x(1) - Laurent.const(q)) * (_x(1) - Laurent.const(q ** -1))
    quot, rem = synth_div(f, q)
    assert rem.is_zero()
    quot2, rem2 = synth_div(f, VRat.from_fraction(3))
    assert not rem2.is_zero()


@pytest.mark.parametrize("f,root,is_root", [
    # exponent gaps and a non-monomial coefficient over 2v
    ((_x(1) - _x(0, VRat.v_pow(-2))) * (_x(4) + _x(0, VRat((1, 1), (0, 2)))),
     VRat.v_pow(-2), True),
    (_x(5, VRat((1, 2))) - _x(1) + _x(-3, VRat.v_pow(-2)), VRat.v_pow(-3), False),
    (_x(4, VRat((1, 3), (0, 2))), -VRat.v_pow(2), False),     # a single term
    (_x(-2, 7), VRat.v_pow(1), False),
    (_x(2) - _x(-2), -VRat.v_pow(-1), False),                  # negative root exponent
    (_x(2) - _x(0, VRat.v_pow(-2)), -VRat.v_pow(-1), True),
], ids=str)
def test_synth_div_identity(f, root, is_root):
    quo, rem = synth_div(f, root)
    assert f == (_x(1) - Laurent.const(root)) * quo + _x(f.min_exp(), rem)
    assert all(f.min_exp() <= e < f.max_exp() for e in quo.c)
    assert rem.is_zero() == is_root


def test_shaped_roots():
    one = VRat.v_pow(0)
    f = ((L_ONE - _x(1)) * (L_ONE + _x(1))
         * (L_ONE - _x(1, VRat.v_pow(-2))) * (L_ONE - _x(1, VRat.v_pow(-2))))
    roots, leftover = shaped_roots(f)
    assert roots == {(1, 0): 1, (-1, 0): 1, (1, 2): 2}
    assert len(leftover.terms()) == 1  # pure monomial, no further roots
    assert shaped_roots(Laurent.const(5))[0] == {}


def test_ratio_equality_cross_multiplied():
    a = LaurentRatio(_x(1) - L_ONE, _x(1) + L_ONE)
    b = LaurentRatio(_x(2) - _x(1), _x(2) + _x(1))
    assert a == b
    assert a * LaurentRatio(_x(1) + L_ONE) == LaurentRatio(_x(1) - L_ONE)
    assert (a - b).is_zero()


def test_ratio_inversion_symmetry():
    f = LaurentRatio(_x(1) + _x(-1), _x(2) + _x(-2))
    assert LaurentRatio(inv_x(f.num), inv_x(f.den)) == f


def _exhaustive_shaped_roots(f):
    """Oracle: try every +-v^k with |k| up to the v-degree span of the coefficients."""
    degs = []
    for _, x in f.terms():
        degs += [len(x.num) - 1, -(len(x.den) - 1)]
    span = max(degs) - min(degs) + 1
    roots = {}
    for sign in (1, -1):
        for k in range(-span, span + 1):
            val = VRat.v_pow(k) * sign
            while f.subst(val).is_zero():
                f, rem = synth_div(f, val)
                roots[(sign, k)] = roots.get((sign, k), 0) + 1
    return roots, f


def _assert_matches_oracle(f):
    roots, leftover = shaped_roots(f)
    want_roots, want_leftover = _exhaustive_shaped_roots(f)
    assert list(roots.items()) == list(want_roots.items())
    assert leftover == want_leftover
    assert len(newton_exponents(f)) <= f.max_exp() - f.min_exp()


def _mu_grid():
    halves = [Fraction(k, 2) for k in range(9)]
    grid = [(a, s) for a in halves for s in halves if a >= s]
    assert len(grid) == 45
    return grid + [(Fraction(11, 2), Fraction(5, 2)), (Fraction(8), Fraction(1, 2)),
                   (Fraction(8), Fraction(8))]


@pytest.mark.parametrize("e_alpha,e_star", _mu_grid(), ids=str)
def test_shaped_roots_match_exhaustive_search_on_mu_factors(e_alpha, e_star):
    f = mu_factor(e_alpha, e_star)
    _assert_matches_oracle(f.num)
    _assert_matches_oracle(f.den)


def test_shaped_roots_match_exhaustive_search_on_composite_scalar():
    s = composite_scalar()
    _assert_matches_oracle(s.num)
    _assert_matches_oracle(s.den)


def test_shaped_roots_match_exhaustive_search_on_several_slopes():
    v = VRat.v_pow
    w = VRat((1,), (0, 3))  # 1/(3v): a denominator c*v^k with c != 1

    def lin(c):
        return _x(1) - Laurent.const(c)

    f = (lin(v(3)) * lin(v(3)) * lin(-v(-1)) * lin(-v(-1))
         * lin(v(0)) * lin(-v(-2))
         * lin(VRat((1, 1)))                      # 1+v: slope 0, not a root
         * (_x(2) + Laurent.const(v(1)))          # slope 1/2: no candidate
         * Laurent.const(w)).shift(-3)
    roots, leftover = shaped_roots(f)
    assert roots == {(1, 0): 1, (1, 3): 2, (-1, -2): 1, (-1, -1): 2}
    assert leftover.max_exp() - leftover.min_exp() == 3
    assert newton_exponents(f) == [-2, -1, 0, 3]
    _assert_matches_oracle(f)
    _assert_matches_oracle(inv_x(f) * Laurent.const(VRat((2, 0, 3), (0, 0, 5))))


# -- the packed search against the VRat synth_div oracle ------------------------
#
# shaped_roots runs on packed Z[v^-1, v] ints after one clearing scalar; the
# exhaustive oracle above divides with VRat coefficients only.  These inputs
# reach what the benchmark's mu-factors (c' = 1, v-power denominators) never
# do: a non-integral c', denominators c*v^k with c != 1, coefficients such as
# 1+v^2 that are no monomial, negative and repeated roots, the exponent cap,
# and the slot bound.

def _lin(c):
    return _x(1) - Laurent.const(c)


def _power(f, n):
    out = L_ONE
    for _ in range(n):
        out = out * f
    return out


@pytest.mark.parametrize("e_alpha,e_star", [
    (Fraction(1, 2), 0), (1, 1), (2, Fraction(1, 2)), (Fraction(7, 2), 3), (8, Fraction(1, 2)),
], ids=str)
def test_packed_search_matches_exhaustive_search_at_c_prime_three_halves(e_alpha, e_star):
    f = mu_factor(e_alpha, e_star, Fraction(3, 2))
    _assert_matches_oracle(f.num)
    _assert_matches_oracle(f.den)
    assert f.num.c[0] == mu_factor(e_alpha, e_star).num.c[0] * VRat((3,), (2,))


def test_packed_search_with_one_plus_v_squared_over_integer_denominators():
    v = VRat.v_pow
    w = VRat((1, 0, 1), (0, 0, 3))                # (1+v^2)/(3v^2)
    tail = _x(1, w) + Laurent.const(VRat((2,), (0, 5)))   # root -6v/(5+5v^2): unshaped
    f = _lin(v(2)) * _lin(-v(-1)) * tail
    roots, leftover = shaped_roots(f)
    assert roots == {(1, 2): 1, (-1, -1): 1}
    assert leftover == tail
    _assert_matches_oracle(f)
    _assert_matches_oracle(f * Laurent.const(VRat((3, 0, 1), (0, 0, 0, 7))))


def test_packed_search_with_negative_k_and_multiplicity():
    v = VRat.v_pow
    f = (_power(_lin(v(-1)), 3) * _power(_lin(-v(-5)), 4) * _lin(v(2))
         * _lin(VRat((1, 0, 1)))).shift(-2)        # 1+v^2: slope 0, not a root
    roots, leftover = shaped_roots(f)
    assert roots == {(1, -1): 3, (1, 2): 1, (-1, -5): 4}
    assert leftover == _lin(VRat((1, 0, 1))).shift(-2)
    _assert_matches_oracle(f)
    _assert_matches_oracle(inv_x(f))


def test_packed_search_matches_exhaustive_search_on_random_inputs():
    rng = random.Random(23)
    checked = 0
    for _ in range(60):
        coeffs = {}
        for _ in range(rng.randint(1, 3)):
            num = tuple(rng.randint(-3, 3) for _ in range(rng.randint(1, 3)))
            den = (0,) * rng.randint(0, 2) + ((1,) if rng.random() < 0.7
                                               else (rng.randint(2, 6),))
            if any(num):
                coeffs[rng.randint(-2, 2)] = VRat(num, den)
        f = Laurent(coeffs)
        if f.is_zero():
            continue
        for _ in range(rng.randint(0, 4)):
            f = f * _lin(VRat.v_pow(rng.randint(-3, 3)) * rng.choice((1, -1)))
        _assert_matches_oracle(f)
        checked += 1
    assert checked > 50


@pytest.mark.parametrize("e_alpha,e_star", [
    (1024, 1023), (1024, Fraction(1, 2)), (Fraction(1023, 2), 0),
], ids=str)
def test_packed_search_at_the_exponent_cap(e_alpha, e_star):
    """Zeros at +-1 (order 2, -1 cancels when q_a* = 1), poles at q_a^{+-1}
    and -q_a*^{+-1}: the closed form in the mu_function docstring."""
    f = mu_factor(e_alpha, e_star)
    ea, es = Fraction(e_alpha), Fraction(e_star)
    zeros = {(1, Fraction(0)): 2}
    poles = {(1, ea): 1, (1, -ea): 1}
    if es:
        zeros[(-1, Fraction(0))] = 2
        poles.update({(-1, es): 1, (-1, -es): 1})
    prof = poles_zeros(f)
    assert (prof.zeros, prof.poles) == (zeros, poles)
    roots, leftover = shaped_roots(f.den)
    assert sum(roots.values()) == f.den.max_exp() - f.den.min_exp()
    assert len(leftover.c) == 1


def test_packed_search_refuses_a_bound_past_one_slot():
    big = 2 ** 62
    # (1 + 2^62 v)(X - 1): content 1, total l1 norm 2^63 + 2
    f = _lin(1) * Laurent.const(VRat((1, big)))
    with pytest.raises(SizeLimitError):
        shaped_roots(f)
    assert _exhaustive_shaped_roots(f)[0] == {(1, 0): 1}
    # a common integer factor is taken out first, so c' = 2^62 is no refusal
    assert shaped_roots(_lin(1) * Laurent.const(big))[0] == {(1, 0): 1}
    # (1 + 2^60 v)(X + 1)^2 has norm 2^62 + 4: the first quotient's bound,
    # 2 (2^62 + 4), passes 2^63 and is retaken exactly (2^61 + 2), so the
    # second root is found too
    c = VRat((1, 2 ** 60))
    f = _power(_lin(-1), 2) * Laurent.const(c)
    assert shaped_roots(f) == ({(-1, 0): 2}, Laurent.const(c))
    _assert_matches_oracle(f)
