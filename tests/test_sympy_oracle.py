"""Differential checks of the two division kernels, of the shaped roots and of
the algebra's packed Z[v^-1, v] coefficients against sympy.

sympy is a test-only dependency: the module is skipped when it is missing.
Every input is seeded, so a failure reproduces from the printed case.
"""
import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from hecke.hecke_algebra import AHA  # noqa: E402
from hecke.intertwiner_rank1 import composite_scalar  # noqa: E402
from hecke.label_params import LabelFunction, ParamPair  # noqa: E402
from hecke.mu_function import _profile_of, mu_factor  # noqa: E402
from hecke.qfield import (K, PONE, VRat, _unpack, pack, pdiv_exact, pdivmod,  # noqa: E402
                          pgcd, pmul, pnorm, pprimitive, pshift)
from hecke.root_data import BasedRootDatum  # noqa: E402
from hecke.xlaurent import Laurent, div_exact, shaped_roots, synth_div  # noqa: E402

from _reference import inv_x  # noqa: E402

V, X = sympy.symbols("v X")
QQV = sympy.QQ.frac_field(V)


def _rand_poly(rng, max_deg, box=5):
    return pnorm(rng.randint(-box, box) for _ in range(rng.randint(0, max_deg + 1)))


def _sp(p):
    """Z[v] tuple (low degree first) as a sympy Poly over ZZ."""
    return sympy.Poly(list(reversed(p)) or [0], V, domain="ZZ")


def _tup(poly):
    """sympy Poly back to a tuple; None when a coefficient is not an integer."""
    coeffs = poly.all_coeffs()[::-1]
    if any(not c.is_integer for c in coeffs):
        return None
    return pnorm(int(c) for c in coeffs)


def _qdiv(a, b):
    q, r = sympy.div(_sp(a).set_domain("QQ"), _sp(b).set_domain("QQ"))
    return q, r


def test_pdivmod_matches_sympy_for_monic_divisors():
    rng = random.Random(11)
    for _ in range(300):
        a = _rand_poly(rng, 8)
        b = _rand_poly(rng, 3) + (1,)
        q, r = _qdiv(a, b)
        assert pdivmod(a, b) == (_tup(q), _tup(r)), (a, b)


def test_pdivmod_integral_exactly_when_the_rational_quotient_is():
    # the steps are the coefficients of the quotient over Q, so a step fails
    # exactly when that quotient leaves Z[v]
    rng = random.Random(12)
    raised = 0
    for _ in range(300):
        b = _rand_poly(rng, 3) + (rng.choice((-3, -2, 2, 3)),)
        a = _rand_poly(rng, 7)
        if rng.random() < 0.5:
            a = pmul(a, b)
        q, r = _qdiv(a, b)
        if _tup(q) is None:
            raised += 1
            with pytest.raises(ArithmeticError):
                pdivmod(a, b)
        else:
            assert pdivmod(a, b) == (_tup(q), _tup(r)), (a, b)
    assert raised > 50


def test_pdiv_exact_matches_sympy():
    rng = random.Random(13)
    for _ in range(300):
        b = _rand_poly(rng, 3)
        if not b:
            continue
        a = pmul(_rand_poly(rng, 4), b) if rng.random() < 0.6 else _rand_poly(rng, 6)
        q, r = _qdiv(a, b)
        if r.is_zero and _tup(q) is not None:
            assert pdiv_exact(a, b) == _tup(q), (a, b)
        else:
            with pytest.raises(ArithmeticError):
                pdiv_exact(a, b)


def test_pgcd_matches_sympy():
    rng = random.Random(14)
    for _ in range(300):
        g = _rand_poly(rng, 3)
        a = pmul(_rand_poly(rng, 4), g)
        b = pmul(_rand_poly(rng, 4), g)
        expected = pprimitive(_tup(sympy.gcd(_sp(a), _sp(b))))
        assert pgcd(a, b) == expected, (a, b)


def _rand_unit(rng):
    """c * v^k with c != 0 and k >= 0: a denominator of Q[v, v^-1]."""
    return pshift((rng.choice((-6, -4, -3, -2, -1, 1, 2, 3, 5, 12)),), rng.randint(0, 3))


def test_vrat_canonical_form_matches_sympy_cancel():
    # a shared integer factor and a shared power of v on both sides
    rng = random.Random(15)
    for _ in range(300):
        g = pshift((rng.randint(1, 6),), rng.randint(0, 2))
        a = pmul(_rand_poly(rng, 4), g)
        b = pmul(_rand_unit(rng), g)
        x = VRat(a, b)
        n, d = _sp(x.num), _sp(x.den)
        assert sympy.cancel(n.as_expr() / d.as_expr()) == \
            sympy.cancel(_sp(a).as_expr() / _sp(b).as_expr()), (a, b)
        # coprime with joint content 1, positive leading denominator
        assert sympy.gcd(n, d) == _sp((1,)), (a, b)
        assert x.den[-1] > 0


def test_ring_values_keep_the_pair_sympy_cancel_gives():
    rng = random.Random(30)
    seen_c = set()
    for _ in range(400):
        a, b = _rand_poly(rng, 5, box=12), _rand_unit(rng)
        x = VRat(a, b)
        assert (_sp(x.num), _sp(x.den)) == _sp(a).cancel(_sp(b), include=True), (a, b)
        assert x.den[:-1] == (0,) * (len(x.den) - 1) and x.den[-1] > 0, (a, b)
        seen_c.add(x.den[-1])
    assert max(seen_c) > 1


def _rand_vrat(rng):
    num = _rand_poly(rng, 2, box=3)
    den = rng.choice(((1,), (0, 1), (3,), (0, 0, 1), (0, 0, -2)))
    return VRat(num, den)


def _rand_laurent(rng, max_deg):
    lo = rng.randint(-2, 2)
    return Laurent({lo + i: _rand_vrat(rng) for i in range(rng.randint(1, max_deg + 1))})


def _sym(f, m):
    """Laurent f times X^-m as a sympy Poly in X over QQ(v)."""
    def coeff(c):
        return _sp(c.num).as_expr() / _sp(c.den).as_expr()
    expr = sum((coeff(c) * X ** (e - m) for e, c in f.c.items()), sympy.Integer(0))
    return sympy.Poly(expr, X, domain=QQV)


def test_div_exact_matches_sympy_over_qv():
    # the divisor's leading coefficient is a unit c*v^k, which long division
    # in X over Q[v, v^-1] divides by
    rng = random.Random(16)
    checked = 0
    for _ in range(60):
        g = _rand_laurent(rng, 2)
        g = g + Laurent({g.max_exp() + 1: VRat(rng.choice((1, -2, 3)), _rand_unit(rng))})
        f = g * _rand_laurent(rng, 2)
        if rng.random() < 0.4:
            f = f + _rand_laurent(rng, 1).shift(f.min_exp() - 3)
        if g.is_zero() or f.is_zero():
            continue
        q, r = sympy.div(_sym(f, f.min_exp()), _sym(g, g.min_exp()))
        if r.is_zero:
            quo = div_exact(f, g)
            assert _sym(quo, f.min_exp() - g.min_exp()) == q, (f, g)
            checked += 1
        else:
            with pytest.raises(ArithmeticError):
                div_exact(f, g)
    assert checked > 20


def test_synth_div_matches_sympy_over_qv():
    rng = random.Random(17)
    for _ in range(60):
        f = _rand_laurent(rng, 4)
        if f.is_zero():
            continue
        root = VRat.v_pow(rng.randint(-3, 3)) * rng.choice((1, -1))
        if rng.random() < 0.5:
            f = f * Laurent({1: 1, 0: -root})
        elif rng.random() < 0.5:
            root = _rand_vrat(rng) or root     # roots must be invertible
        m = f.min_exp()
        q, r = sympy.div(_sym(f, m), sympy.Poly(X - _sym(Laurent.const(root), 0).as_expr(),
                                                X, domain=QQV))
        quo, rem = synth_div(f, root)
        assert _sym(quo, m) == q, (f, root)
        assert _sym(Laurent.const(rem), 0) == r, (f, root)


# -- shaped roots: the linear factors of sympy's factorization -----------------

def _factor_roots(f):
    """{(sign, k): multiplicity} of the factors a*X + b with -b/a = sign * v^k in
    sympy's factorization of X^-min(f) * f, its denominators cleared into Z[v, X]."""
    num, _ = sympy.fraction(sympy.together(_sym(f, f.min_exp()).as_expr()))
    roots = {}
    for g, mult in sympy.factor_list(num, X, V)[1]:
        p = sympy.Poly(g, X)
        if p.degree() != 1:
            continue
        a, b = (sympy.Poly(c, V).terms() for c in p.all_coeffs())
        if len(a) != 1 or len(b) != 1:
            continue
        ((i,), ca), ((j,), cb) = a[0], b[0]
        if cb == ca or cb == -ca:
            key = (1 if cb == -ca else -1, j - i)
            roots[key] = roots.get(key, 0) + mult
    return roots


def _check_shaped_roots(f):
    roots, leftover = shaped_roots(f)
    assert roots == _factor_roots(f), f
    assert _factor_roots(leftover) == {}, f


def test_shaped_roots_match_sympy_on_mu_factors():
    halves = [Fraction(k, 2) for k in range(9)]
    grid = [(a, s) for a in halves for s in halves if a >= s]
    for e_alpha, e_star in grid + [(Fraction(11, 2), Fraction(5, 2)), (8, Fraction(1, 2)),
                                   (8, 8)]:
        f = mu_factor(e_alpha, e_star)
        _check_shaped_roots(f.num)
        _check_shaped_roots(f.den)


def test_shaped_roots_match_sympy_on_composite_scalar():
    s = composite_scalar()
    _check_shaped_roots(s.num)
    _check_shaped_roots(s.den)


def test_shaped_roots_match_sympy_with_several_slopes():
    v = VRat.v_pow

    def lin(c):
        return Laurent({1: 1, 0: -c})

    f = (lin(v(3)) * lin(v(3)) * lin(-v(-1)) * lin(-v(-1)) * lin(v(0)) * lin(-v(-2))
         * lin(VRat((1, 1))) * Laurent({2: 1, 0: v(1)})
         * Laurent({0: VRat((1,), (0, 3))})).shift(-3)
    _check_shaped_roots(f)
    _check_shaped_roots(inv_x(f) * Laurent({0: VRat((2, 0, 3), (0, 0, 5))}))
    assert _factor_roots(f) == {(1, 0): 1, (1, 3): 2, (-1, -2): 1, (-1, -1): 2}


# -- the closed-form profile against mu(X) as sympy cancels it ----------------

def _cancelled_mu_profile(e_alpha, e_star):
    """(zeros, poles) of the eight-factor mu(X) with q = v^2, read off the linear
    factors of the numerator and denominator that sympy's cancel leaves."""
    qa, qs = V ** int(2 * e_alpha), V ** int(2 * e_star)
    mu = ((1 - X) * (1 - 1 / X) * (1 + X) * (1 + 1 / X)
          / ((1 - X / qa) * (1 - 1 / (qa * X)) * (1 + X / qs) * (1 + 1 / (qs * X))))
    sides = []
    for part in sympy.fraction(sympy.cancel(mu)):
        side = {}
        for g, mult in sympy.factor_list(part, X, V)[1]:
            if g == X or sympy.degree(g, X) == 0:
                continue
            a, b = sympy.Poly(g, X).all_coeffs()
            sign, k = sympy.cancel(-b / a).as_coeff_exponent(V)
            assert sign in (1, -1), g
            key = (int(sign), Fraction(int(k), 2))
            side[key] = side.get(key, 0) + mult
        sides.append(side)
    return tuple(sides)


@pytest.mark.parametrize("e_alpha, e_star", [
    (0, 0), (1, 0), (5, 0), (2, 1), (3, 3), (Fraction(1, 2), Fraction(1, 2)),
    (Fraction(7, 2), Fraction(1, 2)), (Fraction(5, 2), 0)], ids=str)
def test_closed_form_profile_matches_sympy_cancel(e_alpha, e_star):
    assert _profile_of(ParamPair(e_alpha, e_star)) == _cancelled_mu_profile(e_alpha, e_star)


# -- packed coefficients: v^-e * P with P in Z[v] held as the int P(2^K) -------
#
# Sums and products go through elements of the rank-0 algebra (the Laurent
# polynomials in theta), whose coefficient at theta_0 is the value under test.

_LAURENT = AHA(BasedRootDatum(None, lattice_rank=1), LabelFunction(()))
_AT_ZERO = ((0,), 0)


def _operand(rng, max_slots, budget):
    """(val, P), P(0) != 0, with l1 norm below 2^budget: up to max_slots
    coefficients of up to budget - 1 bits; one in three has at most four
    nonzero slots of size 1 or 2 (the wide sparse values high labels give)."""
    n = rng.randint(1, min(max_slots, 2 ** budget - 1))
    if rng.random() < 1 / 3:
        p = [0] * n
        for i in rng.sample(range(n), min(n, 4)):
            p[i] = rng.choice((-2, -1, 1, 2))
    else:
        bound = 2 ** (budget - n.bit_length()) - 1
        p = [rng.randint(-bound, bound) for _ in range(n)]
    p[0], p[-1] = p[0] or 1, p[-1] or -1
    return rng.randint(-5, 5), tuple(p)


def _packed(val, p):
    """v^val * p as an element c * theta_0, built through VRat like every input."""
    num, den = (pshift(p, val), PONE) if val >= 0 else (p, pshift(PONE, -val))
    return _LAURENT.element({_AT_ZERO: VRat(num, den)})


def _vshift(p, k):
    return _sp(p) * sympy.Poly(V ** k, V, domain="ZZ")


def _agree(el, val, poly, case):
    """el is v^val * poly * theta_0: decoded, packed (sympy's value at 2^K) and bounded."""
    coeffs = [int(c) for c in poly.all_coeffs()[::-1]]
    if not any(coeffs):
        assert el.is_zero() and el == _LAURENT.element({}), case
        return
    zval, n, _ = pack(el.terms[_AT_ZERO])
    k = next(i for i, c in enumerate(coeffs) if c)
    assert (zval, _unpack(n)) == (val + k, tuple(coeffs[k:])), case
    assert n == int(_sp(tuple(coeffs[k:])).eval(2 ** K)), case
    assert el.bound >= sum(map(abs, coeffs)), case


def test_packed_sums_match_sympy():
    rng = random.Random(18)
    for _ in range(300):
        a = _operand(rng, 40, 61)
        if rng.random() < 0.4:   # cancel the low slots of a, same valuation
            k = rng.randint(1, len(a[1]))
            b = (a[0], tuple(-c for c in a[1][:k]) + _operand(rng, max(40 - k, 1), 61)[1])
        else:
            b = _operand(rng, 40, 61)
        m = min(a[0], b[0])
        expect = _vshift(a[1], a[0] - m) + _vshift(b[1], b[0] - m)
        _agree(_packed(*a) + _packed(*b), m, expect, (a, b))
        _agree(_packed(*a) - _packed(*b),
               m, _vshift(a[1], a[0] - m) - _vshift(b[1], b[0] - m), (a, b))


def test_packed_products_match_sympy():
    rng = random.Random(19)
    for _ in range(300):
        budget = rng.randint(1, 61)
        a, b = _operand(rng, 40, budget), _operand(rng, 40, 62 - budget)
        _agree(_packed(*a) * _packed(*b), a[0] + b[0], _sp(a[1]) * _sp(b[1]), (a, b))


def test_packed_search_matches_sympy_at_c_prime_three_halves():
    for e_alpha, e_star in ((Fraction(1, 2), 0), (2, Fraction(1, 2)), (Fraction(7, 2), 3),
                            (8, Fraction(1, 2))):
        f = mu_factor(e_alpha, e_star, Fraction(3, 2))
        _check_shaped_roots(f.num)
        _check_shaped_roots(f.den)


def test_packed_search_matches_sympy_on_denominators_negative_k_and_multiplicity():
    v = VRat.v_pow

    def lin(c):
        return Laurent({1: 1, 0: -c})

    w = VRat((1, 0, 1), (0, 0, 3))                  # (1+v^2)/(3v^2)
    f = lin(v(2)) * lin(-v(-1)) * Laurent({1: w, 0: VRat((2,), (0, 5))})
    _check_shaped_roots(f)
    assert _factor_roots(f) == {(1, 2): 1, (-1, -1): 1}
    g = lin(v(-1)) * lin(v(-1)) * lin(v(-1)) * lin(-v(-5)) * lin(-v(-5)) * lin(-v(-5)) \
        * lin(-v(-5)) * lin(VRat((1, 0, 1))) * Laurent({0: w})
    _check_shaped_roots(g.shift(-2))
    _check_shaped_roots(inv_x(g))
    assert _factor_roots(g) == {(1, -1): 3, (-1, -5): 4}


def test_packed_search_matches_sympy_on_random_inputs():
    rng = random.Random(29)
    for _ in range(25):
        f = _rand_laurent(rng, 3)
        if f.is_zero():
            continue
        for _ in range(rng.randint(1, 3)):
            r = VRat.v_pow(rng.randint(-3, 3)) * rng.choice((1, -1))
            f = f * Laurent({1: 1, 0: -r})
        _check_shaped_roots(f)
