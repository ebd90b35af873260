"""J-matrix composition, reducibility points, and character-sum vanishing."""
import math

import pytest

from hecke.intertwiner_rank1 import (FiniteCharacter, JMatrix, char_sum, compose,
                                     composite_scalar, cyclotomic, is_scalar_identity,
                                     j_matrix, ramified_rule,
                                     reciprocal_scalar_profile, reducibility_points)
from hecke.label_params import ParamPair
from hecke.qfield import VRat
from hecke.root_data import SizeLimitError
from hecke.xlaurent import L_ONE, Laurent, LaurentRatio

from _reference import inv_x, vrat_eval

Q_INV = VRat.v_pow(-2)


def test_matrix_entries_as_displayed():
    m = j_matrix("P->Pop")
    assert m.entry(0, 0) == LaurentRatio.const(Q_INV)
    assert m.entry(1, 1) == LaurentRatio.const(1)
    n = j_matrix("Pop->P")
    assert n.entry(0, 0) == LaurentRatio.const(1)
    assert n.entry(1, 1) == LaurentRatio.const(Q_INV)
    # off-diagonal entries vanish as z grows: strict degree drop
    e = m.entry(0, 1)
    assert e.num.max_exp() < e.den.max_exp()
    with pytest.raises(ValueError):
        j_matrix("sideways")


def test_composite_is_scalar_times_identity():
    s = composite_scalar()
    assert is_scalar_identity(compose(j_matrix("Pop->P"), j_matrix("P->Pop")), s)
    assert is_scalar_identity(compose(j_matrix("P->Pop"), j_matrix("Pop->P")), s)


def test_scalar_closed_form_and_symmetry():
    s = composite_scalar()
    z = Laurent.x_pow(1)
    q = VRat.v_pow(2)
    closed = LaurentRatio(
        (z - Laurent.const(q)) * (z - Laurent.const(Q_INV)) * Laurent.const(Q_INV),
        (z - L_ONE) * (z - L_ONE))
    assert s == closed
    assert s == LaurentRatio(inv_x(s.num), inv_x(s.den))


def test_scalar_values():
    s = composite_scalar()
    at = lambda z: s.num.subst(z) / s.den.subst(z)
    assert at(VRat.v_pow(2)).is_zero()         # z = q_F
    assert at(VRat.v_pow(-2)).is_zero()        # z = q_F^{-1}
    b = VRat(1) - Q_INV
    assert at(VRat(-1)) == Q_INV + b * b / VRat(4)
    assert s.den.subst(VRat(1)).is_zero()      # pole at z = 1
    assert not s.num.subst(VRat(1)).is_zero()


def test_reducibility_points_via_profile():
    from fractions import Fraction
    prof = reciprocal_scalar_profile()
    assert prof.poles == {(1, Fraction(1)): 1, (1, Fraction(-1)): 1}
    assert prof.zeros == {(1, Fraction(0)): 2}
    assert reducibility_points() == ParamPair(1, 0)


def test_numeric_specialization_sqrt2():
    s = composite_scalar()
    v = math.sqrt(2)
    val = lambda z: vrat_eval(s.num.subst(z), v) / vrat_eval(s.den.subst(z), v)
    assert abs(val(VRat(2))) < 1e-12
    assert abs(val(VRat(1) / VRat(2))) < 1e-12
    assert abs(val(VRat(3))) > 1e-3


def test_character_construction():
    chi = FiniteCharacter(9, 1)
    assert chi.phi == 6 and chi.generator == 2
    assert chi.exponent(2) == 1 and chi.exponent(7) == 4  # 7 = 2^4 mod 9
    assert FiniteCharacter(5, 4).is_trivial()
    assert not FiniteCharacter(5, 2).is_trivial()
    with pytest.raises(ValueError):
        FiniteCharacter(8)     # units mod 8 not cyclic
    with pytest.raises(ValueError):
        FiniteCharacter(12)    # not a prime power
    with pytest.raises(SizeLimitError):
        FiniteCharacter(10007)
    assert FiniteCharacter(4, 1).phi == 2


def test_char_sum_examples():
    assert char_sum(FiniteCharacter(5, 2)) == 0     # quadratic mod 5
    assert char_sum(FiniteCharacter(5, 0)) == 4     # trivial counts units
    assert char_sum(FiniteCharacter(9, 3)) == 0     # quadratic mod 9
    assert char_sum(FiniteCharacter(2, 0)) == 1


def test_char_sum_vanishes_for_all_nontrivial():
    for p in (3, 5, 7):
        for k in (1, 2):
            m = p ** k
            phi = len([u for u in range(1, m) if math.gcd(u, m) == 1])
            for j in range(phi):
                expected = phi if j == 0 else 0
                assert char_sum(FiniteCharacter(m, j)) == expected


def test_cyclotomic_polynomials():
    assert cyclotomic(1) == [-1, 1]
    assert cyclotomic(2) == [1, 1]
    assert cyclotomic(4) == [1, 0, 1]
    assert cyclotomic(6) == [1, -1, 1]
    assert cyclotomic(12) == [1, 0, -1, 0, 1]


def test_ramified_rule():
    assert ramified_rule(FiniteCharacter(5, 2)) == "alpha not in Sigma_{O,mu}"
    assert ramified_rule(FiniteCharacter(5, 0)) == "alpha in Sigma_{O,mu}"


def test_jmatrix_json_and_guards():
    data = j_matrix("P->Pop").to_json()
    assert data["direction"] == "P->Pop"
    assert len(data["entries"]) == 2 and all(len(r) == 2 for r in data["entries"])
    with pytest.raises(ValueError):
        JMatrix("elsewhere", ((LaurentRatio.const(1),) * 2,) * 2)
