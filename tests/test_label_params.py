"""Label functions, q-parameter exponents, base rescaling, admissibility."""
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from hecke.label_params import (LabelFunction, ParamPair, QBase, labels_from_q,
                                pair_from_labels, q_power_str, validate)
from hecke.root_data import build_root_system


def test_labels_from_q():
    assert labels_from_q(ParamPair(1, 0)) == (1, 1)
    assert labels_from_q(ParamPair(Fraction(1, 2), Fraction(1, 2))) == (1, 0)
    assert labels_from_q(ParamPair(0, 0)) == (0, 0)
    assert labels_from_q(ParamPair(2, 1)) == (3, 1)


def test_pair_from_labels():
    assert pair_from_labels(3, 1) == ParamPair(2, 1)
    assert pair_from_labels(2, 2) == ParamPair(2, 0)
    assert pair_from_labels(0, 0) == ParamPair(0, 0)
    assert pair_from_labels(1, 0) == ParamPair(Fraction(1, 2), Fraction(1, 2))
    with pytest.raises(ValueError):
        pair_from_labels(1, 2)
    with pytest.raises(ValueError):
        ParamPair(1, 2)


def test_pair_from_labels_checks_its_base():
    for r in (0, -2, Fraction(-1, 2)):
        with pytest.raises(ValueError, match="base exponent must be positive"):
            pair_from_labels(1, 1, r)


def test_v_exponents():
    assert ParamPair(2, 1).v_exponents() == (4, 2)
    assert ParamPair(Fraction(3, 2), Fraction(1, 2)).v_exponents() == (3, 1)
    assert ParamPair(0, 0).v_exponents() == (0, 0)
    # the same at every base: label 1 at base q_F^2 is q_a = q_F^2 = v^4
    assert pair_from_labels(1, 1, 2).v_exponents() == pair_from_labels(2, 2).v_exponents()
    for pair in (ParamPair(Fraction(1, 3)), ParamPair(1, Fraction(1, 3))):
        with pytest.raises(ValueError, match="exponent 1/3 is not a half-integer"):
            pair.v_exponents()


_half = st.integers(min_value=0, max_value=12).map(lambda k: Fraction(k, 2))


@given(_half, _half, st.sampled_from([Fraction(1), Fraction(2), Fraction(1, 2)]))
def test_label_q_roundtrip(a, b, r):
    lam, ls = max(a, b), min(a, b)
    p = pair_from_labels(lam, ls, r)
    assert labels_from_q(p, QBase(r)) == (lam, ls)


def test_q_power_str():
    assert q_power_str(0) == "1"
    assert q_power_str(1) == "q"
    assert q_power_str(3) == "q^3"
    assert q_power_str(Fraction(1, 2)) == "q^(1/2)"


def test_qbase_validation():
    with pytest.raises(ValueError):
        QBase(0)


def test_for_system_spreading():
    a1 = LabelFunction.for_system(build_root_system("A", 1), (1, 1))
    assert a1.orbits == (((0,), 1, 1),)
    b2 = LabelFunction.for_system(build_root_system("B", 2), (3, 3, 1))
    assert b2.values(0) == (3, 3)  # long orbit
    assert b2.values(1) == (3, 1)  # short orbit
    g2 = LabelFunction.for_system(build_root_system("G", 2), (1, 3))
    assert g2.values(1) == (1, 1)  # long
    assert g2.values(0) == (3, 3)  # short
    a2 = LabelFunction.for_system(build_root_system("A", 2), 2)
    assert a2.values(0) == (2, 2) == a2.values(1)
    pairs = LabelFunction.for_system(build_root_system("B", 2), [(3, 3), (3, 1)])
    assert pairs == b2


def test_validate():
    a2 = build_root_system("A", 2)
    assert validate(LabelFunction.for_system(a2, (1, 1)), a2) == []
    bad = validate(LabelFunction.for_system(a2, (2, 1)), a2)
    assert any("type-B" in msg for msg in bad)
    b2 = build_root_system("B", 2)
    assert validate(LabelFunction.for_system(b2, (3, 3, 1)), b2) == []
    c2 = build_root_system("C", 2)
    lf = LabelFunction([((1,), 2, 0), ((0,), 1, 1)])
    assert any("type-B" in msg for msg in validate(lf, c2))
    split = LabelFunction([((0,), 1, 1), ((1,), 2, 2)])
    assert any("W-orbit" in msg for msg in validate(split, a2))
    assert any("partition" in msg for msg in validate(LabelFunction([((0,), 1, 1)]), a2))
    disordered = LabelFunction([((0,), 1, 1), ((1,), Fraction(1, 2), 1)])
    assert any("lambda*" in msg for msg in validate(disordered, b2))
    b1 = build_root_system("B", 1)
    assert validate(LabelFunction.for_system(b1, (1, 0)), b1) == []
    # lambda* != lambda is refused on the long orbit, whose class is named
    only_short = "lambda* != lambda is only admissible on the short orbit of a type-B component"
    for t, n, pairs, orbit, cls in [("B", 2, [(3, 1), (3, 3)], [0], "B long"),
                                    ("B", 3, [(3, 1), (2, 2)], [0, 1], "B long"),
                                    ("G", 2, [(3, 1), (1, 1)], [1], "G long")]:
        rs = build_root_system(t, n)
        assert validate(LabelFunction.for_system(rs, pairs), rs) == [
            f"orbit {orbit}: {only_short}, not {cls}"]


def test_rescale_base():
    b2 = build_root_system("B", 2)
    lf = LabelFunction.for_system(b2, (3, 3, 1))
    half = lf.rescale(Fraction(1, 2))
    assert half.base.exp == Fraction(1, 2)
    assert half.values(1) == (6, 2)
    assert half.rescale(2) == lf
    assert half.pairs() == lf.pairs()  # q-parameters are rescaling invariants
    doubled = LabelFunction.for_system(b2, 2).rescale(2)
    assert doubled.values(0) == (1, 1)
    with pytest.raises(ValueError):
        lf.rescale(0)


def test_conjecture_conformance():
    b2 = build_root_system("B", 2)
    assert LabelFunction.for_system(b2, (3, 3, 1)).conforms()
    b1 = build_root_system("B", 1)
    assert LabelFunction.for_system(b1, (1, 0)).conforms()  # q = q*^ = q_F^(1/2)
    odd = LabelFunction.for_system(b1, (Fraction(1, 2), Fraction(1, 2)))
    assert not odd.conforms()  # ratio q_a/q_{a*} not a power of q_F
    third = LabelFunction.for_system(b1, (Fraction(1, 3), Fraction(1, 3)))
    assert not third.conforms()  # q_a = q_F^(1/3) is no power of v
    assert not LabelFunction([((0,), 1, 2)]).conforms()  # lambda < lambda*


def test_json_roundtrip():
    b2 = build_root_system("B", 2)
    lf = LabelFunction.for_system(b2, (3, 3, 1), QBase(Fraction(1, 2)))
    blob = lf.to_json()
    assert blob["base_exp"] == "1/2"
    assert blob["orbits"][0] == {"roots": [0], "lambda": "3", "lambda_star": "3"}
    assert LabelFunction.from_json(blob) == lf
    plain = LabelFunction.for_system(b2, (3, 3, 1)).to_json()
    assert plain["base_exp"] == 1


def test_q_from_labels_orbitwise():
    b2 = build_root_system("B", 2)
    lf = LabelFunction.for_system(b2, (3, 3, 1))
    assert lf.pair(0) == ParamPair(3, 0)
    assert lf.pair(1) == ParamPair(2, 1)
