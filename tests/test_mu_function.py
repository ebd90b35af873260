"""Pole/zero profiles of rank-one factors and parameter recovery."""
from fractions import Fraction

import pytest

from hecke.label_params import LabelFunction, ParamPair, validate
from hecke.mu_function import (MuFactor, PoleZeroProfile, _profile_of, mu_factor,
                               poles_zeros, q_from_poles, ratio_profile, sigma_O_mu)
from hecke.qfield import VRat
from hecke.root_data import SizeLimitError, build_root_system, simple_orbits
from hecke.xlaurent import L_ONE, Laurent

from _reference import dot, inv_x, norm_orbits

F = Fraction


def profile(zeros, poles):
    return PoleZeroProfile(zeros, poles)


def test_profile_equal_unequal_and_trivial_parameters():
    # q_a = q, q_a* = 1: double zero at 1, simple poles at q^{+-1}
    assert poles_zeros(mu_factor(1)) == profile(
        {(1, 0): 2}, {(1, 1): 1, (1, -1): 1})
    # q_a = q^2, q_a* = q: zeros at +-1, poles at q^{+-2} and -q^{+-1}
    assert poles_zeros(mu_factor(2, 1)) == profile(
        {(1, 0): 2, (-1, 0): 2},
        {(1, 2): 1, (1, -2): 1, (-1, 1): 1, (-1, -1): 1})
    # equal parameters q_a = q_a* = q^3: poles at +-q^{+-3}
    assert poles_zeros(mu_factor(3, 3)) == profile(
        {(1, 0): 2, (-1, 0): 2},
        {(1, 3): 1, (1, -3): 1, (-1, 3): 1, (-1, -3): 1})
    # both parameters 1: constant factor
    assert poles_zeros(mu_factor(0, 0)).is_empty()
    # half-integer exponents
    assert poles_zeros(mu_factor(F(1, 2), F(1, 2))) == profile(
        {(1, 0): 2, (-1, 0): 2},
        {(1, F(1, 2)): 1, (1, -F(1, 2)): 1, (-1, F(1, 2)): 1, (-1, -F(1, 2)): 1})


def _eight_factor_product(e_alpha, e_star, c_prime):
    """Oracle: num and den as the products of their linear factors in X^+-1."""
    x, xi = Laurent.x_pow(1), Laurent.x_pow(-1)
    qa_inv, qs_inv = VRat.v_pow(-int(2 * e_alpha)), VRat.v_pow(-int(2 * e_star))
    num, den = Laurent.const(VRat.from_fraction(F(c_prime))), L_ONE
    if e_alpha > 0:
        num = num * (L_ONE - x) * (L_ONE - xi)
        den = den * (L_ONE - Laurent.x_pow(1, qa_inv)) * (L_ONE - Laurent.x_pow(-1, qa_inv))
    if e_star > 0:
        num = num * (L_ONE + x) * (L_ONE + xi)
        den = den * (L_ONE + Laurent.x_pow(1, qs_inv)) * (L_ONE + Laurent.x_pow(-1, qs_inv))
    return num, den


@pytest.mark.parametrize("c_prime", [1, F(3, 7), 5], ids=str)
def test_closed_form_matches_the_eight_factor_product(c_prime):
    halves = [F(k, 2) for k in range(17)]
    pairs = [(a, s) for a in halves for s in halves if s <= a] + [(F(1024), F(1023))]
    assert len(pairs) == 154
    for e_alpha, e_star in pairs:
        f = MuFactor(e_alpha, e_star, c_prime)
        assert (f.num, f.den) == _eight_factor_product(e_alpha, e_star, c_prime), \
            (e_alpha, e_star)


@pytest.mark.parametrize("c_prime", [1, F(3, 2), F(10**29)], ids=str)
def test_closed_form_on_the_pool_and_at_the_cap(c_prime):
    # the benchmark's pool, e_alpha <= 8 in halves, and the widest v-exponents
    halves = [F(k, 2) for k in range(17)]
    pairs = [(a, s) for a in halves for s in halves if s <= a]
    pairs += [(F(1024), F(1023)), (F(1024), F(1, 2)), (F(1023, 2), F(0))]
    assert len(pairs) == 156
    for e_alpha, e_star in pairs:
        f = MuFactor(e_alpha, e_star, c_prime)
        assert (f.num, f.den) == _eight_factor_product(e_alpha, e_star, c_prime), \
            (e_alpha, e_star)
        prof = poles_zeros(f)
        for key in list(prof.zeros) + list(prof.poles):
            assert [type(x) for x in key] == [int, F], key
        assert q_from_poles(prof) == ParamPair(e_alpha, e_star)


def test_closed_form_profile_matches_the_root_search():
    # every half-integer pair with e_alpha <= 20, conforming or not, and the cap
    halves = [F(k, 2) for k in range(41)]
    pairs = [(a, s) for a in halves for s in halves if s <= a]
    pairs += [(F(1024), F(1023)), (F(1024), F(1, 2)), (F(1023, 2), F(0))]
    assert len(pairs) == 864
    for e_alpha, e_star in pairs:
        prof = poles_zeros(MuFactor(e_alpha, e_star))
        assert _profile_of(ParamPair(e_alpha, e_star)) == (prof.zeros, prof.poles), \
            (e_alpha, e_star)


@pytest.mark.parametrize("zeros, poles, err, msg", [
    # e_alpha past MU_EXP_CAP, alone and with an e_alpha* block
    ({(1, 0): 2}, {(1, 1025): 1, (1, -1025): 1},
     SizeLimitError, "q_alpha exponent 1025 exceeds 1024"),
    ({(1, 0): 2, (-1, 0): 2}, {(1, 1025): 1, (1, -1025): 1, (-1, 1): 1, (-1, -1): 1},
     SizeLimitError, "q_alpha exponent 1025 exceeds 1024"),
    # a pole exponent off the half-integers, in e_alpha and in e_alpha*
    ({(1, 0): 2}, {(1, F(1, 3)): 1, (1, -F(1, 3)): 1},
     ValueError, "exponent 1/3 is not a half-integer"),
    ({(1, 0): 2, (-1, 0): 2}, {(1, 1): 1, (1, -1): 1, (-1, F(1, 3)): 1, (-1, -F(1, 3)): 1},
     ValueError, "exponent 1/3 is not a half-integer"),
], ids=["cap", "cap-with-star", "third", "third-in-star"])
def test_recovery_refusals(zeros, poles, err, msg):
    with pytest.raises(err) as info:
        q_from_poles(profile(zeros, poles))
    assert str(info.value) == msg
    with pytest.raises(err) as info:     # the factor refuses the same pair alike
        MuFactor(max(e for s, e in poles if s == 1),
                 max((e for s, e in poles if s == -1), default=0))
    assert str(info.value) == msg


def test_ratio_profile_rejects_non_shaped_leftover():
    # X^2 + v: Newton slope 1/2, so no root of the shape sign * v^k
    odd = Laurent({2: 1, 0: VRat.v_pow(1)})
    with pytest.raises(ValueError, match="non-shaped"):
        ratio_profile(odd, L_ONE)
    with pytest.raises(ValueError, match="non-shaped"):
        ratio_profile(mu_factor(1).num, odd * mu_factor(1).den)


def test_factor_construction_guards():
    with pytest.raises(ValueError):
        mu_factor(1, 2)            # q_a* > q_a
    with pytest.raises(ValueError):
        mu_factor(F(1, 3))         # not a half-integer
    with pytest.raises(ValueError):
        mu_factor(1, 0, c_prime=0)
    with pytest.raises(ValueError):
        mu_factor(1, 0, c_prime=-2)


def test_equality_up_to_positive_scalar():
    assert mu_factor(2, 1) == mu_factor(2, 1, c_prime=F(7, 2))
    assert mu_factor(2, 1) != mu_factor(2, 0)
    assert mu_factor(1) != mu_factor(2)
    assert mu_factor(0, 0, c_prime=3) == mu_factor(0, 0)


def test_inversion_symmetry_and_evaluation():
    # mu is invariant under X -> X^-1: num(X) den(X^-1) = num(X^-1) den(X)
    for pair in ((1, 0), (2, 1), (3, 3), (F(1, 2), F(1, 2)), (0, 0)):
        f = mu_factor(*pair)
        assert f.num * inv_x(f.den) == inv_x(f.num) * f.den
    f = mu_factor(1)
    # reduced form is regular at X = -1 even though both raw blocks vanish
    q_inv = VRat.v_pow(-2)
    num, den = f.num.subst(VRat(-1)), f.den.subst(VRat(-1))
    assert den and num * (VRat(1) + q_inv) * (VRat(1) + q_inv) == 4 * den
    # zeros and poles by direct evaluation
    assert f.num.subst(VRat(1)).is_zero()
    assert f.den.subst(VRat.v_pow(2)).is_zero()
    assert not f.den.subst(VRat(1)).is_zero()


def test_parameter_recovery_roundtrip():
    seen = set()
    for two_ea in range(0, 9):
        for two_es in range(0, two_ea + 1):
            if (two_ea - two_es) % 2:
                continue        # e_a - e_a* must be integral for one orbit
            pair = ParamPair(F(two_ea, 2), F(two_es, 2))
            assert q_from_poles(poles_zeros(MuFactor(*pair))) == pair
            seen.add(pair)
    assert ParamPair(2, 1) in seen and ParamPair(F(7, 2), F(1, 2)) in seen
    assert len(seen) == 25


def test_recovery_rejects_malformed_profiles():
    assert q_from_poles(profile({}, {})) == ParamPair(0, 0)
    # no positive-real pole
    with pytest.raises(ValueError, match="positive-real"):
        q_from_poles(profile({(1, 0): 2},
                             {(-1, 1): 1, (-1, -1): 1}))
    # negative pole further out than the positive one
    with pytest.raises(ValueError, match="q_a >= q_a"):
        q_from_poles(profile({(1, 0): 2, (-1, 0): 2},
                             {(1, 1): 1, (1, -1): 1, (-1, 2): 1, (-1, -2): 1}))
    # double positive pole is never produced
    with pytest.raises(ValueError, match="mu-factor shape"):
        q_from_poles(profile({(1, 0): 2, (-1, 0): 2},
                             {(1, 1): 2, (1, -1): 2}))
    # two distinct positive pole pairs
    with pytest.raises(ValueError, match="mu-factor shape"):
        q_from_poles(profile({(1, 0): 2, (-1, 0): 2},
                             {(1, 1): 1, (1, -1): 1, (1, 2): 1, (1, -2): 1}))
    # zeros in the wrong place
    with pytest.raises(ValueError, match="mu-factor shape"):
        q_from_poles(profile({(1, 1): 1, (1, -1): 1},
                             {(1, 2): 1, (1, -2): 1}))


def test_profile_invariants_enforced():
    with pytest.raises(ValueError, match="inversion"):
        PoleZeroProfile({(1, 1): 1}, {(1, 2): 1})
    with pytest.raises(ValueError, match="total"):
        PoleZeroProfile({(1, 0): 2}, {(1, 1): 1, (1, -1): 1, (-1, 1): 1, (-1, -1): 1})
    with pytest.raises(ValueError):
        PoleZeroProfile({(2, 0): 1}, {(1, 1): 1, (1, -1): 1})


def test_profile_json_roundtrip():
    p = poles_zeros(mu_factor(F(3, 2), F(1, 2)))
    data = p.to_json()
    assert {"sign": 1, "exp": 0, "ord": 2} in data["zeros"]
    assert {"sign": 1, "exp": "3/2", "ord": 1} in data["poles"]
    assert {"sign": -1, "exp": "-1/2", "ord": 1} in data["poles"]
    assert PoleZeroProfile.from_json(data) == p
    assert PoleZeroProfile.from_json(poles_zeros(mu_factor(2)).to_json()) \
        == poles_zeros(mu_factor(2))


def test_negative_pole_only_with_type_b_short_labels():
    # the orbit label data that yields q_a* > 1 must sit on a short type-B
    # orbit; the factor built from it then shows the negative pole
    rs = build_root_system("B", 2)
    lf = LabelFunction.for_system(rs, [3, 3, 1])
    assert validate(lf, rs) == []
    pair = lf.pair(1)
    assert pair == ParamPair(2, 1)
    prof = poles_zeros(MuFactor(*pair))
    assert prof.poles.get((-1, 1)) == 1
    # the same unequal pair is inadmissible on a long orbit
    rs_c = build_root_system("C", 2)
    bad = LabelFunction.for_system(rs_c, [(3, 1), (3, 3)])
    assert any("type-B" in msg for msg in validate(bad, rs_c))


def _labels(comps):
    return sorted((c.label, c.ambient_class) for c in comps)


def test_sigma_subsystem_b2_long_only():
    rs = build_root_system("B", 2)
    comps = sigma_O_mu(rs, {0: mu_factor(1), 1: mu_factor(0, 0)})
    assert _labels(comps) == [("A1", "long"), ("A1", "long")]
    allr = [r for c in comps for r in c.roots]
    assert len(allr) == 4 and all(dot(r, r) == 2 for r in allr)   # e_i +- e_j


def test_sigma_subsystem_full_and_empty():
    rs = build_root_system("F", 4)
    comps = sigma_O_mu(rs, {0: mu_factor(1), 1: mu_factor(2, 1)})
    assert _labels(comps) == [("F4", "mixed")]
    assert len(comps[0].roots) == 48
    assert sigma_O_mu(rs, {}) == ()
    assert sigma_O_mu(rs, {0: None, 1: mu_factor(0, 0, c_prime=5)}) == ()


def test_sigma_subsystem_single_orbits():
    g2 = build_root_system("G", 2)
    # orbit 0 is the long orbit; each length class of G2 forms an A2
    assert _labels(sigma_O_mu(g2, {0: mu_factor(1)})) == [("A2", "long")]
    assert _labels(sigma_O_mu(g2, {1: mu_factor(3)})) == [("A2", "short")]
    b3 = build_root_system("B", 3)
    assert _labels(sigma_O_mu(b3, {1: mu_factor(1)})) == [
        ("A1", "short"), ("A1", "short"), ("A1", "short")]
    assert _labels(sigma_O_mu(b3, {0: mu_factor(2)})) == [("A3", "long")]
    a2 = build_root_system("A", 2)
    assert _labels(sigma_O_mu(a2, {0: mu_factor(1)})) == [("A2", "all")]
    comps = sigma_O_mu(b3, {0: mu_factor(1), 1: mu_factor(1)})
    assert _labels(comps) == [("B3", "mixed")]


def _canonical(t, n):
    """Canonical name of a whole irreducible system (C2 reads B2, D3 reads A3)."""
    if n == 1:
        return "A1"
    return {("C", 2): "B2", ("D", 3): "A3"}.get((t, n), f"{t}{n}")


def _expected_sigma(t, n, cls):
    """Components of Sigma when only the orbit of length class cls is kept."""
    if t == "D" and n == 2:  # two orthogonal A1 orbits
        return [("A1", "all")]
    if cls == "all" or n == 1:
        return [(_canonical(t, n), "all")]
    if t == "G":
        return [("A2", cls)]
    if t == "F":
        return [("D4", cls)]
    if (t, cls) in (("B", "short"), ("C", "long")) or n == 2:  # n x A1 (D2 = 2 x A1)
        return [("A1", cls)] * n
    return [(_canonical("D", n), cls)]  # B long, C short


@pytest.mark.parametrize("t,n", [(t, n) for t in "ABC" for n in range(1, 9)]
                         + [("D", n) for n in range(2, 9)]
                         + [("G", 2), ("F", 4), ("E", 6), ("E", 7), ("E", 8)],
                         ids=lambda x: str(x))
def test_sigma_subsystem_every_class_and_all_orbits(t, n):
    rs = build_root_system(t, n)
    orbits = simple_orbits(t, n)
    classes = {idx: cls for cls, idx in norm_orbits(rs)}
    for k, (_, orbit) in enumerate(orbits):
        cls = classes[orbit]
        assert _labels(sigma_O_mu(rs, {k: mu_factor(1)})) == _expected_sigma(t, n, cls)
    every = sigma_O_mu(rs, {k: mu_factor(1) for k in range(len(orbits))})
    if t == "D" and n == 2:
        assert _labels(every) == [("A1", "all")] * 2
    else:
        tag = "all" if t in "ADE" or n == 1 else "mixed"
        assert _labels(every) == [(_canonical(t, n), tag)]


def test_sigma_component_json():
    rs = build_root_system("B", 2)
    comp = sigma_O_mu(rs, {0: mu_factor(1)})[0]
    data = comp.to_json()
    assert data["type"] == "A1" and data["ambient_class"] == "long"
    assert all(len(r) == 2 for r in data["roots"])
