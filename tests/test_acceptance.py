"""Acceptance gate: one test per headline guarantee, in order.

Every check is exact rational / Laurent arithmetic (no tolerances), and the
expensive ones carry a wall-clock budget so regressions in the arithmetic
kernels show up here before anywhere else.  Run with -v to get one pass/fail
line per guarantee.
"""
import time
from fractions import Fraction
from itertools import product

from hecke.hecke_algebra import algebra, check_relations
from hecke.intertwiner_rank1 import (FiniteCharacter, char_sum, compose,
                                     composite_scalar, is_scalar_identity,
                                     j_matrix, reciprocal_scalar_profile,
                                     reducibility_points)
from hecke.isogeny_transfer import TransferCase, component_match, transfer
from hecke.label_params import LabelFunction, ParamPair, QBase
from hecke.mu_function import mu_factor, poles_zeros, q_from_poles
from hecke.param_catalog import (ClassicalFamily, case_lookup,
                                 classical_bound_check, classical_labels,
                                 db_records, parity_allows, parity_rule,
                                 table1_match, unitary_ps_descriptor)
from hecke.qfield import VRat
from hecke.root_data import BasedRootDatum, build_root_system, weyl_group
from hecke.xlaurent import L_ONE, Laurent, LaurentRatio

from _reference import signatures


def _component(letter, rank, labels):
    rs = build_root_system(letter, rank)
    lf = LabelFunction.for_system(rs, [Fraction(v) for v in labels], QBase(1))
    return rs, lf


def test_01_relations_hold_on_seeded_triples():
    t0 = time.monotonic()
    for letter, rank, labels in (("A", 1, (1, 1)), ("A", 2, (2, 2)),
                                 ("B", 2, (3, 3, 1)), ("G", 2, (1, 3))):
        rs, lf = _component(letter, rank, labels)
        report = check_relations(algebra(BasedRootDatum(rs), lf),
                                 sample_count=100, seed=0)
        assert report["ok"], (letter, rank, report["failures"])
        assert report["associativity"] == 100
    assert time.monotonic() - t0 < 60


def test_02_j_matrices_compose_to_the_closed_form_scalar():
    t0 = time.monotonic()
    s = composite_scalar()
    assert is_scalar_identity(compose(j_matrix("P->Pop"), j_matrix("Pop->P")), s)
    assert is_scalar_identity(compose(j_matrix("Pop->P"), j_matrix("P->Pop")), s)
    # independent reconstruction: q^{-1} (z-q)(z-q^{-1}) / (z-1)^2
    z, q, qi = Laurent.x_pow(1), VRat.v_pow(2), VRat.v_pow(-2)
    closed = LaurentRatio((z - Laurent.const(q)) * (z - Laurent.const(qi))
                          * Laurent.const(qi),
                          (z - L_ONE) * (z - L_ONE))
    assert s == closed
    assert time.monotonic() - t0 < 1


def test_03_reducibility_points_and_scalar_pole_set():
    t0 = time.monotonic()
    assert reducibility_points() == ParamPair(1, 0)
    prof = reciprocal_scalar_profile()
    assert prof.poles == {(1, Fraction(1)): 1, (1, Fraction(-1)): 1}
    # the double zero of 1/s at z = 1 is the z = 1 pole of s itself
    assert prof.zeros == {(1, Fraction(0)): 2}
    s = composite_scalar()
    assert s.den.subst(VRat(1)).is_zero()
    assert not s.num.subst(VRat(1)).is_zero()
    assert time.monotonic() - t0 < 1


def test_04_mu_profile_round_trip():
    t0 = time.monotonic()
    halves = [Fraction(k, 2) for k in range(9)]
    seen = 0
    for e_alpha in halves:
        for e_star in halves:
            if e_alpha < e_star:
                continue
            back = q_from_poles(poles_zeros(mu_factor(e_alpha, e_star)))
            assert back == ParamPair(e_alpha, e_star)
            seen += 1
    assert seen == 45
    assert time.monotonic() - t0 < 5


def test_05_all_emitted_labels_sit_in_the_bound_table():
    t0 = time.monotonic()
    checked = 0
    for t, f in product((1, 2, 3), (1, 2)):
        for a_plus in range(7):
            lab = classical_labels(ClassicalFamily("a", t=t, f=f, a_plus=a_plus))
            assert table1_match(*lab.triple()).ok, (t, f, a_plus)
            checked += 1
        lab = classical_labels(ClassicalFamily("c", t=t, f=f))
        assert table1_match(*lab.triple()).ok
        checked += 1
        for kind in ("unramified-SU", "other"):
            rule = parity_rule(kind, t)
            for a in range(-1, 7):
                for a_minus in range(-1, a + 1):
                    if not parity_allows(rule, a, a_minus):
                        continue
                    lab = classical_labels(
                        ClassicalFamily("b", t=t, f=f, a=a, a_minus=a_minus))
                    m = table1_match(*lab.triple())
                    assert m.ok, (t, f, a, a_minus, m.status)
                    checked += 1
    for n, ramified in product(range(1, 10), (False, True)):
        for sig in signatures(n, ramified):
            for comp in unitary_ps_descriptor(n, ramified, sig):
                m = comp.match()
                assert m.ok, (n, ramified, sig, comp.system, m.status)
                checked += 1
    assert checked > 1000
    assert time.monotonic() - t0 < 30


def test_06_jordan_block_bounds():
    chk = classical_bound_check(
        ClassicalFamily("b", a=3, a_minus=1, n_dual=6, d_rho=1))
    assert chk.ok and chk.slack == 1
    chk = classical_bound_check(
        ClassicalFamily("a", a_plus=3, n_dual=4, d_rho=1))
    assert chk.ok and chk.slack == 0
    chk = classical_bound_check(
        ClassicalFamily("a", a_plus=4, n_dual=4, d_rho=1))
    assert not chk.ok
    # floor(36/4) + floor(0) = 9 against a cap of 8
    chk = classical_bound_check(
        ClassicalFamily("b", a=5, a_minus=-1, n_dual=8, d_rho=1))
    assert not chk.ok and chk.used == 9 and chk.cap == 8


def test_07_isogeny_moves_invert_and_preserve_the_class():
    t0 = time.monotonic()
    moves = ((TransferCase("ii"), "C", lambda a: (a, a)),
             (TransferCase("iii"), "B", lambda a: (a, 0)))
    seen = 0
    for case, letter, pair in moves:
        for rank in (1, 2, 3):
            heads = (0,) if rank == 1 else range(7)
            for a, head in product(range(7), heads):
                rows = [((i,), Fraction(head), Fraction(head))
                        for i in range(rank - 1)]
                lam, star = pair(a)
                rows.append(((rank - 1,), Fraction(lam), Fraction(star)))
                before = (f"{letter}{rank}", LabelFunction(rows, QBase(1)))
                after = transfer(before, case)
                back = transfer(after, case, "to-cover")
                assert back[0] == before[0] and back[1] == before[1]
                assert component_match(before).status == \
                    component_match(after).status
                seen += 1
    assert seen == 2 * (7 + 2 * 49)
    assert time.monotonic() - t0 < 5


def test_08_nontrivial_character_sums_vanish():
    for p, k in product((3, 5, 7), (1, 2)):
        modulus = p ** k
        phi = FiniteCharacter(modulus, 0).phi
        sums = [char_sum(FiniteCharacter(modulus, i)) for i in range(phi)]
        assert sums[0] == phi
        assert all(s == 0 for s in sums[1:]), (modulus, sums)


def test_09_case_database_rows_all_conform():
    rows = 0
    for rec in db_records():
        for group, levi, piece, combo, res in rec.match_report():
            assert res.ok, (group, levi, piece, combo, res.status)
            rows += 1
    assert rows >= 30
    # triality: the short orbit carries q_F or q_F^3, the long orbit q_F
    split = case_lookup("G2", ())
    twisted = case_lookup("3D4", ())
    assert split.relative == twisted.relative == "G2"
    exps = {o["orbit"]: o for o in split.per_orbit}
    assert exps["long"]["e_alpha"] == exps["short"]["e_alpha"] == 1
    exps = {o["orbit"]: o for o in twisted.per_orbit}
    assert exps["long"]["e_alpha"] == 1
    assert exps["short"]["e_alpha_options"] == [1, 3]


def test_10_weyl_group_orders():
    t0 = time.monotonic()
    orders = {("A", 2): 6, ("B", 2): 8, ("G", 2): 12,
              ("B", 3): 48, ("C", 3): 48, ("F", 4): 1152}
    for (letter, rank), size in orders.items():
        assert len(weyl_group(build_root_system(letter, rank))) == size
    assert time.monotonic() - t0 < 10
