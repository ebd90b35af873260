"""Label table, classical families, unitary principal series, case database."""
import collections
import random
import time
from fractions import Fraction

import pytest

from hecke.label_params import LabelFunction, ParamPair, QBase
from hecke.param_catalog import (
    BoundCheck, CaseRecord, ClassicalFamily, MatchResult, PSComponent,
    case_lookup, classical_bound_check, classical_labels, component_match,
    db_integrity_report,
    db_records, db_version, descriptor_csv, parity_allows, parity_rule,
    quasisplit_ps_q, table1, table1_csv, table1_match, type_a_divisibility,
    unitary_ps_descriptor, UNITARY_N_CAP,
)
from hecke.root_data import SizeLimitError


# ---------------------------------------------------------------------------
# bound table

def test_table1_shape():
    rows = table1()
    assert len(rows) == 10
    # [TRIVIAL] the one rank-pinned B row sits last and fixes rank 2
    assert rows[9].rank == 2 and "B" in rows[9].types
    assert rows[0].types == frozenset("ADE")


def test_table1_match_generic_rows():
    # [DERIVED] plain representatives of the three generic rows
    assert table1_match("A2", None, 2, 2).row_index == 0
    assert table1_match("D4", None, 1, 1).row_index == 0
    m = table1_match("B3", 2, 5, 3)
    assert m.status == "match" and m.row_index == 1 and m.rescale == 1
    assert table1_match("C3", 7, 2, 2).row_index == 2
    # lambda* = 0 is fine for B, not for C
    assert table1_match("B4", 1, 3, 0).status == "match"
    assert table1_match("C4", 1, 2, 0).status == "none"


def test_table1_match_exceptional_rows():
    # [DERIVED] each exceptional row is hit by its defining triple
    assert table1_match("F4", 2, 1, 1).row_index == 3
    assert table1_match("F4", 1, 2, 2).row_index == 4
    assert table1_match("F4", 4, 1, 1).row_index == 5
    assert table1_match("G2", 3, 1, 1).row_index == 6
    assert table1_match("G2", 1, 3, 3).row_index == 7
    assert table1_match("G2", 9, 1, 1).row_index == 8
    assert table1_match("B2", 3, 3, 1).row_index == 9
    # the (3,3,1) pattern is special to rank 2
    assert table1_match("B3", 3, 3, 1).status == "none"
    # F4 with lambda(short) = 3 exists in no row
    assert table1_match("F4", 1, 3, 3).status == "none"


def test_table1_match_rescaling():
    # half-integer labels at base q_F^2 match after doubling
    m = table1_match("B2", 1, Fraction(3, 2), Fraction(1, 2))
    assert m.status == "match" and m.rescale == 2
    assert m.labels == (2, 3, 1)
    # labels (4, 4, 4) on C: halving gives (2, 2, 2)
    m = table1_match("C2", 4, 4, 4)
    assert m.rescale == Fraction(1, 2) and m.row_index == 2
    # (6a, 6, 6) needs r = 1/3
    m = table1_match("C5", 12, 6, 6)
    assert m.status == "match" and m.rescale == Fraction(1, 3)
    # identity rescale is preferred when it works
    assert table1_match("A1", None, 1, 1).rescale == 1
    # a rescale is positive, so a negative label sits in no row
    assert table1_match("A2", None, -1, -1).status == "none"


def _dense_match(component, triple, amax=60):
    """The least distorting r = a/lambda (a <= amax, lambda a nonzero label),
    smaller r first, at which table1_match takes the rescaled triple as it
    stands.  The window is finite, so an answer of table1_match outside it
    shows up as a mismatch, never as a pass."""
    rs = {Fraction(a) / v for v in triple if v for a in range(1, amax + 1)}
    integral = [r for r in rs if all(v is None or (v * r).denominator == 1 for v in triple)]
    for r in sorted(integral, key=lambda c: (max(c, 1 / c), c)):
        m = table1_match(component, *(None if v is None else v * r for v in triple))
        if m.status == "match" and m.rescale == 1:
            return ("match", m.row_index, r, m.labels, m.reduced)
    return ("none", None, None, None, False)


def test_table1_match_solves_the_rescale():
    # [DERIVED] the closed-form rescale agrees with a dense search, and the
    # verdict and row do not move when the input is rescaled first
    rng = random.Random(21)
    t0 = time.monotonic()
    seen = collections.Counter()
    for _ in range(300):
        comp = rng.choice(("A2", "D4", "B2", "B3", "C3", "F4", "G2"))
        if rng.random() < 0.5:
            ll, ls, lx = (Fraction(rng.randint(0, 12), rng.choice((1, 2, 3, 4, 6, 9)))
                          for _ in range(3))
        else:
            # values of the set columns at a random base, where the pins matter
            c = Fraction(rng.randint(1, 6), rng.choice((1, 2, 3, 4, 6, 9)))
            ll, ls, lx = (c * rng.choice((0, 1, 2, 3, 4, 9)) for _ in range(3))
        if comp in ("A2", "D4"):
            ll, lx = None, ls
        elif comp[0] != "B" and rng.random() < 0.5:
            lx = ls
        if not (ll or ls or lx):
            continue
        m = table1_match(comp, ll, ls, lx)
        assert (m.status, m.row_index, m.rescale, m.labels, m.reduced) == \
            _dense_match(comp, (ll, ls, lx)), (comp, ll, ls, lx)
        k = Fraction(rng.randint(1, 12), rng.randint(1, 12))
        moved = table1_match(comp, *(None if v is None else v * k for v in (ll, ls, lx)))
        assert (moved.status, moved.row_index) == (m.status, m.row_index), (comp, ll, ls, lx, k)
        seen[m.status] += 1
    assert seen["match"] >= 100 and seen["none"] >= 50, seen
    assert time.monotonic() - t0 < 5


def test_table1_match_reduction_and_empty():
    assert table1_match("G2", 0, 0, 0).status == "empty"
    assert table1_match("A5", None, 0, 0).status == "empty"
    # vanishing short class: the long roots survive as a simply laced system
    m = table1_match("B3", 2, 0, 0)
    assert m.status == "match" and m.reduced and m.row_index == 0
    # except in C, where the lone long orbit keeps the C pattern
    m = table1_match("C3", 2, 0, 0)
    assert m.status == "match" and m.reduced and m.row_index == 2
    # vanishing long class of C: same, via the short roots
    m = table1_match("C4", 0, 1, 1)
    assert m.status == "match" and m.reduced and m.row_index == 0
    # vanishing long class of B keeps lambda* freedom
    m = table1_match("B2", 0, 3, 1)
    assert m.status == "match" and m.reduced and m.row_index == 1
    # lambda = 0 under a positive lambda* is not a label function
    assert table1_match("B2", 1, 0, 3).status == "none"


def test_table1_match_rejections():
    with pytest.raises(ValueError):
        table1_match("H3", 1, 1, 1)
    with pytest.raises(ValueError):
        table1_match("F5", 1, 1, 1)
    with pytest.raises(ValueError):
        table1_match("G3", 1, 1, 1)
    with pytest.raises(ValueError):
        table1_match("B2")
    assert table1_match("E6", None, 3, 3).status == "match"
    with pytest.raises(ValueError):
        table1_match("E5", None, 1, 1)


def test_table1_csv():
    text = table1_csv()
    lines = text.strip().splitlines()
    assert len(lines) == 11
    assert lines[0].startswith("types,rank")
    assert "1 or 2" in lines[1] or "1 or 2" in lines[2]
    assert any(line.startswith("B,2,3,3,1") for line in lines)


# ---------------------------------------------------------------------------
# classical families

def test_classical_labels_case_a():
    fam = ClassicalFamily("a", t=2, f=1, a_plus=3)
    lab = classical_labels(fam)
    assert lab.component == "C"
    assert lab.q_pair == ParamPair(6, 0)
    assert lab.alpha_base_t == (3, 3)
    assert lab.alpha_base_1 == (6, 6)
    assert lab.other_base_t == (1, 1)
    assert lab.integral_at_t
    comp, ll, ls, lx = lab.triple()
    assert (comp, ll, ls, lx) == ("C", 6, 2, 2)
    assert table1_match(comp, ll, ls, lx).ok


def test_classical_labels_case_b_half_integral():
    # t = 2, different parity: base-q_F^2 labels are half-integers,
    # base-q_F labels are integers
    fam = ClassicalFamily("b", t=2, f=1, a=2, a_minus=1)
    lab = classical_labels(fam)
    assert lab.q_pair == ParamPair(3, 2)
    assert lab.alpha_base_t == (Fraction(5, 2), Fraction(1, 2))
    assert not lab.integral_at_t
    assert lab.alpha_base_1 == (5, 1)
    comp, ll, ls, lx = lab.triple()
    assert (comp, ll, ls, lx) == ("B", 2, 5, 1)
    assert table1_match(comp, ll, ls, lx).row_index == 1


def test_classical_labels_case_b_star_vanishes():
    # a = a_minus gives lambda* = 0
    fam = ClassicalFamily("b", t=1, f=2, a=1, a_minus=1)
    lab = classical_labels(fam)
    assert lab.alpha_base_1 == (4, 0)
    assert table1_match(*lab.triple()).ok
    # (a, a_minus) = (-1, -1): the orbit is empty
    fam = ClassicalFamily("b", t=1, f=1, a=-1, a_minus=-1)
    lab = classical_labels(fam)
    assert lab.alpha_base_1 == (0, 0)
    m = table1_match("B1", None, *lab.alpha_base_1)
    assert m.status == "empty"


def test_classical_labels_case_c():
    lab = classical_labels(ClassicalFamily("c", t=3, f=2))
    assert lab.component == "A"
    assert lab.q_pair == ParamPair(6, 0)
    assert lab.triple(base_exp=3) == ("A", None, 2, 2)
    with pytest.raises(ValueError):
        lab.triple(base_exp=2)


def test_classical_family_validation():
    with pytest.raises(ValueError):
        ClassicalFamily("d")
    with pytest.raises(ValueError):
        ClassicalFamily("a", f=3, a_plus=1)
    with pytest.raises(ValueError):
        ClassicalFamily("a", t=0, a_plus=1)
    with pytest.raises(ValueError):
        ClassicalFamily("a", t=2, d_rho=3, a_plus=1)
    with pytest.raises(ValueError):
        ClassicalFamily("a")
    with pytest.raises(ValueError):
        ClassicalFamily("b", a=1)
    with pytest.raises(ValueError):
        ClassicalFamily("b", a=1, a_minus=2)
    with pytest.raises(ValueError):
        ClassicalFamily("b", a=1, a_minus=-2)


def test_classical_bounds():
    # slack 1: floor(16/4) + floor(4/4) = 5 against 6
    chk = classical_bound_check(ClassicalFamily("b", a=3, a_minus=1, n_dual=6, d_rho=1))
    assert chk.ok and chk.slack == 1 and chk.used == 5
    # tight case a: 3^2 = 2*4 + 1
    chk = classical_bound_check(ClassicalFamily("a", a_plus=3, n_dual=4, d_rho=1))
    assert chk.ok and chk.slack == 0
    chk = classical_bound_check(ClassicalFamily("a", a_plus=4, n_dual=4, d_rho=1))
    assert not chk.ok and chk.slack == -7
    # floor(36/4) = 9 exceeds 8
    chk = classical_bound_check(ClassicalFamily("b", a=5, a_minus=-1, n_dual=8, d_rho=1))
    assert not chk.ok and chk.slack == -1
    # d_rho defaults to t
    chk = classical_bound_check(ClassicalFamily("b", t=2, a=1, a_minus=1, n_dual=8))
    assert chk.cap == 4 and chk.used == 2 and chk.slack == 2
    with pytest.raises(ValueError):
        classical_bound_check(ClassicalFamily("c", n_dual=4))
    with pytest.raises(ValueError):
        classical_bound_check(ClassicalFamily("a", a_plus=1))


def test_parity_rules():
    assert parity_rule("unramified-SU") == "different"
    assert parity_rule("other", 1) == "same"
    assert parity_rule("other", 3) == "same"
    assert parity_rule("other", 2) == "unconstrained"
    with pytest.raises(ValueError):
        parity_rule("other", 0)
    with pytest.raises(ValueError):
        parity_rule("unitary?")
    assert parity_allows("different", 2, 1)
    assert not parity_allows("different", 2, 0)
    assert parity_allows("same", 3, -1)
    assert not parity_allows("same", 2, -1)
    assert parity_allows("unconstrained", 2, -1)


def test_type_a_divisibility():
    # n m'/(m e) = 12*1/(3*2) = 2: f = 1, 2 divide, f = 4 does not
    assert type_a_divisibility(2, 12, 2, 3, 1)
    assert type_a_divisibility(1, 12, 2, 3, 1)
    assert not type_a_divisibility(4, 12, 2, 3, 1)
    # non-integral quotient
    assert not type_a_divisibility(1, 10, 3, 2, 1)
    with pytest.raises(ValueError):
        type_a_divisibility(1, 10, 3, 2, 4)
    with pytest.raises(ValueError):
        type_a_divisibility(0, 10, 3, 2, 1)


# ---------------------------------------------------------------------------
# conformance sweep: classical families against the bound table

def _family_kinds(f):
    return ("unramified-SU",) if f == 2 else ("other",)


def test_classical_conformance_sweep():
    checked = 0
    for t in (1, 2, 3):
        for f in (1, 2):
            for a_plus in range(0, 7):
                lab = classical_labels(ClassicalFamily("a", t=t, f=f, a_plus=a_plus))
                assert table1_match(*lab.triple()).ok, (t, f, a_plus)
                checked += 1
            lab = classical_labels(ClassicalFamily("c", t=t, f=f))
            assert table1_match(*lab.triple()).ok
            for kind in _family_kinds(f):
                rule = parity_rule(kind, t)
                for a in range(-1, 7):
                    for a_minus in range(-1, a + 1):
                        if not parity_allows(rule, a, a_minus):
                            continue
                        fam = ClassicalFamily("b", t=t, f=f, a=a, a_minus=a_minus)
                        lab = classical_labels(fam)
                        m = table1_match(*lab.triple())
                        assert m.ok, (t, f, a, a_minus, m.status)
                        # base-q_F^t labels times t are integral
                        assert all((v * t).denominator == 1
                                   for v in lab.alpha_base_t)
                        checked += 1
    assert checked > 100


# ---------------------------------------------------------------------------
# unitary principal series

def test_unitary_unramified_even():
    comps = unitary_ps_descriptor(8, False, [("not-skew", 2), ("skew-trivial", 2)])
    assert [c.system for c in comps] == ["A", "B"]
    a, b = comps
    assert a.rank == 1 and a.labels.orbits == (((0,), 2, 2),)
    assert b.rank == 2
    assert b.labels.orbits == (((0,), 2, 2), ((1,), 1, 1))
    assert not any(c.crossed for c in comps)
    assert all(c.match().ok for c in comps)


def test_unitary_unramified_odd_middle_block():
    comps = unitary_ps_descriptor(9, False, [("not-skew", 2), ("trivial", 2)])
    assert [c.system for c in comps] == ["A", "B"]
    mid = comps[-1]
    assert mid.source == "trivial" and mid.affine_exp == 1
    assert mid.labels.orbits == (((0,), 2, 2), ((1,), 3, 1))
    m = mid.match()
    assert m.status == "match" and m.labels == (2, 3, 1)


def test_unitary_ramified_even_class_shapes():
    comps = unitary_ps_descriptor(
        12, True, [("not-skew", 2), ("skew-nontrivial", 2), ("skew-trivial", 2)])
    assert [c.system for c in comps] == ["A", "D", "C"]
    d = comps[1]
    assert d.crossed and d.labels.orbits == (((0,), 1, 1), ((1,), 1, 1))
    c = comps[2]
    assert c.labels.orbits == (((0,), 1, 1), ((1,), 1, 1))
    # crossing with the extra involution gives type C with long parameter 1
    eq = d.crossed_equivalent()
    assert eq.system == "C" and eq.labels.orbits == (((0,), 1, 1), ((1,), 0, 0))
    with pytest.raises(ValueError):
        c.crossed_equivalent()


def test_unitary_ramified_odd_swaps_shapes():
    comps = unitary_ps_descriptor(
        13, True,
        [("skew-nontrivial", 2), ("skew-trivial", 2), ("trivial", 2)])
    assert [c.system for c in comps] == ["C", "D", "B"]
    assert comps[0].labels is not None and not comps[0].crossed
    assert comps[1].crossed
    assert comps[2].affine_exp == 1
    assert comps[2].labels.orbits == (((0,), 1, 1), ((1,), 1, 1))


def test_unitary_empty_factors():
    comps = unitary_ps_descriptor(4, True, [("not-skew", 1), ("skew-nontrivial", 1)])
    assert comps[0].empty and comps[0].rank == 0   # A_0
    assert comps[1].empty and comps[1].rank == 1   # D_1
    assert comps[1].crossed
    assert all(c.match().status == "empty" for c in comps)
    # zero-size middle block is dropped
    comps = unitary_ps_descriptor(9, False, [("not-skew", 4), ("trivial", 0)])
    assert [c.system for c in comps] == ["A"]


@pytest.mark.parametrize("n, ramified, segments, want", [
    (61, False, [("not-skew", 12), ("skew-trivial", 9), ("trivial", 9)],
     [("A11", 0, (None, 2, 2)), ("B9", 1, (2, 1, 1)), ("B9", 1, (2, 3, 1))]),
    (40, True, [("skew-nontrivial", 2), ("skew-trivial", 18)],
     [("D2", 0, (None, 1, 1)), ("C18", 2, (1, 1, 1))]),
])
def test_factors_past_the_build_cap_match_per_length_class(n, ramified, segments, want):
    # A11 and C18 have no buildable root system: the classes are the closed
    # form's, and the rows are those the column reader of each factor gave
    got = []
    for c in unitary_ps_descriptor(n, ramified, segments):
        m = component_match((f"{c.system}{c.rank}", c.labels))
        assert m.to_json() == c.match().to_json()
        assert (m.status, m.rescale, m.reduced) == ("match", 1, False)
        got.append((f"{c.system}{c.rank}", m.row_index, m.labels))
    assert got == want


def test_unitary_signature_rejections():
    with pytest.raises(ValueError):
        unitary_ps_descriptor(8, False, [("not-skew", 3)])
    with pytest.raises(ValueError):
        unitary_ps_descriptor(8, False, [("skew-nontrivial", 4)])
    with pytest.raises(ValueError):
        unitary_ps_descriptor(8, True, [("skew-trivial", 3), ("trivial", 1)])
    with pytest.raises(ValueError):
        unitary_ps_descriptor(8, True, [("weird", 4)])
    with pytest.raises(ValueError):
        unitary_ps_descriptor(7, True, [("skew-trivial", 0), ("trivial", 3)])


def test_unitary_n_cap():
    # a signature that fills the torus is still refused, before any work
    n = UNITARY_N_CAP + 1
    with pytest.raises(SizeLimitError):
        unitary_ps_descriptor(n, False, [("not-skew", n // 2)])


def test_unitary_conformance_all_signatures():
    # every signature of every unitary principal series with n <= 9
    import itertools
    count = 0
    for n in range(1, 10):
        rank = n // 2
        for ramified in (False, True):
            tags = [t for t in ("not-skew", "skew-nontrivial", "skew-trivial")
                    if ramified or t != "skew-nontrivial"]
            for n0 in range(0, rank + 1) if n % 2 else (0,):
                rest = rank - n0
                for sizes in _compositions(rest):
                    for assign in itertools.product(tags, repeat=len(sizes)):
                        segs = list(zip(assign, sizes))
                        if n % 2:
                            segs.append(("trivial", n0))
                        comps = unitary_ps_descriptor(n, ramified, segs)
                        total = sum(c.rank + (1 if c.system == "A" else 0)
                                    for c in comps)
                        assert total <= rank
                        for c in comps:
                            assert c.match().ok, (n, ramified, segs)
                        count += 1
    assert count > 200


def _compositions(total):
    if total == 0:
        yield ()
        return
    for first in range(1, total + 1):
        for rest in _compositions(total - first):
            yield (first,) + rest


def test_descriptor_csv():
    comps = unitary_ps_descriptor(5, False, [("skew-trivial", 1), ("trivial", 1)])
    text = descriptor_csv(comps)
    lines = text.strip().splitlines()
    assert lines[0].startswith("system,rank")
    assert len(lines) == 3


def test_quasisplit_ps_q():
    assert quasisplit_ps_q(3, 1) == 3
    assert quasisplit_ps_q(6, 3) == 2
    assert quasisplit_ps_q(2, 2) == 1
    with pytest.raises(ValueError):
        quasisplit_ps_q(3, 2)
    with pytest.raises(ValueError):
        quasisplit_ps_q(0, 1)


# ---------------------------------------------------------------------------
# case database

def test_db_loads_and_versioned():
    assert db_version() == 1
    recs = db_records()
    assert len(recs) >= 25
    groups = {r.group for r in recs}
    assert {"G2", "3D4", "E6(3)", "F4", "2E6", "E7(2)", "E6", "E7", "E8"} <= groups


def test_case_lookup_and_aliases():
    rec = case_lookup("3D4")
    assert rec.relative == "G2" and not rec.is_open
    rec = case_lookup("F4", [4, 1])
    assert rec.levi == (1, 4)
    # conjugate subsets resolve to the stored representative
    assert case_lookup("F4", [1, 3]) is rec
    assert case_lookup("F4", [2, 4]) is rec
    assert case_lookup("F4", [2]) is case_lookup("F4", [1])
    with pytest.raises(KeyError):
        case_lookup("F4", [1, 2, 3])
    with pytest.raises(KeyError):
        case_lookup("B17")


def test_open_markers():
    rec = case_lookup("E7(2)", [2, 3])
    assert rec.is_open and rec.open_orbits() == ("short",)
    entry = rec.orbit("short")
    assert "expectation" in entry
    assert "2 a_+" in entry["expectation"]
    assert case_lookup("E7(2)", [3, 4]).is_open
    # the same Levi classes are settled for the split form
    assert not case_lookup("F4", [3, 4]).is_open


def test_triality_case_reproduces_conclusions():
    rows = case_lookup("3D4").match_report()
    assert len(rows) == 2
    hits = {res.row_index for (_, _, _, _, res) in rows}
    # both choices of the short exponent land in the G2 row with long in {1,3}
    assert hits == {6}
    rows = case_lookup("E6(3)").match_report()
    got = {(combo, res.row_index) for (_, _, _, combo, res) in rows}
    assert got == {(((1, 0), (1, 0)), 6), (((3, 0), (1, 0)), 7)}


def test_unipotent_instance_hits_rank_two_row():
    rows = case_lookup("F4", [2, 3]).match_report()
    # the family orbits are skipped; only the unipotent instance resolves
    assert len(rows) == 1
    _, _, piece, combo, res = rows[0]
    assert piece == "B2"
    assert combo == ((2, 1), (3, 0))
    assert res.status == "match" and res.row_index == 9
    assert res.labels == (3, 3, 1)


def test_reduced_levi_cases_collapse_to_type_a():
    rows = case_lookup("F4", [1]).match_report()
    assert all(res.reduced and res.row_index == 0 for *_, res in rows)
    rows = case_lookup("2E6", [4]).match_report()
    assert all(res.reduced and res.row_index == 0 for *_, res in rows)
    # the non-contributing A1 of the rank-2 Levi class is empty
    rows = case_lookup("F4", [1, 4]).match_report()
    assert [res.status for *_, res in rows] == ["empty"]


def test_db_integrity():
    rows = db_integrity_report()
    assert len(rows) >= 30
    bad = [(g, levi, piece, combo, res.status)
           for (g, levi, piece, combo, res) in rows if not res.ok]
    assert bad == []
    # every F4-relative form with empty Levi matches the (1 or 2, 1, 1) row
    f4_rows = [res.row_index for (g, levi, piece, _, res) in rows
               if piece == "F4" and levi == () and res.status == "match"]
    assert f4_rows and set(f4_rows) == {3}


def test_case_record_json_roundtrip():
    rec = case_lookup("E8", [1, 3, 5])
    data = rec.to_json()
    assert data["relative"] == "F4xA1"
    clone = CaseRecord(data)
    assert clone.levi == rec.levi
    flat = lambda rows: [(piece, combo, res.to_json())
                         for (_, _, piece, combo, res) in rows]
    assert flat(clone.match_report()) == flat(rec.match_report())
