"""Across the layers: every emitted label set builds its algebra and round-trips
its mu-factors.

The knowledge base (param_catalog), the algebra (hecke_algebra) and the
mu-functions (mu_function) share only conventions: long orbit first, lambda*
only on the short orbit of type B, the dual-type swap, and q-parameters that
are powers of v = q_F^(1/2) at any q-base (label_params converts them).  Each
label set that the unitary principal-series descriptor, a classical family or a
determined case record emits is fed to both, and so is each B or C set that the
isogeny transfer moves make of them.
"""
import itertools
import time
from fractions import Fraction
from math import lcm

from hecke.hecke_algebra import algebra, check_relations
from hecke.isogeny_transfer import class_preserved, roundtrip_check, transfer
from hecke.label_params import LabelFunction, ParamPair, QBase, validate
from hecke.mu_function import mu_factor, poles_zeros, q_from_poles
from hecke.param_catalog import (CaseRecord, ClassicalFamily, _dual_type, classical_labels,
                                 db_integrity_report, db_records, parity_allows, parity_rule,
                                 unitary_ps_descriptor)
from hecke.root_data import BasedRootDatum, build_root_system, parse_type, simple_orbits

from _reference import signatures


def _integral(lf: LabelFunction) -> LabelFunction:
    """The same q-parameters at a base where every lambda +- lambda* is an integer."""
    m = lcm(*(x.denominator for _, lam, ls in lf.orbits for x in (lam + ls, lam - ls)))
    scaled = lf.rescale(Fraction(1, m))
    assert scaled.pairs() == lf.pairs()
    assert all(x.denominator == 1 for _, lam, ls in scaled.orbits for x in (lam + ls, lam - ls))
    return scaled


def _round_trips(lf: LabelFunction) -> list:
    """Each orbit's pair through mu_factor -> poles_zeros -> q_from_poles."""
    pairs = lf.pairs()
    back = [q_from_poles(poles_zeros(mu_factor(*p))) for p in pairs]
    assert back == list(pairs), lf
    return back


def _builds(letter, rank, lf: LabelFunction):
    """The algebra builds and passes its relations: 2 associativity samples at
    rank <= 3 and 1 at rank 4, where the work budget admits 1 at width <= 5."""
    alg = algebra(BasedRootDatum(build_root_system(letter, rank)), lf)
    report = check_relations(alg, 2 if rank <= 3 else 1)
    assert report["ok"], (letter, rank, lf, report["failures"])


def _ps_label_sets():
    """{(system, rank, labels)} over every unitary principal-series factor, n <= 9."""
    out = set()
    for n, ramified in itertools.product(range(1, 10), (False, True)):
        for sig in signatures(n, ramified):
            for comp in unitary_ps_descriptor(n, ramified, sig):
                if comp.labels is not None:
                    out.add((comp.system, comp.rank, comp.labels))
    return out


def test_unitary_principal_series_labels_build_and_round_trip():
    t0 = time.monotonic()
    sets = _ps_label_sets()
    for system, rank, lf in sorted(sets, key=repr):
        _round_trips(lf)
        _builds(system, rank, lf)
    # A and D at (1, 1) or (2, 2); B unramified with (2, 2) long and (1, 1)
    # or (3, 1) short; B and C ramified at (1, 1)
    assert len(sets) == 24 and sum(rank <= 3 for _, rank, _ in sets) == 19
    assert ("B", 3, LabelFunction([((0, 1), 2, 2), ((2,), 3, 1)])) in sets
    # no emitted set needs a new base; these do
    for orbits, exp in [([((0,), 1, 1), ((1,), Fraction(1, 2), 0)], Fraction(1, 2)),
                        ([((0,), Fraction(5, 6), Fraction(1, 2))], Fraction(1, 3))]:
        assert _integral(LabelFunction(orbits)).base.exp == exp
    assert time.monotonic() - t0 < 5


def _classical_families():
    """test_05's grid: cases a and c, and case b under both parity rules."""
    for t, f in itertools.product((1, 2, 3), (1, 2)):
        for a_plus in range(7):
            yield ClassicalFamily("a", t=t, f=f, a_plus=a_plus)
        yield ClassicalFamily("c", t=t, f=f)
        for kind in ("unramified-SU", "other"):
            rule = parity_rule(kind, t)
            for a in range(-1, 7):
                for a_minus in range(-1, a + 1):
                    if parity_allows(rule, a, a_minus):
                        yield ClassicalFamily("b", t=t, f=f, a=a, a_minus=a_minus)


def _classical_lf(lab, base_exp) -> LabelFunction:
    """triple(base_exp) on the rank-2 component at base q_F^base_exp, long orbit first."""
    comp, ll, ls, lx = lab.triple(base_exp)
    values = [(ls, lx)] if comp == "A" else [(ll, ll), (ls, lx)]
    return LabelFunction.for_system(build_root_system(comp, 2), values, QBase(base_exp))


def test_classical_family_labels_build_and_round_trip():
    t0 = time.monotonic()
    families = list(_classical_families())
    sets = {}
    for fam in families:
        lab = classical_labels(fam)
        lf = _classical_lf(lab, 1)
        # the labels at base q_F^t name the same q-parameters, the family's among them
        assert _classical_lf(lab, fam.t).pairs() == lf.pairs(), fam
        assert lab.q_pair in lf.pairs(), fam
        assert not validate(lf, build_root_system(lab.component, 2)), fam
        _round_trips(lf)
        sets.setdefault((lab.component, lf))
    for comp, lf in sets:
        _builds(comp, 2, lf)
    assert len(families) == 296 and len(sets) == 220
    assert {comp for comp, _ in sets} == {"A", "B", "C"}
    assert time.monotonic() - t0 < 5


def _case_label_sets():
    """(record, dual type, labels, recorded exponents) for each piece of a
    record whose orbits are all of kind pair, choices or none."""
    out = []
    for rec in db_records():
        for per_orbit in [rec.per_orbit] + [i["per_orbit"] for i in rec.instances]:
            for piece, entries in CaseRecord._pieces_for(rec.relative, per_orbit):
                options = [CaseRecord._entry_options(e) for e in entries]
                if None in options:
                    continue
                dual = _dual_type(piece)
                for combo in itertools.product(*options):
                    pairs = [ParamPair(ea, es) for ea, es in combo]
                    # relative (long, short) are the dual's (short, long)
                    lf = LabelFunction.for_system(
                        build_root_system(*parse_type(dual)),
                        [(p.e_alpha + p.e_star, p.e_alpha - p.e_star) for p in pairs[::-1]])
                    out.append((rec, dual, lf, pairs))
    return out


def test_case_database_labels_build_and_round_trip():
    t0 = time.monotonic()
    rows = _case_label_sets()
    for rec, dual, lf, pairs in rows:
        back = _round_trips(lf)   # in simple-index order; simple_orbits is long first
        orbits = simple_orbits(*parse_type(dual))
        assert [back[lf.orbit_of(idx[0])] for _, idx in orbits] == pairs[::-1], rec
        _builds(*parse_type(dual), lf)
    # 18 of G2 and F4; 11 of B2, B3, B4 and C3, whose duals swap B and C;
    # 3 A1 pieces of A1xA1 and 2 F4 pieces of F4xA1: one per row of the audit
    assert len(rows) == len(db_integrity_report()) == 34
    assert {(rec.relative, dual) for rec, dual, _, _ in rows} == {
        ("G2", "G2"), ("F4", "F4"), ("B2", "B2"), ("B3", "C3"), ("B4", "C4"), ("C3", "B3"),
        ("A1xA1", "A1"), ("F4xA1", "F4")}
    assert time.monotonic() - t0 < 5


def _transfer_inputs():
    """Every (type, labels) of type B or C that the three audits above emit."""
    ps = {(f"{system}{rank}", lf) for system, rank, lf in _ps_label_sets()}
    classical = {(f"{lab.component}2", _classical_lf(lab, 1))
                 for lab in map(classical_labels, _classical_families())}
    cases = {(dual, lf) for _, dual, lf, _ in _case_label_sets()}
    return {comp for comp in ps | classical | cases if comp[0][0] in "BC"}


def test_isogeny_transfer_outputs_build_and_round_trip():
    """Moves ii and iii, both ways, on every emitted B/C set they accept."""
    t0 = time.monotonic()
    inputs = _transfer_inputs()
    outputs = set()
    for comp, case, direction in itertools.product(sorted(inputs, key=repr), ("ii", "iii"),
                                                   ("to-quotient", "to-cover")):
        try:
            out = transfer(comp, case, direction)
        except ValueError:   # the other letter, or an orbit the move cannot carry
            continue
        typ, lf = out
        assert not validate(lf, build_root_system(*parse_type(typ))), (comp, case, direction)
        _round_trips(lf)
        assert roundtrip_check(comp, case, direction), (comp, case, direction)
        assert class_preserved(comp, out), (comp, case, direction)
        outputs.add(out)
    new = outputs - inputs
    for typ, lf in sorted(new, key=repr):
        _builds(*parse_type(typ), lf)
    # 15 principal-series, 215 classical and 6 case-database sets, 231 distinct;
    # 12 outputs are emitted by no audit, C2 with long labels up to 42 among them
    assert len(inputs) == 231 and len(outputs) == 82 and len(new) == 12
    assert time.monotonic() - t0 < 5
