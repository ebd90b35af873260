"""Isogeny label moves: the three cases, round-trips, class preservation."""
from fractions import Fraction

import pytest

from hecke.isogeny_transfer import (TransferCase, class_preserved,
                                    component_match, roundtrip_check, transfer)
from hecke.label_params import LabelFunction, ParamPair, QBase
from hecke.root_data import build_root_system

F = Fraction


def bc(letter, rank, last, head=None):
    """Component (letter+rank, labels): last = (lam, lam*) of the last simple
    root's orbit (long in C, short in B), head = lam of the others."""
    rows = [((rank - 1,),) + tuple(last)]
    if rank >= 2:
        rows.append((tuple(range(rank - 1)), head, head))
    else:
        assert head is None
    return (f"{letter}{rank}", LabelFunction(rows))


# -- TransferCase bookkeeping ------------------------------------------------

def test_case_n_alpha_values():
    assert TransferCase("i").n_alpha_long == 1
    assert TransferCase("i").n_alpha_short == 1
    assert TransferCase("ii").n_alpha_short == F(1, 2)
    assert TransferCase("ii").n_alpha_long == 1
    assert TransferCase("iii").n_alpha_long == 2
    assert TransferCase("iii").n_alpha_short == 1
    with pytest.raises(ValueError):
        TransferCase("iv")


def test_case_inverse_and_json():
    assert TransferCase("ii").inverse() == TransferCase("iii")
    assert TransferCase("iii").inverse() == TransferCase("ii")
    assert TransferCase("i").inverse() == TransferCase("i")
    assert TransferCase("ii").to_json() == {
        "tag": "ii", "n_alpha_long": "1", "n_alpha_short": "1/2"}


# -- the moves ---------------------------------------------------------------

def test_case_i_is_identity():
    for comp in [("A2", LabelFunction([((0, 1), 2, 2)])),
                 ("G2", LabelFunction([((0,), 3, 3), ((1,), 1, 1)])),
                 bc("B", 2, (3, 1), 3)]:
        assert transfer(comp, "i") == comp
        assert transfer(comp, TransferCase("i"), "to-cover") == comp


def test_case_ii_rank_one():
    # the Iwahori situation for SL2 -> PGL2: C1 with lambda = lambda* = 1
    # becomes B1 with (1, 0) and q-parameters q^(1/2) on both positions
    typ, lf = transfer(bc("C", 1, (1, 1)), "ii")
    assert typ == "B1"
    assert lf.orbits == (((0,), F(1), F(0)),)
    assert lf.pair(0) == ParamPair(F(1, 2), F(1, 2))


def test_case_ii_higher_rank():
    src = bc("C", 3, (4, 4), 2)
    assert src[1].pair(src[1].orbit_of(2)) == ParamPair(4, 0)
    typ, lf = transfer(src, "ii")
    assert typ == "B3"
    assert lf.values(2) == (4, 0)
    assert lf.values(0) == (2, 2)                    # N = 1 orbit rides along
    assert lf.pair(lf.orbit_of(2)) == ParamPair(2, 2)  # q-exponent halves


def test_case_iii_doubles_exponent():
    src = bc("B", 2, (3, 0), 1)
    assert src[1].pair(1) == ParamPair(F(3, 2), F(3, 2))
    typ, lf = transfer(src, "iii")
    assert typ == "C2"
    assert lf.values(1) == (3, 3)
    assert lf.pair(1) == ParamPair(3, 0)   # q_beta = q~^2, q_beta* = 1
    assert lf.values(0) == (1, 1)


def test_transfer_respects_base():
    lf = LabelFunction([((0,), 2, 2)], QBase(F(1, 2)))
    typ, out = transfer(("C1", lf), "ii")
    assert out.base == QBase(F(1, 2))
    assert out.pair(0) == ParamPair(F(1, 2), F(1, 2))


def test_to_cover_direction_inverts():
    comp = bc("B", 1, (1, 0))
    assert transfer(comp, "ii", "to-cover") == bc("C", 1, (1, 1))
    assert transfer(bc("C", 1, (1, 1)), "iii", "to-cover") == comp


def test_transfer_rejections():
    with pytest.raises(ValueError):
        transfer(bc("B", 2, (1, 0), 1), "ii")       # ii consumes C
    with pytest.raises(ValueError):
        transfer(bc("C", 2, (1, 1), 1), "iii")      # iii consumes B
    with pytest.raises(ValueError):
        transfer(("A2", LabelFunction([((0, 1), 1, 1)])), "ii")
    with pytest.raises(ValueError):
        transfer(bc("B", 2, (3, 1), 1), "iii")      # needs lambda* = 0
    with pytest.raises(ValueError):
        transfer(bc("C", 2, (3, 1), 1), "ii")       # needs lambda = lambda*
    with pytest.raises(ValueError):
        transfer(bc("C", 1, (1, 1)), "ii", "up")
    with pytest.raises(ValueError):
        transfer(("C2", LabelFunction([((0, 1), 1, 1)])), "ii")
    with pytest.raises(ValueError):
        transfer(("C3", LabelFunction([((0,), 1, 1), ((1,), 1, 1)])), "ii")


# -- round-trips -------------------------------------------------------------

def test_roundtrip_examples():
    assert roundtrip_check(bc("C", 1, (1, 1)), "ii")
    # B2 whose short orbit carries the equal pair (q^2, q^2)
    comp = bc("B", 2, (4, 0), 1)
    assert comp[1].pair(1) == ParamPair(2, 2)
    assert roundtrip_check(comp, "iii")
    assert roundtrip_check(bc("B", 2, (4, 0), 1), "i")


def test_roundtrip_exhaustive():
    for rank in (1, 2, 3):
        heads = [None] if rank == 1 else range(7)
        for a in range(7):
            for b in heads:
                assert roundtrip_check(bc("C", rank, (a, a), b), "ii")
                assert roundtrip_check(bc("B", rank, (a, 0), b), "iii")
                assert roundtrip_check(bc("B", rank, (a, 0), b), "ii", "to-cover")
                assert roundtrip_check(bc("C", rank, (a, a), b), "iii", "to-cover")


# -- class preservation ------------------------------------------------------

def test_component_match_assembly():
    assert component_match(bc("C", 1, (3, 3))).row_index == 2
    assert component_match(bc("B", 1, (3, 1))).row_index == 1
    g2 = ("G2", LabelFunction([((0,), 3, 3), ((1,), 1, 1)]))
    assert component_match(g2).row_index == 7
    f4 = ("F4", LabelFunction([((0, 1), 4, 4), ((2, 3), 1, 1)]))
    assert component_match(f4).row_index == 5
    assert component_match(("E6", LabelFunction([(range(6), 2, 2)]))).row_index == 0
    # D2 = A1 x A1: two orbits, two simple factors; equal ones are matched once
    d2 = LabelFunction([((0,), 2, 2), ((1,), 2, 2)])
    m = component_match(("D2", d2))
    assert (m.labels, m.factors) == ((None, 2, 2), ())
    m = component_match(("D2", LabelFunction([((0,), 1, 1), ((1,), 2, 2)])))
    assert (m.status, m.row_index) == ("match", None)
    assert [(f.row_index, f.labels) for f in m.factors] == [(0, (None, 1, 1)), (0, (None, 2, 2))]
    with pytest.raises(ValueError):
        component_match(("B3", LabelFunction([((0,), 1, 1), ((1,), 2, 2),
                                              ((2,), 3, 0)])))


def test_class_preserved_swaps_generic_rows():
    before = bc("C", 2, (3, 3), 2)
    after = transfer(before, "ii")
    assert component_match(before).row_index == 2
    assert component_match(after).row_index == 1
    assert class_preserved(before, after)
    back = transfer(after, "iii")
    assert class_preserved(after, back)


def test_class_preserved_on_degenerate_orbits():
    # zero labels on the untouched orbit: both sides reduce, swap survives
    before = bc("C", 2, (2, 2), 0)
    after = transfer(before, "ii")
    mb, ma = component_match(before), component_match(after)
    assert (mb.reduced, ma.reduced) == (True, True)
    assert (mb.row_index, ma.row_index) == (2, 1)
    assert class_preserved(before, after)
    # zero labels on the moved orbit: both sides land in the same row
    before = bc("C", 2, (0, 0), 2)
    assert class_preserved(before, transfer(before, "ii"))
    # all-zero labels stay empty
    before = bc("C", 2, (0, 0), 0)
    assert component_match(before).status == "empty"
    assert class_preserved(before, transfer(before, "ii"))


def test_nonconforming_stays_nonconforming():
    before = bc("C", 2, (4, 4), 3)
    assert component_match(before).status == "none"
    after = transfer(before, "ii")
    assert component_match(after).status == "none"
    assert class_preserved(before, after)
    assert not class_preserved(before, bc("C", 2, (3, 3), 2))


def test_match_status_invariant_exhaustive():
    for rank in (1, 2, 3):
        heads = [None] if rank == 1 else range(7)
        for a in range(7):
            for b in heads:
                src = bc("C", rank, (a, a), b)
                assert class_preserved(src, transfer(src, "ii"))
                src = bc("B", rank, (a, 0), b)
                assert class_preserved(src, transfer(src, "iii"))
