"""AHAElement.to_json and qfield.packed_str against the printer they replace.

The reference (tests/_reference.to_json_by_parts) groups the packed ints into
a dict of t-parts per basis element, interleaves and strips every part and
prints through its own term-by-term printer (ref_pstr); to_json must give the
same JSON byte for byte, and qfield.pstr the same text as ref_pstr.
"""
import json
import random

import pytest

from hecke.hecke_algebra import AHA
from hecke.label_params import LabelFunction
from hecke.qfield import VRat, packed_str, pparse, pnorm, pstr
from hecke.root_data import BasedRootDatum, build_root_system

from _reference import packed_str as packed_str_ref
from _reference import ref_pstr
from _reference import to_json_by_parts

CASES = [("A", 1, (1, 1)), ("A", 2, (2, 2)), ("B", 2, (3, 3, 1)), ("G", 2, (1, 3)),
         ("B", 3, (100, 100, 1))]


def _alg(t, n, labels):
    rs = build_root_system(t, n)
    return AHA(BasedRootDatum(rs), LabelFunction.for_system(rs, labels))


def _coeff(rng):
    """A Laurent polynomial in v with a few terms: ±1, constants, negative powers."""
    return sum((VRat.v_pow(rng.randint(-7, 7)) * rng.choice((1, -1, 2, -3, 7))
                for _ in range(rng.randint(1, 4))), VRat(0))


def _element(alg, rng, terms=3):
    box = [rng.randint(-2, 2) for _ in range(alg.d)]
    return alg.element({(tuple(c + rng.randint(-1, 1) for c in box), rng.randrange(len(alg.W))):
                        _coeff(rng) for _ in range(terms)})


def _same(el):
    got, want = el.to_json(), to_json_by_parts(el)
    assert json.dumps(got) == json.dumps(want)


def _samples(alg, rng):
    """Products, sums that cancel low slots, shifts by negative and positive v-powers."""
    zero = (0,) * alg.d
    a, b = _element(alg, rng), _element(alg, rng, 2)
    yield a
    yield a * b
    yield (a * b).scale(VRat.v_pow(-rng.randint(1, 9)))
    # every residue of t = v^g in one coefficient, next to a constant and -1
    yield alg.element({(zero, 0): sum((VRat.v_pow(r) for r in range(alg.g)), VRat.v_pow(-1)),
                       (zero, len(alg.W) - 1): 5, ((1,) + zero[1:], 0): -1})
    # the low slots of the sum cancel; e stays, so the ints keep zero low slots
    low = alg.element({(zero, 1): VRat.v_pow(-6) * 3})
    yield (low + alg.element({(zero, 1): VRat.v_pow(-6) * -3 + VRat.v_pow(4) - 1})) \
        + a.scale(VRat.v_pow(2))
    # coefficients near the slot edge (an element's l1 mass stays below 2^63)
    yield alg.element({(zero, 0): 2**62 - 1})
    yield alg.element({(zero, 1): VRat.v_pow(-3) * -(2**62)})
    yield alg.element({((1,) + zero[1:], 0): VRat((2**61, 0, -(2**61) + 1), (0, 1))})
    yield alg.t(alg.W[-1].word[:3]) * alg.theta(tuple(rng.choice((-1, 0, 1)) for _ in zero))


@pytest.mark.parametrize("typ, n, labels", CASES)
@pytest.mark.parametrize("seed", range(3))
def test_to_json_matches_the_reference_printer(typ, n, labels, seed):
    alg = _alg(typ, n, labels)
    rng = random.Random(f"printer/{typ}{n}/{seed}")
    for el in _samples(alg, rng):
        _same(el)
        _same(-el)


def test_the_samples_reach_every_printer_branch():
    # several residues in one coefficient, a negative e, zero low slots and
    # ±1 slots: each branch of the one-pass printer is compared above
    alg = _alg("A", 2, (2, 2))
    els = list(_samples(alg, random.Random("printer/A2/0")))
    rows = [row for el in els for row in el._rows().values()]
    assert alg.g == 4 and max(len(row) for row in rows) == 8
    assert any(el.e > 0 for el in els)
    assert any(n & ((1 << 64) - 1) == 0 for row in rows for n in row[1::2])
    coeffs = {c for el in els for z in el.terms.values() for c in z.num}
    assert {1, -1, 2**62 - 1, -(2**62)} <= coeffs


@pytest.mark.parametrize("seed", range(4))
def test_packed_str_matches_the_reference_on_single_parts(seed):
    rng = random.Random(seed)
    for _ in range(300):
        p = [rng.choice((0, 0, 1, -1, rng.randint(-2**62, 2**62)))
             for _ in range(rng.randint(1, 9))]
        n = sum(c << 64 * i for i, c in enumerate(p))
        val, step = rng.randint(-12, 12), rng.randint(1, 4)
        assert packed_str(val, (0, n), step) == packed_str_ref(val, n, step)
    assert packed_str(3, (0, 0), 1) == packed_str_ref(3, 0) == "(0)/(1)"


def test_wide_powers_print_without_growing_the_tables():
    # exponents past the fixed tables are formatted for that call only
    from hecke import qfield
    sizes = len(qfield._BARE), len(qfield._STAR)
    alg = _alg("G", 2, (1, 3))
    for n in (62, 63, 64, 65, 500, -63, -64, -500):
        el = alg.element({((0, 0), 0): VRat.v_pow(n) * -3, ((1, 0), 1): VRat.v_pow(n)})
        blob = el.to_json()
        assert json.dumps(blob) == json.dumps(to_json_by_parts(el))
        assert alg.from_json(blob) == el
        assert str(VRat.v_pow(n) * -3) in [t["coeff"] for t in blob["terms"]]
    assert (len(qfield._BARE), len(qfield._STAR)) == sizes == (64, 64)


@pytest.mark.parametrize("seed", range(4))
def test_pstr_matches_the_reference_printer(seed):
    # ±1 (no coefficient printed), magnitudes at the slot edge, zero gaps, and
    # degrees past the fixed tables of "v^e" strings
    rng = random.Random(f"pstr/{seed}")
    for _ in range(300):
        p = pnorm([rng.choice((0, 0, 0, 1, -1, 2**62, -(2**62), rng.randint(-99, 99)))
                   for _ in range(rng.choice((1, 2, 5, 9, 70)))])
        assert pstr(p) == ref_pstr(p)
    assert pstr(()) == ref_pstr(()) == "0"


@pytest.mark.parametrize("seed", range(4))
def test_pstr_round_trips_through_pparse(seed):
    # p(v^step) v^shift as the reference prints it: pparse reads it back where
    # every exponent is >= 0, and pstr prints what it read the same way;
    # pparse refuses the negative exponents a negative shift can print
    rng = random.Random(seed)
    for _ in range(300):
        p = pnorm([rng.choice((0, 1, -1, 2, -5, 2**40)) for _ in range(rng.randint(0, 6))])
        shift, step = rng.randint(-6, 6), rng.randint(1, 3)
        text = ref_pstr(p, shift, step)
        lowest = min((shift + step * k for k, c in enumerate(p) if c), default=0)
        if lowest < 0:
            assert "v^-" in text
            with pytest.raises(ValueError):
                pparse(text)
            continue
        want = [0] * (shift + step * len(p) + 1)
        for k, c in enumerate(p):
            if c:
                want[shift + step * k] = c
        assert pparse(text) == pnorm(want)
        assert pstr(pparse(text)) == text
    assert pstr(()) == "0" and ref_pstr((), -3, 2) == "0" and pparse("0") == ()
    assert ref_pstr((0, 0, 1), -2) == "1" and ref_pstr((3, -1), -1, 2) == "-v+3*v^-1"
