"""Label moves between isogenous forms of a group.

A central isogeny rescales the cocharacter attached to each root of the
mu-relevant root system by a factor N_alpha, and the pole positions of the
rank-one mu-factors pin N_alpha inside {1/2, 1, 2}.  Per irreducible
component only three shapes occur:

    i    everything carries over unchanged;
    ii   a type C component on the covering side becomes type B, the
         long-root parameter dropping to its square root;
    iii  a type B component becomes type C, the short-root parameter
         squaring.

In label terms (q_beta = q^{(lambda+lambda*)/2}, q_{beta*} =
q^{(lambda-lambda*)/2}) case ii sends the long orbit (a, a) to the short
orbit (a, 0) and case iii inverts it; the other orbit rides along with
N_alpha = 1.  Both moves preserve the admissible label classes, switching
the generic B row (with lambda* = 0) and the generic C row of the table.

Components are passed around as pairs (cartan type string, LabelFunction).
"""
from __future__ import annotations

from fractions import Fraction

from .label_params import LabelFunction
from .param_catalog import _shape, component_match
from .root_data import parse_type

_N_BY_TAG = {
    "i": (Fraction(1), Fraction(1)),
    "ii": (Fraction(1), Fraction(1, 2)),
    "iii": (Fraction(2), Fraction(1)),
}
_INVERSE_TAG = {"i": "i", "ii": "iii", "iii": "ii"}


class TransferCase:
    """One of the three moves, with its N_alpha bookkeeping.

    n_alpha_long and n_alpha_short are the rescaling factors on the long
    and short roots of the quotient-side component.  The tag pins them
    (i: all 1; ii: 1/2 on the short roots of the resulting B; iii: 2 on
    the long roots of the resulting C).
    """

    __slots__ = ("tag", "n_alpha_long", "n_alpha_short")

    def __init__(self, tag):
        if tag not in _N_BY_TAG:
            raise ValueError(f"transfer case must be 'i', 'ii' or 'iii', got {tag!r}")
        self.tag = tag
        self.n_alpha_long, self.n_alpha_short = _N_BY_TAG[tag]

    def inverse(self) -> "TransferCase":
        return TransferCase(_INVERSE_TAG[self.tag])

    def to_json(self) -> dict:
        return {"tag": self.tag, "n_alpha_long": str(self.n_alpha_long),
                "n_alpha_short": str(self.n_alpha_short)}

    def __eq__(self, other):
        return isinstance(other, TransferCase) and self.tag == other.tag

    def __hash__(self):
        return hash(self.tag)

    def __repr__(self):
        return f"TransferCase({self.tag})"


def _as_case(case) -> TransferCase:
    return case if isinstance(case, TransferCase) else TransferCase(case)


def transfer(component, case, direction="to-quotient"):
    """Apply a move to a component (cartan type string, LabelFunction).

    The default direction follows the covering group down to the quotient,
    so case ii consumes a type C component and case iii a type B one;
    direction="to-cover" applies the inverse substitution instead.  In
    both B and C the moved orbit is the one of the last simple root, and
    the exactness of the printed substitutions demands lambda = lambda*
    there on the C side and lambda* = 0 on the B side.
    """
    if direction not in ("to-quotient", "to-cover"):
        raise ValueError(f"unknown direction {direction!r}")
    case = _as_case(case)
    typ, lf = component
    letter, rank = _shape(typ, lf)
    if case.tag == "i":
        return (typ, lf)
    b_to_c = (case.tag == "iii") == (direction == "to-quotient")
    want = "B" if b_to_c else "C"
    if letter != want:
        raise ValueError(
            f"case {case.tag} ({direction}) consumes a type {want} component, got {typ}")
    rows = list(lf.orbits)
    k = next(i for i, r in enumerate(rows) if rank - 1 in r[0])
    idx, lam, ls = rows[k]
    if idx != (rank - 1,):
        raise ValueError("labels do not separate the two root lengths")
    if b_to_c:
        if ls != 0:
            raise ValueError(f"the moved short orbit needs lambda* = 0, got {ls}")
        rows[k] = (idx, lam, lam)
        return (f"C{rank}", LabelFunction(rows, lf.base))
    if lam != ls:
        raise ValueError(f"the moved long orbit needs lambda = lambda*, got ({lam}, {ls})")
    rows[k] = (idx, lam, 0)
    return (f"B{rank}", LabelFunction(rows, lf.base))


def roundtrip_check(component, case, direction="to-quotient") -> bool:
    """A move followed by its inverse lands exactly on the input."""
    case = _as_case(case)
    typ, lf = component
    there = transfer(component, case, direction)
    back_typ, back_lf = transfer(there, case.inverse(), direction)
    return parse_type(back_typ) == _shape(typ, lf) and back_lf == lf


def class_preserved(before, after) -> bool:
    """Both sides sit in the same label class of the table.

    Equal match status, and on genuine matches equal rows up to the
    designated swap: the generic B row restricted to lambda* = 0 trades
    places with the generic C row.
    """
    mb = component_match(before)
    ma = component_match(after)
    if mb.status != ma.status:
        return False
    if mb.status != "match" or mb.row_index == ma.row_index:
        return True
    by_row = {mb.row_index: mb, ma.row_index: ma}
    if set(by_row) != {1, 2}:
        return False
    return by_row[1].labels[2] == 0
