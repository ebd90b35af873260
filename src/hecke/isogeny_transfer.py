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

from .label_params import LabelFunction, _frac
from .param_catalog import MatchResult, table1_match
from .root_data import build_root_system, parse_type

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
    the long roots of the resulting C); constructor arguments may only
    restate the forced values.
    """

    __slots__ = ("tag", "n_alpha_long", "n_alpha_short")

    def __init__(self, tag, n_alpha_long=None, n_alpha_short=None):
        if tag not in _N_BY_TAG:
            raise ValueError(f"transfer case must be 'i', 'ii' or 'iii', got {tag!r}")
        nl, ns = _N_BY_TAG[tag]
        if n_alpha_long is not None and _frac(n_alpha_long) != nl:
            raise ValueError(f"case {tag} forces N_alpha = {nl} on long roots")
        if n_alpha_short is not None and _frac(n_alpha_short) != ns:
            raise ValueError(f"case {tag} forces N_alpha = {ns} on short roots")
        self.tag = tag
        self.n_alpha_long = nl
        self.n_alpha_short = ns

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


def _shape(typ, lf: LabelFunction) -> tuple[str, int]:
    """(letter, rank), cross-checked against the label coverage."""
    letter, rank = parse_type(typ)
    covered = sorted(i for idx, _, _ in lf.orbits for i in idx)
    if covered != list(range(len(covered))):
        raise ValueError(f"labels cover simple roots {covered}, not an initial range")
    if rank is None:
        rank = len(covered)
    elif rank != len(covered):
        raise ValueError(f"type {typ} has rank {rank} but labels cover {len(covered)}")
    if rank < 1:
        raise ValueError("component carries no labels")
    return letter, rank


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


def roundtrip_check(component, case) -> bool:
    """A move followed by its inverse lands exactly on the input."""
    case = _as_case(case)
    typ, lf = component
    there = transfer(component, case)
    back_typ, back_lf = transfer(there, case.inverse())
    return parse_type(back_typ) == _shape(typ, lf) and back_lf == lf


def _length_classes(letter, rank) -> dict:
    """Simple indices per length class; single-class types give {'all': ...}."""
    if letter in ("B", "C") and rank >= 2:
        head, last = tuple(range(rank - 1)), (rank - 1,)
        return {"long": head, "short": last} if letter == "B" else \
               {"short": head, "long": last}
    if letter == "B":
        return {"short": (0,)}
    if letter == "C":
        return {"long": (0,)}
    return build_root_system(letter, rank).simple_classes()


def component_match(component) -> MatchResult:
    """Table membership of a component's labels, assembled per length class."""
    typ, lf = component
    letter, rank = _shape(typ, lf)
    classes = _length_classes(letter, rank)
    comp = f"{letter}{rank}"

    def one(cls):
        vals = {lf.values(i) for i in classes[cls]}
        if len(vals) != 1:
            raise ValueError(f"labels not constant on the {cls} roots of {comp}")
        return vals.pop()

    if "all" in classes:
        lam, ls = one("all")
        return table1_match(comp, None, lam, ls)
    if "long" not in classes:
        lam, ls = one("short")
        return table1_match(comp, None, lam, ls)
    if "short" not in classes:
        lam, _ = one("long")
        return table1_match(comp, lam, None, None)
    # lambda* of the long orbit never enters the table columns
    ll = one("long")[0]
    ls, lx = one("short")
    return table1_match(comp, ll, ls, lx)


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
