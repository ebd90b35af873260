"""q-parameters, label functions, and the q-base.

Parameters are tracked as exact rational exponents of the reference q_F.
A label function carries, per W-orbit of simple roots, the pair

    lambda  = log(q_a q_{a*}) / log(base),
    lambda* = log(q_a / q_{a*}) / log(base),

where base = q_F^exp is its q-base.  Rescaling the base rescales the labels
inversely and leaves the q-parameters alone.  Labels, q-parameters and
v-exponents convert only here: pair_from_labels, labels_from_q, v_exponents.
"""
from __future__ import annotations

from fractions import Fraction

from .root_data import RootSystem, simple_orbits


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def q_power_str(e) -> str:
    """Display q_F^e: '1', 'q', 'q^3', 'q^(1/2)'."""
    e = _frac(e)
    if e == 0:
        return "1"
    if e == 1:
        return "q"
    if e.denominator == 1 and e > 0:
        return f"q^{e}"
    return f"q^({e})"


class QBase:
    """The reference power q_F^exp of a formal q_F."""

    __slots__ = ("exp",)

    def __init__(self, exp=1):
        exp = _frac(exp)
        if exp <= 0:
            raise ValueError(f"base exponent must be positive, got {exp}")
        self.exp = exp

    def __eq__(self, other):
        return isinstance(other, QBase) and self.exp == other.exp

    def __hash__(self):
        return hash(self.exp)

    def __repr__(self):
        return f"QBase(q_F^{self.exp})" if self.exp != 1 else "QBase(q_F)"


class ParamPair:
    """Exponent pair (relative to q_F) of the parameters q_alpha >= q_{alpha*} >= 1.

    The normalization q_alpha >= q_{alpha*} >= 1 is enforced at construction;
    it is the one under which the label functions are non-negative.
    """

    __slots__ = ("e_alpha", "e_star")

    def __init__(self, e_alpha, e_star=0):
        e_alpha, e_star = _frac(e_alpha), _frac(e_star)
        if not e_alpha >= e_star >= 0:
            raise ValueError(
                f"need exponents e_alpha >= e_star >= 0, got ({e_alpha}, {e_star})")
        self.e_alpha = e_alpha
        self.e_star = e_star

    def v_exponents(self) -> tuple[int, int]:
        """(2 e_alpha, 2 e_star): q_alpha and q_{alpha*} as powers of v = q_F^(1/2)."""
        for e in self:
            if 2 % e.denominator:
                raise ValueError(f"exponent {e} is not a half-integer")
        return tuple(e.numerator * 2 // e.denominator for e in self)

    def __iter__(self):
        return iter((self.e_alpha, self.e_star))

    def __eq__(self, other):
        return (isinstance(other, ParamPair)
                and (self.e_alpha, self.e_star) == (other.e_alpha, other.e_star))

    def __hash__(self):
        return hash((self.e_alpha, self.e_star))

    def to_json(self) -> dict:
        return {"q_alpha": q_power_str(self.e_alpha), "q_star": q_power_str(self.e_star)}

    def __repr__(self):
        return f"ParamPair({q_power_str(self.e_alpha)}, {q_power_str(self.e_star)})"


def labels_from_q(p: ParamPair, base: QBase | None = None) -> tuple[Fraction, Fraction]:
    """(lambda, lambda*) of an exponent pair relative to the given base."""
    base = base or QBase()
    return ((p.e_alpha + p.e_star) / base.exp, (p.e_alpha - p.e_star) / base.exp)


def pair_from_labels(lam, lam_star, base_exp=1) -> ParamPair:
    """Inverse of labels_from_q: e(q_a) = r(lam+lam*)/2, e(q_{a*}) = r(lam-lam*)/2."""
    lam, ls, h = _frac(lam), _frac(lam_star), QBase(base_exp).exp / 2
    return ParamPair(h * (lam + ls), h * (lam - ls))


def _fmt(x: Fraction | int):
    return int(x) if x.denominator == 1 else str(x)


class LabelFunction:
    """Labels (lambda, lambda*) per W-orbit of simple roots, with a q-base.

    orbits is a sorted tuple of (simple-index tuple, lambda, lambda*).  The
    constructor admits any non-negative rational labels; admissibility (the
    lambda >= lambda* normalization and the type-B-short restriction) is the
    business of validate().
    """

    __slots__ = ("orbits", "base")

    def __init__(self, orbits, base: QBase | None = None):
        rows = []
        for idx, lam, ls in orbits:
            idx = tuple(sorted(int(i) for i in idx))
            lam, ls = _frac(lam), _frac(ls)
            if lam < 0 or ls < 0:
                raise ValueError(f"labels must be non-negative, got ({lam}, {ls})")
            rows.append((idx, lam, ls))
        rows.sort(key=lambda r: r[0])
        self.orbits = tuple(rows)
        self.base = base or QBase()

    @classmethod
    def for_system(cls, rs: RootSystem, values, base: QBase | None = None) -> "LabelFunction":
        """Attach labels to the W-orbits of rs, long orbit first.

        values: one number (lambda = lambda* everywhere); a flat sequence of
        per-orbit lambdas (lambda* = lambda), allowing one trailing extra
        entry as lambda* of the last (short) orbit; or a sequence of
        (lambda, lambda*) pairs, one per orbit.
        """
        orbits = [idx for _, idx in simple_orbits(rs.cartan_type, rs.rank)]
        if isinstance(values, (int, str, Fraction)):
            values = [values] * len(orbits)
        values = list(values)
        if values and isinstance(values[0], (tuple, list)):
            if len(values) != len(orbits):
                raise ValueError(f"expected {len(orbits)} label pairs, got {len(values)}")
            rows = [(idx, v[0], v[1]) for idx, v in zip(orbits, values)]
        elif len(values) == len(orbits):
            rows = [(idx, v, v) for idx, v in zip(orbits, values)]
        elif len(values) == len(orbits) + 1:
            rows = [(idx, v, v) for idx, v in zip(orbits[:-1], values[:-2])]
            rows.append((orbits[-1], values[-2], values[-1]))
        else:
            raise ValueError(
                f"cannot spread {len(values)} label values over {len(orbits)} orbits")
        return cls(rows, base)

    # -- accessors ------------------------------------------------------

    def orbit_of(self, simple_index: int) -> int:
        for k, (idx, _, _) in enumerate(self.orbits):
            if simple_index in idx:
                return k
        raise KeyError(f"simple root {simple_index} carries no label")

    def values(self, simple_index: int) -> tuple[Fraction, Fraction]:
        _, lam, ls = self.orbits[self.orbit_of(simple_index)]
        return lam, ls

    def pair(self, orbit: int) -> ParamPair:
        _, lam, ls = self.orbits[orbit]
        return pair_from_labels(lam, ls, self.base.exp)

    def pairs(self) -> tuple[ParamPair, ...]:
        return tuple(self.pair(k) for k in range(len(self.orbits)))

    def conforms(self) -> bool:
        """Conjecture-conformance: every orbit's parameters are powers of
        v = q_F^(1/2) whose ratio is a power of q_F."""
        try:
            vexps = [p.v_exponents() for p in self.pairs()]
        except ValueError:
            return False
        return all((ea - es) % 2 == 0 for ea, es in vexps)

    # -- transforms -----------------------------------------------------

    def rescale(self, r) -> "LabelFunction":
        r = _frac(r)
        if r <= 0:
            raise ValueError(f"rescaling factor must be positive, got {r}")
        return LabelFunction(
            [(idx, lam / r, ls / r) for idx, lam, ls in self.orbits],
            QBase(self.base.exp * r))

    def to_json(self) -> dict:
        return {
            "base_exp": _fmt(self.base.exp),
            "orbits": [{"roots": list(idx), "lambda": str(lam), "lambda_star": str(ls)}
                       for idx, lam, ls in self.orbits],
        }

    @classmethod
    def from_json(cls, data: dict) -> "LabelFunction":
        rows = [(tuple(o["roots"]), Fraction(str(o["lambda"])),
                 Fraction(str(o["lambda_star"]))) for o in data["orbits"]]
        return cls(rows, QBase(Fraction(str(data.get("base_exp", 1)))))

    def __eq__(self, other):
        return (isinstance(other, LabelFunction)
                and self.orbits == other.orbits and self.base == other.base)

    def __hash__(self):
        return hash((self.orbits, self.base))

    def __repr__(self):
        body = ", ".join(f"{list(idx)}:({lam},{ls})" for idx, lam, ls in self.orbits)
        return f"LabelFunction({body}; base_exp={self.base.exp})"


def validate(lf: LabelFunction, rs: RootSystem) -> list[str]:
    """Admissibility report; empty means admissible.

    Checks: the orbit sets partition the simple roots of rs; labels are
    constant on actual W-orbits; lambda >= lambda* >= 0; and lambda* differs
    from lambda only on the short orbit of a type-B component.
    """
    report = []
    covered = [i for idx, _, _ in lf.orbits for i in idx]
    if sorted(covered) != list(range(rs.rank)):
        report.append(
            f"orbit sets {sorted(covered)} do not partition the {rs.rank} simple roots")
        return report
    by_simple = {i: (lam, ls) for idx, lam, ls in lf.orbits for i in idx}
    cls_of = {}
    for cls, orbit in simple_orbits(rs.cartan_type, rs.rank):
        if len({by_simple[i] for i in orbit}) > 1:
            report.append(f"labels not constant on the W-orbit {list(orbit)}")
        cls_of.update(dict.fromkeys(orbit, cls))
    for idx, lam, ls in lf.orbits:
        if not lam >= ls >= 0:
            report.append(f"orbit {list(idx)}: need lambda >= lambda* >= 0, "
                          f"got ({lam}, {ls})")
        elif lam != ls:
            cls = cls_of[idx[0]]
            if not (rs.cartan_type == "B" and cls == "short"):
                report.append(
                    f"orbit {list(idx)}: lambda* != lambda is only admissible on "
                    f"the short orbit of a type-B component, not {rs.cartan_type} {cls}")
    return report
