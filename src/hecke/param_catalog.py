"""Knowledge base of admissible Hecke algebra labels.

Three layers:

  * the bound table: per irreducible component of the dual parameter root
    system, the values of (lambda(long), lambda(short), lambda*(short)) that
    can occur, up to rescaling the q-base;
  * closed formulas for rank-one reducibility in classical groups (cases
    'a', 'b', 'c'), with the quadratic exponent bounds and parity rules,
    and the label tables for unitary principal series;
  * a database of worked cases for groups with relative root system G2 or
    F4 (plus the F4-shaped Levi classes inside split E6/E7/E8), with OPEN
    markers on the two quaternionic orthogonal cases nobody has settled.

Everything returns exact Fractions; the q-parameters themselves are only
formed as exponents of q_F.
"""
from __future__ import annotations

import csv
import io
import itertools
import json
from fractions import Fraction
from importlib import resources
from math import ceil, gcd, lcm

from .label_params import LabelFunction, ParamPair, QBase, _fmt, _frac, labels_from_q
from .root_data import SizeLimitError, parse_type, simple_orbits

# unitary_ps_descriptor's cost is linear in n: about 1 ms and 140 kB of JSON at the cap
UNITARY_N_CAP = 1000


# ---------------------------------------------------------------------------
# the bound table

class _Col:
    """Admissible values for one label column of a table row."""

    __slots__ = ("kind", "values")

    def __init__(self, kind, values=()):
        self.kind = kind
        self.values = tuple(values)

    def admits(self, value, short=None):
        if self.kind == "absent":
            return value is None
        if value is None:
            # column not supplied: vacuous, except for "absent" above
            return True
        if self.kind == "set":
            return value in self.values
        if self.kind == "pos-int":
            return value.denominator == 1 and value > 0
        if self.kind == "nonneg-int":
            return value.denominator == 1 and value >= 0
        if self.kind == "eq-short":
            return short is None or value == short
        raise AssertionError(self.kind)

    def describe(self) -> str:
        fixed = {"absent": "-", "pos-int": "Z_{>0}", "nonneg-int": "Z_{>=0}",
                 "eq-short": "= lambda(short)"}
        if self.kind in fixed:
            return fixed[self.kind]
        return " or ".join(str(v) for v in self.values)


_POS = _Col("pos-int")
_NN = _Col("nonneg-int")
_EQS = _Col("eq-short")
_ABS = _Col("absent")


def _set(*values):
    return _Col("set", values)


class Table1Row:
    """One row of the bound table.

    types is the set of component type letters the row covers, rank pins the
    row to a single rank (None: any).  The three columns constrain lambda on
    the long class, lambda on the short class, and lambda* on the short
    class; single-length systems use only the middle column.
    """

    __slots__ = ("types", "rank", "cols")

    def __init__(self, types, rank, long_col, short_col, star_col):
        self.types = frozenset(types)
        self.rank = rank
        self.cols = (long_col, short_col, star_col)

    def applies_to(self, letter, rank=None) -> bool:
        if letter not in self.types:
            return False
        return self.rank is None or rank == self.rank

    def admits(self, lam_long, lam_short, lam_star) -> bool:
        lc, sc, xc = self.cols
        return (lc.admits(lam_long) and sc.admits(lam_short)
                and xc.admits(lam_star, short=lam_short))

    def to_json(self) -> dict:
        return {"types": "".join(sorted(self.types)), "rank": self.rank,
                "long": self.cols[0].describe(),
                "short": self.cols[1].describe(),
                "star": self.cols[2].describe()}

    def __repr__(self):
        j = self.to_json()
        return (f"Table1Row({j['types']}{self.rank or ''}: {j['long']} | "
                f"{j['short']} | {j['star']})")


_TABLE1 = (
    Table1Row("ADE", None, _ABS, _POS, _EQS),
    Table1Row("B", None, _set(1, 2), _POS, _NN),
    Table1Row("C", None, _POS, _set(1, 2), _EQS),
    Table1Row("F", 4, _set(1, 2), _set(1), _set(1)),
    Table1Row("F", 4, _set(1), _set(2), _set(2)),
    Table1Row("F", 4, _set(4), _set(1), _set(1)),
    Table1Row("G", 2, _set(1, 3), _set(1), _set(1)),
    Table1Row("G", 2, _set(1), _set(3), _set(3)),
    Table1Row("G", 2, _set(9), _set(1), _set(1)),
    Table1Row("B", 2, _set(3), _set(3), _set(1)),
)


def table1():
    """The rows of the admissible-label table, in display order."""
    return _TABLE1


def table1_csv() -> str:
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["types", "rank", "lambda(long)", "lambda(short)", "lambda*(short)"])
    for row in _TABLE1:
        w.writerow(["/".join(sorted(row.types)), row.rank or "any",
                    row.cols[0].describe(), row.cols[1].describe(),
                    row.cols[2].describe()])
    return buf.getvalue()


class MatchResult:
    """Outcome of a bound-table lookup.

    status 'match': row_index / rescale / labels describe the admitting row
    and the rescaled triple.  status 'empty': all supplied labels vanish, the
    orbit contributes no roots.  status 'none': no row admits the labels
    under any rescaling.  reduced marks a match found after dropping a
    vanishing length class.  factors lists the results of the distinct simple
    factors of a reducible component (D2 = A1 x A1), whose worst is status.
    """

    __slots__ = ("status", "row_index", "rescale", "labels", "reduced", "factors")

    def __init__(self, status, row_index=None, rescale=None, labels=None,
                 reduced=False, factors=()):
        self.status = status
        self.row_index = row_index
        self.rescale = rescale
        self.labels = labels
        self.reduced = reduced
        self.factors = tuple(factors)

    @property
    def ok(self) -> bool:
        return self.status in ("match", "empty")

    def to_json(self) -> dict:
        lab = None
        if self.labels is not None:
            lab = {k: None if v is None else _fmt(v)
                   for k, v in zip(("long", "short", "star"), self.labels)}
        out = {"status": self.status, "row": self.row_index,
               "rescale": None if self.rescale is None else str(self.rescale),
               "labels": lab, "reduced": self.reduced}
        if self.factors:
            out["factors"] = [f.to_json() for f in self.factors]
        return out

    def __repr__(self):
        if self.status != "match":
            return f"MatchResult({self.status})"
        return (f"MatchResult(match, row {self.row_index}, "
                f"rescale {self.rescale}, labels {self.labels})")


def table1_match(component, lam_long=None, lam_short=None, lam_star=None) -> MatchResult:
    """Match a label triple against the admissible-label table.

    lam_star is lambda* on the short class (the only class where a value
    different from lambda ever occurs); pass None for columns whose orbit
    the component does not have.  A vanishing length class drops out and the
    survivor is matched as the simply laced system it spans.  The rescale r
    is solved from the labels: r0 * max(1, floor(1/r0)) or r0 * ceil(1/r0),
    the least distorting multiples of r0 = 1/gcd(nonzero labels), or s/lambda
    for a value s of a 'set' column; least distortion max(r, 1/r) first,
    then the smaller r, then the row index.
    """
    letter, rank = parse_type(component)
    triple = tuple(None if v is None else _frac(v)
                   for v in (lam_long, lam_short, lam_star))
    if all(v is None for v in triple):
        raise ValueError("no labels supplied")
    if not any(triple):
        return MatchResult("empty")

    ll, ls, lx = triple
    reduced = False
    if letter in "BCFG":
        if ls == 0 and not lx and ll:
            # short class gone; C keeps its letter (a lone long orbit is
            # still the C pattern), the rest survive as ADE systems
            rank, reduced = None, True
            if letter == "C":
                ll, ls, lx = triple[0], None, None
            else:
                letter = "A"
                ll, ls, lx = None, triple[0], triple[0]
        elif ll == 0 and (ls or lx):
            # long class gone; B keeps its letter so that a lone short
            # orbit with lambda* < lambda still has a home
            letter = "B" if letter == "B" else "A"
            rank, reduced = None, True
            ll = None
    triple = (ll, ls, lx)

    nonzero = [v for v in triple if v]
    r0 = Fraction(lcm(*(v.denominator for v in nonzero)), gcd(*(v.numerator for v in nonzero)))
    cands = {r0 * max(1, 1 // r0), r0 * ceil(1 / r0)}
    cands.update(s / v for s in {s for row in _TABLE1 for col in row.cols for s in col.values}
                 for v in nonzero if v > 0)
    for r in sorted(cands, key=lambda c: (max(c, 1 / c), c)):
        scaled = tuple(None if v is None else v * r for v in triple)
        if any(v is not None and v.denominator != 1 for v in scaled):
            continue
        for i, row in enumerate(_TABLE1):
            if row.applies_to(letter, rank) and row.admits(*scaled):
                return MatchResult("match", i, r, scaled, reduced)
    return MatchResult("none")


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


def component_match(component) -> MatchResult:
    """Table membership of a component (type string, LabelFunction), one simple
    factor of simple_orbits at a time: a long and a short orbit make one factor,
    each 'all' orbit another (D2 = A1 x A1 has two).  Distinct factors give the
    worst of their statuses (none, match, empty), with the factors attached."""
    typ, lf = component
    letter, rank = _shape(typ, lf)
    comp = f"{letter}{rank}"
    cols: dict = {}
    for cls, idx in simple_orbits(letter, rank):
        vals = {lf.values(i) for i in idx}
        if len(vals) != 1:
            raise ValueError(f"labels not constant on the {cls} roots of {comp}")
        cols.setdefault(cls, []).append(vals.pop())
    if "all" not in cols:
        # lambda* of the long orbit never enters the table columns
        ll = cols["long"][0][0] if "long" in cols else None
        ls, lx = cols["short"][0] if "short" in cols else (None, None)
        return table1_match(comp, ll, ls, lx)
    results = [table1_match(comp, None, lam, ls) for lam, ls in dict.fromkeys(cols["all"])]
    if len(results) == 1:
        return results[0]
    worst = min((r.status for r in results), key=("none", "match", "empty").index)
    return MatchResult(worst, factors=results)


# ---------------------------------------------------------------------------
# classical families

class ClassicalFamily:
    """Rank-one reducibility datum of classical type.

    case 'a': a single exponent a_plus >= 0 (the long root of a C-shaped
    component, no doubled character).  case 'b': two exponents
    a >= a_minus >= -1 (the short root of a B-shaped component).  case 'c':
    no exponents, the label is the residue degree f.  t is the torsion
    number of the inducing datum and must divide d_rho when that is given;
    n_dual enters the exponent bounds of classical_bound_check.
    """

    __slots__ = ("case_tag", "t", "f", "a_plus", "a", "a_minus", "n_dual", "d_rho")

    def __init__(self, case_tag, t=1, f=1, a_plus=None, a=None, a_minus=None,
                 n_dual=None, d_rho=None):
        if case_tag not in ("a", "b", "c"):
            raise ValueError(f"case must be 'a', 'b' or 'c', got {case_tag!r}")
        if f not in (1, 2):
            raise ValueError(f"residue degree f must be 1 or 2, got {f}")
        t = int(t)
        if t < 1:
            raise ValueError(f"torsion number t must be positive, got {t}")
        if d_rho is not None:
            d_rho = int(d_rho)
            if d_rho < 1 or d_rho % t:
                raise ValueError(f"t = {t} must divide d_rho = {d_rho}")
        if n_dual is not None and int(n_dual) < 1:
            raise ValueError(f"n_dual must be positive, got {n_dual}")
        if case_tag == "a":
            if a_plus is None or int(a_plus) < 0:
                raise ValueError("case 'a' needs an exponent a_plus >= 0")
            a_plus = int(a_plus)
            a = a_minus = None
        elif case_tag == "b":
            if a is None or a_minus is None:
                raise ValueError("case 'b' needs exponents a and a_minus")
            a, a_minus = int(a), int(a_minus)
            if not a >= a_minus >= -1:
                raise ValueError(f"need a >= a_minus >= -1, got ({a}, {a_minus})")
            a_plus = None
        else:
            a_plus = a = a_minus = None
        self.case_tag = case_tag
        self.t = t
        self.f = f
        self.a_plus = a_plus
        self.a = a
        self.a_minus = a_minus
        self.n_dual = None if n_dual is None else int(n_dual)
        self.d_rho = d_rho

    def __repr__(self):
        exps = {"a": f"a_plus={self.a_plus}", "b": f"a={self.a}, a_minus={self.a_minus}",
                "c": "-"}[self.case_tag]
        return f"ClassicalFamily({self.case_tag}, t={self.t}, f={self.f}, {exps})"


class ClassicalLabels:
    """Labels of one classical family.

    alpha_* are the labels of the distinguished orbit, other_* those of the
    companion orbit of the same component (parameters q_F^{f t} and 1, so
    always (f, f) at base q_F^t).  q_pair holds the exact q_F-exponents,
    component the shape letter of the dual component the orbit sits in.
    """

    __slots__ = ("case_tag", "t", "f", "component", "q_pair",
                 "alpha_base_t", "alpha_base_1", "other_base_t", "other_base_1")

    def __init__(self, case_tag, t, f, component, q_pair):
        self.case_tag = case_tag
        self.t = t
        self.f = f
        self.component = component
        self.q_pair = q_pair
        other = ParamPair(f * t)
        self.alpha_base_t = labels_from_q(q_pair, QBase(t))
        self.alpha_base_1 = labels_from_q(q_pair)
        self.other_base_t = labels_from_q(other, QBase(t))
        self.other_base_1 = labels_from_q(other)

    @property
    def integral_at_t(self) -> bool:
        return all(v.denominator == 1 for v in self.alpha_base_t)

    def triple(self, base_exp=1):
        """(component, lambda(long), lambda(short), lambda*(short)) at base
        q_F^base_exp; base_exp must be 1 or the family's t."""
        if base_exp == 1:
            alpha, other = self.alpha_base_1, self.other_base_1
        elif base_exp == self.t:
            alpha, other = self.alpha_base_t, self.other_base_t
        else:
            raise ValueError(f"labels live at base exponent 1 or {self.t}")
        if self.case_tag == "a":
            return (self.component, alpha[0], other[0], other[1])
        if self.case_tag == "b":
            return (self.component, other[0], alpha[0], alpha[1])
        return (self.component, None, alpha[0], alpha[1])

    def to_json(self) -> dict:
        pack = lambda pair: {"lambda": _fmt(pair[0]), "lambda*": _fmt(pair[1])}
        return {"case": self.case_tag, "t": self.t, "f": self.f,
                "component": self.component,
                "q": self.q_pair.to_json(),
                "alpha": {"base_t": pack(self.alpha_base_t),
                          "base_1": pack(self.alpha_base_1)},
                "other_orbit": {"base_t": pack(self.other_base_t),
                                "base_1": pack(self.other_base_1)},
                "integral_at_t": self.integral_at_t}

    def __repr__(self):
        return (f"ClassicalLabels({self.case_tag}: {self.component}, "
                f"base q^{self.t}: {self.alpha_base_t})")


def classical_labels(fam: ClassicalFamily) -> ClassicalLabels:
    """Labels of a classical family at base q_F^t and base q_F.

    case 'a': q_alpha = q_F^{f t a_plus}, q_{alpha*} = 1, on the long root
    of a C-shaped component.  case 'b': q_alpha = q_F^{f t (a+1)/2},
    q_{alpha*} = q_F^{f t (a_minus+1)/2}, on the short root of a B-shaped
    component.  case 'c': q_alpha = q_F^{f t}, q_{alpha*} = 1, type A.  The
    companion orbit of the component is always of case-'c' shape.
    """
    f, t = fam.f, fam.t
    if fam.case_tag == "a":
        e_a, e_s = Fraction(f * t * fam.a_plus), Fraction(0)
        comp = "C"
    elif fam.case_tag == "b":
        e_a = Fraction(f * t * (fam.a + 1), 2)
        e_s = Fraction(f * t * (fam.a_minus + 1), 2)
        comp = "B"
    else:
        e_a, e_s = Fraction(f * t), Fraction(0)
        comp = "A"
    return ClassicalLabels(fam.case_tag, t, f, comp, ParamPair(e_a, e_s))


class BoundCheck:
    """Result of the exponent bound: ok iff slack = cap - used >= 0."""

    __slots__ = ("ok", "slack", "used", "cap")

    def __init__(self, slack, used, cap):
        self.ok = slack >= 0
        self.slack = slack
        self.used = used
        self.cap = cap

    def to_json(self) -> dict:
        return {"ok": self.ok, "slack": _fmt(self.slack),
                "used": _fmt(self.used), "cap": _fmt(self.cap)}

    def __repr__(self):
        verdict = "ok" if self.ok else "violated"
        return f"BoundCheck({verdict}, used {self.used} of {self.cap})"


def classical_bound_check(fam: ClassicalFamily) -> BoundCheck:
    """Dimension bound on the exponents of a classical family.

    case 'b': floor(((a+1)/2)^2) + floor(((a_minus+1)/2)^2) <= n_dual/d_rho.
    case 'a': a_plus^2 <= 2 n_dual/d_rho + 1.  Case 'c' carries no bound.
    """
    if fam.case_tag == "c":
        raise ValueError("case 'c' has no exponent bound")
    if fam.n_dual is None:
        raise ValueError("bound check needs n_dual")
    cap = Fraction(fam.n_dual, fam.d_rho if fam.d_rho is not None else fam.t)
    if fam.case_tag == "b":
        used = (fam.a + 1) ** 2 // 4 + (fam.a_minus + 1) ** 2 // 4
    else:
        cap = 2 * cap + 1
        used = fam.a_plus ** 2
    return BoundCheck(cap - used, used, cap)


def parity_rule(family: str, t: int = 1) -> str:
    """Allowed parities of (a, a_minus) in a case-'b' family.

    'unramified-SU' families force different parity.  All 'other' eligible
    families force equal parity when the torsion number t is odd; even t
    leaves the parity unconstrained.
    """
    if int(t) < 1:
        raise ValueError(f"torsion number t must be positive, got {t}")
    if family == "unramified-SU":
        return "different"
    if family == "other":
        return "same" if t % 2 else "unconstrained"
    raise ValueError(f"unknown family kind {family!r}")


def parity_allows(rule: str, a: int, a_minus: int) -> bool:
    if rule == "different":
        return (a - a_minus) % 2 == 1
    if rule == "same":
        return (a - a_minus) % 2 == 0
    if rule == "unconstrained":
        return True
    raise ValueError(f"unknown parity rule {rule!r}")


def type_a_divisibility(f, n, e, m, m_prime) -> bool:
    """Divisibility constraint on the label f of a type-A block.

    For a block built from GL_m over a division algebra of degree n/m, with
    e factors and a datum of reduced size m', the label exponent f has to
    divide n m' / (m e); in particular that quotient must be an integer.
    """
    f, n, e, m, m_prime = (int(v) for v in (f, n, e, m, m_prime))
    if min(f, n, e, m, m_prime) < 1:
        raise ValueError("all arguments must be positive integers")
    if m_prime > m:
        raise ValueError(f"reduced size m' = {m_prime} cannot exceed m = {m}")
    if (n * m_prime) % (m * e):
        return False
    return (n * m_prime) // (m * e) % f == 0


# ---------------------------------------------------------------------------
# unitary principal series

PS_TAGS = ("not-skew", "skew-nontrivial", "skew-trivial")


def _labels(system, rank, long_pair, short_pair=None):
    """long_pair on the long or simply laced orbits of system+rank, short_pair
    (default long_pair) on the short one; None for a factor with no simple
    roots (A_0, D_1, B_0)."""
    try:
        orbits = simple_orbits(system, rank)
    except ValueError:
        return None
    if short_pair is None:
        short_pair = long_pair
    return LabelFunction([(idx, *(short_pair if cls == "short" else long_pair))
                          for cls, idx in orbits], QBase(1))


class PSComponent:
    """One tensor factor of a unitary principal-series Hecke algebra.

    labels is None when the factor is empty (A_0, D_1, B_0).  crossed marks
    the D factors that come with the extra involution s_{2 beta};
    affine_exp is the exponent of the extra affine reflection of the middle
    B block.
    """

    __slots__ = ("system", "rank", "source", "labels", "crossed", "affine_exp")

    def __init__(self, system, rank, source, labels=None, crossed=False,
                 affine_exp=None):
        self.system = system
        self.rank = rank
        self.source = source
        self.labels = labels
        self.crossed = crossed
        self.affine_exp = affine_exp

    @property
    def empty(self) -> bool:
        return self.labels is None

    def crossed_equivalent(self) -> "PSComponent":
        """The crossed product with <s_{2 beta}> is again an affine Hecke
        algebra: type C of the same rank, parameter 1 on the long roots."""
        if not self.crossed:
            raise ValueError("component carries no extra involution")
        return PSComponent("C", self.rank, self.source,
                           _labels("C", self.rank, (0, 0), (1, 1)))

    def match(self) -> MatchResult:
        """This factor's labels against the bound table."""
        if self.labels is None:
            return MatchResult("empty")
        return component_match((f"{self.system}{self.rank}", self.labels))

    def to_json(self) -> dict:
        return {"system": self.system, "rank": self.rank, "source": self.source,
                "labels": None if self.labels is None else self.labels.to_json(),
                "crossed": self.crossed, "affine_exp": self.affine_exp}

    def __repr__(self):
        extra = " (empty)" if self.empty else ""
        if self.crossed:
            extra += " x<s>"
        return f"PSComponent({self.system}{self.rank}, {self.source}{extra})"


def unitary_ps_descriptor(n, ramified, segments):
    """Tensor factors of the Hecke algebra of a unitary principal series.

    n is the number of variables, ramified tells whether the quadratic
    extension ramifies.  segments lists (tag, size) with tag one of
    'not-skew', 'skew-nontrivial', 'skew-trivial', one per packet of equal
    characters of the torus, plus optionally ('trivial', n0) as the last
    entry when n is odd -- the middle block.  Sizes must fill floor(n/2).

    Unramified: not-skew gives A_{size-1} with labels (2, 2); skew (always
    trivial on units there) gives B_size with (2, 2) long and (1, 1) short;
    the middle block gives B_n0 with (2, 2) long, (3, 1) short and an extra
    affine reflection of exponent 1.  Ramified, n even: A with (1, 1),
    skew-nontrivial D with (1, 1) crossed, skew-trivial C with (1, 1).
    Ramified, n odd: the skew classes swap their shapes (nontrivial C,
    trivial D crossed) and the middle block is B_n0 with all labels 1.
    """
    n = int(n)
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if n > UNITARY_N_CAP:
        raise SizeLimitError(f"n = {n} exceeds {UNITARY_N_CAP}")
    segments = [(tag, int(size)) for tag, size in segments]
    n0 = 0
    if segments and segments[-1][0] == "trivial":
        n0 = segments.pop()[1]
        if n % 2 == 0:
            raise ValueError("the middle block exists only for odd n")
        if n0 < 0:
            raise ValueError(f"middle block size must be >= 0, got {n0}")
    for tag, size in segments:
        if tag not in PS_TAGS:
            raise ValueError(f"unknown character class {tag!r}")
        if size < 1:
            raise ValueError(f"segment sizes must be positive, got {size}")
        if tag == "skew-nontrivial" and not ramified:
            raise ValueError(
                "characters skew and nontrivial on units need a ramified extension")
    filled = sum(size for _, size in segments) + n0
    if filled != n // 2:
        raise ValueError(f"signature fills {filled}, torus rank is {n // 2}")

    comps = []
    for tag, size in segments:
        if tag == "not-skew":
            lam = 1 if ramified else 2
            comps.append(PSComponent("A", size - 1, tag,
                                     _labels("A", size - 1, (lam, lam))))
        elif tag == "skew-nontrivial":
            if n % 2 == 0:
                comps.append(PSComponent("D", size, tag,
                                         _labels("D", size, (1, 1)), crossed=True))
            else:
                comps.append(PSComponent("C", size, tag, _labels("C", size, (1, 1))))
        elif not ramified:
            comps.append(PSComponent("B", size, tag,
                                     _labels("B", size, (2, 2), (1, 1))))
        elif n % 2 == 0:
            comps.append(PSComponent("C", size, tag, _labels("C", size, (1, 1))))
        else:
            comps.append(PSComponent("D", size, tag,
                                     _labels("D", size, (1, 1)), crossed=True))
    if n % 2 and n0 > 0:
        labels = _labels("B", n0, (1, 1)) if ramified else _labels("B", n0, (2, 2), (3, 1))
        comps.append(PSComponent("B", n0, "trivial", labels, affine_exp=1))
    return tuple(comps)


def descriptor_csv(components) -> str:
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["system", "rank", "source", "crossed", "affine_exp", "labels"])
    for c in components:
        lab = "-" if c.labels is None else repr(c.labels)
        w.writerow([c.system, c.rank, c.source, c.crossed,
                    c.affine_exp if c.affine_exp is not None else "", lab])
    return buf.getvalue()


def quasisplit_ps_q(w_orbit, i_orbit) -> int:
    """q-parameter exponent of a principal-series root of a quasi-split
    group: the size of the full Galois orbit of the attached simple factors
    divided by the size of the inertial orbit.  The quotient counts the
    unramified part, so the sizes must divide."""
    w, i = int(w_orbit), int(i_orbit)
    if w < 1 or i < 1:
        raise ValueError("orbit sizes must be positive")
    if w % i:
        raise ValueError(
            f"inertial orbit size {i} must divide the Galois orbit size {w}")
    return w // i


# ---------------------------------------------------------------------------
# case database

def _dual_type(rel: str) -> str:
    letter, rank = rel[0], rel[1:]
    if letter in "BC":
        letter = {"B": "C", "C": "B"}[letter]
        if letter + rank == "C2":
            return "B2"
    return letter + rank


class CaseRecord:
    """One database entry: group, standard Levi subset, relative root
    system, and per-orbit parameter data.

    Orbit entry kinds: 'pair' (exact q_F-exponents e_alpha, e_star),
    'choices' (a finite list of possible e_alpha, fixed e_star), 'none'
    (the orbit does not contribute, q = q* = 1), 'family' (a classical
    family with the listed t options decides), 'open' (not known; an
    'expectation' is a conjecture, never data).
    """

    __slots__ = ("group", "levi", "aliases", "relative", "per_orbit",
                 "conclusion", "citation", "description", "instances")

    def __init__(self, raw: dict):
        self.group = raw["group"]
        self.levi = tuple(sorted(raw.get("levi", ())))
        self.aliases = tuple(tuple(sorted(a)) for a in raw.get("aliases", ()))
        self.relative = raw["relative"]
        self.per_orbit = tuple(raw["per_orbit"])
        self.conclusion = raw.get("conclusion")
        self.citation = raw.get("citation")
        self.description = raw.get("description")
        self.instances = tuple(raw.get("instances", ()))

    def orbit(self, name: str) -> dict:
        for entry in self.per_orbit:
            if entry["orbit"] == name:
                return entry
        raise KeyError(f"record has no orbit {name!r}")

    def open_orbits(self):
        return tuple(e["orbit"] for e in self.per_orbit if e["kind"] == "open")

    @property
    def is_open(self) -> bool:
        return bool(self.open_orbits())

    @staticmethod
    def _entry_options(entry):
        kind = entry["kind"]
        if kind == "pair":
            return [(entry["e_alpha"], entry.get("e_star", 0))]
        if kind == "choices":
            star = entry.get("e_star", 0)
            return [(e, star) for e in entry["e_alpha_options"]]
        if kind == "none":
            return [(0, 0)]
        return None

    def _report(self, per_orbit):
        out = []
        for piece, entries in self._pieces_for(self.relative, per_orbit):
            option_lists = [self._entry_options(e) for e in entries]
            if None in option_lists:
                continue
            dual = _dual_type(piece)
            for combo in itertools.product(*option_lists):
                labels = [labels_from_q(ParamPair(*pair)) for pair in combo]
                # relative (long, short) become (short, long) in the dual
                lf = _labels(*parse_type(dual), labels[-1], labels[0])
                out.append((self.group, self.levi, piece, combo, component_match((dual, lf))))
        return out

    @staticmethod
    def _pieces_for(relative, per_orbit):
        if "x" in relative:
            groups = {}
            for e in per_orbit:
                key = e.get("component", e["orbit"])
                groups.setdefault(key, (e.get("system", "A1"), []))[1].append(e)
            pieces = list(groups.values())
        else:
            pieces = [(relative, list(per_orbit))]
        out = []
        for system, entries in pieces:
            tags = {e["orbit"]: e for e in entries}
            if "long" in tags or "short" in tags:
                entries = [tags[t] for t in ("long", "short") if t in tags]
            out.append((system, entries))
        return out

    def match_report(self):
        """Bound-table checks for every fully determined label combination
        of this record, including its instances.  Orbits of kind 'family'
        or 'open' leave their piece unchecked."""
        rows = self._report(self.per_orbit)
        for inst in self.instances:
            rows.extend(self._report(inst["per_orbit"]))
        return rows

    def to_json(self) -> dict:
        return {"group": self.group, "levi": list(self.levi),
                "aliases": [list(a) for a in self.aliases],
                "relative": self.relative,
                "per_orbit": [dict(e) for e in self.per_orbit],
                "instances": [dict(i) for i in self.instances],
                "conclusion": self.conclusion, "citation": self.citation,
                "description": self.description}

    def __repr__(self):
        levi = ",".join(f"a{i}" for i in self.levi) or "empty"
        flag = " OPEN" if self.is_open else ""
        return f"CaseRecord({self.group}, J={{{levi}}}, {self.relative}{flag})"


_DB_CACHE = None


def _load_db():
    global _DB_CACHE
    if _DB_CACHE is None:
        text = resources.files("hecke").joinpath("data/cases.json").read_text()
        raw = json.loads(text)
        _DB_CACHE = (raw["version"], tuple(CaseRecord(r) for r in raw["records"]))
    return _DB_CACHE


def db_version() -> int:
    return _load_db()[0]


def db_records():
    return _load_db()[1]


def case_lookup(group, levi=()) -> CaseRecord:
    """Record for (group, Levi subset); subsets conjugate to a stored one
    resolve to the stored record.  Simple roots are numbered from 1."""
    key = tuple(sorted(int(i) for i in levi))
    group = str(group)
    for rec in db_records():
        if rec.group == group and (key == rec.levi or key in rec.aliases):
            return rec
    known = sorted({r.group for r in db_records()})
    if group not in known:
        raise KeyError(f"unknown group {group!r}; database covers {known}")
    raise KeyError(f"no record for {group} with Levi subset {key}")


def db_integrity_report():
    """Every determined label combination in the database against the bound
    table.  Returns (group, levi, piece, exponents, MatchResult) rows; the
    database is consistent when every result is ok."""
    rows = []
    for rec in db_records():
        rows.extend(rec.match_report())
    return rows
