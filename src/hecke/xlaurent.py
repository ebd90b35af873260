"""Laurent polynomials and their ratios in one symbol over Q[v, v^-1].

Used for the lattice direction X_alpha in cross relations and mu-factors, and
for the variable z in rank-one intertwiners.  Coefficients are VRat.
`div_exact` divides in X and `synth_div` by X - r, both through qfield's one
long division loop (long_div) over dense VRat lists.  `shaped_roots` makes a
Horner pass (_horner) for each candidate root sign * v^k on the packed ints of
qfield (every coefficient it divides lies in Z[v, v^-1] once one scalar clears
the denominators), keeps or drops the candidate by the exact remainder, and
decodes only the leftover.
"""
from __future__ import annotations

from math import gcd, lcm
from operator import truediv

from .qfield import (K, PONE, VR_ONE, VR_ZERO, VRat, bounded, l1_norm, long_div,
                     low_slots, pack, packed_vrat, pstr)


class Laurent:
    """Finite sum of c_e * X^e with e in Z and c_e in Q[v, v^-1]."""

    __slots__ = ("c",)

    def __init__(self, coeffs: dict[int, VRat] | None = None):
        c = {}
        for e, x in (coeffs or {}).items():
            if isinstance(x, int):
                x = VRat(x)
            if not x.is_zero():
                c[e] = x
        object.__setattr__(self, "c", c)

    def __setattr__(self, *a):
        raise AttributeError("Laurent is immutable")

    @staticmethod
    def x_pow(e: int, coeff: VRat | int = 1) -> "Laurent":
        return Laurent({e: coeff})

    @staticmethod
    def const(x: VRat | int) -> "Laurent":
        return Laurent({0: x})

    def is_zero(self) -> bool:
        return not self.c

    def __eq__(self, other) -> bool:
        if not isinstance(other, Laurent):
            return NotImplemented
        return self.c == other.c

    def __hash__(self):
        return hash(tuple(sorted(self.c.items(), key=lambda t: t[0])))

    def __add__(self, other: "Laurent") -> "Laurent":
        c = dict(self.c)
        for e, x in other.c.items():
            c[e] = c.get(e, VRat(0)) + x
        return Laurent(c)

    def __neg__(self) -> "Laurent":
        return Laurent({e: -x for e, x in self.c.items()})

    def __sub__(self, other: "Laurent") -> "Laurent":
        return self + (-other)

    def __mul__(self, other) -> "Laurent":
        if isinstance(other, (VRat, int)):
            return Laurent({e: x * other for e, x in self.c.items()})
        c: dict[int, VRat] = {}
        for e1, x1 in self.c.items():
            for e2, x2 in other.c.items():
                e = e1 + e2
                c[e] = c.get(e, VRat(0)) + x1 * x2
        return Laurent(c)

    __rmul__ = __mul__

    def shift(self, k: int) -> "Laurent":
        """Multiply by X^k."""
        return Laurent({e + k: x for e, x in self.c.items()})

    def min_exp(self) -> int:
        return min(self.c) if self.c else 0

    def max_exp(self) -> int:
        return max(self.c) if self.c else 0

    def subst(self, val: VRat) -> VRat:
        """Evaluate at X = val (val must be invertible if negative exponents occur)."""
        out = VRat(0)
        for e, x in self.c.items():
            out = out + x * val ** e
        return out

    def terms(self):
        return sorted(self.c.items(), key=lambda t: t[0])

    def to_str(self, symbol: str = "X") -> str:
        if not self.c:
            return "0"
        parts = []
        for e, x in sorted(self.c.items(), key=lambda t: -t[0]):
            cs = _coeff_str(x)
            if e == 0:
                body = cs
            else:
                xs = symbol if e == 1 else f"{symbol}^{e}"
                body = xs if cs == "1" else (f"-{xs}" if cs == "-1" else f"{cs}*{xs}")
            if parts and not body.startswith("-"):
                parts.append("+" + body)
            else:
                parts.append(body)
        return "".join(parts)

    __repr__ = to_str


def _coeff_str(x: VRat) -> str:
    if x.den == PONE:
        s = pstr(x.num)
        # parenthesize sums so the printed term is unambiguous
        if any(ch in s[1:] for ch in "+-"):
            return f"({s})"
        return s
    return str(x)


L_ONE = Laurent.const(1)


def _dense(f: Laurent) -> list:
    """f's coefficients from X^min to X^max, low first, zeros filled in."""
    return [f.c.get(e, VR_ZERO) for e in range(f.min_exp(), f.max_exp() + 1)]


def div_exact(f: Laurent, g: Laurent) -> Laurent:
    """Exact Laurent division f/g; raises ArithmeticError on nonzero remainder.

    Long division in X (qfield.long_div) once X^min is cleared from f and g;
    the quotient by g's leading coefficient raises ValueError unless that is
    a unit c*v^k of Q[v, v^-1].
    """
    if g.is_zero():
        raise ZeroDivisionError("Laurent division by zero")
    gs = _dense(g)
    quo, rem = long_div(_dense(f), gs, (lambda c, _: c) if gs[-1].is_one() else truediv)
    if any(rem):
        raise ArithmeticError("inexact Laurent division")
    return Laurent(dict(enumerate(quo, f.min_exp() - g.min_exp())))


def synth_div(f: Laurent, root: VRat) -> tuple["Laurent", VRat]:
    """Divide f by (X - root); returns (quotient, rem) with f = (X-root)*quotient + rem*X^min.

    Long division (qfield.long_div) of f's coefficients, X^min up, by
    [-root, 1], so rem = f(root) * root^-min(f), zero iff root is a root of f
    (roots must be invertible values).
    """
    if not root:
        raise ZeroDivisionError("synthetic division needs an invertible root")
    quo, (rem,) = long_div(_dense(f), [-root, 1], truediv)
    return Laurent(dict(enumerate(quo, f.min_exp()))), rem


def newton_exponents(f: Laurent) -> list[int]:
    """The k, ascending, for which sign * v^k can be a root of f.

    For X = sign * v^k the term c_e X^e has v-adic valuation
    ord_v(c_e) + k*e, and a sum vanishes only if its least valuation is
    reached at least twice.  So -k is an integer slope of the lower convex
    hull of the points (e, ord_v(c_e)): the v-adic Newton polygon.
    """
    hull: list[tuple[int, int]] = []
    for e, w in sorted((e, x.ord_v()) for e, x in f.c.items()):
        while len(hull) > 1:
            (e0, w0), (e1, w1) = hull[-2], hull[-1]
            if (e1 - e0) * (w - w0) - (w1 - w0) * (e - e0) > 0:
                break
            hull.pop()
        hull.append((e, w))
    ks = []
    for (e0, w0), (e1, w1) in zip(hull, hull[1:]):
        k, r = divmod(w0 - w1, e1 - e0)
        if not r:
            ks.append(k)
    return sorted(ks)


def _integral(f: Laurent) -> tuple[VRat, dict[int, VRat]]:
    """(s, {e: s * c_e}) for the rational s > 0 that puts every coefficient in
    Z[v, v^-1] with integer content 1: each denominator is c*v^k, and s is the
    lcm of the c over the content left (1 on the mu-factors with c' = 1).
    """
    d = lcm(*(x.den[-1] for x in f.c.values()))
    g = gcd(*(gcd(*x.num) * (d // x.den[-1]) for x in f.c.values()))
    if d == g:
        return VR_ONE, f.c
    s = VRat(d, g)
    return s, {e: x * s for e, x in f.c.items()}


def _horner(ys: list[int], sign: int) -> tuple[list[int], int]:
    """Divide sum ys[i] Y^i by Y - sign on packed ints: (quotient, remainder)."""
    acc, quo = 0, []
    for y in reversed(ys):
        acc = y + acc if sign > 0 else y - acc
        quo.append(acc)
    rem = quo.pop()
    quo.reverse()
    return quo, rem


def shaped_roots(f: Laurent):
    """Extract all roots of the shape sign * v^k with multiplicity.

    Returns ({(sign, k): multiplicity}, leftover) where leftover has no roots
    of that shape.  The candidates for k are the integer slopes of the v-adic Newton polygon
    of f (see newton_exponents); the roots of each quotient are roots of f,
    so the candidates of f serve throughout.  Each candidate, with either
    sign, is tested exactly by the remainder of one synthetic division, and
    the quotient is kept for as long as that remainder is zero.

    The divisions run on the packed ints of s * f (see _integral): X = v^k Y
    puts every coefficient at one v-offset m, so dividing by Y - sign adds
    ints.  A pass over coefficients of total l1 norm h keeps every slot below
    h, so its zero test is exact while h < 2^(K-1); a quotient of n
    coefficients has norm at most n h.  Only the leftover is decoded.
    """
    if f.is_zero():
        raise ZeroDivisionError("zero polynomial has no root profile")
    ks = newton_exponents(f)
    s, cs = _integral(f)
    lo, size = f.min_exp(), f.max_exp() - f.min_exp() + 1
    # the coefficient of X^(lo+i) is v^vals[i] * ns[i], with ns[i] = P(2^K)
    vals, ns, bound = [0] * size, [0] * size, 0
    for e, x in cs.items():
        vals[e - lo], ns[e - lo], h = pack(x)
        bound += h
    bound = bounded(bound, lambda: bound)
    roots: dict[tuple[int, int], int] = {}
    for sign in (1, -1):
        for k in ks:
            m = min(val + k * e for e, (val, n) in enumerate(zip(vals, ns), lo) if n)
            ys = [n << K * (val + k * e - m) if n else 0
                  for e, (val, n) in enumerate(zip(vals, ns), lo)]
            kept = 0
            quo, rem = _horner(ys, sign)
            while not rem:
                kept += 1
                bound = bounded(bound * len(quo), lambda: sum(map(l1_norm, quo)))
                ys = quo
                quo, rem = _horner(ys, sign)
            if kept:
                roots[(sign, k)] = kept
                # X - sign v^k = v^k (Y - sign), so X^(lo+i) carries
                # v^(m - k (kept + lo + i)) ys[i]; zero low slots go into val
                vals, ns = [], []
                for i, y in enumerate(ys):
                    z = low_slots(y) if y else 0
                    vals.append(m - k * (kept + lo + i) + z)
                    ns.append(y >> K * z)
    if not roots:
        return roots, f
    left = {lo + i: packed_vrat(val, n) for i, (val, n) in enumerate(zip(vals, ns)) if n}
    return roots, Laurent(left if s.is_one() else {e: x / s for e, x in left.items()})


class LaurentRatio:
    """Ratio of two Laurent polynomials; equality by cross-multiplication."""

    __slots__ = ("num", "den")

    def __init__(self, num: Laurent, den: Laurent = L_ONE):
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, *a):
        raise AttributeError("LaurentRatio is immutable")

    @staticmethod
    def const(x: VRat | int) -> "LaurentRatio":
        return LaurentRatio(Laurent.const(x))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentRatio):
            return NotImplemented
        return (self.num * other.den) == (other.num * self.den)

    def __add__(self, other: "LaurentRatio") -> "LaurentRatio":
        return LaurentRatio(self.num * other.den + other.num * self.den,
                            self.den * other.den)

    def __neg__(self) -> "LaurentRatio":
        return LaurentRatio(-self.num, self.den)

    def __sub__(self, other: "LaurentRatio") -> "LaurentRatio":
        return self + (-other)

    def __mul__(self, other) -> "LaurentRatio":
        if isinstance(other, (VRat, int)):
            return LaurentRatio(self.num * other, self.den)
        return LaurentRatio(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other: "LaurentRatio") -> "LaurentRatio":
        if other.num.is_zero():
            raise ZeroDivisionError("division by zero ratio")
        return LaurentRatio(self.num * other.den, self.den * other.num)

    def to_str(self, symbol: str = "X") -> str:
        return f"({self.num.to_str(symbol)})/({self.den.to_str(symbol)})"

    __repr__ = to_str
