"""Exact coefficient arithmetic in v, with v^2 = q.

A polynomial is a tuple of ints, index = degree, no trailing zeros; () is zero.
VRat is the ring Q[v, v^-1], kept in a canonical form so that equality of
coefficients is plain structural equality.  The affine Hecke algebra keeps
its coefficients, all in Z[v, v^-1], as plain ints n = P(2^K) (Kronecker
substitution, one balanced K-bit slot per coefficient of P, where P is a
polynomial in v or, in the algebra, in t = v^g), so that its sums and
products are single big-int operations; l1_norm, value_at_one and low_slots
read such ints, pack converts an int, Fraction or VRat into one, pack_slots a
list of coefficients, and packed_vrat decodes one.  One loop divides, over
the dense coefficient lists of any ring (long_div: pdivmod, xlaurent.div_exact
and synth_div), and one prints v-powers (_vstr: pstr, and packed_str for the
t-parts of a packed coefficient, which interleave joins).
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd
from sys import byteorder
from typing import Iterable, Tuple

from . import SizeLimitError  # re-exported for the modules and tests that import it here

Poly = Tuple[int, ...]

PZERO: Poly = ()
PONE: Poly = (1,)


def pnorm(coeffs: Iterable[int]) -> Poly:
    """Strip trailing zero coefficients."""
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def padd(a: Poly, b: Poly) -> Poly:
    if len(a) < len(b):
        a, b = b, a
    c = list(a)
    for i, x in enumerate(b):
        c[i] += x
    return pnorm(c)


def pneg(a: Poly) -> Poly:
    return tuple(-x for x in a)


def pmul(a: Poly, b: Poly) -> Poly:
    if not a or not b:
        return PZERO
    if len(a) > len(b):
        a, b = b, a
    if len(a) == 1:  # a monomial scales b: no carries, no zero ends
        return tuple([a[0] * y for y in b])
    c = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                c[j] += x * y
    return pnorm(c)


def pshift(a: Poly, k: int) -> Poly:
    """Multiply by v^k, k >= 0."""
    if not a:
        return PZERO
    return (0,) * k + a


def pcontent(a: Poly) -> int:
    return gcd(*a)   # gcd() of nothing is 0


def pprimitive(a: Poly) -> Poly:
    """Primitive part with positive leading coefficient; () stays ()."""
    if not a:
        return PZERO
    c = pcontent(a)
    if a[-1] < 0:
        c = -c
    return tuple(x // c for x in a)


def long_div(a, b, div) -> tuple[list, list]:
    """(quo, rem) with a = quo*b + rem, for dense coefficient lists, low first,
    b[-1] != 0; rem keeps the len(b) - 1 low entries (fewer if a is shorter).
    div(c, lead) is the ring's exact quotient and raises where there is none.
    The lead term of b cancels by construction, and zero terms cost nothing."""
    rem, db, lead = list(a), len(b) - 1, b[-1]
    tail = [(j, x) for j, x in enumerate(b[:-1]) if x]
    quo = [0] * max(len(rem) - db, 0)
    for i in range(len(rem) - 1, db - 1, -1):
        c = rem.pop()
        if c:
            q = quo[i - db] = div(c, lead)
            for j, x in tail:
                rem[i - db + j] -= q * x
    return quo, rem


def _zdiv(c: int, lead: int) -> int:
    q, r = divmod(c, lead)
    if r:
        raise ArithmeticError("polynomial quotient not integral")
    return q


def pdivmod(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    """Long division in Z[v]: a = quo*b + rem with deg rem < deg b.

    Each step divides by lead(b) exactly and raises ArithmeticError when that
    is not an integer.  By Gauss's lemma no step fails when b is monic, or
    when b is primitive and divides a.
    """
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    quo, rem = long_div(a, b, _zdiv)
    return pnorm(quo), pnorm(rem)


def pdiv_exact(a: Poly, b: Poly) -> Poly:
    """Exact division in Z[v]; raises if b does not divide a over Z."""
    quo, rem = pdivmod(a, b)
    if rem:
        raise ArithmeticError("inexact polynomial division")
    return quo


def pgcd(a: Poly, b: Poly) -> Poly:
    """Primitive gcd in Z[v] (positive leading coefficient)."""
    a, b = pprimitive(a), pprimitive(b)
    if len(a) < len(b):
        a, b = b, a
    while b:
        # pseudo-remainder: lead(b)^(deg a - deg b + 1) * a makes every step integral
        m = b[-1] ** (len(a) - len(b) + 1)
        a, b = b, pprimitive(pdivmod(tuple(x * m for x in a), b)[1])
    return a


def _valuation(p: Poly) -> int:
    """Index of the first nonzero coefficient of p != () (0 if none); most have p[0]."""
    return 0 if p[0] else p.index(next(filter(None, p), 0))


def pstr(a: Poly) -> str:
    """Print a like 'v^2-1', '2*v', '-v^3+v-4', '0'."""
    bare, star = (_powers([k for k, c in enumerate(a) if c]) if len(a) > len(_BARE) else
                  (_BARE, _STAR))
    return _vstr(a, len(a) - 1, 1, bare, star) or "0"


def pparse(s: str) -> Poly:
    """Inverse of pstr."""
    s = s.replace(" ", "")
    if not s:
        raise ValueError("empty polynomial")
    if s == "0":
        return PZERO
    # split into signed terms
    terms = []
    buf = ""
    for i, ch in enumerate(s):
        if ch in "+-" and i > 0 and s[i - 1] not in "+-^*":
            terms.append(buf)
            buf = ch
        else:
            buf += ch
    terms.append(buf)
    coeffs: dict[int, int] = {}
    for t in terms:
        sign = 1
        while t and t[0] in "+-":
            if t[0] == "-":
                sign = -sign
            t = t[1:]
        if not t:
            raise ValueError(f"malformed term in polynomial: {s!r}")
        if "v" not in t:
            c, k = int(t), 0
        else:
            head, _, tail = t.partition("v")
            c = int(head.rstrip("*")) if head.rstrip("*") else 1
            if tail.startswith("^"):
                k = int(tail[1:])
            elif tail:
                raise ValueError(f"malformed term in polynomial: {s!r}")
            else:
                k = 1
        if k < 0:
            raise ValueError("negative exponent in polynomial")
        coeffs[k] = coeffs.get(k, 0) + sign * c
    out = [0] * (max(coeffs) + 1)
    for k, c in coeffs.items():
        out[k] = c
    return pnorm(out)


class VRat:
    """Element of Q[v, v^-1]: num/den with num in Z[v] and den = c*v^k, canonical.

    Canonical form: no shared power of v, joint integer content 1, c > 0.  No
    gcd is taken: a denominator or divisor that is not c*v^k raises ValueError,
    even where it divides num (zero divided by anything nonzero is zero).
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=PONE):
        if isinstance(num, int):
            num = (num,) if num else PZERO
        if isinstance(den, int):
            den = (den,) if den else PZERO
        num, den = pnorm(num), pnorm(den)
        if not den:
            raise ZeroDivisionError("zero denominator")
        if not num:
            den = PONE
        else:
            vb = _valuation(den)
            if vb < len(den) - 1:
                raise ValueError(f"({pstr(num)})/({pstr(den)}) is outside Q[v, v^-1]")
            va = _valuation(num)
            m = va if va < vb else vb
            if m:
                num, den = num[m:], den[m:]
            c = gcd(pcontent(num), den[-1])
            if c > 1:
                num = tuple(x // c for x in num)
                den = den[:-1] + (den[-1] // c,)
        if den[-1] < 0:
            num, den = pneg(num), pneg(den)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, *a):
        raise AttributeError("VRat is immutable")

    @staticmethod
    def v_pow(k: int) -> "VRat":
        """v^k for any integer k."""
        if k >= 0:
            return VRat(pshift(PONE, k))
        return VRat(PONE, pshift(PONE, -k))

    @staticmethod
    def from_fraction(f: Fraction) -> "VRat":
        return VRat(f.numerator, f.denominator)

    def is_zero(self) -> bool:
        return not self.num

    def is_one(self) -> bool:
        return self.num == PONE and self.den == PONE

    def ord_v(self) -> int:
        """v-adic valuation: order of vanishing of num minus that of den at v = 0."""
        if not self.num:
            raise ValueError("zero has no v-adic valuation")
        return _valuation(self.num) - _valuation(self.den)

    def __bool__(self) -> bool:
        return bool(self.num)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = VRat(other)
        if not isinstance(other, VRat):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        if self.den == PONE and len(self.num) < 2:   # equal to an int: hash as it
            return hash(sum(self.num))
        return hash((self.num, self.den))

    def __add__(self, other):
        if isinstance(other, int):
            other = VRat(other)
        if not isinstance(other, VRat):
            return NotImplemented
        return VRat(padd(pmul(self.num, other.den), pmul(other.num, self.den)),
                    pmul(self.den, other.den))

    __radd__ = __add__

    def __neg__(self) -> "VRat":
        return VRat(pneg(self.num), self.den)

    def __sub__(self, other):
        if isinstance(other, int):
            other = VRat(other)
        if not isinstance(other, VRat):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "VRat":
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            other = VRat(other)
        if not isinstance(other, VRat):
            return NotImplemented
        return VRat(pmul(self.num, other.num), pmul(self.den, other.den))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, int):
            other = VRat(other)
        if not isinstance(other, VRat):
            return NotImplemented
        return VRat(pmul(self.num, other.den), pmul(self.den, other.num))

    def __rtruediv__(self, other) -> "VRat":
        if isinstance(other, int):
            other = VRat(other)
        return other / self

    def __pow__(self, k: int) -> "VRat":
        if k < 0:
            return VRat(self.den, self.num) ** (-k)
        out = VRat(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def is_constant(self) -> bool:
        return len(self.num) <= 1 and len(self.den) <= 1

    def as_fraction(self) -> Fraction:
        if not self.is_constant():
            raise ValueError("not a constant")
        return Fraction(self.num[0] if self.num else 0, self.den[0])

    def __str__(self) -> str:
        return f"({pstr(self.num)})/({pstr(self.den)})"

    __repr__ = __str__

    @staticmethod
    def parse(s: str) -> "VRat":
        """Inverse of str: '(v^2-1)/(1)'; also accepts a bare polynomial."""
        s = s.replace(" ", "")
        if s.startswith("(") and ")/(" in s and s.endswith(")"):
            num_s, den_s = s[1:-1].split(")/(")
            return VRat(pparse(num_s), pparse(den_s))
        return VRat(pparse(s))


VR_ZERO = VRat(0)
VR_ONE = VRat(1)


# slot width of the packed ints: 64-bit slots match the int64 format "q"
K = 64
_HALF_SLOT = (1 << (K - 1)).to_bytes(K // 8, "little")
_ONES = (1 << K) - 1   # 2^K = 1 mod _ONES, so n = P(2^K) = P(1) mod _ONES


def _slots(n: int) -> list:
    """P's coefficients, low first and zero ends kept, for n = P(2^K), all |c| < 2^(K-1).

    Adding 2^(K-1) to every slot makes each one nonnegative, so the slots are
    the base-2^K digits; xor with the same bias leaves c mod 2^K in each, which
    a "q" (int64) view reads back as the signed c.
    """
    slots = abs(n).bit_length() // K + 1
    bias = int.from_bytes(_HALF_SLOT * slots, "little")
    raw = ((n + bias) ^ bias).to_bytes(slots * K // 8, byteorder)
    return memoryview(raw).cast("q").tolist()


def _unpack(n: int) -> Poly:
    """The P with P(2^K) = n, all |coefficients| < 2^(K-1)."""
    return pnorm(_slots(n))


def l1_norm(n: int) -> int:
    """The l1 norm of P for n = P(2^K), all |coefficients| < 2^(K-1)."""
    return sum(map(abs, _slots(n)))


def value_at_one(n: int) -> int:
    """P(1) for n = P(2^K) with l1 norm below 2^(K-1): n's balanced residue mod 2^K - 1."""
    r = n % _ONES
    return r - _ONES if r >> (K - 1) else r


def pack(x) -> tuple[int, int, int]:
    """x (int, Fraction or VRat) in Z[v, v^-1] as (val, n, h): x = v^val * P.

    n = P(2^K) with P(0) != 0, so zero low slots are in val, and h is the l1
    norm of P; zero is (0, 0, 0).  ValueError outside Z[v, v^-1], and
    SizeLimitError when h reaches 2^(K-1), past which a slot no longer decodes.
    """
    if isinstance(x, int):
        val, num = 0, (x,) if x else PZERO
    else:
        if not isinstance(x, VRat):
            x = VRat.from_fraction(Fraction(x))
        val, num = 1 - len(x.den), x.num
        if x.den != pshift(PONE, -val):
            raise ValueError(f"coefficient {x} is not in Z[v, v^-1]")
    h = sum(map(abs, num))
    if h >> (K - 1):
        raise SizeLimitError(f"coefficient bound {h} reaches 2^{K - 1}")
    k = _valuation(num) if num else 0
    return val + k, pack_slots(num[k:]), h


def pack_slots(num) -> int:
    """P(2^K) for the coefficients num of P, each |c| < 2^(K-1).

    One pass, the inverse of _unpack: each slot goes into an int64 view as
    c mod 2^K, and the bytes read as one int; xor with the 2^(K-1) bias gives
    c + 2^(K-1) per slot, so subtracting the bias leaves P(2^K).  A
    shift-and-add per slot would copy the growing int each time.
    """
    buf = bytearray(K // 8 * len(num))
    view = memoryview(buf).cast("q")
    for i, c in enumerate(num):
        if c:
            view[i] = c
    bias = int.from_bytes(_HALF_SLOT * len(num), "little")
    return (int.from_bytes(buf, byteorder) ^ bias) - bias


def bounded(bound: int, exact) -> int:
    """bound, or exact() when bound reaches 2^(K-1); SizeLimitError if that does too.

    Bounds only grow (cancellation never lowers them), so a bound that reaches
    2^(K-1) is taken again from exact(): the exact norms of the operands, which
    decode because their own bounds are below 2^(K-1).
    """
    if bound >> (K - 1):
        bound = exact()
        if bound >> (K - 1):
            raise SizeLimitError(f"coefficient bound {bound} reaches 2^{K - 1}")
    return bound


def packed_vrat(val: int, n) -> VRat:
    """v^val * P as a VRat, for n = P(2^K) or P's coefficients."""
    c = _unpack(n) if isinstance(n, int) else tuple(n)
    return VRat(pshift(c, val), PONE) if val >= 0 else VRat(c, pshift(PONE, -val))


def _powers(xs) -> tuple:
    """{x: "v^x"} and {x: "*v^x"} for the exponents xs >= 0, "1" and "" at 0."""
    bare = {x: "1" if x == 0 else "v" if x == 1 else f"v^{x}" for x in xs}
    return bare, {x: "*" + b if x else "" for x, b in bare.items()}


_BARE, _STAR = _powers(range(64))   # fixed; a wider coefficient builds its own for one call


def _vstr(cs, top: int, step: int, bare, star) -> str:
    """sum cs[i] v^(top - step (len(cs) - 1 - i)), highest first, '' if all are
    zero: a nonzero cs[i] is a lookup in bare or star and at most one int
    format.  Exponents stop at 0, so a slot below v^0 must be zero."""
    return "".join([("+" + bare[x] if c == 1 else "-" + bare[x] if c == -1 else
                     f"+{c}{star[x]}" if c > 0 else f"{c}{star[x]}")
                    for c, x in zip(reversed(cs), range(top, -1, -step)) if c]).lstrip("+")


def packed_str(val: int, row, g: int) -> str:
    """sum_r v^(val + r) Q_r(v^g) as its canonical VRat pair '(num)/(den)', for
    row = (r, Q_r(2^K), r', Q_r'(2^K), ...): one part straight from its
    t-slots, several interleaved in v; the denominator is one lookup."""
    if len(row) == 2:
        cs, e, step = _slots(row[1]), val + row[0], g
    else:
        cs, e, step = interleave(row, g), val, 1
    low = e + step * _valuation(cs)
    d = -low if low < 0 else 0   # the denominator's v-power
    top = e + d + step * (len(cs) - 1)
    wide = max(top, d) + 1
    bare, star = _powers(range(wide)) if wide > len(_BARE) else (_BARE, _STAR)
    num = _vstr(cs, top, step, bare, star)
    return f"({num})/({bare[d]})" if num else "(0)/(1)"


def interleave(row, g: int) -> list:
    """The coefficients of sum_r v^r Q_r(v^g), low first and zero ends kept, for
    row = (r, Q_r(2^K), r', Q_r'(2^K), ...)."""
    qs = [(row[i], _slots(row[i + 1])) for i in range(0, len(row), 2)]
    c = [0] * max(r + g * (len(q) - 1) + 1 for r, q in qs)
    for r, q in qs:
        c[r:r + g * len(q):g] = q
    return c


def low_slots(n: int) -> int:
    """The number of zero low K-bit slots of n != 0: the v-adic valuation of P."""
    return ((n & -n).bit_length() - 1) // K
