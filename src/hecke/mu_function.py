"""Rank-one mu-factors: factored form, pole/zero profiles, parameter recovery.

The rank-one factor attached to parameters (q_a, q_{a*}) = (q_F^e, q_F^{e*}),
as a rational function of the coordinate X on the unramified line:

    mu(X) = c' (1-X)(1-X^{-1})(1+X)(1+X^{-1})
            / ((1-q_a^{-1}X)(1-q_a^{-1}X^{-1})(1+q_{a*}^{-1}X)(1+q_{a*}^{-1}X^{-1}))

Zeros and poles all have the shape (+-1) * q_F^(half-integer); they are pulled
out by exact synthetic division, never numerically.
"""
from __future__ import annotations

from fractions import Fraction

from .label_params import ParamPair, _fmt, _frac
from .qfield import VR_ZERO, VRat
from .root_data import RootSystem, SizeLimitError, _dot, simple_orbits
from .xlaurent import Laurent, shaped_roots

# largest q_F-exponent of q_alpha (v-degrees grow with it); recovering the worst
# accepted pair, (1024, 1023), takes about 5-6 ms in-process (the root search of
# poles_zeros) and `mu --qa 1024 --qs 1023 recover` 0.18-0.20 s on a loaded
# 2-core machine, where `python -c pass` alone takes 0.12-0.13 s
MU_EXP_CAP = 1024


def _vexps(pair: ParamPair) -> tuple[int, int]:
    """v-exponents (2 e_alpha, 2 e_star) of a pair: refuses e_alpha above the
    cap, then an exponent that is not a half-integer."""
    if pair.e_alpha > MU_EXP_CAP:
        raise SizeLimitError(f"q_alpha exponent {pair.e_alpha} exceeds {MU_EXP_CAP}")
    return pair.v_exponents()


def _pair(k: int, sign: int, on: bool) -> tuple[dict, dict]:
    """(1 + sign v^-k X)(1 + sign v^-k X^-1) = (1 + v^-2k) + sign v^-k s as
    the v-exponent maps {exponent: int} of its two s-coefficients; 1 when off."""
    if not on:
        return {0: 1}, {}
    return ({0: 2} if k == 0 else {0: 1, -2 * k: 1}), {-k: sign}


def _coeff(n: int, d: int, *products) -> VRat:
    """n/d times the sum of m p r over (m, p, r), p and r v-exponent maps, as one VRat."""
    terms: dict = {}
    for m, p, r in products:
        for i, x in p.items():
            for j, y in r.items():
                terms[i + j] = terms.get(i + j, 0) + m * x * y
    ks = [k for k, x in terms.items() if x]
    if not ks:
        return VR_ZERO
    lo = min(ks)
    poly = [0] * (max(ks) - lo + 1)
    for k in ks:
        poly[k - lo] = n * terms[k]
    # v^lo P / d: the v-power goes to whichever side keeps both in Z[v]
    return VRat((0,) * max(lo, 0) + tuple(poly), (0,) * max(-lo, 0) + (d,))


def _in_s(p, r, n: int = 1, d: int = 1) -> Laurent:
    """n/d (p0 + p1 s)(r0 + r1 s) with s = X + X^-1, so s^2 = X^2 + 2 + X^-2."""
    (p0, p1), (r0, r1) = p, r
    top = _coeff(n, d, (1, p1, r1))
    mid = _coeff(n, d, (1, p0, r1), (1, p1, r0))
    return Laurent({-2: top, -1: mid, 0: _coeff(n, d, (1, p0, r0), (2, p1, r1)),
                    1: mid, 2: top})


class MuFactor:
    """One rank-one factor in factored (numerator, denominator) form."""

    __slots__ = ("pair", "c_prime", "num", "den")

    def __init__(self, e_alpha, e_star=0, c_prime=1):
        pair = ParamPair(e_alpha, e_star)
        ka, kb = _vexps(pair)
        c_prime = Fraction(c_prime)
        if c_prime <= 0:
            raise ValueError(f"c' must be positive, got {c_prime}")
        # with s = X + X^-1: (1-X)(1-X^-1) = 2 - s, (1+X)(1+X^-1) = 2 + s,
        # (1-aX)(1-aX^-1) = (1+a^2) - a s, (1+bX)(1+bX^-1) = (1+b^2) + b s
        # for a = v^-ka, b = v^-kb.  q = 1 on a block cancels it exactly; keep
        # the reduced form so that evaluation is defined away from the true
        # poles only
        num = _in_s(_pair(0, -1, ka > 0), _pair(0, 1, kb > 0),
                    c_prime.numerator, c_prime.denominator)
        den = _in_s(_pair(ka, -1, ka > 0), _pair(kb, 1, kb > 0))
        object.__setattr__(self, "pair", pair)
        object.__setattr__(self, "c_prime", c_prime)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, *a):
        raise AttributeError("MuFactor is immutable")

    def is_constant(self) -> bool:
        return self.pair == ParamPair(0, 0)

    def __eq__(self, other) -> bool:
        """Equality up to a positive constant (c' is not canonical)."""
        if not isinstance(other, MuFactor):
            return NotImplemented
        a = self.num * other.den
        b = other.num * self.den
        if a.is_zero() or b.is_zero():
            return a.is_zero() and b.is_zero()
        ka = dict(a.terms())
        kb = dict(b.terms())
        if set(ka) != set(kb):
            return False
        e0 = next(iter(ka))
        ratio = ka[e0] / kb[e0]
        if not (ratio.is_constant() and ratio.as_fraction() > 0):
            return False
        return all(ka[e] == ratio * kb[e] for e in ka)

    def __repr__(self):
        return (f"MuFactor(q_a=q^{self.pair.e_alpha}, q_a*=q^{self.pair.e_star}, "
                f"c'={self.c_prime}, var X)")


def mu_factor(e_alpha, e_star=0, c_prime=1) -> MuFactor:
    """Factor for q_a = q_F^{e_alpha}, q_{a*} = q_F^{e_star} (exponent arguments)."""
    return MuFactor(e_alpha, e_star, c_prime)


class PoleZeroProfile:
    """Zeros and poles of the shape sign * q_F^exp with integer orders.

    Both maps are keyed by (sign, exp); exp is the q_F-exponent (a Fraction
    with denominator <= 2).  Profiles of mu-factors are inversion-closed and
    balanced (total zero order = total pole order); both are enforced here.
    """

    __slots__ = ("zeros", "poles")

    def __init__(self, zeros: dict, poles: dict):
        zeros = {(int(s), _frac(e)): int(o) for (s, e), o in zeros.items() if o}
        poles = {(int(s), _frac(e)): int(o) for (s, e), o in poles.items() if o}
        for name, side in (("zeros", zeros), ("poles", poles)):
            for (s, e), o in side.items():
                if s not in (1, -1) or o < 0:
                    raise ValueError(f"bad {name} entry {(s, e, o)}")
                if side.get((s, -e)) != o:
                    raise ValueError(f"{name} not closed under inversion at {(s, e)}")
        if sum(zeros.values()) != sum(poles.values()):
            raise ValueError("total zero order differs from total pole order")
        object.__setattr__(self, "zeros", zeros)
        object.__setattr__(self, "poles", poles)

    def __setattr__(self, *a):
        raise AttributeError("PoleZeroProfile is immutable")

    def is_empty(self) -> bool:
        return not self.zeros and not self.poles

    def __eq__(self, other) -> bool:
        return (isinstance(other, PoleZeroProfile)
                and self.zeros == other.zeros and self.poles == other.poles)

    @staticmethod
    def _side_json(side: dict) -> list:
        return [{"sign": s, "exp": _fmt(e), "ord": o} for (s, e), o in sorted(side.items())]

    def to_json(self) -> dict:
        return {"zeros": self._side_json(self.zeros),
                "poles": self._side_json(self.poles)}

    @classmethod
    def from_json(cls, data: dict) -> "PoleZeroProfile":
        def side(rows):
            return {(r["sign"], Fraction(str(r["exp"]))): r["ord"] for r in rows}
        return cls(side(data["zeros"]), side(data["poles"]))

    def __repr__(self):
        def show(side):
            return ", ".join(f"{'-' if s < 0 else ''}q^{e}:{o}"
                             for (s, e), o in sorted(side.items()))
        return f"PoleZeroProfile(zeros [{show(self.zeros)}], poles [{show(self.poles)}])"


def ratio_profile(num: Laurent, den: Laurent) -> PoleZeroProfile:
    """Net pole/zero profile of num/den; ValueError unless every root is sign * v^k."""
    zn, rn = shaped_roots(num)
    zd, rd = shaped_roots(den)
    if len(rn.c) != 1 or len(rd.c) != 1:
        raise ValueError(f"non-shaped roots left over: {rn.to_str()} / {rd.to_str()}")
    net: dict = dict(zn)
    for key, o in zd.items():
        net[key] = net.get(key, 0) - o
    zeros, poles, half = {}, {}, {}
    for (s, k), o in net.items():
        if o:
            e = half.get(k)
            if e is None:   # +-v^k share one exponent k/2
                e = half[k] = Fraction(k, 2)
            (zeros if o > 0 else poles)[(s, e)] = abs(o)
    return PoleZeroProfile(zeros, poles)


def poles_zeros(f: MuFactor) -> PoleZeroProfile:
    """Exact pole/zero locations of a mu-factor, after cancellation."""
    return ratio_profile(f.num, f.den)


def _profile_of(pair: ParamPair) -> tuple[dict, dict]:
    """(zeros, poles) of poles_zeros(MuFactor(*pair)) in closed form: each block
    with q != 1 has a double zero at sign * 1 and simple poles at sign * q^+-e."""
    zeros, poles = {}, {}
    for sign, e, k in zip((1, -1), pair, _vexps(pair)):
        if k:
            zeros[(sign, 0)] = 2
            poles[(sign, e)] = poles[(sign, -e)] = 1
    return zeros, poles


def q_from_poles(p: PoleZeroProfile) -> ParamPair:
    """Recover (q_a, q_{a*}) exponents; rejects profiles that no factor produces."""
    if p.is_empty():
        return ParamPair(0, 0)
    pos = [e for (s, e) in p.poles if s == 1]
    neg = [-e for (s, e) in p.poles if s == -1 and e < 0]
    if not pos:
        raise ValueError("no positive-real pole: not a mu-factor profile")
    try:
        pair = ParamPair(max(pos), max(neg) if neg else 0)
    except ValueError as err:
        raise ValueError(f"pole positions violate q_a >= q_a* >= 1: {err}") from None
    if _profile_of(pair) != (p.zeros, p.poles):
        raise ValueError(
            f"profile is not of mu-factor shape (best candidate {pair!r})")
    return pair


class SubsystemComponent:
    """Irreducible component of a sub-root-system, with ambient length tag."""

    __slots__ = ("label", "ambient_class", "roots")

    def __init__(self, label: str, ambient_class: str, roots):
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "ambient_class", ambient_class)
        object.__setattr__(self, "roots", tuple(roots))

    def __setattr__(self, *a):
        raise AttributeError("SubsystemComponent is immutable")

    def __eq__(self, other):
        return (isinstance(other, SubsystemComponent)
                and (self.label, self.ambient_class, self.roots)
                == (other.label, other.ambient_class, other.roots))

    def to_json(self) -> dict:
        return {"type": self.label, "ambient_class": self.ambient_class,
                "roots": [list(r) for r in self.roots]}

    def __repr__(self):
        return f"SubsystemComponent({self.label}, {self.ambient_class}, {len(self.roots)} roots)"


def _classify(roots, rank: int) -> str:
    """Cartan label of one irreducible root set of the given rank (A before D)."""
    count = len(roots)
    norms = sorted({_dot(r, r) for r in roots})
    if len(norms) == 1:
        if count == rank * (rank + 1):
            return f"A{rank}"
        if count == 2 * rank * (rank - 1):
            return f"D{rank}"
        if (rank, count) in ((6, 72), (7, 126), (8, 240)):
            return f"E{rank}"
    elif norms[1] == 3 * norms[0]:
        return "G2"
    else:
        n_short = sum(1 for r in roots if _dot(r, r) == norms[0])
        n_long = count - n_short
        if rank == 4 and count == 48:
            return "F4"
        if rank == 2:
            return "B2"
        if n_short == 2 * rank:
            return f"B{rank}"
        if n_long == 2 * rank:
            return f"C{rank}"
    raise ValueError(f"unrecognized component: rank {rank}, {count} roots")


def sigma_O_mu(rs: RootSystem, factors: dict) -> tuple:
    """Sigma_{O,mu}: the W-stable set of roots whose rank-one factor is not constant.

    factors maps simple-orbit index (the order of simple_orbits(rs.cartan_type,
    rs.rank)) to a MuFactor or None; None and constant factors drop the orbit.
    Sigma is the union of the W-orbits of the kept orbits' simple roots, and
    each root carries the length class of the orbit it came from.  Returns
    the irreducible components of Sigma, tagged 'all' when the type has a
    single class (ADE, B1, C1), else by their one class or 'mixed'.
    """
    orbits = simple_orbits(rs.cartan_type, rs.rank)
    sperms = [rs.simple_reflection_perm(i) for i in range(rs.rank)]
    cls_of = {}   # root index -> class, filled by W-closure from the kept simples
    for k, (cls, idx) in enumerate(orbits):
        f = factors.get(k)
        if f is None or f.is_constant():
            continue
        stack = [rs.index[rs.simple_roots[i]] for i in idx]
        cls_of.update(dict.fromkeys(stack, cls))
        while stack:
            r = stack.pop()
            for sp in sperms:
                if sp[r] not in cls_of:
                    cls_of[sp[r]] = cls
                    stack.append(sp[r])
    positives = [rs.all_roots[i] for i in cls_of if i < rs.n_positive]
    pos_set = set(positives)
    simples = [p for p in positives
               if not any(tuple(a - b for a, b in zip(p, q)) in pos_set
                          for q in positives if q != p)]
    single = len({cls for cls, _ in orbits}) == 1
    out = []
    while simples:   # one component per search over the pairing graph
        group, stack = [], [simples.pop()]
        while stack:
            s = stack.pop()
            group.append(s)
            stack += [t for t in simples if _dot(s, t)]
            simples = [t for t in simples if not _dot(s, t)]
        members = [i for i in cls_of if any(_dot(rs.all_roots[i], s) for s in group)]
        roots = sorted(rs.all_roots[i] for i in members)
        tags = {cls_of[i] for i in members}
        tag = "all" if single else tags.pop() if len(tags) == 1 else "mixed"
        out.append(SubsystemComponent(_classify(roots, len(group)), tag, roots))
    out.sort(key=lambda c: (c.label, c.roots))
    return tuple(out)
