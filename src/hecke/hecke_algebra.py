"""Exact arithmetic in affine Hecke algebras with unequal parameters.

Elements are kept in the basis theta_x T_w (x in the lattice, w Weyl).  The
defining relations, for a simple reflection s = s_a with orbit labels
(lambda, lambda*) at the base q_F^r, and v^2 = q_F at every base:

    (T_s + 1)(T_s - qq_s) = 0,            qq_s = q_a q_{a*} = v^{2 r lambda}
    T_s theta_y = theta_{s(y)} T_s + D_s(y)

    D_s(y) = (A + B X_a^{-1}) (theta_y - theta_{s y}) / (1 - X_a^{-2})
    A = q_a q_{a*} - 1,   B = q_a - q_{a*}

with q_a = v^{r(lambda+lambda*)}, q_{a*} = v^{r(lambda-lambda*)} and X_a =
theta_a for the simple root a.  The divided difference has a closed form
(_dcoeffs); it is a Laurent polynomial unless the pairing <y, a#> is odd and
q_{a*} != 1, which admissible data never gives and which raises ArithmeticError.

As lambda >= lambda* >= 0, every structure constant (qq_s, A, B, the
coefficients of D_s(y)) lies in Z[t], t = v^g, g the gcd of the v-exponents
of the qq_s and the nonzero B (AHA.g): qq_s is a t-power, a shift, and A, B
and the d_k are differences of two.  So a coefficient sum_r v^r Q_r(t) of
theta_x T_w is kept as up to g terms, one per residue r < g, each a plain
int n = Q_r(2^K) (see qfield), an element is t^-e times a sum of such terms,
and one l1 bound per element and per cached T_w theta_y keeps every Q_r
decodable; each cached T_w theta_y also keeps a bound on its |coordinates|.
Coefficients come in through qfield.pack (ValueError outside
Z[v, v^-1]) and are split into residues (AHA._split); the parts are grouped
per basis element, in one pass, only at output (AHAElement._rows, read by
terms as VRat, by to_json once per distinct group, and by specialize).

A basis key is one int too, (X << (wb + rb)) + (r << wb) + w, with X = sum
x_i 2^(64 i) in balanced signed 64-bit fields, r the residue in rb bits (the
bit length of g - 1) and wb the bit length of |W| - 1: theta_x (theta_z T_u)
is a key sum, T_u T_s moves a key by us - u, and residues that add up to g
or more lose g and gain a factor t.  Points are decoded (AHA.unkey, memoised)
only to fill the T.theta cache and at output.
"""
from __future__ import annotations

import random
from fractions import Fraction
from functools import reduce
from math import gcd
from operator import or_

from .label_params import LabelFunction, validate
from .qfield import (K, VR_ZERO, VRat, _unpack, bounded, interleave, l1_norm, low_slots,
                     pack, pack_slots, packed_str, packed_vrat, value_at_one)
from .root_data import BasedRootDatum, SizeLimitError, WeylElement, weyl_group, word_index

# Input caps: an accepted input runs in seconds on a 2-core machine.  charge()
# weighs terms * (TERM_COST + width) against WORK_CAP, width = 2 r lambda / g
# t-slots; T_w0 theta_y has (spread / 14)^rank terms, a check_relations sample
# 12^rank / 360.  Largest accepted on rank 2 / 3 / 4, slowest over two y or
# seeds 0-2 (the whole grid is in CHANGES.md):
#   width 1-3: spread to 126 / 60 / 42 (2.1 s), samples to 204 / 17 / 1 (1.5 s);
#   width 100: spread 40 / 28 / 22 (0.4 s), samples 20 / 1 / 0 (7.2 s);
#   width 200: spread 28 / 22 / 20 (0.7 s), samples 10 / 0 / 0 (7.9 s).
LABEL_CAP = 100
COORD_CAP = 10
SAMPLES_CAP = 500
WORK_CAP = 900
TERM_COST = 10
# Every |coordinate| of an element is at most FIELD_CAP; a product's are within
# a's plus those of the T_w theta_y it used (right multiplication moves no
# point).  Those lie in the hull of W y, within 11 |y| (W's row sums on simple-
# root coordinates, at most 11 up to rank 4): every key formed fits its fields.
FIELD_CAP = 2 ** 58
_HALF, _FIELD = 1 << 63, (1 << 64) - 1


def _norm(ints: dict) -> int:
    """The exact l1 mass of packed ints whose bound is below 2^(K-1)."""
    return sum(map(l1_norm, ints.values()))


class AHA:
    """Handle for one affine Hecke algebra; caches all Weyl/relation data."""

    def __init__(self, datum: BasedRootDatum, lf: LabelFunction):
        self.datum = datum
        self.lf = lf
        rs = datum.root_system
        self.rank = rs.rank if rs is not None else 0
        self.d = datum.lattice_rank
        if rs is not None:
            report = validate(lf, rs)
            if report:
                raise ValueError("inadmissible labels: " + "; ".join(report))
            self.W = weyl_group(rs)   # and the label-free tables it shares on rs:
            # w*s, word lengths, per s the key moves us - u of T_u T_s, per u (s, su)
            self.ws_table, self.lengths, self._moves, self._left = (
                rs._cache[k] for k in ("ws_table", "lengths", "moves", "left"))
            self.pos_coroots = datum.coroots[:rs.n_positive]
        else:
            self.W = [WeylElement((), ())]
            self.ws_table, self.lengths, self._moves, self._left = ((),), (0,), (), (None,)
            self.pos_coroots = ()
        self._points: dict = {}   # X -> x, memo of unkey
        exps = [None] * self.rank   # (ea, es): qq = v^(ea+es), B = v^ea - v^es
        for k, (idx, _, _) in enumerate(lf.orbits):
            ea, es = lf.pair(k).v_exponents()   # (ea + es) / 2: the label at base q_F
            if ea + es > 2 * LABEL_CAP:
                raise SizeLimitError(
                    f"simple {idx[0]}: label {Fraction(ea + es, 2)} exceeds {LABEL_CAP}")
            for j in idx:
                exps[j] = ea, es
        # t = v^g, g the gcd of the v-exponents of every qq and every nonzero
        # B.  The v-power qq is kept as its t-slot shift, B = t^p - t^r as the
        # shifts (K p, K r), (0, 0) when B = 0; A = qq - 1 is (qq, 0)
        self.g = gcd(*(gcd(ea, es) if ea != es else ea + es for ea, es in exps)) or 1
        self.qq = [K * (ea + es) // self.g for ea, es in exps]
        self.B = [(K * ea // self.g, K * es // self.g) if ea != es else (0, 0)
                  for ea, es in exps]
        self.wb = (len(self.W) - 1).bit_length()   # key fields: X, then r < g, then w
        self.mask = (1 << self.wb) - 1
        self.xs = self.wb + (self.g - 1).bit_length()
        self.rfield = (1 << self.xs) - 1 - self.mask
        self.carry = self.g << self.wb   # r + r' >= g: subtract, times t
        self._x_keys = [self.key(datum.roots[datum.basis[j]]) for j in range(self.rank)]
        self._coroots = [datum.coroots[datum.basis[j]] for j in range(self.rank)]
        # (w-index, key of y) -> (T_w theta_y as {key: n}, bound on its l1 mass,
        # bound on the |coordinates| of its points)
        self._tt_cache: dict = {}
        self._d_cache: dict = {}

    def key(self, x, w: int = 0, r: int = 0) -> int:
        """The basis key of theta_x T_w (w a W-index) for the v-residue r."""
        return (sum(c << 64 * i for i, c in enumerate(x)) << self.xs) + (r << self.wb) + w

    def unkey(self, k: int) -> tuple:
        """(x, w-index) of a basis key."""
        X = k >> self.xs
        pt = self._points.get(X)
        if pt is None:   # 2^63 added to every field leaves no borrows
            X += _HALF * ((1 << 64 * self.d) - 1) // _FIELD
            pt = self._points[k >> self.xs] = tuple(
                (X >> 64 * i & _FIELD) - _HALF for i in range(self.d))
        return pt, k & self.mask

    def _split(self, val: int, n: int) -> list:
        """[(q, r, m)]: v^val P = sum t^q v^r Q(t) for n = P(2^K), m = Q(2^K)."""
        c, g = _unpack(n), self.g
        return [(*divmod(val + j, g), pack_slots(c[j::g]))
                for j in range(min(g, len(c))) if any(c[j::g])]

    # -- element constructors --------------------------------------------

    def element(self, terms: dict) -> "AHAElement":
        """sum c theta_x T_w for {(x, w-index): c}, c an int, Fraction or VRat
        in Z[v, v^-1] (see qfield.pack); 1/2 or 1/(1+v) raise ValueError, and
        a coordinate past FIELD_CAP raises SizeLimitError."""
        if any(len(x) != self.d or not 0 <= wi < len(self.W) for x, wi in terms):
            raise ValueError(f"a key of {list(terms)} is not (x in Z^{self.d}, w-index)")
        reach = max((abs(c) for x, _ in terms for c in x), default=0)
        if reach > FIELD_CAP:
            raise SizeLimitError(f"a coordinate {reach} exceeds 2^58")
        zs, bound = [], 0   # exact: each h is an l1 norm
        for (x, wi), c in terms.items():
            val, n, h = pack(c)
            bound += h
            zs += [(self.key(x, wi, r), q, m) for q, r, m in self._split(val, n)]
        e = -min((q for _, q, _ in zs), default=0)
        ints = {k: m << K * (q + e) for k, q, m in zs}
        return AHAElement(self, e, ints, bounded(bound, lambda: bound), reach)

    def one(self) -> "AHAElement":
        return self.element({((0,) * self.d, 0): 1})

    def theta(self, x) -> "AHAElement":
        x = tuple(x)
        self.charge_word([("theta", x)])
        return self.element({(x, 0): 1})

    def charge_word(self, word) -> None:
        """Charge a generator word's products before the first.  T_w theta_y
        has about (spread / 14)^rank terms, spread = sum over a > 0 of
        |<y, a^vee>|, a W-invariant seminorm; each D_s piece lies between y and
        s y, so the sum of the spreads bounds every point the word reaches.  A
        T token multiplies about the terms the theta_y before it make, and at
        least one: T tokens alone widen the coefficients at each product."""
        points, spread, t_terms = [], 0, 0
        for kind, arg in word:
            if kind == "T":
                t_terms += max(1, Fraction(spread, 14) ** self.rank)
                continue
            if kind != "theta":
                raise ValueError(f"unknown generator kind {kind!r}")
            x = tuple(arg)
            if len(x) != self.d:
                raise ValueError(f"lattice point must have {self.d} coordinates")
            if any(abs(c) > COORD_CAP for c in x):
                raise SizeLimitError(f"a coordinate of {x} exceeds {COORD_CAP}")
            spread += sum(abs(self.datum.pairing(x, c)) for c in self.pos_coroots)
            points.append(x)
        self.charge(Fraction(spread, 14) ** self.rank,
                    f"lattice points {', '.join(map(str, points))} (spread {spread})")
        self.charge(t_terms, f"{len(word) - len(points)} T tokens")

    def charge(self, terms, what: str) -> None:
        """Refuse terms * (TERM_COST + width) past WORK_CAP, width = 2 r lambda / g."""
        work = terms * (TERM_COST + max(self.qq, default=0) // K)
        if work > WORK_CAP:
            raise SizeLimitError(f"{what}: predicted work {round(work)} exceeds {WORK_CAP}")

    def t_simple(self, j: int) -> "AHAElement":
        if not 0 <= j < self.rank:
            raise ValueError(f"T{j}: simple index out of range for rank {self.rank}")
        return self.element({((0,) * self.d, self.ws_table[0][j]): 1})

    def t(self, word) -> "AHAElement":
        """T_w for the element with the given reduced word (lengths must add)."""
        return self.element({((0,) * self.d, self._reduced(word)): 1})

    def _reduced(self, word) -> int:
        """The W-index of a reduced word; ValueError for any other word."""
        word = tuple(word)
        if not all(0 <= j < self.rank for j in word):
            raise ValueError(f"word {word}: a simple index is out of range for "
                             f"rank {self.rank}")
        wi = word_index(self.ws_table, word)
        if self.lengths[wi] != len(word):
            raise ValueError(f"word {word} is not reduced")
        return wi

    def from_json(self, data: dict) -> "AHAElement":
        terms: dict = {}
        for t in data["terms"]:
            key = (tuple(int(c) for c in t["x"]), self._reduced(int(j) for j in t["w"]))
            terms[key] = terms.get(key, VR_ZERO) + VRat.parse(t["coeff"])
        return self.element(terms)

    # -- multiplication ----------------------------------------------------

    def multiply(self, a: "AHAElement", b: "AHAElement") -> "AHAElement":
        """a * b: one pass over the pairs of terms, then one walk of the chains.

        theta_x T_w theta_y T_u = theta_x (T_w theta_y) T_u: the pieces c c'
        theta_x T_w theta_y are summed per u, the residues of c and c' added
        (from g up: minus g, times t).  Then, longest u first, each sum P is
        right-multiplied by the first letter s of u into the sum of su (T_u =
        T_s T_su, l(su) = l(u) - 1): one _right_mult_ts per u of the chains.
        A sum carries the largest bound of its pieces, tripled at each step in
        which any of its keys goes down; as no key is dropped, that bounds the
        l1 mass M of each T_w theta_y T_u, and L(a) L(b) M bounds the product
        (M can exceed a piece's own bound).  Where that reaches 2^(K-1), the
        exact norms of a, b and of each piece built alone are taken
        (_piece_top): a product is refused only where those refuse it too.
        """
        if a.algebra is not self or b.algebra is not self:
            raise ValueError("elements belong to different algebra handles")
        mask, rfield, carry = self.mask, self.rfield, self.carry
        bs: dict = {}   # key of (y, u) at residue 0 -> (u, key of y, [(r, c)])
        for k, c in b.ints.items():
            r, ui = k & rfield, k & mask
            bs.setdefault(k - r, (ui, k - r - ui, []))[2].append((r, c))
        aw: dict = {}   # w-index -> [(key of x with a's residue, residue, c)]
        for k, c in a.ints.items():
            wi = k & mask
            aw.setdefault(wi, []).append((k - wi, k & rfield, c))
        sums: dict = {}   # u-index -> [sum of pieces, bound]
        reach = b.reach
        for wi, xs in aw.items():
            for ui, y, cs in bs.values():
                # T_w theta_0 = T_w: a scale or a product with T_u builds nothing
                part, m, rp = self._t_times_theta(wi, y) if y else ({wi: 1}, 1, 0)
                if rp > reach:
                    reach = rp
                acc = sums.get(ui)
                if acc is None:
                    acc = sums[ui] = [{}, m]
                elif m > acc[1]:
                    acc[1] = m
                out = acc[0]
                get = out.get
                for x, r, c in xs:
                    for r2, c2 in cs:
                        c12, shift = c * c2, x + r2
                        if r + r2 >= carry:
                            c12, shift = c12 << K, shift - carry
                        sh = low_slots(c12) * K   # a t-power factor never widens the products
                        c12 >>= sh
                        for z, c3 in part.items():
                            key = shift + z
                            out[key] = get(key, 0) + ((c12 * c3) << sh)
        for ui in range(max(sums, default=0), 0, -1):   # W is listed by length
            acc = sums.pop(ui, None)
            if acc is None:
                continue
            s, si = self._left[ui]
            out, m = self._right_mult_ts(acc[0], acc[1], s)
            into = sums.get(si)
            if into is None:
                sums[si] = [out, m]
                continue
            big, small = (out, into[0]) if len(out) > len(into[0]) else (into[0], out)
            get = big.get
            for key, c in small.items():
                big[key] = get(key, 0) + c
            sums[si] = [big, max(m, into[1])]
        out, top = sums.get(0, ({}, 0))
        reach += a.reach
        if reach > FIELD_CAP:
            raise SizeLimitError("a product's coordinates may exceed 2^58")
        bound = bounded(a.bound * b.bound * top, lambda: _norm(a.ints) * _norm(b.ints)
                        * self._piece_top(aw, bs.values()))
        return AHAElement(self, a.e + b.e, {k: n for k, n in out.items() if n}, bound,
                          reach)

    def _piece_top(self, ws, bs) -> int:
        """The largest l1 norm of a T_w theta_y T_u, w in ws, each built alone
        (exact where its bound is below 2^(K-1), so that it decodes)."""
        top = 0
        for wi in ws:
            for ui, y, _ in bs:
                part, m, _ = self._t_times_theta(wi, y)
                for j in self.W[ui].word:
                    part, m = self._right_mult_ts(part, m, j)
                top = max(top, m if m >> (K - 1) else _norm(part))
        return top

    def _t_times_theta(self, wi: int, y: int) -> tuple:
        """T_w theta_y (y a key) in normal form, a bound on its l1 mass, and a
        bound on its points' |coordinates| (0 for w = 1: y is a factor's point).

        Peels the last letter s of w = w's: T_w theta_y = T_w' theta_sy T_s +
        sum_k d_k T_w' theta_{y + k X_s}, so the bound is that of the first
        piece grown by T_s, plus l1(d_k) times the others'.  Each y + k X_s
        lies between y and sy, so the coordinate bound is that of y, sy and
        the pieces.
        """
        if wi == 0:
            return {y: 1}, 1, 0
        key = (wi, y)
        hit = self._tt_cache.get(key)
        if hit is not None:
            return hit
        s = self.W[wi].word[-1]
        wpi = self.ws_table[wi][s]
        pt = self.unkey(y)[0]
        n = self.datum.pairing(pt, self._coroots[s])
        sy = y - n * self._x_keys[s]   # s y = y - <y, a_s^vee> a_s, and keys are linear
        first, m1, reach = self._t_times_theta(wpi, sy)
        reach = max(reach, *map(abs, pt + self.unkey(sy)[0]))
        out, m = self._right_mult_ts(first, m1, s)
        pieces = [(3, first)]
        for k, (p, r) in self._dcoeffs(s, n):
            part, mp, rp = self._t_times_theta(wpi, y + k * self._x_keys[s])
            reach = max(reach, rp)
            pieces.append((2, part))
            m += 2 * mp
            for key2, c in part.items():
                out[key2] = out.get(key2, 0) + (c << p) - (c << r)
        m = bounded(m, lambda: sum(f * _norm(piece) for f, piece in pieces))
        hit = self._tt_cache[key] = {k: n for k, n in out.items() if n}, m, reach
        return hit

    def _dcoeffs(self, j: int, n: int) -> tuple:
        """Pairs (k, d_k) with D_j(y) = sum_k d_k theta_{y + k a}, <y,a#> = n.

        s(y) = y - n a for the simple root a, and D_j(y) = (A + B u^-1)(1 -
        u^-n) / (1 - u^-2) at u = X_j = theta_a: A + B u^-1 + A u^-2 + ...
        (n terms) for n > 0, and -B u - A u^2 - B u^3 - ... (|n| terms) for
        n < 0.  For odd n the quotient is a Laurent polynomial only if A = B.
        Each d_k is nonzero and, like A and B, given as t-slot shifts:
        -(t^p - t^r) = t^r - t^p.
        """
        key = (j, n)
        hit = self._d_cache.get(key)
        if hit is None:
            a, b = (self.qq[j], 0), self.B[j]
            if n % 2 and a != b:
                raise ArithmeticError(
                    f"D_{j} at odd pairing {n} needs A = B, that is q_a* = 1")
            if n > 0:
                hit = [(-i, b if i % 2 else a) for i in range(n)]
            else:
                hit = [(i, (b if i % 2 else a)[::-1]) for i in range(1, 1 - n)]
            hit = tuple((k, d) for k, d in hit if d[0] != d[1])
            self._d_cache[key] = hit
        return hit

    def _right_mult_ts(self, terms: dict, m: int, j: int) -> tuple:
        """terms * T_j, and the bound m grown by at most 3 = l1(A_j) + l1(qq_j)."""
        qsh = self.qq[j]
        moves = self._moves[j]
        mask = self.mask
        out: dict = {}
        get = out.get
        down = False
        for k, c in terms.items():
            move = moves[k & mask]
            key = k + move
            if move > 0:   # W is listed by length and l(us) = l(u) +- 1
                out[key] = get(key, 0) + c
            else:   # T_u T_s = A T_u + qq T_us when us < u
                down = True
                cq = c << qsh
                out[k] = get(k, 0) + cq - c
                out[key] = get(key, 0) + cq
        return out, (m * 3 if down else m)

    def __repr__(self):
        rs = self.datum.root_system
        tag = f"{rs.cartan_type}{rs.rank}" if rs else "empty"
        return f"AHA({tag}, lattice Z^{self.d})"


class AHAElement:
    """t^-e * sum v^r Q(t) theta_x T_w, t = v^g, with Q in Z[t] packed as Q(2^K).

    ints maps the basis key of (x, w-index, residue r < g) to Q(2^K) != 0;
    bound is at least the sum of the l1 norms of all the Q and stays below
    2^(K-1), so every Q decodes, and reach is at least every |coordinate| of
    every x.  The common t-power is taken out only at ==, hash and output.
    terms gives the coefficients as VRat.  Build elements with AHA.element.
    """

    __slots__ = ("algebra", "e", "ints", "bound", "reach")

    def __init__(self, algebra: AHA, e: int, ints: dict, bound: int, reach: int):
        for name, val in zip(self.__slots__, (algebra, e, ints, bound, reach)):
            object.__setattr__(self, name, val)

    def __setattr__(self, *a):
        raise AttributeError("AHAElement is immutable")

    @property
    def terms(self) -> dict:
        """{(x, w-index): the coefficient of theta_x T_w as a VRat}."""
        alg = self.algebra
        return {alg.unkey(k): packed_vrat(-alg.g * self.e, interleave(row, alg.g))
                for k, row in self._rows().items()}

    def _rows(self) -> dict:
        """{key of (x, w) at residue 0: (r, n, r', n', ...)}, its t-parts flat."""
        rfield, wb = self.algebra.rfield, self.algebra.wb
        out: dict = {}
        for k, n in self.ints.items():
            r = k & rfield
            out[k - r] = out.get(k - r, ()) + (r >> wb, n)
        return out

    def _canonical(self) -> tuple:
        """(e, ints) with the common t-power taken out; zero is (0, {})."""
        if not self.ints:
            return 0, {}
        k = low_slots(reduce(or_, self.ints.values()))
        if not k:
            return self.e, self.ints
        return self.e - k, {key: n >> K * k for key, n in self.ints.items()}

    def is_zero(self) -> bool:
        return not self.ints

    def __eq__(self, other) -> bool:
        return (isinstance(other, AHAElement) and self.algebra is other.algebra
                and self._canonical() == other._canonical())

    def __hash__(self):
        e, ints = self._canonical()
        return hash((e, frozenset(ints.items())))

    def __add__(self, other: "AHAElement") -> "AHAElement":
        if other.algebra is not self.algebra:
            raise ValueError("elements belong to different algebra handles")
        a, b = (self, other) if self.e >= other.e else (other, self)
        sh = K * (a.e - b.e)
        out = dict(a.ints)
        for key, n in b.ints.items():
            out[key] = out.get(key, 0) + (n << sh)
        out = {k: n for k, n in out.items() if n}
        if not out:   # every slot cancelled exactly
            return AHAElement(self.algebra, 0, out, 0, 0)
        bound = bounded(a.bound + b.bound, lambda: _norm(a.ints) + _norm(b.ints))
        return AHAElement(self.algebra, a.e, out, bound, max(a.reach, b.reach))

    def __neg__(self) -> "AHAElement":
        return AHAElement(self.algebra, self.e, {k: -n for k, n in self.ints.items()},
                          self.bound, self.reach)

    def __sub__(self, other: "AHAElement") -> "AHAElement":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, AHAElement):
            return self.algebra.multiply(self, other)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c) -> "AHAElement":
        """c * self for c in Z[v, v^-1]: a product with c theta_0 T_1."""
        alg = self.algebra
        return alg.multiply(self, alg.element({((0,) * alg.d, 0): c}))

    def specialize(self) -> dict:
        """The coefficients at v = 1, (x, w-index) -> Fraction: one residue per
        t-part (qfield.value_at_one), zero terms dropped, so a normalized
        element of the group algebra of X x| W."""
        out = {self.algebra.unkey(k): Fraction(sum(map(value_at_one, row[1::2])))
               for k, row in self._rows().items()}
        return {k: f for k, f in out.items() if f}

    def to_json(self) -> dict:
        alg = self.algebra
        W, unkey, g, val = alg.W, alg.unkey, alg.g, -alg.g * self.e
        rows, strs = [], {}   # rows share e: a string depends on the parts only
        for k, row in self._rows().items():
            s = strs.get(row)
            if s is None:
                s = strs[row] = packed_str(val, row, g)
            x, wi = unkey(k)
            rows.append((W[wi].word, x, s))
        rows.sort()
        return {"terms": [{"x": list(x), "w": list(word), "coeff": s}
                          for word, x, s in rows]}

    def __repr__(self):
        bits = []
        for t in self.to_json()["terms"]:
            body = ([f"th{t['x']}"] if any(t["x"]) else []) + \
                (["T" + "".join(map(str, t["w"]))] if t["w"] else [])
            bits.append(f"({t['coeff']})*{' '.join(body) or '1'}")
        return " + ".join(bits) or "AHAElement(0)"


def algebra(datum: BasedRootDatum, lf: LabelFunction) -> AHA:
    """Build an algebra handle; labels must be admissible on the datum."""
    return AHA(datum, lf)


def multiply(a: AHAElement, b: AHAElement) -> AHAElement:
    return a.algebra.multiply(a, b)


def normal_form(alg: AHA, word) -> AHAElement:
    """Fold a formal generator word into the theta/T basis.

    Tokens: ("theta", lattice point) or ("T", simple index).  The result is
    already normal; feeding its own terms back in reproduces it.  The whole
    word is charged at once (AHA.charge_word), not one token at a time.
    """
    word = list(word)
    alg.charge_word(word)
    return reduce(multiply, (alg.t_simple(int(arg)) if kind == "T" else
                             alg.element({(tuple(arg), 0): 1}) for kind, arg in word), alg.one())


def _act(alg: AHA, wi: int, y: tuple) -> tuple:
    for j in reversed(alg.W[wi].word):
        y = alg.datum.reflect(j, y)
    return y


def _group_algebra_mult(alg: AHA, a: dict, b: dict) -> dict:
    """Multiplication in the group algebra of X x| W (the v = 1 shadow)."""
    out: dict = {}
    for (x, wi), c in a.items():
        for (y, vi), c2 in b.items():
            wy = _act(alg, wi, y)
            key = (tuple(p + q for p, q in zip(x, wy)),
                   word_index(alg.ws_table, alg.W[wi].word + alg.W[vi].word))
            out[key] = out.get(key, Fraction(0)) + c * c2
    return {k: v for k, v in out.items() if v}


def _random_element(alg: AHA, rng: random.Random, max_len=3, box=2) -> AHAElement:
    terms = {}
    short = [i for i, L in enumerate(alg.lengths) if L <= max_len]
    for _ in range(rng.randint(1, 3)):
        x = tuple(rng.randint(-box, box) for _ in range(alg.d))
        wi = rng.choice(short)
        k, m = rng.randint(-2, 2), rng.randint(1, 3)
        terms[(x, wi)] = VRat.v_pow(k) * m
    return alg.element(terms)


def _sample_failure(relation: str, seed: int, index: int, *elements) -> dict:
    """A failure entry with what rebuilds it: seed, sample index, elements a, b, c."""
    return {"relation": relation, "seed": seed, "sample": index,
            **{name: el.to_json() for name, el in zip("abc", elements)}}


def check_relations(alg: AHA, sample_count: int = 50, seed: int = 0) -> dict:
    """Exact verification of the presentation; returns a pass/fail report.

    Each failure is a dict naming the relation and the inputs that reproduce
    it (elements as to_json(), for AHA.from_json).
    """
    if sample_count < 0:
        raise ValueError(f"sample count {sample_count} is negative")
    if sample_count > SAMPLES_CAP:
        raise SizeLimitError(f"sample count {sample_count} exceeds {SAMPLES_CAP}")
    alg.charge(sample_count * Fraction(12 ** alg.rank, 360),
               f"{sample_count} samples on rank {alg.rank}")
    report = {"quadratic": True, "braid": True, "cross": True,
              "finite_rank": len(alg.W), "associativity": 0,
              "group_algebra_spec": True, "failures": []}
    # the right sides come from the labels and the defining formulas alone,
    # not from the handle's structure constants
    from .xlaurent import Laurent, div_exact
    one, u = alg.one(), Laurent.x_pow
    consts = []   # (A, B) = (qq - 1, q_a - q_a*), qq = q_a q_a*
    for j in range(alg.rank):
        ea, es = alg.lf.pair(alg.lf.orbit_of(j)).v_exponents()
        qq = VRat.v_pow(ea + es)
        consts.append((qq - 1, VRat.v_pow(ea) - VRat.v_pow(es)))
        ts = alg.t_simple(j)
        lhs = ts * ts
        rhs = ts.scale(qq - 1) + one.scale(qq)
        if lhs != rhs:
            report["quadratic"] = False
            report["failures"].append({"relation": "quadratic", "simple": j})
    rs = alg.datum.root_system
    for i in range(alg.rank):
        for j in range(i + 1, alg.rank):
            m = {0: 2, 1: 3, 2: 4, 3: 6}[rs.cartan[i][j] * rs.cartan[j][i]]
            left = normal_form(alg, [("T", (i, j)[k % 2]) for k in range(m)])
            right = normal_form(alg, [("T", (j, i)[k % 2]) for k in range(m)])
            if left != right:
                report["braid"] = False
                report["failures"].append({"relation": "braid", "pair": [i, j]})
    rng = random.Random(seed)
    for j in range(alg.rank):
        for _ in range(3):
            x = tuple(rng.randint(-2, 2) for _ in range(alg.d))
            sx = alg.datum.reflect(j, x)
            # theta_x T_s has about |<x, a^vee>| terms, not (spread / 14)^rank:
            # built directly, as theta's charge refuses parts of [-2, 2]^4 on F4
            th, thsx = alg.element({(x, 0): 1}), alg.element({(sx, 0): 1})
            lhs = th * alg.t_simple(j) - alg.t_simple(j) * thsx
            # D_s(x) = theta_x (A + B u^-1)(1 - u^-n) / (1 - u^-2), u = theta_a
            A, B = consts[j]
            n = alg.datum.pairing(x, alg._coroots[j])
            d = div_exact((u(0, A) + u(-1, B)) * (u(0) - u(-n)), u(0) - u(-2))
            root = alg.datum.roots[alg.datum.basis[j]]
            rhs = {(tuple(a + k * b for a, b in zip(x, root)), 0): c for k, c in d.terms()}
            if lhs != alg.element(rhs):
                report["cross"] = False
                report["failures"].append({"relation": "cross", "seed": seed,
                                           "simple": j, "x": list(x)})
    for index in range(sample_count):
        a = _random_element(alg, rng)
        b = _random_element(alg, rng)
        c = _random_element(alg, rng)
        ab = a * b
        if ab * c != a * (b * c):
            report["failures"].append(
                _sample_failure("associativity", seed, index, a, b, c))
        else:
            report["associativity"] += 1
        spec = _group_algebra_mult(alg, a.specialize(), b.specialize())
        if spec != ab.specialize():
            report["group_algebra_spec"] = False
            report["failures"].append(
                _sample_failure("v=1 specialization", seed, index, a, b))
    report["ok"] = not report["failures"]
    return report
