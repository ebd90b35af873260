"""Exact arithmetic in affine Hecke algebras with unequal parameters.

Elements are kept in the basis theta_x T_w (x in the lattice, w Weyl).  The
defining relations, for a simple reflection s = s_a with orbit labels
(lambda, lambda*) relative to the base (v^2 = base):

    (T_s + 1)(T_s - qq_s) = 0,            qq_s = q_a q_{a*} = v^{2 lambda}
    T_s theta_y = theta_{s(y)} T_s + D_s(y)

    D_s(y) = (A + B X_a^{-1}) (theta_y - theta_{s y}) / (1 - X_a^{-2})
    A = q_a q_{a*} - 1,   B = q_a - q_{a*}

with q_a = v^{lambda+lambda*}, q_{a*} = v^{lambda-lambda*}, X_a the lattice
point attached to a.  The divided difference is computed by exact Laurent
division; a nonzero remainder is impossible for admissible data (the pairing
<y, a#> is even whenever q_{a*} != 1) and raises immediately otherwise.

Every structure constant (qq_s, A, B, the coefficients of D_s(y)) lies in
Z[v, v^-1], so coefficients are gcd-free ZLaurents; others raise ValueError.
"""
from __future__ import annotations

import random
from fractions import Fraction
from operator import add

from .label_params import LabelFunction, validate
from .qfield import ZL_ONE, VRat, ZLaurent
from .root_data import BasedRootDatum, SizeLimitError, WeylElement, weyl_group
from .xlaurent import L_ONE, Laurent, div_exact

# Input caps, chosen so that an accepted input runs in seconds on a 2-core
# machine.  Coefficient widths grow with the labels: check_relations on A1 with
# 50 samples takes 0.3 s at labels 100 and 3.3 s at 1000.  T_w0 * theta_y has
# about c * spread^rank terms, spread = sum over positive roots a of
# |<y, a^vee>|, which is W-invariant: on G2 (labels 1,3) theta_(10,10) has
# spread 60 and takes 0.6 s, theta_(-10,10) spread 160 and 39 s, though
# COORD_CAP admits both.  theta_y needs (spread / 14)^rank <= LATTICE_CAP:
# spread 112 on rank 2 (G2 6.3 s), 56 on rank 3 (B3 5.8 s), 39 on rank 4
# (B4 5.5 s and F4 3.4 s at 38).  A sample costs about 1 ms on A1
# (500 take 0.4 s) and 0.04-0.35 s from A2 to F4 (0.15 s on B3, labels 3,3,1).
# SAMPLE_WORK_CAP bounds samples * |W|^2 * (20 + 2 * widest label): at the cap
# G2 (labels 1,3) runs 106 samples in 2.4 s, A2 462 in 4.1 s at labels 2,2 and
# 50 in 9.5 s at labels 100,100, B3 (3,3,1) 6 in 1.0 s.
LABEL_CAP = 100
COORD_CAP = 10
LATTICE_CAP = 64
SAMPLES_CAP = 500
SAMPLE_WORK_CAP = 400_000


def _bump(out: dict, key, val) -> None:
    """out[key] += val, dropping the key when the sum vanishes."""
    s = out.get(key)
    s = val if s is None else s + val
    if s:
        out[key] = s
    elif key in out:
        del out[key]


class AHA:
    """Handle for one affine Hecke algebra; caches all Weyl/relation data."""

    def __init__(self, datum: BasedRootDatum, lf: LabelFunction, x_points=None):
        self.datum = datum
        self.lf = lf
        rs = datum.root_system
        self.rank = rs.rank if rs is not None else 0
        self.d = datum.lattice_rank
        if rs is not None:
            report = validate(lf, rs)
            if report:
                raise ValueError("inadmissible labels: " + "; ".join(report))
            self.W = weyl_group(rs)
            self.windex = rs._cache["weyl_index"]
            self.ws_table = rs._cache["ws_table"]  # w*s, from the Weyl BFS
            self.pos_coroots = datum.coroots[:rs.n_positive]
        else:
            self.W = [WeylElement((), ())]
            self.windex = {(): 0}
            self.ws_table = ((),)
            self.pos_coroots = ()
        self.lengths = tuple(len(w.word) for w in self.W)
        # per-simple constants; labels must give integral v-exponents
        self.qq, self.A, self.B, self.x_points = [], [], [], []
        for j in range(self.rank):
            lam, ls = lf.values(j)
            if lam > LABEL_CAP:
                raise SizeLimitError(f"simple {j}: label {lam} exceeds {LABEL_CAP}")
            ea, es = lam + ls, lam - ls
            if ea.denominator != 1 or es.denominator != 1:
                raise ValueError(
                    f"simple {j}: q-parameters v^{ea}, v^{es} are not v-powers")
            qa, qs = ZLaurent.v_pow(int(ea)), ZLaurent.v_pow(int(es))
            self.qq.append(qa * qs)
            self.A.append(qa * qs - 1)
            self.B.append(qa - qs)
            root = datum.roots[datum.basis[j]]
            if x_points is not None and j in x_points:
                pt = tuple(x_points[j])
                if datum.reflect(j, pt) != tuple(-c for c in pt) or pt[j] == 0:
                    raise ValueError(f"x_points[{j}] is not anti-invariant under s_{j}")
                self.x_points.append(pt)
            else:
                self.x_points.append(root)
        self._tt_cache: dict = {}
        self._d_cache: dict = {}

    # -- element constructors --------------------------------------------

    def element(self, terms) -> "AHAElement":
        return AHAElement(self, terms)

    def one(self) -> "AHAElement":
        return self.element({((0,) * self.d, 0): ZL_ONE})

    def theta(self, x) -> "AHAElement":
        x = tuple(x)
        if len(x) != self.d:
            raise ValueError(f"lattice point must have {self.d} coordinates")
        if any(abs(c) > COORD_CAP for c in x):
            raise SizeLimitError(f"a coordinate of {x} exceeds {COORD_CAP}")
        spread = sum(abs(self.datum.pairing(x, c)) for c in self.pos_coroots)
        if spread ** self.rank > LATTICE_CAP * 14 ** self.rank:
            raise SizeLimitError(f"lattice point {x}: (spread {spread} / 14)^"
                                 f"{self.rank} exceeds {LATTICE_CAP}")
        return self.element({(x, 0): ZL_ONE})

    def t_simple(self, j: int) -> "AHAElement":
        perm = self.datum.root_system.simple_reflection_perm(j)
        return self.element({((0,) * self.d, self.windex[perm]): ZL_ONE})

    def t(self, word) -> "AHAElement":
        """T_w for the element with the given reduced word (lengths must add)."""
        out = self.one()
        for j in word:
            out = self.multiply(out, self.t_simple(j))
        return out

    def from_json(self, data: dict) -> "AHAElement":
        terms = {}
        for t in data["terms"]:
            x = tuple(int(c) for c in t["x"])
            wi = self._word_index(tuple(int(j) for j in t["w"]))
            _bump(terms, (x, wi), ZLaurent.coerce(VRat.parse(t["coeff"])))
        return self.element(terms)

    def _word_index(self, word) -> int:
        i = 0
        for j in word:
            i = self.ws_table[i][j]
        return i

    # -- multiplication ----------------------------------------------------

    def multiply(self, a: "AHAElement", b: "AHAElement") -> "AHAElement":
        if a.algebra is not self or b.algebra is not self:
            raise ValueError("elements belong to different algebra handles")
        out: dict = {}
        parts: dict = {}
        for (x, wi), c in a.terms.items():
            part = parts.get(wi)
            if part is None:
                part = parts.setdefault(wi, self._t_times_elem(wi, b.terms))
            for (z, ui), c2 in part.items():
                _bump(out, (tuple(map(add, x, z)), ui), c * c2)
        return self.element(out)

    def _t_times_elem(self, wi: int, terms: dict) -> dict:
        out: dict = {}
        for (y, vi), c in terms.items():
            part = self._t_times_theta(wi, y)
            for j in self.W[vi].word:
                part = self._right_mult_ts(part, j)
            for key, c2 in part.items():
                _bump(out, key, c * c2)
        return out

    def _t_times_theta(self, wi: int, y: tuple) -> dict:
        """T_w theta_y in normal form, by peeling the last letter of w."""
        if wi == 0:
            return {(y, 0): ZL_ONE}
        key = (wi, y)
        hit = self._tt_cache.get(key)
        if hit is not None:
            return hit
        s = self.W[wi].word[-1]
        wpi = self.ws_table[wi][s]
        sy = self.datum.reflect(s, y)
        out = dict(self._right_mult_ts(self._t_times_theta(wpi, sy), s))
        for k, dk in self._dcoeffs(s, self._pair(y, s)):
            xs = self.x_points[s]
            shifted = tuple(a + k * b for a, b in zip(y, xs))
            for key2, c in self._t_times_theta(wpi, shifted).items():
                _bump(out, key2, dk * c)
        self._tt_cache[key] = out
        return out

    def _pair(self, y: tuple, j: int) -> int:
        coroot = self.datum.coroots[self.datum.basis[j]]
        return sum(a * b for a, b in zip(y, coroot))

    def _dcoeffs(self, j: int, n: int):
        """Coefficients d_k with D_j(y) = sum_k d_k theta_{y + k X_j}, <y,a#> = n.

        s(y) = y - n a; with X_j = m a the shift is in X_j-units n' = n/m, and
        D_j(y) = (A + B u^{-1}) (1 - u^{-n'}) / (1 - u^{-2}) evaluated at
        u = theta_{X_j}, applied to theta_y.  The division runs over the
        v-field; its quotient is converted to Z[v, v^-1] once per (j, n').
        """
        m = self.x_points[j][j]
        if n % m:
            raise ArithmeticError(
                f"pairing {n} not divisible by the X-point multiplier {m}")
        n = n // m
        key = (j, n)
        hit = self._d_cache.get(key)
        if hit is None:
            if n == 0:
                hit = ()
            else:
                a, b = self.A[j], self.B[j]
                ab = Laurent({0: VRat(a.num, a.den), -1: VRat(b.num, b.den)})
                f = ab * (L_ONE - Laurent.x_pow(-n))
                g = div_exact(f, L_ONE - Laurent.x_pow(-2))
                hit = tuple((k, ZLaurent.coerce(c)) for k, c in g.terms())
            self._d_cache[key] = hit
        return hit

    def _right_mult_ts(self, terms: dict, j: int) -> dict:
        out: dict = {}
        for (x, ui), c in terms.items():
            usi = self.ws_table[ui][j]
            if self.lengths[usi] > self.lengths[ui]:
                _bump(out, (x, usi), c)
            else:
                _bump(out, (x, ui), c * self.A[j])
                _bump(out, (x, usi), c * self.qq[j])
        return out

    def __repr__(self):
        rs = self.datum.root_system
        tag = f"{rs.cartan_type}{rs.rank}" if rs else "empty"
        return f"AHA({tag}, lattice Z^{self.d})"


class AHAElement:
    """Finite sum of theta_x T_w with coefficients in Z[v, v^-1] (ZLaurent).

    int, Fraction and VRat inputs are converted; 1/2 or 1/(1+v) raise ValueError.
    """

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra: AHA, terms: dict):
        clean = {}
        for (x, wi), c in terms.items():
            c = ZLaurent.coerce(c)
            if c:
                clean[(tuple(x), wi)] = c
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, *a):
        raise AttributeError("AHAElement is immutable")

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return (isinstance(other, AHAElement) and self.algebra is other.algebra
                and self.terms == other.terms)

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other: "AHAElement") -> "AHAElement":
        out = dict(self.terms)
        for key, c in other.terms.items():
            _bump(out, key, c)
        return AHAElement(self.algebra, out)

    def __neg__(self) -> "AHAElement":
        return AHAElement(self.algebra, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other: "AHAElement") -> "AHAElement":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, AHAElement):
            return self.algebra.multiply(self, other)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c) -> "AHAElement":
        c = ZLaurent.coerce(c)
        return AHAElement(self.algebra, {k: c * v for k, v in self.terms.items()})

    def specialize(self, v: Fraction) -> dict:
        """Evaluate all coefficients at a numeric v; map (x, w-index) -> Fraction.

        Terms whose coefficient vanishes at v are dropped, so the result is a
        normalized element of the specialized algebra.
        """
        out = {k: c.eval(v) for k, c in self.terms.items()}
        return {k: f for k, f in out.items() if f}

    def to_json(self) -> dict:
        rows = sorted(self.terms.items(),
                      key=lambda kv: (self.algebra.W[kv[0][1]].word, kv[0][0]))
        return {"terms": [{"x": list(x), "w": list(self.algebra.W[wi].word),
                           "coeff": str(c)} for (x, wi), c in rows]}

    def __repr__(self):
        if not self.terms:
            return "AHAElement(0)"
        bits = []
        for (x, wi), c in sorted(self.terms.items(),
                                 key=lambda kv: (self.algebra.W[kv[0][1]].word, kv[0][0])):
            w = self.algebra.W[wi].word
            body = []
            if any(x):
                body.append(f"th{list(x)}")
            if w:
                body.append("T" + "".join(str(j) for j in w))
            body = " ".join(body) or "1"
            bits.append(f"({c})*{body}")
        return " + ".join(bits)


def algebra(datum: BasedRootDatum, lf: LabelFunction, **kw) -> AHA:
    """Build an algebra handle; labels must be admissible on the datum."""
    return AHA(datum, lf, **kw)


def multiply(a: AHAElement, b: AHAElement) -> AHAElement:
    return a.algebra.multiply(a, b)


def normal_form(alg: AHA, word) -> AHAElement:
    """Fold a formal generator word into the theta/T basis.

    Tokens: ("theta", lattice point) or ("T", simple index).  The result is
    already normal; feeding its own terms back in reproduces it.
    """
    out = alg.one()
    for tok in word:
        kind, arg = tok
        if kind == "theta":
            out = multiply(out, alg.theta(arg))
        elif kind == "T":
            out = multiply(out, alg.t_simple(int(arg)))
        else:
            raise ValueError(f"unknown generator kind {kind!r}")
    return out


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
            key = (tuple(p + q for p, q in zip(x, wy)), alg._word_index(
                alg.W[wi].word + alg.W[vi].word))
            out[key] = out.get(key, Fraction(0)) + c * c2
    return {k: v for k, v in out.items() if v}


def _braid_order(rs, i: int, j: int) -> int:
    return {0: 2, 1: 3, 2: 4, 3: 6}[rs.cartan[i][j] * rs.cartan[j][i]]


def _random_element(alg: AHA, rng: random.Random, max_len=3, box=2) -> AHAElement:
    terms = {}
    short = [i for i, L in enumerate(alg.lengths) if L <= max_len]
    for _ in range(rng.randint(1, 3)):
        x = tuple(rng.randint(-box, box) for _ in range(alg.d))
        wi = rng.choice(short)
        terms[(x, wi)] = ZLaurent.v_pow(rng.randint(-2, 2)) * (rng.randint(1, 3))
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
    if sample_count > SAMPLES_CAP:
        raise SizeLimitError(f"sample count {sample_count} exceeds {SAMPLES_CAP}")
    # qq_s = v^(2 lambda_s): the widest label sets the coefficient widths
    work = sample_count * len(alg.W) ** 2 * (20 + max((q.val for q in alg.qq), default=0))
    if work > SAMPLE_WORK_CAP:
        raise SizeLimitError(f"{sample_count} samples on |W| = {len(alg.W)}: "
                             f"work {work} exceeds {SAMPLE_WORK_CAP}")
    report = {"quadratic": True, "braid": True, "cross": True,
              "finite_rank": len(alg.W), "associativity": 0,
              "group_algebra_spec": True, "failures": []}
    one = alg.one()
    for j in range(alg.rank):
        ts = alg.t_simple(j)
        lhs = ts * ts
        rhs = (alg.qq[j] - 1) * ts + alg.qq[j] * one
        if lhs != rhs:
            report["quadratic"] = False
            report["failures"].append({"relation": "quadratic", "simple": j})
    rs = alg.datum.root_system
    for i in range(alg.rank):
        for j in range(i + 1, alg.rank):
            m = _braid_order(rs, i, j)
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
            # theta_x T_s has about |<x, a^vee>| terms, so theta's lattice cap
            # (which refuses parts of [-2, 2]^4 on rank 4) does not apply
            th, thsx = alg.element({(x, 0): ZL_ONE}), alg.element({(sx, 0): ZL_ONE})
            lhs = th * alg.t_simple(j) - alg.t_simple(j) * thsx
            rhs_terms: dict = {}
            for k, dk in alg._dcoeffs(j, alg._pair(x, j)):
                pt = tuple(a + k * b for a, b in zip(x, alg.x_points[j]))
                _bump(rhs_terms, (pt, 0), dk)
            if lhs != alg.element(rhs_terms):
                report["cross"] = False
                report["failures"].append({"relation": "cross", "seed": seed,
                                           "simple": j, "x": list(x)})
    for index in range(sample_count):
        a = _random_element(alg, rng)
        b = _random_element(alg, rng)
        c = _random_element(alg, rng)
        if (a * b) * c != a * (b * c):
            report["failures"].append(
                _sample_failure("associativity", seed, index, a, b, c))
        else:
            report["associativity"] += 1
        ab = a * b
        spec = _group_algebra_mult(alg, a.specialize(Fraction(1)),
                                   b.specialize(Fraction(1)))
        if spec != ab.specialize(Fraction(1)):
            report["group_algebra_spec"] = False
            report["failures"].append(
                _sample_failure("v=1 specialization", seed, index, a, b))
    report["ok"] = not report["failures"]
    return report
