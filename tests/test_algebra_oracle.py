"""An independent check of the algebra: its Demazure-Lusztig representations.

The affine Hecke algebra acts on the Laurent polynomials f in the lattice
variables X^y through the module induced from a character chi of its finite
part: theta_x multiplies by X^x, and

    T_s f = chi_s * s(f) + (A + B X_a^-1) (f - s f) / (1 - X_a^-2),

with chi_s = qq_s (the trivial character) or chi_s = -1 (the sign character);
see Lusztig, Affine Hecke algebras and their graded version, JAMS 2 (1989)
section 3, and Macdonald, Affine Hecke algebras and orthogonal polynomials
(2003) section 4.3.  The action here is built from the labels and the root
datum alone, with sympy coefficients in Q(v), and reads elements through
to_json only: it uses no Weyl table, no T.theta cache and no right
multiplication of the algebra.  A product computed by the algebra must act as
the composite of its factors' actions.
"""
import functools
import itertools
import random

import pytest

sympy = pytest.importorskip("sympy")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from sympy.polys.fields import field  # noqa: E402

from hecke.hecke_algebra import AHA, normal_form  # noqa: E402
from hecke.label_params import LabelFunction  # noqa: E402
from hecke.qfield import VRat  # noqa: E402
from hecke.root_data import BasedRootDatum, build_root_system  # noqa: E402

QV, V = field("v", sympy.ZZ)
_VSYM = sympy.Symbol("v")

CASES = [("A", 1, (1, 1)), ("A", 2, (2, 2)), ("B", 2, (3, 3, 1)), ("G", 2, (1, 3))]
# labels at LABEL_CAP: t = v^200, and coefficients v^-3 ... v^3 in the factors
# make residue sums that pass 200
HIGH = [("A", 2, (100, 100)), ("B", 2, (100, 100, 0))]
# the components of the cold_products benchmark workload, and C3
RANK34 = [("B", 3, (3, 3, 1)), ("B", 4, (2, 1)), ("F", 4, (2, 1)), ("C", 3, (2, 1))]


def _id(case) -> str:
    return f"{case[0]}{case[1]}" + ("-labels100" if case in HIGH else "")


def _alg(t, n, labels):
    rs = build_root_system(t, n)
    return AHA(BasedRootDatum(rs), LabelFunction.for_system(rs, labels))


def _add(out: dict, key, c) -> None:
    s = out.get(key, QV.zero) + c
    if s == 0:
        out.pop(key, None)
    else:
        out[key] = s


def _coeff(text: str):
    """A to_json coefficient such as '(v^2-1)/(v^3)' as an element of Q(v)."""
    return QV.from_expr(sympy.parse_expr(text.replace("^", "**"),
                                         local_dict={"v": _VSYM}))


class Rep:
    """The module induced from the trivial (sign=False) or sign character."""

    def __init__(self, alg: AHA, sign: bool):
        datum = alg.datum
        self.simple = []
        r = alg.lf.base.exp
        for j in range(datum.root_system.rank):
            # q_a = q_F^(r (lam + lam*) / 2) = v^(r (lam + lam*)), v^2 = q_F at every base
            lam, ls = alg.lf.values(j)
            ea, es = r * (lam + ls), r * (lam - ls)
            assert ea.denominator == es.denominator == 1, "q-parameters are not v-powers"
            qa, qs = V ** int(ea), V ** int(es)
            root = datum.roots[datum.basis[j]]
            coroot = datum.coroots[datum.basis[j]]
            chi = -QV.one if sign else qa * qs
            self.simple.append((root, coroot, chi, qa * qs - 1, qa - qs))

    def t(self, j: int, f: dict) -> dict:
        root, coroot, chi, a, b = self.simple[j]

        def pair(y):
            return sum(p * q for p, q in zip(y, coroot))

        def shift(y, k):
            return tuple(p + k * r for p, r in zip(y, root))

        out, diff = {}, {}
        for y, c in f.items():
            sy = shift(y, -pair(y))
            _add(out, sy, chi * c)
            _add(diff, y, c)
            _add(diff, sy, -c)
        num = {}
        for y, c in diff.items():
            _add(num, y, a * c)
            _add(num, shift(y, -1), b * c)
        # long division by 1 - X_a^-2: the top term of num along a^vee is a
        # term of the quotient; what falls below num's lowest term cannot cancel
        low = min(map(pair, num), default=0)
        while num:
            y = max(num, key=pair)
            c = num.pop(y)
            _add(out, y, c)
            if pair(y) - 4 < low:
                raise ArithmeticError("divided difference is not a Laurent polynomial")
            _add(num, shift(y, -2), c)
        return out

    def theta(self, x, f: dict) -> dict:
        return {tuple(p + q for p, q in zip(x, y)): c for y, c in f.items()}

    def act(self, el, f: dict) -> dict:
        """rho(el) f, with T_w = T_{w[0]} T_{w[1]} ... for the word w of to_json."""
        memo = {(): f}

        def t_word(w):
            if w not in memo:
                memo[w] = self.t(w[0], t_word(w[1:]))
            return memo[w]

        out: dict = {}
        for term in el.to_json()["terms"]:
            c = _coeff(term["coeff"])
            for y, cy in self.theta(term["x"], t_word(tuple(term["w"]))).items():
                _add(out, y, c * cy)
        return out


def _random_element(alg: AHA, rng: random.Random, box=1, terms=3, max_len=None):
    short = [i for i, n in enumerate(alg.lengths) if max_len is None or n <= max_len]
    out = {}
    for _ in range(rng.randint(1, terms)):
        x = tuple(rng.randint(-box, box) for _ in range(alg.d))
        wi = rng.choice(short)
        out[(x, wi)] = VRat.v_pow(rng.randint(-3, 3)) * rng.choice((-3, -2, -1, 1, 2, 3))
    return alg.element(out)


def _dense_element(alg: AHA, rng: random.Random):
    """Every u in W, w0 included, at 2-3 lattice points each."""
    box = list(itertools.product((-1, 0, 1), repeat=alg.d))
    return alg.element({(x, wi): VRat.v_pow(rng.randint(-3, 3)) * rng.choice((-2, -1, 1, 3))
                        for wi in range(len(alg.W)) for x in rng.sample(box, rng.randint(2, 3))})


def _random_vector(d: int, rng: random.Random) -> dict:
    f: dict = {}
    for _ in range(rng.randint(1, 2)):
        y = tuple(rng.randint(-2, 2) for _ in range(d))
        _add(f, y, V ** rng.randint(-2, 2) * rng.choice((-2, -1, 1, 3)))
    return f


@pytest.mark.parametrize("case", CASES + HIGH, ids=_id)
@pytest.mark.parametrize("sign", [False, True], ids=["trivial", "sign"])
def test_products_act_as_composites(case, sign):
    alg = _alg(*case)
    rep = Rep(alg, sign)
    rng = random.Random(f"oracle/{case}/{sign}")
    for _ in range(4):
        a, b = _random_element(alg, rng), _random_element(alg, rng)
        f = _random_vector(alg.d, rng)
        assert rep.act(a * b, f) == rep.act(a, rep.act(b, f)), (a, b, f)


@pytest.mark.parametrize("case", CASES[1:], ids=lambda c: f"{c[0]}{c[1]}")
@pytest.mark.parametrize("sign", [False, True], ids=["trivial", "sign"])
def test_products_with_every_u_in_the_right_factor(case, sign):
    # b's pieces are summed per u and walked down first-letter chains, and
    # steps land on u's that b already holds
    alg = _alg(*case)
    rep = Rep(alg, sign)
    rng = random.Random(f"oracle-dense/{case}/{sign}")
    a, b = _random_element(alg, rng), _dense_element(alg, rng)
    f = _random_vector(alg.d, rng)
    ab = a * b
    assert rep.act(ab, f) == rep.act(a, rep.act(b, f)), (a, b, f)
    assert ab.bound >= sum(sum(map(abs, c.num)) for c in ab.terms.values())


@pytest.mark.parametrize("case", RANK34, ids=lambda c: f"{c[0]}{c[1]}")
@pytest.mark.parametrize("sign", [False, True], ids=["trivial", "sign"])
def test_short_products_at_rank_3_and_4(case, sign):
    # the support of T_w f grows along W, so the factors' w have length at
    # most 3 and f is 1 or one monomial X^y, y in [-1, 1]^d.  On f = 1 each
    # T_u at the right end of a term acts by chi_u, which only the length of u
    # fixes: X^y also sees the order of u's letters
    alg = _alg(*case)
    rep = Rep(alg, sign)
    rng = random.Random(f"oracle-rank34/{case}/{sign}")
    for _ in range(4):
        a, b = (_random_element(alg, rng, max_len=3) for _ in range(2))
        ab = a * b
        for y in ((0,) * alg.d, tuple(rng.randint(-1, 1) for _ in range(alg.d))):
            f = {y: QV.one}
            assert rep.act(ab, f) == rep.act(a, rep.act(b, f)), (a, b, y)


@pytest.mark.parametrize("case, y", [(RANK34[0], (1, -1, 1)), (RANK34[1], (0, 1, 0, 0))],
                         ids=["B3", "B4"])
def test_longest_element_times_theta_on_the_sign_module(case, y):
    # T_w0 theta_y from an empty T.theta cache (895 terms on B3) against the
    # oracle's T_w0 X^y; F4's T_w0 theta_y costs the oracle about 5 s
    alg = _alg(*case)
    rep = Rep(alg, True)
    t_w0 = alg.t(alg.W[-1].word)   # W is listed by length
    prod = t_w0 * alg.theta(y)
    assert rep.act(prod, {(0,) * alg.d: QV.one}) == rep.act(t_w0, {y: QV.one})


@pytest.mark.parametrize("case", CASES, ids=lambda c: f"{c[0]}{c[1]}")
def test_normal_form_acts_as_its_word(case):
    alg = _alg(*case)
    rng = random.Random(f"oracle-word/{case}")
    for sign in (False, True):
        rep = Rep(alg, sign)
        for _ in range(3):
            word = [("T", rng.randrange(alg.rank)) if rng.random() < 0.7 else
                    ("theta", tuple(rng.randint(-1, 1) for _ in range(alg.d)))
                    for _ in range(rng.randint(1, 6))]
            f = _random_vector(alg.d, rng)
            want = f
            for kind, arg in reversed(word):
                want = rep.t(arg, want) if kind == "T" else rep.theta(arg, want)
            assert rep.act(normal_form(alg, word), f) == want, word


@pytest.mark.parametrize("case", CASES, ids=lambda c: f"{c[0]}{c[1]}")
def test_the_oracle_satisfies_the_finite_relations(case):
    # checked on the oracle alone: T_s acts on 1 by chi_s, the quadratic
    # relation (T_s + 1)(T_s - qq_s) = 0 and the braid relations
    alg = _alg(*case)
    rng = random.Random(f"oracle-self/{case}")
    order = {0: 2, 1: 3, 2: 4, 3: 6}
    cartan = alg.datum.root_system.cartan
    for sign in (False, True):
        rep = Rep(alg, sign)
        f = _random_vector(alg.d, rng)
        for j, (_, _, chi, a, _) in enumerate(rep.simple):
            assert rep.t(j, {(0,) * alg.d: QV.one}) == {(0,) * alg.d: chi}
            tf = rep.t(j, f)
            assert rep.t(j, tf) == _sum({y: a * c for y, c in tf.items()},
                                        {y: (a + 1) * c for y, c in f.items()})
        for i in range(alg.rank):
            for j in range(i + 1, alg.rank):
                left, right = f, f
                for k in range(order[cartan[i][j] * cartan[j][i]]):
                    left = rep.t((i, j)[k % 2], left)
                    right = rep.t((j, i)[k % 2], right)
                assert left == right


@functools.cache
def _chain_alg(i):
    return _alg(*CASES[i])


@settings(max_examples=25, deadline=None)
@given(st.integers(0, len(CASES) - 1), st.integers(0, 2**32),
       st.lists(st.sampled_from(["+", "-", "scale", "left", "right"]), max_size=4))
def test_op_chains_agree_with_the_oracle(case, seed, ops):
    # rho(z) f is carried along the chain by the oracle alone, from the factors
    alg = _chain_alg(case)
    rep = Rep(alg, seed % 2 == 1)
    rng = random.Random(seed)
    f = _random_vector(alg.d, rng)
    z = _random_element(alg, rng)
    want = rep.act(z, f)
    for op in ops:
        b = _random_element(alg, rng, terms=2)
        if op == "+":
            z, want = z + b, _sum(want, rep.act(b, f))
        elif op == "-":
            z, want = z - b, _sum(want, rep.act(b, f), -1)
        elif op == "scale":
            c = VRat.v_pow(rng.randint(-4, 4)) * rng.choice((-5, 2, 7))
            z = z.scale(c)
            want = {y: _coeff(str(c)) * cy for y, cy in want.items()}
        elif op == "left":
            z, want = b * z, rep.act(b, want)
        else:
            z, want = z * b, rep.act(z, rep.act(b, f))
        assert rep.act(z, f) == want, (op, z)
        assert z.bound >= sum(sum(map(abs, c.num)) for c in z.terms.values())


def _sum(f: dict, g: dict, sign=1) -> dict:
    out = dict(f)
    for y, c in g.items():
        _add(out, y, sign * c)
    return out
