"""Affine Hecke algebra arithmetic in the theta/T basis."""
import hashlib
import itertools
import json
import random
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hecke.hecke_algebra import (AHA, FIELD_CAP, _act, _group_algebra_mult, _norm,
                                  _random_element, algebra, check_relations, multiply,
                                  normal_form)
from hecke.label_params import LabelFunction
from hecke.qfield import K, PONE, VR_ONE, VR_ZERO, VRat, pack
from hecke.root_data import BasedRootDatum, SizeLimitError, build_root_system, word_index

from _reference import specialize


def _alg(t, n, labels):
    rs = build_root_system(t, n)
    return AHA(BasedRootDatum(rs), LabelFunction.for_system(rs, labels))


def test_quadratic_and_cube_a1():
    alg = _alg("A", 1, (1, 1))
    ts, one = alg.t_simple(0), alg.one()
    q = VRat.v_pow(2)
    assert ts * ts == ts.scale(q - 1) + one.scale(q)
    assert ts * ts * ts == ts.scale(q * q - q + 1) + one.scale(q * q - q)


def test_cross_relation_a1():
    # theta_a T_s = T_s theta_{-a} + (q q* - 1) theta_a + (q - q*) T_e at <a,a#>=2
    alg = _alg("A", 1, (1, 1))
    ts, one = alg.t_simple(0), alg.one()
    th = alg.theta((1,))
    q = VRat.v_pow(2)
    assert multiply(th, ts) == multiply(ts, alg.theta((-1,))) \
        + th.scale(q - 1) + one.scale(q - 1)


def test_unequal_parameter_cross_b1():
    # B1 with (lambda, lambda*) = (1, 0): q_a = q_{a*} = v, so B = 0
    alg = _alg("B", 1, (1, 0))
    ts = alg.t_simple(0)
    th = alg.theta((1,))
    v2 = VRat.v_pow(2)
    # T_s theta_a = theta_{-a} T_s + (v^2-1) theta_a   (A = v^2-1, B = 0)
    assert multiply(ts, th) == multiply(alg.theta((-1,)), ts) + th.scale(v2 - 1)


def test_theta_group_law():
    alg = _alg("B", 2, (3, 3, 1))
    assert alg.theta((2, -1)) * alg.theta((-2, 1)) == alg.one()
    assert alg.theta((1, 0)) * alg.theta((0, 2)) == alg.theta((1, 2))


def test_finite_part_closed_and_length_additive():
    alg = _alg("B", 2, (3, 3, 1))
    W = alg.W
    zero = (0, 0)
    for wi in range(len(W)):
        for vi in range(len(W)):
            prod = multiply(alg.t(W[wi].word), alg.t(W[vi].word))
            assert all(x == zero for (x, _) in prod.terms)
            if alg.lengths[wi] + alg.lengths[vi] == alg.lengths[word_index(
                    alg.ws_table, W[wi].word + W[vi].word)]:
                assert prod == alg.t(W[wi].word + W[vi].word)


@pytest.mark.parametrize("typ, labels", [("B", (3, 3, 1)), ("G", (1, 3))])
def test_t_of_a_reduced_word_is_its_basis_element(typ, labels):
    alg = _alg(typ, 2, labels)
    zero = (0,) * alg.d
    for i, w in enumerate(alg.W):
        el = alg.t(w.word)
        assert el == alg.element({(zero, i): 1})
        # one product per letter, as T_w was built before
        prod = alg.one()
        for j in w.word:
            prod = multiply(prod, alg.t_simple(j))
        assert el == prod
    for bad in [(0, 0), (1, 0, 0), (2,), (-1,), (0, 1, 2)]:
        with pytest.raises(ValueError):
            alg.t(bad)


@pytest.mark.parametrize("typ, labels", [("B", (3, 3, 1)), ("G", (1, 3))])
def test_zero_and_identity_products(typ, labels):
    alg = _alg(typ, 2, labels)
    rng = random.Random(f"zero/{typ}")
    a = _random_element(alg, rng) * _random_element(alg, rng)
    zero, one = alg.element({}), alg.one()
    for prod in (a * zero, zero * a, zero * zero):
        assert prod.is_zero() and prod.bound == 0
    assert a * one == a and one * a == a


def test_a_product_right_multiplies_once_per_u_of_the_chains():
    # a deterministic work count: with a warm T.theta cache, a product makes
    # one _right_mult_ts per distinct w of a and per u != e on the first-letter
    # chains of b's u's, at most |W| - 1 of them.  Right-multiplying each term
    # of b letter by letter made 427 calls on this product (7 now, bound 11)
    alg = _alg("G", 2, (1, 3))
    rng = random.Random(1)
    a, b, c = (_random_element(alg, rng) for _ in range(3))
    bc = b * c
    want = a * bc
    right_mult, calls = alg._right_mult_ts, []

    def counted(terms, m, j):
        calls.append(j)
        return right_mult(terms, m, j)

    alg._right_mult_ts = counted
    assert a * bc == want
    assert 0 < len(calls) <= len({wi for _, wi in map(alg.unkey, a.ints)}) * (len(alg.W) - 1)


def _dense(alg, rng, coeffs=(1,)):
    """Every u in W at three lattice points of the box [-2, 2]^d."""
    box = list(itertools.product(range(-2, 3), repeat=alg.d))
    return alg.element({(x, ui): VRat.v_pow(rng.randint(-2, 2)) * rng.choice(coeffs)
                        for ui in range(len(alg.W)) for x in rng.sample(box, 3)})


@pytest.mark.parametrize("typ, labels", [("A", (2, 2)), ("B", (3, 3, 1)), ("G", (1, 3))])
def test_summed_pieces_keep_a_bound_on_each_piece(typ, labels):
    # T_w * b with every u in b: the one bound of the summed walk covers the l1
    # mass of each T_w theta_y T_u, built here letter by letter from the cache.
    # T_w has bound 1 and the product's bound stays far below 2^63, so it is
    # b.bound times the walk's bound
    alg = _alg(typ, 2, labels)
    b = _dense(alg, random.Random(f"pieces/{typ}"))
    for wi in range(len(alg.W)):
        top = (alg.element({((0, 0), wi): 1}) * b).bound // b.bound
        for y, ui in b.terms:
            piece, _, _ = alg._t_times_theta(wi, alg.key(y))
            for j in alg.W[ui].word:
                piece, _ = alg._right_mult_ts(piece, 0, j)
            assert _norm(piece) <= top


def _refused_from(alg, a, b, s):
    """Check that a * b scaled by 2^(s-1) is accepted, equal to the sum of its
    pieces built alone, and that at 2^s it is refused, exactly where the
    exact norms of a, b and of the largest T_w theta_y T_u reach 2^63."""
    top = 0
    for wi in {wi for _, wi in map(alg.unkey, a.ints)}:
        for y, ui in b.terms:
            piece, _, _ = alg._t_times_theta(wi, alg.key(y))
            for j in alg.W[ui].word:
                piece, _ = alg._right_mult_ts(piece, 0, j)
            top = max(top, _norm(piece))
    assert 2**(s - 1) * _norm(a.ints) * _norm(b.ints) * top < 2**63 <= \
        2**s * _norm(a.ints) * _norm(b.ints) * top
    ab = a.scale(2**(s - 1)) * b
    assert _l1(ab) <= ab.bound < 2**63
    assert ab == sum((a.scale(2**(s - 1)) * alg.element({key: 1}).scale(c)
                      for key, c in b.terms.items()), alg.element({}))
    with pytest.raises(SizeLimitError):
        a.scale(2**s) * b


def test_summed_pieces_refuse_no_more_than_the_pieces_alone():
    # the bound of b's pieces summed per u reaches 2^63 on this product at
    # 2^42, the pieces' own tracked bounds at 2^46, their exact norms only at
    # 2^48: near 2^63 a product is refused exactly where those refuse it
    alg = _alg("G", 2, (1, 3))
    rng = random.Random(0)
    _refused_from(alg, _random_element(alg, rng), _dense(alg, rng, (-2, -1, 1, 3)), 48)


def test_check_relations_small():
    for t, n, labels in [("A", 1, (1, 1)), ("B", 2, (3, 3, 1))]:
        rep = check_relations(_alg(t, n, labels), sample_count=10, seed=3)
        assert rep["ok"], (t, n, rep["failures"])
        assert rep["associativity"] == 10
        assert rep["finite_rank"] == {1: 2, 2: 8}[n]


def test_check_relations_does_not_trust_the_handle():
    # the right sides are read off the labels, so a handle whose qq is one
    # t-power too high, or whose B has q_a and q_a* swapped, fails the check
    alg = _alg("A", 1, (1, 1))
    alg.qq[0] += K
    assert not check_relations(alg, sample_count=2, seed=0)["ok"]
    for n in (2, 3):
        alg = _alg("B", n, (3, 3, 1))
        j = n - 1   # the short simple root, where lambda* = 1
        alg.B[j] = alg.B[j][::-1]
        rep = check_relations(alg, sample_count=2, seed=0)
        assert not rep["ok"] and not rep["cross"], n


def test_empty_system_is_commutative_laurent():
    alg = AHA(BasedRootDatum(None, lattice_rank=2), LabelFunction(()))
    a = alg.theta((1, 0)) + alg.theta((0, 1))
    b = alg.theta((-1, 0))
    assert a * b == alg.one() + alg.theta((-1, 1))
    assert a * b == b * a


def test_inadmissible_labels_rejected():
    rs = build_root_system("A", 2)
    with pytest.raises(ValueError):
        algebra(BasedRootDatum(rs), LabelFunction.for_system(rs, (2, 1)))


def test_mismatched_handles_rejected():
    a1 = _alg("A", 1, (1, 1))
    a2 = _alg("A", 1, (1, 1))
    with pytest.raises(ValueError):
        multiply(a1.one(), a2.one())
    # + and - too, also when the Weyl groups differ (their w-indices mean other words)
    a2_ = _alg("A", 2, (1, 1))
    g2 = _alg("G", 2, (1, 3))
    for x, y in [(a1.one(), a2.one()), (a2_.t_simple(0), g2.t((0, 1, 0))),
                 (g2.t((1, 0)), a2_.theta((1, 0)))]:
        with pytest.raises(ValueError):
            x + y
        with pytest.raises(ValueError):
            x - y
        with pytest.raises(ValueError):
            y - x


def test_json_roundtrip():
    alg = _alg("B", 2, (3, 3, 1))
    el = multiply(alg.t((0, 1)), alg.theta((1, -1)))
    blob = el.to_json()
    assert alg.from_json(blob) == el
    assert blob == alg.from_json(blob).to_json()  # stable serialization
    term = blob["terms"][0]
    assert set(term) == {"x", "w", "coeff"}


@pytest.mark.parametrize("word", [[0, 0], [-1], [5]],
                         ids=["not-reduced", "negative", "out-of-range"])
def test_from_json_refuses_what_t_refuses(word):
    # [0, 0] is not reduced (T_0 T_0 = v^2 + (v^2 - 1) T_0, not T_1), -1 is no
    # simple index (not T_0 by negative indexing) and 5 is out of range
    alg = _alg("A", 1, (1, 1))
    for build in (lambda: alg.t(word),
                  lambda: alg.from_json({"terms": [{"x": [0], "w": word, "coeff": "(1)/(1)"}]})):
        with pytest.raises(ValueError):
            build()


@pytest.mark.parametrize("r", [2, Fraction(1, 2)], ids=str)
@pytest.mark.parametrize("t,n,labels", [("A", 1, (1, 1)), ("B", 2, (3, 3, 1)),
                                        ("G", 2, (1, 3))], ids=["A1", "B2", "G2"])
def test_the_algebra_is_the_same_at_every_base(t, n, labels, r):
    # rescaling the base leaves the q-parameters, hence every printed v-power, alone
    rs = build_root_system(t, n)
    lf = LabelFunction.for_system(rs, labels)
    out = []
    for f in (lf, lf.rescale(r)):
        alg = AHA(BasedRootDatum(rs), f)
        word = [("theta", (1,) + (-1,) * (alg.d - 1)), ("T", 0), ("T", n - 1), ("T", 0)]
        prod = alg.t((0,)) * alg.theta((-1,) * alg.d)
        out.append(json.dumps([normal_form(alg, word).to_json(), prod.to_json(),
                               check_relations(alg, 2, seed=3)], sort_keys=True))
    assert out[0] == out[1]


def test_normal_form():
    alg = _alg("B", 2, (3, 3, 1))
    braid1 = normal_form(alg, [("T", 0), ("T", 1), ("T", 0), ("T", 1)])
    braid2 = normal_form(alg, [("T", 1), ("T", 0), ("T", 1), ("T", 0)])
    assert braid1 == braid2
    assert normal_form(alg, [("theta", (1, 0)), ("theta", (0, 2))]) == alg.theta((1, 2))
    assert normal_form(alg, [("T", 0), ("T", 0)]) == multiply(
        alg.t_simple(0), alg.t_simple(0))
    with pytest.raises(ValueError):
        normal_form(alg, [("bogus", 0)])


def test_long_words_keep_small_coefficients():
    # T_s^k = a_k T_s + b_k with a_{k+1} = (q - 1) a_k + b_k, b_{k+1} = q a_k:
    # the coefficient bound follows the Pell numbers past 2^63 near k = 51,
    # while the coefficients' l1 norms stay at k
    alg = _alg("A", 1, (1, 1))
    q = VRat.v_pow(2)
    a, b = VR_ONE, VR_ZERO
    for _ in range(59):
        a, b = (q - VR_ONE) * a + b, q * a
    got = normal_form(alg, [("T", 0)] * 60)
    assert got == alg.t_simple(0).scale(a) + alg.one().scale(b)


def _l1(el):
    return sum(sum(map(abs, z.num)) for z in el.terms.values())


def test_bound_is_taken_again_from_the_operands():
    # (1 + v)^k (1 - v)^k has l1 norm at most 2^k, while the product of the
    # bounds is 4^k: past k = 31 only the operands' exact norms keep it below 2^63
    alg = _alg("A", 1, (1, 1))
    p, m = alg.one().scale(VRat((1, 1))), alg.one().scale(VRat((1, -1)))
    z, x = alg.one(), VR_ONE
    for _ in range(40):
        z, x = z * p * m, x * VRat((1, 1)) * VRat((1, -1))
        assert _l1(z) <= z.bound < 2**63
    assert z == alg.one().scale(x) and _l1(z) == 2**40
    s = z + z                               # a sum is taken again the same way
    assert s == z.scale(2) and s.bound >= _l1(s)


def test_products_that_overflow_are_refused():
    alg = _alg("B", 2, (3, 3, 1))
    big = alg.t_simple(1).scale(2**40)
    with pytest.raises(SizeLimitError):
        big * big                           # 2^80 in one slot
    with pytest.raises(SizeLimitError):
        big.scale(2**23)
    with pytest.raises(SizeLimitError):
        alg.one().scale(2**62) + alg.one().scale(VRat.v_pow(-3) * 2**62)
    with pytest.raises(SizeLimitError):     # the bound is the l1 mass of the element
        alg.element({((0, 0), 0): 2**62, ((1, 0), 0): 2**62})
    assert (big.scale(2**22) - big.scale(2**22)).is_zero()
    assert (alg.one().scale(2**62) - alg.one().scale(2**62)).is_zero()


def test_scaling_builds_no_t_theta():
    # T_w theta_0 = T_w: scale is a product with c theta_0, and that product
    # reads the T.theta memo for no w
    alg = _alg("G", 2, (1, 3))
    el = alg.element({((1, -1), w): VRat.v_pow(w % 3) * (w - 5)
                      for w in range(len(alg.W))})
    c = VRat((-2, 1, 0, 3))
    got = el.scale(c)
    assert not alg._tt_cache
    assert got == alg.element({key: c * z for key, z in el.terms.items()})
    assert got.bound == 6 * el.bound and got.reach == el.reach   # |c|_1 = 6


def test_cached_bounds_are_taken_again():
    # T_10 theta_(1,1) rests on cached T_1 theta_y entries: their bounds
    # loosened to 2^62 sum past 2^63, and are then taken again from their terms
    alg, ref = _alg("B", 2, (3, 3, 1)), _alg("B", 2, (3, 3, 1))
    w, y = word_index(alg.ws_table, (1, 0)), alg.key((1, 1))
    want = alg._t_times_theta(w, y)
    for key, (terms, _, reach) in list(alg._tt_cache.items()):
        alg._tt_cache[key] = terms, 2**62, reach
    del alg._tt_cache[(w, y)]
    got = alg._t_times_theta(w, y)
    assert got[0] == want[0] and got[1] < 2**62
    assert (alg.t((1, 0)) * alg.theta((1, 1))).to_json() == \
        (ref.t((1, 0)) * ref.theta((1, 1))).to_json()


_chain_ops = st.lists(st.sampled_from(["+", "-", "*", "scale"]), max_size=6)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([("B", 2, (3, 3, 1)), ("G", 2, (1, 3))]), st.integers(0, 2**32),
       _chain_ops)
# the sixth product's tracked bound reaches 2^63 (l1 norms of 9, 17, 25, 30,
# 41 bits before it), its factors' and pieces' exact norms only 2^56: the
# whole chain runs (test_exact_piece_norms_accept_the_seed_2574_chain)
@example(("G", 2, (1, 3)), 2574, ["*"] * 6)
def test_bound_covers_l1_norm_along_chains(case, seed, ops):
    alg = _alg(*case)
    rng = random.Random(seed)
    z = _random_element(alg, rng)
    for op in ops:
        b = _random_element(alg, rng)
        try:
            if op == "+":
                z = z + b
            elif op == "-":
                z = z - b
            elif op == "*":
                z = z * b if rng.random() < 0.5 else b * z
            else:
                z = z.scale(VRat.v_pow(rng.randint(-3, 3)) * rng.choice((-7, 2, 5)))
        except SizeLimitError as e:
            if not re.fullmatch(r"coefficient bound \d+ reaches 2\^63", str(e)):
                raise
            return
        assert z.bound >= _l1(z)


def test_exact_piece_norms_accept_the_seed_2574_chain():
    # the @example above: six products, the last with an l1 norm of 47 bits
    alg = _alg("G", 2, (1, 3))
    rng = random.Random(2574)
    z = _random_element(alg, rng)
    for _ in range(6):
        b = _random_element(alg, rng)
        z = z * b if rng.random() < 0.5 else b * z
    assert _l1(z).bit_length() == 47 and _l1(z) <= z.bound < 2**63


def test_specialize_at_one_agrees_with_the_general_path():
    # v = 1 reads each coefficient mod 2^K - 1; the general path (the
    # reference) decodes, and is the only one that evaluates elsewhere
    alg = _alg("B", 2, (3, 3, 1))
    rng = random.Random(7)
    edge = (2**62, -(2**61), 2**60, -1)
    samples = [alg.element({((0, 0), 0): 2**63 - 1}),
               alg.element({((0, 0), 0): -(2**63 - 1)}),
               alg.element({((1, 0), 0): VRat(edge, (0, 0, 0, 1)),
                            ((0, 1), 3): VRat((1, 0, 2**59), (0, 0, 1))})]
    for _ in range(20):
        a, b = _random_element(alg, rng), _random_element(alg, rng)
        samples.append((a * b).scale(VRat.v_pow(rng.randint(-4, 4))))
        samples.append(a - b.scale(VRat.v_pow(-5) * 3))
    one = Fraction(1)
    for el in samples:
        assert el.specialize() == specialize(el, one)


def test_specialization_at_v1_is_group_algebra():
    alg = _alg("G", 2, (1, 3))
    a = alg.theta((1, -1)) * alg.t_simple(0)
    b = alg.t_simple(1) * alg.theta((0, 1))
    ab = (a * b).specialize()
    assert all(f.denominator == 1 for f in ab.values())
    assert sum(abs(f) for f in ab.values()) == 1  # single group element survives


def test_coefficients_outside_z_v_pm1_rejected():
    alg = _alg("A", 1, (1, 1))
    ts = alg.t_simple(0)
    key = next(iter(ts.terms))
    scaled = ts.scale(VRat.v_pow(-3) * 2)
    assert scaled.terms[key] == VRat.v_pow(-3) * 2
    # v^-3 = t^-2 v at t = v^2: e counts t-powers, and the key carries r = 1
    assert pack(scaled.terms[key]) == (-3, 2, 2)
    assert alg.g == 2 and scaled.e == 2 and scaled.ints == {alg.key(*key, r=1): 2}
    assert ts.scale(Fraction(4, 2)) == ts.scale(2)
    # 1/(1+v) is refused where it is built, outside Q[v, v^-1]
    for bad, text in ((lambda: VRat(PONE, (1, 1)), "(1)/(v+1)"),
                      (lambda: Fraction(1, 2), "1/2"), (lambda: VRat(1, 2), "(1)/(2)")):
        with pytest.raises(ValueError):
            ts.scale(bad())
        with pytest.raises(ValueError):
            alg.element({key: bad()})
        with pytest.raises(ValueError):
            alg.from_json({"terms": [{"x": [0], "w": [0], "coeff": text}]})


def test_failures_carry_reproducing_inputs():
    alg = _alg("B", 2, (3, 3, 1))
    right_mult = alg._right_mult_ts

    def doubled_qq(terms, m, j):
        # 2 qq_0 in T_u T_0 = A T_u + qq T_u0 (u0 < u): T_0^2 no longer
        # specializes to 1 at v = 1.  The keys (x, w) with w s_0 > w receive
        # only qq_0-terms, so doubling them doubles exactly those
        out, m = right_mult(terms, m, j)
        if j == 0:
            out = {k: 2 * c if alg.ws_table[w][0] > w else c
                   for k, c in out.items() for w in [alg.unkey(k)[1]]}
        return out, 2 * m

    alg._right_mult_ts = doubled_qq
    rep = check_relations(alg, sample_count=6, seed=4)
    assert not rep["ok"]
    assert {"relation": "quadratic", "simple": 0} in rep["failures"]
    samples = [f for f in rep["failures"] if f["relation"] == "v=1 specialization"]
    assert samples
    for f in samples:
        assert f["seed"] == 4 and 0 <= f["sample"] < 6
        a, b = alg.from_json(f["a"]), alg.from_json(f["b"])
        spec = _group_algebra_mult(alg, a.specialize(), b.specialize())
        assert spec != (a * b).specialize()


def _w_orbit(alg, y):
    orbit, todo = {y}, [y]
    while todo:
        x = todo.pop()
        for j in range(alg.rank):
            z = alg.datum.reflect(j, x)
            if z not in orbit:
                orbit.add(z)
                todo.append(z)
    return orbit


def test_lattice_cap_is_w_invariant():
    # COORD_CAP admits both; the spread (sum over a > 0 of |<y, a^vee>|) is
    # 60 for (10,10) and 160 for (-10,10), refused on rank 2 above 112
    alg = _alg("G", 2, (1, 3))
    for y, refused in (((10, 10), False), ((-10, 10), True), ((7, -7), False),
                       ((-8, 8), True)):
        for z in _w_orbit(alg, y):
            if max(map(abs, z)) > 10:
                continue
            if refused:
                with pytest.raises(SizeLimitError):
                    alg.theta(z)
            else:
                assert alg.theta(z).terms
    # the cap falls with the rank: spread 42 passes on B3 and fails on F4
    assert _alg("B", 3, (3, 3, 1)).theta((-3, -3, 2)).terms
    f4 = _alg("F", 4, (2, 1))
    with pytest.raises(SizeLimitError):
        f4.theta((-1, 1, 0, 0))
    assert f4.theta((-1, -1, 1, 0)).terms   # spread 38
    # check_relations' cross relation draws x from [-2, 2]^4 (spread up to
    # 116) and multiplies by one T_s only: it stays open on rank 4
    assert check_relations(f4, sample_count=0, seed=1)["cross"]


def test_normal_form_charges_the_whole_word():
    # theta_(-5,5) (spread 80) passes alone, but a word's spreads add up: with
    # two of them the word is charged for spread 160, as theta_(-10,10) is
    alg = _alg("G", 2, (1, 3))
    assert normal_form(alg, [("theta", (-5, 5)), ("T", 0)]).terms
    with pytest.raises(SizeLimitError):
        normal_form(alg, [("theta", (-5, 5)), ("T", 0), ("theta", (-5, 5))])


def test_normal_form_charges_its_t_tokens():
    # a T token is charged the terms that the theta_y before it make, and at
    # least one: at width 3, 69 T tokens pass and 70 are refused (70 * 13 >
    # 900), so (T0 T1)^2000 is refused before its first product; after
    # theta_(-5,5) (spread 80, 32.7 terms) two T tokens pass and three do not
    b2, g2 = _alg("B", 2, (3, 3, 1)), _alg("G", 2, (1, 3))
    assert len(normal_form(b2, [("T", i % 2) for i in range(69)]).ints) == len(b2.W)
    for alg, word in ((b2, [("T", i % 2) for i in range(70)]),
                      (b2, [("T", i % 2) for i in range(4000)]),
                      (g2, [("theta", (-5, 5)), ("T", 0), ("T", 1), ("T", 0)])):
        with pytest.raises(SizeLimitError, match="T tokens"):
            normal_form(alg, word)
    assert normal_form(g2, [("theta", (-5, 5)), ("T", 0), ("T", 1)]).terms
    # braid words of length 4 at width 200, the widest labels give
    assert check_relations(_alg("B", 3, (100, 100, 1)), sample_count=0)["braid"]


def test_work_cap_weighs_the_width():
    # spread 112 passes at width 3 (labels 1,3) and 1 (100,100, g = 200), not
    # at width 100 (100,99, g = 2); the default 50 samples pass at width 1
    # (A2 100,100) but not at 200 (B2 100,100,1, g = 1)
    for labels, width in (((1, 3), 3), ((100, 100), 1), ((100, 99), 100)):
        alg = _alg("G", 2, labels)
        assert max(alg.qq) // K == width
        if width < 100:
            assert alg.theta((-7, 7)).terms
        else:
            with pytest.raises(SizeLimitError):
                alg.theta((-7, 7))
    assert check_relations(_alg("A", 2, (100, 100)), sample_count=50)["ok"]
    with pytest.raises(SizeLimitError):
        check_relations(_alg("B", 2, (100, 100, 1)), sample_count=50)


def test_coordinates_past_the_field_cap_are_refused():
    # a key packs each coordinate in a signed 64-bit field: element takes
    # |x_i| up to FIELD_CAP and refuses the next one
    alg = _alg("A", 1, (1, 1))
    for c in (FIELD_CAP, -FIELD_CAP):
        el = alg.element({((c,), 1): 1})
        assert list(el.terms) == [((c,), 1)] and el.reach == FIELD_CAP
        assert alg.unkey(alg.key((c,), 1)) == ((c,), 1)
        assert el.to_json()["terms"][0]["x"] == [c]
    for c in (FIELD_CAP + 1, -FIELD_CAP - 1):
        with pytest.raises(SizeLimitError):
            alg.element({((c,), 0): 1})
    for bad in [((0, 0), 0), ((0,), 2), ((0,), -1)]:
        with pytest.raises(ValueError):
            alg.element({bad: 1})


def test_a_chain_of_products_is_refused_at_the_field_cap():
    # the padded coordinate is W-fixed, so z = theta_(1, c) T_s has
    # z^(2^k) = theta_(0, 2^k c) (theta_(1, 0) T_s)^(2^k): squaring doubles the
    # coordinate bound, up to FIELD_CAP, and the next product is refused
    rs = build_root_system("A", 1)
    alg = AHA(BasedRootDatum(rs, lattice_rank=2), LabelFunction.for_system(rs, (1, 1)))
    c = FIELD_CAP >> 3
    z, small = alg.element({((1, c), 1): 1}), alg.element({((1, 0), 1): 1})
    for k in range(1, 4):
        z, small = z * z, small * small
        assert z.reach == c << k
        assert z.terms == {((x0, x1 + (c << k)), w): coeff
                           for ((x0, x1), w), coeff in small.terms.items()}
    ts = alg.t_simple(0)
    assert z.reach == (z * ts).reach == (ts * z).reach == FIELD_CAP
    for b in (z, alg.theta((0, 1)), alg.theta((1, 0))):
        with pytest.raises(SizeLimitError):
            z * b


def test_w_moves_coordinates_by_at_most_11():
    # FIELD_CAP rests on this: on simple-root coordinates every w in W has
    # row sums at most 11 (F4), so |w y| <= 11 |y| and 12 FIELD_CAP < 2^63
    assert 12 * FIELD_CAP < 2**63
    for typ, n in [("A", 4), ("B", 4), ("C", 4), ("D", 4), ("F", 4), ("G", 2)]:
        rs = build_root_system(typ, n)
        alg = AHA(BasedRootDatum(rs), LabelFunction.for_system(rs, 1))
        units = [tuple(int(i == j) for j in range(n)) for i in range(n)]
        for wi in range(len(alg.W)):
            cols = [_act(alg, wi, e) for e in units]
            assert max(sum(abs(col[r]) for col in cols) for r in range(n)) <= 11


@pytest.mark.parametrize("typ, n, labels, g", [("A", 1, (1, 1), 2), ("A", 2, (2, 2), 4),
                                               ("B", 2, (100, 100, 0), 200),
                                               ("B", 3, (100, 100, 1), 1)])
def test_t_is_read_off_the_labels(typ, n, labels, g):
    # t = v^g, g the gcd of the v-exponents of every qq = v^(2 lambda) and,
    # where B != 0, of v^(lambda +- lambda*): B3 (100, 100, 1) has v^101 - v^99
    alg = _alg(typ, n, labels)
    assert alg.g == g
    assert all(q % K == 0 for q in alg.qq) and [q // K * g for q in alg.qq] == \
        [2 * alg.lf.values(j)[0] for j in range(alg.rank)]


@pytest.mark.parametrize("typ, n, labels", [("A", 1, (1, 1)), ("A", 2, (2, 2)),
                                            ("B", 2, (100, 100, 0))])
def test_a_coefficient_in_every_residue_round_trips(typ, n, labels):
    # sum_{r < g} v^r + v^-1 splits into g parts, v^-1 joining r = g - 1
    alg = _alg(typ, n, labels)
    g, x, wi = alg.g, (1,) + (0,) * (alg.d - 1), len(alg.W) - 1
    c = sum((VRat.v_pow(r) for r in range(g)), VRat.v_pow(-1))
    el = alg.element({(x, wi): c, ((0,) * alg.d, 0): VRat.v_pow(-1) * 3})
    assert len(el.ints) == g + 1 and el.terms == {(x, wi): c, ((0,) * alg.d, 0):
                                                   VRat.v_pow(-1) * 3}
    blob = el.to_json()
    assert alg.from_json(blob) == el and alg.from_json(blob).to_json() == blob
    assert [t["coeff"] for t in blob["terms"]] == ["(3)/(v)", str(c)]
    assert el.specialize() == {(x, wi): g + 1, ((0,) * alg.d, 0): 3}
    for k in (-1, 1, g - 1, g, 2 * g + 1):
        z = el.scale(VRat.v_pow(k) * 2)
        assert z.terms == {key: coeff * VRat.v_pow(k) * 2 for key, coeff in el.terms.items()}
        assert z.scale(VRat.v_pow(-k)) == el.scale(2)


@pytest.mark.parametrize("typ, n, labels, want", [
    ("A", 1, (1, 1), "e7f2fd4fa28aafec"), ("G", 2, (1, 3), "e714e62b6a7d2e26"),
    ("A", 2, (2, 2), "97c509df5fcf4732"), ("B", 2, (100, 100, 0), "73e72ae330d98f4a")])
def test_residues_that_pass_g_carry_one_t(typ, n, labels, want):
    # v^(g-1) theta_x T_0 times v^(g-1) theta_y: every pair's residues sum to
    # 2g - 2 >= g.  The digests were taken before coefficients were packed in t
    alg = _alg(typ, n, labels)
    g, d = alg.g, alg.d
    t0 = word_index(alg.ws_table, (0,))
    a = alg.element({((1,) + (0,) * (d - 1), t0): VRat.v_pow(g - 1)})
    b = alg.element({((1,) + (-1,) * (d - 1), 0): VRat.v_pow(g - 1)})
    text = json.dumps((a * b).to_json(), sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == want


def test_summed_pieces_refuse_no_more_than_the_pieces_alone_at_labels_100():
    # the pin of test_summed_pieces_refuse_no_more_than_the_pieces_alone at
    # t = v^200: the bounds count l1 mass, which packing in t leaves as it is
    alg = _alg("A", 2, (100, 100))
    rng = random.Random(0)
    _refused_from(alg, _random_element(alg, rng), _dense(alg, rng, (-2, -1, 1, 3)), 50)


@pytest.mark.parametrize("typ,n,labelings", [("G", 2, ((1, 3), (100, 100))),
                                             ("B", 3, ((3, 3, 1), (1, 1)))])
def test_handles_on_one_root_system_share_no_labels(typ, n, labelings):
    # the Weyl tables cached on rs serve every handle built on it; the T.theta
    # memo and everything read off the labels stay with the handle
    rs = build_root_system(typ, n)
    y = (1, -1, 1)[:n]
    for labels in labelings:
        alg = AHA(BasedRootDatum(rs), LabelFunction.for_system(rs, labels))
        assert not alg._tt_cache
        fresh = _alg(typ, n, labels)
        w0 = fresh.W[-1].word
        assert alg.lengths is rs._cache["lengths"] and alg._moves is rs._cache["moves"]
        got = alg.t(w0) * alg.theta(y)
        assert alg._tt_cache
        assert got.to_json() == (fresh.t(w0) * fresh.theta(y)).to_json()
