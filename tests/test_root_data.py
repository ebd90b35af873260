"""Root systems, Weyl enumeration, extended-symmetry factorization, root data."""
import itertools
import random

import pytest

from hecke.root_data import (ROOT_COUNTS, BasedRootDatum, SizeLimitError, WeylElement,
                             build_root_system, decompose_extended, element_from_word,
                             length, parse_type, simple_orbits, weyl_group)

from _reference import dot, norm_orbits, weyl_bfs

ROOT_TABLE = [
    ("A", 1, 2), ("A", 2, 6), ("A", 4, 20),
    ("B", 1, 2), ("B", 2, 8), ("B", 3, 18), ("B", 4, 32),
    ("C", 1, 2), ("C", 2, 8), ("C", 3, 18),
    ("D", 2, 4), ("D", 3, 12), ("D", 4, 24),
    ("G", 2, 12), ("F", 4, 48),
    ("E", 6, 72), ("E", 7, 126), ("E", 8, 240),
]

# every type build_root_system accepts (ranks up to BUILD_RANK_CAP)
BUILDABLE = ([("A", n) for n in range(1, 9)] + [("B", n) for n in range(1, 9)]
             + [("C", n) for n in range(1, 9)] + [("D", n) for n in range(2, 9)]
             + [("G", 2), ("F", 4), ("E", 6), ("E", 7), ("E", 8)])

WEYL_TABLE = [
    ("A", 2, 6), ("B", 2, 8), ("G", 2, 12), ("B", 3, 48), ("C", 3, 48),
    ("D", 4, 192), ("A", 4, 120), ("B", 4, 384), ("F", 4, 1152),
]


def test_root_counts():
    for t, n, count in ROOT_TABLE:
        rs = build_root_system(t, n)
        assert len(rs.all_roots) == count, (t, n)
        assert rs.n_positive * 2 == count


@pytest.mark.parametrize("t,n", BUILDABLE, ids=lambda x: str(x))
def test_root_coefficients_rebuild_the_roots(t, n):
    """Each root is sum c_i alpha_i in the ambient realization; the positive
    half has c >= 0 and is sorted by (height, c); negatives follow in order."""
    rs = build_root_system(t, n)
    dim = len(rs.simple_roots[0])
    for root, c in zip(rs.all_roots, rs.coeffs):
        assert len(c) == n
        assert root == tuple(sum(ci * a[k] for ci, a in zip(c, rs.simple_roots))
                             for k in range(dim))
    np = rs.n_positive
    pos = rs.coeffs[:np]
    assert all(ci >= 0 for c in pos for ci in c)
    assert list(pos) == sorted(pos, key=lambda c: (sum(c), c))
    assert rs.coeffs[np:] == tuple(tuple(-ci for ci in c) for c in pos)
    assert len(set(rs.all_roots)) == len(rs.all_roots) == 2 * np
    count = ROOT_COUNTS[t]
    assert len(rs.all_roots) == (count(n) if callable(count) else count[n])


def test_cartan_matrices():
    assert build_root_system("A", 2).cartan == ((2, -1), (-1, 2))
    assert build_root_system("B", 2).cartan == ((2, -2), (-1, 2))
    assert build_root_system("G", 2).cartan == ((2, -1), (-3, 2))
    c3 = build_root_system("C", 3).cartan
    assert c3 == ((2, -1, 0), (-1, 2, -1), (0, -2, 2))


def test_weyl_sizes_and_lengths():
    for t, n, size in WEYL_TABLE:
        rs = build_root_system(t, n)
        W = weyl_group(rs)
        assert len(W) == size, (t, n)
        for w in W:
            assert length(w, rs) == len(w.word)
    assert length(W[-1], rs) == rs.n_positive  # longest element comes last


def test_weyl_rank_cap():
    rs = build_root_system("B", 5)
    with pytest.raises(SizeLimitError):
        weyl_group(rs)
    with pytest.raises(SizeLimitError):
        build_root_system("A", 9)


def test_canonical_words_a2():
    rs = build_root_system("A", 2)
    assert [w.word for w in weyl_group(rs)] == [
        (), (0,), (1,), (0, 1), (1, 0), (0, 1, 0)]
    assert element_from_word(rs, (1, 0, 1)) == element_from_word(rs, (0, 1, 0))
    assert element_from_word(rs, (0, 0)).word == ()


def test_length_changes_by_one_under_simple_mult():
    for t, n in [("A", 2), ("B", 2), ("G", 2)]:
        rs = build_root_system(t, n)
        for w in weyl_group(rs):
            for j in range(rs.rank):
                ws = element_from_word(rs, w.word + (j,))
                assert abs(length(ws, rs) - length(w, rs)) == 1


def test_decompose_extended_a2():
    rs = build_root_system("A", 2)
    flip = [[0, 0, -1], [0, -1, 0], [-1, 0, 0]]  # -w0: the diagram flip
    r, w = decompose_extended(flip, rs)
    assert not r.is_identity() and w.word == ()
    assert r.simple_images == (1, 0)
    s0 = [[0, 1, 0], [1, 0, 0], [0, 0, 1]]
    r2, w2 = decompose_extended(s0, rs)
    assert r2.is_identity() and w2.word == (0,)
    prod = [[sum(flip[i][k] * s0[k][j] for k in range(3)) for j in range(3)]
            for i in range(3)]
    r3, w3 = decompose_extended(prod, rs)
    assert not r3.is_identity() and len(w3.word) == 1
    with pytest.raises(ValueError):
        decompose_extended([[1, 0, 0], [0, 1, 0], [0, 0, 2]], rs)


def _signed_permutation(perm, signs):
    return [[signs[i] if j == perm[i] else 0 for j in range(len(perm))]
            for i in range(len(perm))]


def _compose(rs, word):
    """The root permutation of s_{word[0]} ... s_{word[-1]}."""
    perm = tuple(range(len(rs.all_roots)))
    for j in word:
        perm = tuple(perm[k] for k in rs.simple_reflection_perm(j))
    return perm


def _check_least_word(rs, w):
    """w's word is reduced, spells w, and each letter is the smallest left
    descent s_i (u^-1 alpha_i < 0) of the element u that its suffix spells."""
    assert len(w.word) == length(w, rs)
    assert _compose(rs, w.word) == w.perm
    np, simple = rs.n_positive, [rs.index[a] for a in rs.simple_roots]
    for k, letter in enumerate(w.word):
        u = _compose(rs, w.word[k:])
        inverse = {img: i for i, img in enumerate(u)}
        assert letter == min(i for i, b in enumerate(simple) if inverse[b] >= np)


@pytest.mark.parametrize("t,n", [("A", 2), ("A", 3), ("B", 3), ("C", 3), ("D", 4),
                                 ("G", 2)])
def test_decompose_words_are_weyl_group_words(t, n):
    """Every signed permutation matrix that keeps the root set reaches every
    element of W (times -I on A, times the diagram flip on D4), and w gets the
    word weyl_group lists for it."""
    rs = build_root_system(t, n)
    words = {w.perm: w.word for w in weyl_group(rs)}
    reached, flipped = set(), 0
    for perm in itertools.permutations(range(rs.dim)):
        for signs in itertools.product((1, -1), repeat=rs.dim):
            try:
                r, w = decompose_extended(_signed_permutation(perm, signs), rs)
            except ValueError:   # not a symmetry of the root set
                continue
            assert w.word == words[w.perm]
            reached.add(w.perm)
            flipped += not r.is_identity()
    assert reached == set(words)
    assert flipped == {"A": len(words), "D": len(words)}.get(t, 0)


@pytest.mark.parametrize("t,n", [("A", 5), ("B", 5), ("D", 5)])
def test_decompose_words_are_least_at_rank_five(t, n):
    rs = build_root_system(t, n)
    rng = random.Random(30)
    for _ in range(40):
        perm = rng.sample(range(rs.dim), rs.dim)
        signs = [rng.choice((1, -1)) for _ in perm]
        if t == "A":
            signs = [signs[0]] * rs.dim
        r, w = decompose_extended(_signed_permutation(perm, signs), rs)
        _check_least_word(rs, w)


def test_decompose_w0_of_e8():
    rs = build_root_system("E", 8)
    r, w = decompose_extended(_signed_permutation(range(8), [-1] * 8), rs)
    assert r.is_identity() and len(w.word) == rs.n_positive == 120
    _check_least_word(rs, w)


def test_decompose_word_does_not_depend_on_the_rank():
    """The coordinate swap (1 2)(3 4) is s_0 s_2 on A4 and on A5."""
    for n in (4, 5):
        rs = build_root_system("A", n)
        r, w = decompose_extended(_signed_permutation((1, 0, 3, 2, *range(4, n + 1)),
                                                      [1] * (n + 1)), rs)
        assert r.is_identity() and w.word == (0, 2)


def test_parse_type_and_simple_orbits_share_one_type_table():
    for letter, n in itertools.product("ABCDEFGH", range(10)):
        try:
            simple_orbits(letter, n)
        except ValueError as err:
            with pytest.raises(ValueError) as info:
                parse_type(f"{letter}{n}")
            assert str(info.value) == str(err)
        else:
            assert parse_type(f"{letter}{n}") == (letter, n)
    huge = 10 ** 30   # checked without building its orbits
    assert parse_type(f"B{huge}") == ("B", huge)


def test_components_and_simple_orbits():
    assert simple_orbits("A", 3) == (("all", (0, 1, 2)),)
    assert simple_orbits("B", 2) == (("long", (0,)), ("short", (1,)))
    assert simple_orbits("G", 2) == (("long", (1,)), ("short", (0,)))
    assert simple_orbits("F", 4) == (("long", (0, 1)), ("short", (2, 3)))
    d2 = build_root_system("D", 2)
    assert dot(*d2.simple_roots) == 0   # two orthogonal components
    assert simple_orbits("D", 2) == (("all", (0,)), ("all", (1,)))
    assert simple_orbits("B", 1) == (("short", (0,)),)
    assert simple_orbits("C", 1) == (("long", (0,)),)


@pytest.mark.parametrize("t,n", BUILDABLE, ids=lambda x: str(x))
def test_simple_orbits_closed_form_reads_the_root_norms(t, n):
    assert simple_orbits(t, n) == norm_orbits(build_root_system(t, n))


def test_simple_orbits_at_any_rank():
    assert simple_orbits("C", 40) == (("long", (39,)), ("short", tuple(range(39))))
    assert simple_orbits("B", 61) == (("long", tuple(range(60))), ("short", (60,)))
    assert simple_orbits("D", 500) == (("all", tuple(range(500))),)
    for t, n in [("D", 1), ("F", 3), ("G", 3), ("E", 5), ("H", 3)]:
        with pytest.raises(ValueError, match=f"invalid Cartan type {t}{n}"):
            simple_orbits(t, n)
        with pytest.raises(ValueError, match=f"invalid Cartan type {t}{n}"):
            build_root_system(t, n)
    with pytest.raises(ValueError, match="invalid Cartan type B0"):
        simple_orbits("B", 0)


def test_based_root_datum_pairings():
    for t, n in [("A", 2), ("B", 2), ("G", 2), ("C", 3)]:
        rs = build_root_system(t, n)
        datum = BasedRootDatum(rs)
        for i in range(rs.rank):
            for j in range(rs.rank):
                ri = datum.roots[datum.basis[i]]
                cj = datum.coroots[datum.basis[j]]
                assert datum.pairing(ri, cj) == rs.cartan[i][j]
        for i in range(rs.rank):
            e_i = datum.roots[datum.basis[i]]
            assert datum.reflect(i, e_i) == tuple(-x for x in e_i)


def test_based_root_datum_padded_lattice():
    rs = build_root_system("A", 2)
    datum = BasedRootDatum(rs, lattice_rank=4)
    assert all(len(r) == 4 for r in datum.roots)
    assert all(len(c) == 4 for c in datum.coroots)
    x = (1, 0, 5, -2)
    y = datum.reflect(0, x)
    assert y[2:] == (5, -2)  # extra coordinates are W-fixed
    empty = BasedRootDatum(None, lattice_rank=2)
    assert empty.roots == ()


def test_coroot_table_is_built_once_per_root_system():
    rs = build_root_system("B", 2)
    a, b = BasedRootDatum(rs), BasedRootDatum(rs)
    assert a.coroots is b.coroots
    padded = BasedRootDatum(rs, lattice_rank=4)
    # positive roots (0,1), (1,0), (1,1), (1,2): <alpha_k, b^vee> per k, then the pad
    positive = ((-2, 2, 0, 0), (2, -1, 0, 0), (2, 0, 0, 0), (0, 1, 0, 0))
    assert padded.coroots == positive + tuple(tuple(-c for c in p) for p in positive)
    assert a.coroots == tuple(c[:2] for c in padded.coroots)   # the shared table is unpadded
    assert padded.reflect(0, (1, 1, 7, -3)) == (0, 1, 7, -3)
    assert BasedRootDatum(rs).coroots is a.coroots


@pytest.mark.parametrize("t,n", [(t, n) for t, n, _ in ROOT_TABLE] + [("A", 3), ("C", 4)])
@pytest.mark.parametrize("pad", [0, 2])
def test_coroots_satisfy_the_root_datum_axioms(t, n, pad):
    """<b, b^vee> = 2, (-b)^vee = -b^vee, and s_b permutes the roots, for every b."""
    rs = build_root_system(t, n)
    datum = BasedRootDatum(rs, lattice_rank=n + pad)
    roots = set(datum.roots)
    cor = dict(zip(datum.roots, datum.coroots))
    assert len(roots) == len(cor) == len(datum.roots)
    for b, bv in cor.items():
        assert datum.pairing(b, bv) == 2
        assert cor[tuple(-c for c in b)] == tuple(-c for c in bv)
        for x in datum.roots:
            k = datum.pairing(x, bv)
            assert tuple(p - k * q for p, q in zip(x, b)) in roots


@pytest.mark.parametrize("t,n", [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2),
                                 ("B", 3), ("B", 4), ("C", 3), ("D", 4), ("F", 4),
                                 ("G", 2)])
def test_weyl_order_is_by_length(t, n):
    """W is listed by length, so w*s is longer than w exactly when its index is
    larger (the algebra's right multiplication by T_s reads the order)."""
    rs = build_root_system(t, n)
    W = weyl_group(rs)
    ws_table = rs._cache["ws_table"]
    lengths = [len(w.word) for w in W]
    assert lengths == sorted(lengths)
    for i, row in enumerate(ws_table):
        for usi in row:
            assert (usi > i) == (lengths[usi] > lengths[i])


# every type within WEYL_RANK_CAP
WEYL_TYPES = ([("A", n) for n in range(1, 5)] + [("B", n) for n in range(1, 5)]
              + [("C", n) for n in range(1, 5)] + [("D", n) for n in range(2, 5)]
              + [("G", 2), ("F", 4)])


@pytest.mark.parametrize("t,n", WEYL_TYPES, ids=lambda x: str(x))
def test_weyl_group_matches_the_permutation_keyed_bfs(t, n):
    """The BFS keyed by the images of the simple roots lists the same
    elements, words and ws_table as one keyed by whole permutations, and the
    shared lengths and key moves are read off them."""
    rs = build_root_system(t, n)
    W = weyl_group(rs)
    ref, ref_table = weyl_bfs(rs)
    assert [w.word for w in W] == [w.word for w in ref]
    assert [w.perm for w in W] == [w.perm for w in ref]
    assert rs._cache["ws_table"] == ref_table
    assert rs._cache["lengths"] == tuple(len(w.word) for w in ref)
    assert rs._cache["moves"] == tuple(tuple(row[j] - u for u, row in enumerate(ref_table))
                                       for j in range(n))
