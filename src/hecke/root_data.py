"""Finite root systems, based root data, Weyl groups, reduced words.

Roots are kept as integer vectors in fixed orthonormal-coordinate realizations
(the F4/E realizations are doubled so that no half-integer entries appear;
reflection arithmetic only ever uses Cartan integers, which are scale-free).
"""
from __future__ import annotations

from collections import deque
from operator import mul

from . import SizeLimitError  # re-exported: raised across the package

WEYL_RANK_CAP = 4
# the worst accepted build, E8 (120 positive roots), takes about 3 ms in-process
# on a 2-core machine (best of 3); all 36 buildable types together about 31 ms
BUILD_RANK_CAP = 8

ROOT_COUNTS = {
    "A": lambda n: n * (n + 1),
    "B": lambda n: 2 * n * n,
    "C": lambda n: 2 * n * n,
    "D": lambda n: 2 * n * (n - 1),
    "E": {6: 72, 7: 126, 8: 240},
    "F": {4: 48},
    "G": {2: 12},
}


def _dot(a, b):
    return sum(map(mul, a, b))


def _pairing(r, a) -> int:
    """The Cartan integer <r, a^vee> = 2 (r, a) / (a, a)."""
    num, na = 2 * _dot(r, a), _dot(a, a)
    assert num % na == 0, "non-integral Cartan pairing"
    return num // na


def _check_type(letter: str, n: int) -> None:
    """Raise ValueError unless letter n is a Cartan type with a realization."""
    if not {"A": n >= 1, "B": n >= 1, "C": n >= 1, "D": n >= 2, "E": n in (6, 7, 8),
            "F": n == 4, "G": n == 2}.get(letter, False):
        raise ValueError(f"invalid Cartan type {letter}{n}")


def simple_orbits(letter: str, rank: int) -> tuple:
    """W-orbits of the simple roots of the standard realization, at any rank.

    ((length class, simple indices), ...), long orbit first; the class is
    'all' for simply laced types, and D2 = A1 x A1 has two orbits.  B1 is
    short and C1 long, so that each keeps its family's tagging.  Raises
    ValueError where there is no realization.
    """
    n = rank
    _check_type(letter, n)
    if letter == "D" and n == 2:
        return (("all", (0,)), ("all", (1,)))
    if letter in ("A", "D", "E"):
        return (("all", tuple(range(n))),)
    long, short = {"B": (tuple(range(n - 1)), (n - 1,)),
                   "C": ((n - 1,), tuple(range(n - 1))),
                   "F": ((0, 1), (2, 3)), "G": ((1,), (0,))}[letter]
    return tuple((cls, idx) for cls, idx in (("long", long), ("short", short)) if idx)


def _simple_data(cartan_type: str, rank: int):
    """Simple roots for the standard integer realization; returns (simples, dim)."""
    t, n = cartan_type, rank
    simple_orbits(t, n)   # refuses the pairs with no realization
    if t == "A":
        dim = n + 1
        simples = [_e_diff(dim, i, i + 1) for i in range(n)]
    elif t == "B":
        dim = n
        simples = [_e_diff(dim, i, i + 1) for i in range(n - 1)]
        simples.append(_unit(dim, n - 1))
    elif t == "C":
        dim = n
        simples = [_e_diff(dim, i, i + 1) for i in range(n - 1)]
        simples.append(tuple(2 * x for x in _unit(dim, n - 1)))
    elif t == "D":
        dim = n
        simples = [_e_diff(dim, i, i + 1) for i in range(n - 1)]
        simples.append(_vadd(_unit(dim, n - 2), _unit(dim, n - 1)))
    elif t == "G":
        dim = 3
        simples = [(1, -1, 0), (-2, 1, 1)]
    elif t == "F":
        dim = 4
        simples = [(0, 2, -2, 0), (0, 0, 2, -2), (0, 0, 0, 2), (1, -1, -1, -1)]
    else:   # E6, E7, E8
        dim = 8
        simples = [
            (1, -1, -1, -1, -1, -1, -1, 1),
            (2, 2, 0, 0, 0, 0, 0, 0),
            (-2, 2, 0, 0, 0, 0, 0, 0),
            (0, -2, 2, 0, 0, 0, 0, 0),
            (0, 0, -2, 2, 0, 0, 0, 0),
            (0, 0, 0, -2, 2, 0, 0, 0),
            (0, 0, 0, 0, -2, 2, 0, 0),
            (0, 0, 0, 0, 0, -2, 2, 0),
        ][:n]
    return [tuple(s) for s in simples], dim


def _unit(dim, i):
    return tuple(1 if j == i else 0 for j in range(dim))


def _e_diff(dim, i, j):
    return tuple(1 if k == i else (-1 if k == j else 0) for k in range(dim))


def _vadd(a, b):
    return tuple(x + y for x, y in zip(a, b))


class RootSystem:
    """An irreducible root system with a fixed simple basis and root order.

    all_roots lists the positive roots (sorted by height, then coefficient
    vector) followed by their negatives in the same order.
    """

    def __init__(self, cartan_type, rank, simples, dim):
        self.cartan_type = cartan_type
        self.rank = rank
        self.dim = dim
        self.simple_roots = tuple(simples)
        closure = _close_positive(simples)
        pos = sorted(closure, key=lambda r: (sum(closure[r]), closure[r]))
        coeffs = [closure[r] for r in pos]
        self.n_positive = len(pos)
        self.all_roots = tuple(pos) + tuple(tuple(-x for x in r) for r in pos)
        self.coeffs = tuple(coeffs) + tuple(tuple(-x for x in c) for c in coeffs)
        self.index = {r: i for i, r in enumerate(self.all_roots)}
        self.cartan = tuple(tuple(_pairing(a, b) for b in simples) for a in simples)
        self._cache: dict = {}
        expected = ROOT_COUNTS[cartan_type]
        expected = expected(rank) if callable(expected) else expected[rank]
        if len(self.all_roots) != expected:
            raise AssertionError(
                f"{cartan_type}{rank}: got {len(self.all_roots)} roots, expected {expected}")

    def simple_reflection_perm(self, i: int) -> tuple[int, ...]:
        key = ("sperm", i)
        if key not in self._cache:
            a = self.simple_roots[i]
            perm = []
            for r in self.all_roots:
                k = _pairing(r, a)
                perm.append(self.index[tuple(x - k * y for x, y in zip(r, a))])
            self._cache[key] = tuple(perm)
        return self._cache[key]

    def to_json(self) -> dict:
        return {"type": self.cartan_type, "rank": self.rank,
                "roots": [list(r) for r in self.all_roots]}

    def __repr__(self):
        return f"RootSystem({self.cartan_type}{self.rank}, {len(self.all_roots)} roots)"


def _close_positive(simples):
    """{positive root: simple-root coefficients}, by reflection closure.

    s_i(r) = r - k alpha_i, k = 2 (r, alpha_i) / (alpha_i, alpha_i), changes
    only coefficient i.  Every positive root is reached from a simple root by
    height-raising simple reflections (Humphreys, Reflection Groups and
    Coxeter Groups, 1.6), so only the steps with k < 0 are taken.
    """
    n = len(simples)
    coeffs = {a: tuple(int(j == i) for j in range(n)) for i, a in enumerate(simples)}
    queue = deque(simples)
    while queue:
        r = queue.popleft()
        c = coeffs[r]
        for i, a in enumerate(simples):
            k = _pairing(r, a)
            if k < 0:
                img = tuple(x - k * y for x, y in zip(r, a))
                if img not in coeffs:
                    coeffs[img] = c[:i] + (c[i] - k,) + c[i + 1:]
                    queue.append(img)
    return coeffs


def parse_type(component):
    """(letter, rank) of a component name such as 'B2' or 'B'; rank None if absent."""
    s = str(component).replace("_", "").replace(" ", "")
    letter, digits = s[:1].upper(), s[1:]
    if not digits and letter in "ABCDEFG":
        return letter, None
    if not digits.isdigit():
        raise ValueError(f"unknown component type {component!r}")
    rank = int(digits)
    _check_type(letter, rank)
    return letter, rank


def build_root_system(cartan_type: str, rank: int) -> RootSystem:
    """Construct the full root system for an irreducible Cartan type, rank <= 8."""
    if not isinstance(rank, int) or rank < 1:
        raise ValueError(f"rank must be a positive integer, got {rank!r}")
    if rank > BUILD_RANK_CAP:
        raise SizeLimitError(f"rank {rank} exceeds the construction cap {BUILD_RANK_CAP}")
    simples, dim = _simple_data(cartan_type, rank)
    return RootSystem(cartan_type, rank, simples, dim)


class WeylElement:
    """Group element stored as (canonical reduced word, permutation of all_roots)."""

    __slots__ = ("word", "perm")

    def __init__(self, word, perm):
        self.word = tuple(word)
        self.perm = tuple(perm)

    def __eq__(self, other):
        return isinstance(other, WeylElement) and self.perm == other.perm

    def __hash__(self):
        return hash(self.perm)

    def to_json(self) -> dict:
        return {"word": list(self.word)}

    def __repr__(self):
        return f"W{list(self.word)}"


def weyl_group(rs: RootSystem) -> list[WeylElement]:
    """All Weyl group elements, each with the lexicographically least reduced word.

    Elements are listed by increasing length, ties in word-lex order; the
    identity comes first.  Rank is capped to keep full enumeration desk-scale.
    The label-free tables are cached on rs next to the elements: "ws_table",
    "lengths" (word lengths), "moves" (moves[j][u] = index of u s_j - u) and
    "left" (left[u] = (s, index of s u) for the first letter s of u's word).
    """
    if rs.rank > WEYL_RANK_CAP:
        raise SizeLimitError(
            f"full Weyl enumeration capped at rank {WEYL_RANK_CAP}, got rank {rs.rank}")
    if "weyl" in rs._cache:
        return rs._cache["weyl"]
    sperms = [rs.simple_reflection_perm(i) for i in range(rs.rank)]
    simple = [rs.index[s] for s in rs.simple_roots]
    elements = [WeylElement((), range(len(rs.all_roots)))]
    seen = {tuple(simple): 0}
    ws_table, left = [], [None]  # ws_table[i][j]: index of elements[i] * s_j
    for wi, w in enumerate(elements):  # the list grows while it is read: breadth first
        row, perm = [], w.perm
        for j, sp in enumerate(sperms):
            # the images of the simple roots fix w s_j: a hash of rank entries
            i = seen.setdefault(tuple([perm[sp[b]] for b in simple]), len(elements))
            if i == len(elements):
                elements.append(WeylElement(w.word + (j,), map(perm.__getitem__, sp)))
                # s u = (s w) s_j for w's first letter s, and s w's row is in
                left.append((w.word[0], ws_table[left[wi][1]][j]) if wi else (j, 0))
            row.append(i)
        ws_table.append(tuple(row))
    rs._cache.update(weyl=elements, ws_table=tuple(ws_table), left=tuple(left),
                     lengths=tuple(len(w.word) for w in elements),
                     moves=tuple(tuple(row[j] - u for u, row in enumerate(ws_table))
                                 for j in range(rs.rank)))
    return elements


def length(w: WeylElement, rs: RootSystem) -> int:
    """Number of positive roots sent to negative ones."""
    np = rs.n_positive
    return sum(1 for i in range(np) if w.perm[i] >= np)


def word_index(ws_table, word) -> int:
    """Index in weyl_group order of the product of a word's simple reflections."""
    i = 0
    for j in word:
        i = ws_table[i][j]
    return i


def element_from_word(rs: RootSystem, word) -> WeylElement:
    """Fold a word of simple-reflection letters into a Weyl element (canonical form)."""
    elements = weyl_group(rs)
    return elements[word_index(rs._cache["ws_table"], word)]


class DatumAutomorphism:
    """Automorphism of the based datum fixing the positive system (length zero)."""

    __slots__ = ("perm", "simple_images")

    def __init__(self, perm, simple_images):
        self.perm = tuple(perm)
        self.simple_images = tuple(simple_images)

    def is_identity(self) -> bool:
        return self.simple_images == tuple(range(len(self.simple_images)))

    def to_json(self) -> dict:
        return {"simple_images": list(self.simple_images)}

    def __repr__(self):
        return f"R{list(self.simple_images)}"


def _perm_from_matrix(matrix, rs: RootSystem):
    if len(matrix) != rs.dim or any(len(row) != rs.dim for row in matrix):
        raise ValueError(f"matrix must be {rs.dim} x {rs.dim}, got rows of "
                         f"lengths {[len(row) for row in matrix]}")
    perm = []
    for r in rs.all_roots:
        img = tuple(sum(row[k] * r[k] for k in range(rs.dim)) for row in matrix)
        if img not in rs.index:
            raise ValueError(f"matrix does not preserve the root set (image {img})")
        perm.append(rs.index[img])
    return tuple(perm)


def decompose_extended(matrix, rs: RootSystem) -> tuple[DatumAutomorphism, WeylElement]:
    """Factor a root-set symmetry as r * w, with r basis-preserving and w in W.

    The input is an integer matrix on the ambient coordinates.  The r-part has
    zero length (it fixes the positive system); the factorization is unique.
    w carries its lexicographically least reduced word, as in weyl_group, at
    every rank; W itself is never built.
    """
    perm = _perm_from_matrix(matrix, rs)
    simple_idx = [rs.index[s] for s in rs.simple_roots]
    _, r_perm = _peel(rs, perm)
    r = DatumAutomorphism(r_perm, [simple_idx.index(r_perm[b]) for b in simple_idx])
    w_perm = tuple(map(_inverse(r_perm).__getitem__, perm))   # w = r^-1 g
    # the smallest right descents of w^-1, in turn, spell w's least reduced word
    word, rest = _peel(rs, _inverse(w_perm))
    assert rest == list(range(len(perm)))
    w = WeylElement(word, w_perm)
    # exact recomposition check
    assert tuple(r.perm[w.perm[i]] for i in range(len(perm))) == perm
    return r, w


def _peel(rs: RootSystem, perm):
    """Strip the smallest right descent s_i (perm sends alpha_i negative) until
    none is left: perm = rest * s_{i_k} ... s_{i_1}; returns ([i_1, ...], rest)."""
    np = rs.n_positive
    simple_idx = [rs.index[s] for s in rs.simple_roots]
    letters, cur = [], list(perm)
    while (i := next((i for i, b in enumerate(simple_idx) if cur[b] >= np), None)) is not None:
        cur = [cur[k] for k in rs.simple_reflection_perm(i)]
        letters.append(i)
    return letters, cur


def _inverse(perm):
    return sorted(range(len(perm)), key=perm.__getitem__)


class BasedRootDatum:
    """Root datum on the lattice Z^d in simple-root coordinates.

    The roots are coefficient vectors of the system's roots.  The coroot of a
    root b is the functional x -> <x, b^vee>, whose k-th entry is the Cartan
    integer <alpha_k, b^vee> = 2 (alpha_k, b) / (b, b); padded coordinates are
    W-fixed and pair to zero.  So <b, b^vee> = 2 for every root b.
    """

    def __init__(self, rs: RootSystem | None, lattice_rank: int | None = None):
        self.root_system = rs
        base_rank = rs.rank if rs is not None else 0
        self.lattice_rank = lattice_rank if lattice_rank is not None else base_rank
        if self.lattice_rank < base_rank:
            raise ValueError("lattice rank smaller than the root lattice rank")
        pad = (0,) * (self.lattice_rank - base_rank)
        if rs is None:
            self.roots = ()
            self.coroots = ()
            self.basis = ()
            return
        self.roots = tuple(c + pad for c in rs.coeffs)
        coroots = rs._cache.get("coroots")
        if coroots is None:   # it depends on rs alone, and is padded per datum
            coroots = rs._cache["coroots"] = tuple(
                tuple(_pairing(a, b) for a in rs.simple_roots) for b in rs.all_roots)
        self.coroots = tuple(c + pad for c in coroots) if pad else coroots
        self.basis = tuple(rs.index[s] for s in rs.simple_roots)

    def pairing(self, x, coroot) -> int:
        return _dot(x, coroot)

    def reflect(self, i: int, x) -> tuple[int, ...]:
        """Reflection in the i-th simple root, on lattice coordinates."""
        root = self.roots[self.basis[i]]
        coroot = self.coroots[self.basis[i]]
        k = _dot(x, coroot)
        return tuple(a - k * b for a, b in zip(x, root))
