"""Reference constructions shared by the tests, built without the code under test.

norm_orbits reads the simple-root orbits and their length classes off the
roots alone; weyl_bfs enumerates W keyed by whole root permutations;
signatures lists the inputs of the unitary principal-series descriptor.
"""
from collections import namedtuple

WeylElement = namedtuple("WeylElement", "word perm")


def dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def norm_orbits(rs):
    """((class, simple indices), ...) read off the roots alone, long orbit first.

    Orbits come from closure under the simple reflections, classes from the
    root norms; a type with one norm is 'all', except B1 (short) and C1 (long).
    """
    sperms = [rs.simple_reflection_perm(i) for i in range(rs.rank)]
    by_orbit: dict = {}
    for i, a in enumerate(rs.simple_roots):
        seen, stack = {rs.index[a]}, [rs.index[a]]
        while stack:
            r = stack.pop()
            for sp in sperms:
                if sp[r] not in seen:
                    seen.add(sp[r])
                    stack.append(sp[r])
        by_orbit.setdefault(frozenset(seen), []).append(i)
    norms = {dot(r, r) for r in rs.all_roots}

    def cls(a):
        if len(norms) == 1:
            return {("B", 1): "short", ("C", 1): "long"}.get((rs.cartan_type, rs.rank), "all")
        return "long" if dot(a, a) == max(norms) else "short"

    rows = [(cls(rs.simple_roots[idx[0]]), tuple(idx)) for idx in by_orbit.values()]
    return tuple(sorted(rows, key=lambda row: (row[0] == "short", row[1])))


def weyl_bfs(rs):
    """(elements, ws_table) of W by breadth first search, each element seen
    by its whole permutation of the roots; words are lex-least reduced."""
    sperms = [rs.simple_reflection_perm(i) for i in range(rs.rank)]
    ident = tuple(range(len(rs.all_roots)))
    elements = [WeylElement((), ident)]
    seen = {ident: 0}
    ws_table = []  # ws_table[i][j]: index of elements[i] * s_j
    for w in elements:  # the list grows while it is read: breadth first
        row = []
        for j, sp in enumerate(sperms):
            new = tuple(map(w.perm.__getitem__, sp))
            i = seen.setdefault(new, len(elements))
            if i == len(elements):
                elements.append(WeylElement(w.word + (j,), new))
            row.append(i)
        ws_table.append(tuple(row))
    return elements, tuple(ws_table)


def signatures(n, ramified):
    """All ordered segment lists filling the torus rank of U_n."""
    tags = ("not-skew", "skew-trivial")
    if ramified:
        tags += ("skew-nontrivial",)

    def parts(rest):
        if rest == 0:
            yield []
            return
        for size in range(1, rest + 1):
            for tag in tags:
                for tail in parts(rest - size):
                    yield [(tag, size)] + tail

    m = n // 2
    yield from parts(m)
    if n % 2:
        for n0 in range(m + 1):
            for head in parts(m - n0):
                yield head + [("trivial", n0)]
