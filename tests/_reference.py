"""Reference constructions shared by the tests, built without the code under test.

norm_orbits reads the simple-root orbits and their length classes off the
roots alone; weyl_bfs enumerates W keyed by whole root permutations;
signatures lists the inputs of the unitary principal-series descriptor.
to_json_by_parts, the oracle of AHAElement.to_json, prints an element per
dict of t-parts, each part decoded and stripped (unpack), interleaved in v
(interleave_parts) and printed through ref_pstr (packed_str), a term-by-term
printer that shares no code with qfield's.  inv_x, peval, vrat_eval and
specialize evaluate Laurent polynomials and algebra elements where the
program never needs to.
"""
from collections import namedtuple
from fractions import Fraction
from sys import byteorder

from hecke.qfield import K, PONE

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


def unpack(n):
    """The P with P(2^K) = n, all |coefficients| < 2^(K-1), by the slot bias."""
    slots = abs(n).bit_length() // K + 1
    bias = int.from_bytes((1 << (K - 1)).to_bytes(K // 8, "little") * slots, "little")
    c = memoryview(((n + bias) ^ bias).to_bytes(slots * K // 8, byteorder)).cast("q").tolist()
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _valuation(p):
    return next(i for i, c in enumerate(p) if c)


def ref_pstr(a, shift=0, step=1):
    """Print a(v^step) * v^shift like 'v^2-1', '2*v', '-v^3+v-4', '0', term by
    term; a negative exponent prints as v^-k."""
    parts = []
    for k in range(len(a) - 1, -1, -1):
        c = a[k]
        if c == 0:
            continue
        sign = "-" if c < 0 else ("+" if parts else "")
        mag = abs(c)
        e = k * step + shift
        if e == 0:
            body = str(mag)
        else:
            var = "v" if e == 1 else f"v^{e}"
            body = var if mag == 1 else f"{mag}*{var}"
        parts.append(sign + body)
    return "".join(parts) or "0"


def packed_str(val, n, step=1):
    """v^val * P(v^step) as '(num)/(den)', for n = P(2^K) or P's coefficients."""
    c = unpack(n) if isinstance(n, int) else n
    d = max(-val - step * _valuation(c), 0) if c else 0   # the denominator's v-power
    return f"({ref_pstr(c, val + d, step)})/({ref_pstr(PONE, d)})"


def interleave_parts(parts, g):
    """The coefficients of sum_r v^r Q_r(v^g), parts {r: Q_r(2^K)}, one slice each."""
    qs = [(r, unpack(n)) for r, n in parts.items()]
    c = [0] * max(r + g * (len(q) - 1) + 1 for r, q in qs)
    for r, q in qs:
        c[r:r + g * len(q):g] = q
    return c


def to_json_by_parts(el):
    """el.to_json() as the printer built it per dict of t-parts."""
    alg = el.algebra
    g, val = alg.g, -alg.g * el.e
    by_key = {}
    for k, n in el.ints.items():
        r = k & alg.rfield
        by_key.setdefault(k - r, {})[r >> alg.wb] = n
    rows = []
    for k, parts in by_key.items():
        x, wi = alg.unkey(k)
        (r, n), *more = parts.items()
        s = packed_str(val, interleave_parts(parts, g)) if more else \
            packed_str(val + r, n, g)
        rows.append((alg.W[wi].word, x, s))
    rows.sort()
    return {"terms": [{"x": list(x), "w": list(word), "coeff": s} for word, x, s in rows]}


def inv_x(f):
    """The Laurent polynomial f(X^-1)."""
    from hecke.xlaurent import Laurent
    return Laurent({-e: x for e, x in f.c.items()})


def peval(a, x):
    """The polynomial a (a tuple of ints, low first) at x, by Horner."""
    acc = Fraction(0)
    for c in reversed(a):
        acc = acc * x + c
    return acc


def vrat_eval(z, v):
    """The VRat z = num/den at v; ZeroDivisionError where den vanishes."""
    d = peval(z.den, v)
    if d == 0:
        raise ZeroDivisionError(f"denominator vanishes at v={v}")
    return peval(z.num, v) / d


def specialize(el, v):
    """The algebra element el with its coefficients evaluated at v, read off
    el.terms: (x, w-index) -> Fraction, terms that vanish at v dropped."""
    out = {k: vrat_eval(z, Fraction(v)) for k, z in el.terms.items()}
    return {k: f for k, f in out.items() if f}
