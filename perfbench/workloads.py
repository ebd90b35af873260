"""The four benchmark workloads: inputs from a seed, one op, one output check.

Every workload draws its ops from a finite pool whose golden digests are
stored in goldens.json (made by make_goldens.py at the commit that added the
benchmark).  The seed decides which pool items a run uses and in what order.
Ops are drawn from cost strata (see stratified), so that two seeds give runs
of the same mix and the end-to-end numbers do not depend on which seed
happened to draw the expensive items.

This module imports hecke lazily: call use_source_tree() first.
"""
from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GOLDENS = Path(__file__).resolve().parent / "goldens.json"

NAMES = ("relations", "mu_recover", "cold_products", "cli")

# (type, labels) of the relations components; B2 carries lambda* != 0
RELATION_COMPONENTS = (("A2", "2,2"), ("B2", "3,3,1"), ("G2", "1,3"))
RELATION_POOL = 105     # triples per component with a stored digest
RELATION_STRATA = 35    # cost strata per component, three triples each

MU_BODY = tuple(Fraction(k, 2) for k in range(9))         # e_alpha 0 .. 4
MU_TAIL = tuple(Fraction(k, 2) for k in range(9, 17))     # e_alpha 9/2 .. 8
# one cycle: one op from the tail, then 27 from the body (tail ops 1 in 28)
MU_BODY_STRATA, MU_BODY_VISITS, MU_TAIL_STRATA = 9, 3, 12

COLD_COMPONENTS = (("B3", "3,3,1"), ("B4", "2,1"), ("F4", "2,1"))
COLD_STRATA = {"B3": 13, "B4": 4, "F4": 3}    # two points per stratum
# one cycle: three B3 ops, one B4 op, one F4 op
COLD_CYCLE = ("B3", "B4", "B3", "F4", "B3")

# a fixed mix over all 17 verbs; exit codes 1 and 2 are part of the mix
CLI_MIX = (
    ("table1",),
    ("table1", "--csv"),
    ("match-labels", "--type", "B2", "--labels", "3,3,1"),
    ("match-labels", "--type", "B2", "--labels", "1,2,3,4"),
    ("classical", "--case", "b", "--a", "3", "--a-minus", "1"),
    ("bound", "--case", "a", "--a-plus", "4", "--n-dual", "4"),
    ("parity", "--family", "unramified-SU", "--a", "3", "--a-minus", "0"),
    ("unitary-ps", "--n", "9", "--segments",
     "not-skew:2,skew-trivial:1,trivial:1"),
    ("ps-q", "--w-orbit", "6", "--i-orbit", "3"),
    ("case", "--group", "E7(2)", "--levi", "2,3"),
    ("case",),
    ("transfer", "--type", "C1", "--labels", "1,1", "--case", "ii"),
    ("mu", "--qa", "2", "--qs", "1", "recover"),
    ("mu", "--qa", "1", "poles"),
    ("jmatrix",),
    ("scalar",),
    ("charsum", "--modulus", "9"),
    ("mul", "--type", "A", "--rank", "1", "--labels", "1,1", "x1", "T0 T0"),
    ("normal-form", "--type", "A", "--rank", "1", "--labels", "1,1",
     "x1 T0 T0"),
    ("check-relations", "--type", "A", "--rank", "1", "--labels", "1,1",
     "--samples", "2", "--seed", "7"),
    ("decompose", "--type", "B", "--rank", "2", "--matrix=-1,0;0,-1"),
)

CHILD_TIMEOUT_S = 60


def use_source_tree():
    """Put the checkout's src/ first on sys.path; fail if it is not there."""
    if not (SRC / "hecke" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no hecke package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict:
    """Environment for child interpreters: the source tree, fixed str hashing."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def digest(payload) -> str:
    """Short sha256 of the canonical JSON of an output."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def load_goldens() -> dict:
    with open(GOLDENS) as fh:
        return json.load(fh)


def perm_stream(rng: random.Random, items):
    """Endless stream of items, one seeded permutation after another."""
    items = list(items)
    while True:
        order = items[:]
        rng.shuffle(order)
        yield from order


def spread_order(n: int):
    """0..n-1 in van der Corput order: every prefix samples the range evenly."""
    bits = max(1, (n - 1).bit_length())
    order = []
    for k in range(1 << bits):
        s = (int(f"{k:0{bits}b}"[::-1], 2) * n) >> bits
        if s not in order:
            order.append(s)
    return order


def stratified(rng: random.Random, items, cost, n: int):
    """Endless stream of items, one from each of n cost strata in turn.

    The items are sorted by cost and cut into n equal strata.  The strata are
    visited in spread_order, so a run that ends part-way through a cycle still
    has the pool's cost mix; within a stratum the items come in seeded
    permutations.
    """
    items = sorted(items, key=cost)
    size = len(items) // n
    bins = [items[s * size:(s + 1) * size] for s in range(n)]
    bins[-1].extend(items[n * size:])
    streams = [perm_stream(rng, b) for b in bins]
    for s in itertools.cycle(spread_order(n)):
        yield next(streams[s])


def _component(typ: str, labels: str):
    from hecke.label_params import LabelFunction, QBase
    from hecke.root_data import build_root_system
    rs = build_root_system(typ[0], int(typ[1:]))
    lf = LabelFunction.for_system(rs, [Fraction(v) for v in labels.split(",")],
                                  QBase(1))
    return rs, lf


def _handle(rs, lf):
    from hecke.hecke_algebra import algebra
    from hecke.root_data import BasedRootDatum
    return algebra(BasedRootDatum(rs), lf)


# -- relations ---------------------------------------------------------------

def relation_spec(typ: str, d: int, words, index: int):
    """Pool item `index` of a component: three elements in check_relations' shape.

    Each element has 1-3 terms theta_x T_w with x in the box [-2, 2]^d, w of
    length <= 3, coefficient +-v^k * m with k in [-2, 2] and m in {1, 2, 3}.
    """
    rng = random.Random(f"relations/{typ}/{index}")
    spec = []
    for _ in range(3):
        terms = []
        for _ in range(rng.randint(1, 3)):
            x = tuple(rng.randint(-2, 2) for _ in range(d))
            word = rng.choice(words)
            k, m = rng.randint(-2, 2), rng.choice((-3, -2, -1, 1, 2, 3))
            terms.append((x, word, k, m))
        spec.append(terms)
    return spec


class Relations:
    """Associativity triples over warm T.theta caches on A2, B2 and G2."""

    name = "relations"
    warmup_ops = 3
    trace_ops = 24

    def __init__(self):
        from hecke.qfield import VRat
        self.v_pow = VRat.v_pow
        self.algs = {}
        for typ, labels in RELATION_COMPONENTS:
            alg = _handle(*_component(typ, labels))
            index = {w.word: i for i, w in enumerate(alg.W)}
            words = sorted((w for w in index if len(w) <= 3),
                           key=lambda w: (len(w), w))
            self.algs[typ] = (alg, index, words)

    def schedule(self, seed: int, goldens: dict):
        rng = random.Random(f"relations:{seed}")
        pools = [stratified(rng, [(typ, i) for i in range(len(goldens[typ]))],
                            lambda key: goldens[key[0]][key[1]][1], RELATION_STRATA)
                 for typ, _ in RELATION_COMPONENTS]
        for pool in itertools.cycle(pools):
            yield next(pool)

    def run(self, key):
        typ, i = key
        alg, index, words = self.algs[typ]
        a, b, c = (alg.element({(x, index[w]): self.v_pow(k) * m for x, w, k, m in terms})
                   for terms in relation_spec(typ, alg.d, words, i))
        return (a * b) * c, a * (b * c)

    @staticmethod
    def check(key, out, goldens) -> bool:
        left, right = out
        typ, index = key
        return left == right and digest(left.to_json()) == goldens[typ][index][0]


# -- mu_recover --------------------------------------------------------------

def mu_key(e_alpha: Fraction, e_star: Fraction) -> str:
    return f"{e_alpha}:{e_star}"


def mu_pairs(levels):
    return [(ea, Fraction(k, 2)) for ea in levels for k in range(int(2 * ea) + 1)]


class MuRecover:
    """Rank-one round trips q_from_poles(poles_zeros(mu_factor(e_a, e_s)))."""

    name = "mu_recover"
    warmup_ops = 1
    trace_ops = 19      # the tail op and two visits of every body stratum

    def __init__(self):
        from hecke import mu_function
        self.mu = mu_function

    def schedule(self, seed: int, goldens: dict):
        rng = random.Random(f"mu_recover:{seed}")

        def cost(pair):
            return goldens[mu_key(*pair)][1]

        body = stratified(rng, mu_pairs(MU_BODY), cost, MU_BODY_STRATA)
        tail = stratified(rng, mu_pairs(MU_TAIL), cost, MU_TAIL_STRATA)
        while True:
            yield next(tail)
            for _ in range(MU_BODY_STRATA * MU_BODY_VISITS):
                yield next(body)

    def run(self, key):
        prof = self.mu.poles_zeros(self.mu.mu_factor(*key))
        return prof, self.mu.q_from_poles(prof)

    @staticmethod
    def check(key, out, goldens) -> bool:
        prof, pair = out
        return ((pair.e_alpha, pair.e_star) == tuple(key)
                and digest(prof.to_json()) == goldens[mu_key(*key)][0])


# -- cold_products -----------------------------------------------------------

def cold_points(typ: str):
    """Lattice points y of the pool: y != 0 in {-1,0,1}^3 for B3, +-e_i for B4.

    F4 leaves out +-e_2, the two slowest products of the set (2100-2700
    terms), so that a run of 30 s stays above 100 ops.
    """
    if typ == "B3":
        pts = [(a, b, c) for a in (-1, 0, 1) for b in (-1, 0, 1) for c in (-1, 0, 1)]
        return [p for p in pts if any(p)]
    axes = (0, 2, 3) if typ == "F4" else range(4)
    return [tuple(s if j == i else 0 for j in range(4)) for i in axes for s in (1, -1)]


def cold_key(typ: str, y) -> str:
    return f"{typ}:{','.join(map(str, y))}"


class ColdProducts:
    """A fresh handle per op, then T_{w0} * theta_y from an empty cache."""

    name = "cold_products"
    warmup_ops = 1
    trace_ops = 10

    def __init__(self):
        from hecke.root_data import weyl_group
        self.components = {}
        for typ, labels in COLD_COMPONENTS:
            rs, lf = _component(typ, labels)
            self.components[typ] = (rs, lf, weyl_group(rs)[-1].word)

    def schedule(self, seed: int, goldens: dict):
        rng = random.Random(f"cold_products:{seed}")
        pools = {typ: stratified(rng, [(typ, y) for y in cold_points(typ)],
                                 lambda key: goldens[cold_key(*key)][1], n)
                 for typ, n in COLD_STRATA.items()}
        for typ in itertools.cycle(COLD_CYCLE):
            yield next(pools[typ])

    def run(self, key):
        typ, y = key
        rs, lf, w0 = self.components[typ]
        alg = _handle(rs, lf)
        return alg.t(w0) * alg.theta(y)

    @staticmethod
    def check(key, out, goldens) -> bool:
        return digest(out.to_json()) == goldens[cold_key(*key)][0]


# -- cli ---------------------------------------------------------------------

def cli_key(argv) -> str:
    return " ".join(argv)


class Cli:
    """Every verb as a fresh `python -m hecke.cli` process, one at a time."""

    name = "cli"
    warmup_ops = 1
    trace_ops = len(CLI_MIX)

    def __init__(self):
        import hecke.cli  # noqa: F401  (what a user's first invocation loads)
        self.env = child_env()

    def schedule(self, seed: int, goldens: dict):
        return perm_stream(random.Random(f"cli:{seed}"), CLI_MIX)

    def run(self, key):
        """One `python -m hecke.cli` process; returns (exit code, stdout sha256)."""
        proc = subprocess.run([sys.executable, "-m", "hecke.cli", *key], env=self.env,
                              cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, timeout=CHILD_TIMEOUT_S)
        return proc.returncode, hashlib.sha256(proc.stdout).hexdigest()

    @staticmethod
    def check(key, out, goldens) -> bool:
        return list(out) == goldens[cli_key(key)]


# constructing one is the set-up: imports and the structures ops share
WORKLOADS = {w.name: w for w in (Relations, MuRecover, ColdProducts, Cli)}
