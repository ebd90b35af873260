"""Per-layer measurement from outside the program.

A layer is one module of src/hecke.  cProfile gives self time and call counts
per function; two wrappers on the algebra handle add what a profile cannot
see: the size of each product and the T.theta cache hits.  Nothing in the
program is edited; the wrappers are installed on the class for one process.

Self time of a module is the self time of its functions plus the time of the
builtins and stdlib functions they call, directly or through other non-hecke
functions (shared out by the time spent under each caller).  What no hecke
function called, such as the benchmark's own code, is reported as "other".
"""
from __future__ import annotations

import cProfile
import time
from pathlib import Path

from workloads import SRC

MODULES = ("qfield", "xlaurent", "root_data", "label_params", "hecke_algebra",
           "mu_function", "intertwiner_rank1", "param_catalog",
           "isogeny_transfer", "cli")

HECKE_DIR = SRC / "hecke"

# raw integers that must repeat exactly for a fixed seed
COUNT_KEYS = ("vrat_new", "pmul_calls", "pgcd_calls", "pgcd_useful",
              "laurent_mul_calls", "div_exact_calls", "subst_calls",
              "root_candidates", "root_hits", "multiply_calls", "terms_out",
              "max_terms", "max_coeff_len", "tt_lookups", "tt_hits",
              "weyl_elements", "poles_zeros_calls")
MAX_KEYS = ("max_terms", "max_coeff_len")


def _key(fn):
    code = fn.__code__
    return code.co_filename, code.co_firstlineno, code.co_name


def _module_of(func) -> str | None:
    path = Path(func[0])
    if path.suffix == ".py" and path.parent == HECKE_DIR:
        return path.stem
    return None


class LayerTrace:
    """One profiled region: start(), work, stop(), then raw()."""

    def __init__(self):
        self.profile = cProfile.Profile()
        self.gauges = {"terms_out": 0, "max_terms": 0, "max_coeff_len": 0,
                       "tt_lookups": 0, "tt_hits": 0}
        self.wall_s = 0.0
        self._t0 = None
        self._multiply = None

    def start(self):
        self._t0 = time.perf_counter()
        self.profile.enable()

    def stop(self):
        self.profile.disable()
        self.wall_s += time.perf_counter() - self._t0

    def wrap_algebra(self):
        """Count product sizes and T.theta cache lookups on every handle."""
        from hecke.hecke_algebra import AHA
        multiply, t_times_theta = AHA.multiply, AHA._t_times_theta
        self._multiply = multiply
        g = self.gauges

        def traced_multiply(alg, a, b):
            out = multiply(alg, a, b)
            n = len(out.terms)
            g["terms_out"] += n
            g["max_terms"] = max(g["max_terms"], n)
            width = max((len(c.num) + len(c.den) for c in out.terms.values()),
                        default=0)
            g["max_coeff_len"] = max(g["max_coeff_len"], width)
            return out

        def traced_t_times_theta(alg, wi, y):
            if wi:
                g["tt_lookups"] += 1
                if (wi, y) in alg._tt_cache:
                    g["tt_hits"] += 1
            return t_times_theta(alg, wi, y)

        AHA.multiply = traced_multiply
        AHA._t_times_theta = traced_t_times_theta

    def raw(self) -> dict:
        """Self time per module and the raw counts; plain JSON types only."""
        self.profile.create_stats()
        stats = self.profile.stats
        self_s = {m: 0.0 for m in MODULES}
        other = 0.0
        memo: dict = {}
        for func, (_, _, tt, _, _) in stats.items():
            for owner, share in _owners(func, stats, memo, set()).items():
                if owner in self_s:
                    self_s[owner] += tt * share
                else:
                    other += tt * share
        counts = dict.fromkeys(COUNT_KEYS, 0)
        counts.update(self.gauges)
        for name, fn in self._targets().items():
            entry = stats.get(_key(fn))
            counts[name] = entry[1] if entry else 0
        for name, (callee, caller) in self._edges().items():
            entry = stats.get(_key(callee))
            edge = entry[4].get(_key(caller)) if entry else None
            counts[name] = edge[1] if edge else 0
        # each useful gcd is followed by two exact divisions, num and den
        counts["pgcd_useful"] //= 2
        return {"wall_s": self.wall_s, "self_s": self_s, "other_s": other,
                "counts": counts}

    def _targets(self) -> dict:
        from hecke import hecke_algebra, mu_function, qfield, root_data, xlaurent
        return {"vrat_new": qfield.VRat.__init__, "pmul_calls": qfield.pmul,
                "pgcd_calls": qfield.pgcd,
                "laurent_mul_calls": xlaurent.Laurent.__mul__,
                "div_exact_calls": xlaurent.div_exact,
                "subst_calls": xlaurent.Laurent.subst,
                "multiply_calls": self._multiply or hecke_algebra.AHA.multiply,
                "weyl_elements": root_data.WeylElement.__init__,
                "poles_zeros_calls": mu_function.poles_zeros}

    @staticmethod
    def _edges() -> dict:
        from hecke import qfield, xlaurent
        return {"pgcd_useful": (qfield.pdiv_exact, qfield.VRat.__init__),
                "root_candidates": (xlaurent.Laurent.subst, xlaurent.shaped_roots),
                "root_hits": (xlaurent.synth_div, xlaurent.shaped_roots)}


def _owners(func, stats, memo, active) -> dict:
    """Share of func's self time owed to each hecke module (or 'other')."""
    module = _module_of(func)
    if module is not None:
        return {module: 1.0}
    if func in memo:
        return memo[func]
    callers = stats[func][4] if func in stats else {}
    harness = Path(func[0]).parent == Path(__file__).resolve().parent
    if harness or not callers or func in active:
        return {"other": 1.0}
    active.add(func)
    total_tt = sum(edge[2] for edge in callers.values())
    total_nc = sum(edge[1] for edge in callers.values())
    out: dict = {}
    for caller, edge in callers.items():
        weight = edge[2] / total_tt if total_tt else edge[1] / total_nc
        for owner, share in _owners(caller, stats, memo, active).items():
            out[owner] = out.get(owner, 0.0) + weight * share
    active.discard(func)
    memo[func] = out
    return out


def merge(raws) -> dict:
    """Sum several raw records (one per CLI process); maxima stay maxima."""
    out = {"wall_s": 0.0, "self_s": dict.fromkeys(MODULES, 0.0), "other_s": 0.0,
           "counts": dict.fromkeys(COUNT_KEYS, 0)}
    for raw in raws:
        out["wall_s"] += raw["wall_s"]
        out["other_s"] += raw["other_s"]
        for m in MODULES:
            out["self_s"][m] += raw["self_s"][m]
        for k in COUNT_KEYS:
            v = raw["counts"][k]
            out["counts"][k] = max(out["counts"][k], v) if k in MAX_KEYS \
                else out["counts"][k] + v
    return out


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def metrics(raw) -> dict:
    """Per-layer metric values named as in BENCHMARK.json (no cli.* / trace.*)."""
    c = raw["counts"]
    out = {f"{m}.self_s": raw["self_s"][m] for m in MODULES}
    out.update({
        "qfield.vrat_new": c["vrat_new"],
        "qfield.pmul_calls": c["pmul_calls"],
        "qfield.pgcd_calls": c["pgcd_calls"],
        "qfield.pgcd_useful_ratio": _ratio(c["pgcd_useful"], c["pgcd_calls"]),
        "xlaurent.mul_calls": c["laurent_mul_calls"],
        "xlaurent.div_exact_calls": c["div_exact_calls"],
        "xlaurent.subst_calls": c["subst_calls"],
        "xlaurent.root_hit_ratio": _ratio(c["root_hits"], c["root_candidates"]),
        "hecke_algebra.multiply_calls": c["multiply_calls"],
        "hecke_algebra.terms_out": c["terms_out"],
        "hecke_algebra.max_terms": c["max_terms"],
        "hecke_algebra.max_coeff_len": c["max_coeff_len"],
        "hecke_algebra.tt_cache_entries": c["tt_lookups"] - c["tt_hits"],
        "hecke_algebra.tt_hit_ratio": _ratio(c["tt_hits"], c["tt_lookups"]),
        "root_data.weyl_elements": c["weyl_elements"],
        "mu_function.poles_zeros_calls": c["poles_zeros_calls"],
    })
    return out


def coverage(raw) -> float:
    """Share of the traced wall time that the module self times account for."""
    return _ratio(sum(raw["self_s"].values()), raw["wall_s"])
