"""The program names that the benchmark reads all resolve.

perfbench/layers.py counts calls of named functions of src/hecke and reads
the coefficients of each product through AHAElement.terms, and the set-ups
of perfbench/workloads.py import the names their ops call.  A rename or a
deletion there would otherwise fail only the benchmark run.
"""
import importlib
import sys
from pathlib import Path

import hecke
from hecke.hecke_algebra import AHA
from hecke.label_params import LabelFunction
from hecke.root_data import BasedRootDatum, build_root_system

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
HECKE_DIR = Path(hecke.__file__).resolve().parent


def _perfbench(module):
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module(module)
    finally:
        sys.path.remove(str(PERFBENCH))


def _layers():
    return _perfbench("layers")


def _in_hecke(fn) -> bool:
    path = Path(fn.__code__.co_filename).resolve()
    return path.parent == HECKE_DIR and path.stem in _layers().MODULES


def test_every_traced_name_resolves_to_a_hecke_function():
    trace = _layers().LayerTrace()
    for name, fn in trace._targets().items():
        assert _in_hecke(fn), name
    for name, (callee, caller) in trace._edges().items():
        assert _in_hecke(callee) and _in_hecke(caller), name


def test_product_gauges_read_the_terms():
    rs = build_root_system("B", 2)
    alg = AHA(BasedRootDatum(rs), LabelFunction.for_system(rs, (3, 3, 1)))
    a, b = alg.t((1, 0)), alg.theta((1, -1))
    for c in (a * b).terms.values():
        assert isinstance(c.num, tuple) and isinstance(c.den, tuple)
    trace = _layers().LayerTrace()
    saved = AHA.multiply, AHA._t_times_theta
    try:
        trace.wrap_algebra()
        trace.start()
        prod = alg.multiply(a, b)
        trace.stop()
    finally:
        AHA.multiply, AHA._t_times_theta = saved
    counts = trace.raw()["counts"]
    assert counts["terms_out"] == counts["max_terms"] == len(prod.ints) > 0
    assert counts["max_coeff_len"] >= 2 and counts["multiply_calls"] == 1


def test_a_repeated_product_reads_cache_hits():
    # layers.py probes alg._tt_cache with the (wi, y) that _t_times_theta is
    # given: a cache key of another form would read 0 hits, not fail
    rs = build_root_system("G", 2)
    alg = AHA(BasedRootDatum(rs), LabelFunction.for_system(rs, (1, 3)))
    a, b = alg.t((0, 1)), alg.theta((1, -1))
    trace = _layers().LayerTrace()
    saved = AHA.multiply, AHA._t_times_theta
    try:
        trace.wrap_algebra()
        trace.start()
        first, second = alg.multiply(a, b), alg.multiply(a, b)
        trace.stop()
    finally:
        AHA.multiply, AHA._t_times_theta = saved
    counts = trace.raw()["counts"]
    assert first == second
    assert 0 < counts["tt_hits"] <= counts["tt_lookups"]


def test_workload_set_ups_and_first_ops_run():
    # the set-ups import QBase, hecke_algebra.algebra, VRat.v_pow,
    # mu_function and weyl_group; each first op is checked against its golden
    wl = _perfbench("workloads")
    goldens = wl.load_goldens()
    for bench in (wl.Relations(), wl.MuRecover(), wl.ColdProducts()):
        gold = goldens[bench.name]
        key = next(iter(bench.schedule(0, gold)))
        assert bench.check(key, bench.run(key), gold), (bench.name, key)
