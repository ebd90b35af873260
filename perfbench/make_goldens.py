"""Regenerate goldens.json: the digest of every pool item's output.

Run from the repository root:  python3 perfbench/make_goldens.py [WORKLOAD...]
(all four workloads when none is named; the others keep their entries).

The stored digests are the reference the benchmark checks each op against,
so regenerate them only at a commit whose outputs are known to be right.
Library items also store the op's time in ms on the generating machine; the
benchmark only uses it to sort each pool into cost strata.
"""
from __future__ import annotations

import json
import sys
import time

import workloads as wl


def relations() -> dict:
    bench = wl.Relations()
    out = {}
    for typ, _ in wl.RELATION_COMPONENTS:
        rows = []
        for i in range(wl.RELATION_POOL):
            t0 = time.perf_counter()
            left, right = bench.run((typ, i))
            cost = time.perf_counter() - t0
            if left != right:
                raise SystemExit(f"associativity fails on relations item {typ}/{i}")
            rows.append([wl.digest(left.to_json()), round(cost * 1e3, 1)])
        out[typ] = rows
    return out


def mu_recover() -> dict:
    bench = wl.MuRecover()
    out = {}
    for key in wl.mu_pairs(wl.MU_BODY + wl.MU_TAIL):
        t0 = time.perf_counter()
        prof, pair = bench.run(key)
        cost = time.perf_counter() - t0
        if (pair.e_alpha, pair.e_star) != key:
            raise SystemExit(f"mu round trip fails on {key}")
        out[wl.mu_key(*key)] = [wl.digest(prof.to_json()), round(cost * 1e3, 1)]
    return out


def cold_products() -> dict:
    bench = wl.ColdProducts()
    out = {}
    for typ, _ in wl.COLD_COMPONENTS:
        for y in wl.cold_points(typ):
            t0 = time.perf_counter()
            prod = bench.run((typ, y))
            cost = time.perf_counter() - t0
            out[wl.cold_key(typ, y)] = [wl.digest(prod.to_json()), round(cost * 1e3, 1)]
    return out


def cli() -> dict:
    bench = wl.Cli()
    return {wl.cli_key(argv): list(bench.run(argv)) for argv in wl.CLI_MIX}


def main(names):
    wl.use_source_tree()
    goldens = wl.load_goldens() if names else {}
    for name, make in (("relations", relations), ("mu_recover", mu_recover),
                       ("cold_products", cold_products), ("cli", cli)):
        if names and name not in names:
            continue
        t0 = time.perf_counter()
        goldens[name] = make()
        print(f"{name}: {len(goldens[name])} entries in "
              f"{time.perf_counter() - t0:.1f} s", flush=True)
    with open(wl.GOLDENS, "w") as fh:
        json.dump(goldens, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:])
