"""Layered benchmark of the hecke library: four workloads, end to end and per layer.

    python3 perfbench/run.py --workload relations --seed 1 --seconds 30 --trace 0

--trace 0 measures the end-to-end metrics of a closed loop (one op at a time)
for --seconds seconds.  --trace 1 measures the per-layer metrics on a fixed,
seed-determined pass instead: once untraced and twice traced, each in a fresh
process, and checks that the two traced passes count the same work.  Without
--workload all four workloads run, one child process each.  The last line of
stdout is one JSON object {correct, attempted, failed, metrics}.

The end-to-end timings are given at a fixed host speed (see HostSpeed): a
shared host runs the same code up to 1.4x slower when its neighbours are busy,
so each timing is scaled by how fast a fixed reference kernel ran between the
ops of the same run.  The timings as measured are printed and recorded too.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from itertools import islice
from pathlib import Path

import layers
import workloads as wl

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 15
START_SAMPLES = 5

UNITS = {"setup_s": "s", "ops_per_s": "op/s", "op_p50_ms": "ms",
         "op_p90_ms": "ms", "peak_rss_mb": "MiB", "failed_share": "ratio"}

# one call of reference() takes about this long on the 2-core Xeon host the
# benchmark was written on, in a quiet minute
REF_NOMINAL_S = 3e-4
REF_SHARE = 0.05    # reference calls take about this share of the timed phase
REF_A = tuple(3 ** k + k for k in range(32))
REF_B = tuple(7 * k - 5 ** (k % 17) for k in range(32))
REF_BIG = (3 ** 120 + 1, 5 ** 90 + 7)
REF_MAP = {k: k * 2654435761 % 1000003 for k in range(20000)}


def reference():
    """Fixed pure-Python work, independent of hecke, in three about equal parts
    of the kinds the library does: a product of two int lists, gcds and
    divisions of big ints, and dict reads and writes."""
    out = [0] * (len(REF_A) + len(REF_B) - 1)
    for i, x in enumerate(REF_A):
        for j, y in enumerate(REF_B):
            out[i + j] += x * y
    a, b = REF_BIG
    for k in range(1, 60):
        out.append(math.gcd(a + k, b * k) + a * b // k)
    seen = {}
    for k in range(0, len(REF_MAP), 39):
        seen[k, REF_MAP[k] & 7] = REF_MAP[k]
    return out, seen


class HostSpeed:
    """How much slower than nominal the host ran during a timed phase.

    After each op the reference kernel runs for about REF_SHARE of the op's
    latency (at least once), so its calls sample the host in proportion to
    the time the ops took.  slowdown() is their mean time over
    REF_NOMINAL_S; a timing divided by it is the timing at nominal speed.
    """

    def __init__(self):
        self.calls = 0
        self.spent = 0.0

    def sample(self, lat_s: float):
        budget = self.spent + REF_SHARE * lat_s
        while True:
            t = time.perf_counter()
            reference()
            self.spent += time.perf_counter() - t
            self.calls += 1
            if self.spent >= budget:
                return

    def slowdown(self) -> float:
        return self.spent / self.calls / REF_NOMINAL_S


def hd_quantile(xs, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile of xs.

    A mean of all order statistics, weighted by the Beta(p(n+1), (1-p)(n+1))
    mass of each rank's interval, so the estimate does not hinge on the one
    or two samples next to rank p*n.  The weights are integrated with the
    midpoint rule and normalised.
    """
    xs = sorted(xs)
    n = len(xs)
    if n == 1:
        return xs[0]
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    steps = 16
    weights = [sum(math.exp(log_norm + (a - 1) * math.log(u) + (b - 1) * math.log1p(-u))
                   for u in ((i + (k + 0.5) / steps) / n for k in range(steps)))
               for i in range(n)]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def pin_to_one_cpu():
    """Keep the benchmark and its children on one CPU, so the reference calls
    sample the same core the ops run on."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def machine_meta() -> dict:
    commit = None
    if (wl.ROOT / ".git").exists():
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(wl.ROOT.parent))
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=wl.ROOT, env=env,
                                  capture_output=True, text=True, timeout=30)
            commit = proc.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "platform": platform.platform(), "git_commit": commit,
            "loadavg_start": list(os.getloadavg())}


def child(args, timeout=wl.CHILD_TIMEOUT_S):
    """Run one child interpreter to completion; returns (wall s, stdout)."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *args], cwd=wl.ROOT, env=wl.child_env(),
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=timeout)
    wall = time.perf_counter() - t0
    if proc.returncode:
        raise RuntimeError(f"child {args} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    return wall, proc.stdout


def probe(*args, timeout=wl.CHILD_TIMEOUT_S):
    return child([str(HERE / "probe.py"), *map(str, args)], timeout)


def probe_json(*args, timeout=wl.CHILD_TIMEOUT_S) -> dict:
    return json.loads(probe(*args, timeout=timeout)[1].strip().splitlines()[-1])


def median_wall(args, n) -> float:
    return statistics.median(child(args)[0] for _ in range(n))


# -- untraced: end-to-end metrics ------------------------------------------------

def measure(name: str, seed: int, seconds: float) -> dict:
    goldens = wl.load_goldens()[name]
    bench = wl.WORKLOADS[name]()
    keys = bench.schedule(seed, goldens)
    attempted = failed = 0
    lat = []

    def op(key):
        nonlocal attempted, failed
        attempted += 1
        t = time.perf_counter()
        try:
            out = bench.run(key)
            lat_s = time.perf_counter() - t
            ok = bench.check(key, out, goldens)
        except Exception:  # a failed op is counted, never fatal
            lat_s, ok = time.perf_counter() - t, False
        failed += not ok
        return lat_s

    for key in islice(keys, bench.warmup_ops):
        op(key)
    host = HostSpeed()
    t0 = time.perf_counter()
    deadline = t0 + seconds
    while not lat or time.perf_counter() < deadline:
        lat.append(op(next(keys)))
        host.sample(lat[-1])
    elapsed = time.perf_counter() - t0
    # for cli the ops are the children; read before any set-up probe runs
    who = resource.RUSAGE_CHILDREN if name == "cli" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024
    setup_host, setups = HostSpeed(), []
    for _ in range(SETUP_SAMPLES):
        setups.append(probe("setup", name)[0])
        setup_host.sample(setups[-1])
    raw = {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(lat) / (elapsed - host.spent),
        "op_p50_ms": hd_quantile(lat, 0.5) * 1e3,
        "op_p90_ms": hd_quantile(lat, 0.9) * 1e3,
    }
    slowdown = host.slowdown()
    values = {
        "setup_s": raw["setup_s"] / setup_host.slowdown(),
        "ops_per_s": raw["ops_per_s"] * slowdown,
        "op_p50_ms": raw["op_p50_ms"] / slowdown,
        "op_p90_ms": raw["op_p90_ms"] / slowdown,
        "peak_rss_mb": peak_rss_mb,
        "failed_share": failed / attempted,
    }
    return {"attempted": attempted, "failed": failed, "values": values,
            "units": UNITS, "details": {"timed_ops": len(lat), "timed_s": elapsed,
                                        "host_slowdown": slowdown,
                                        "setup_host_slowdown": setup_host.slowdown(),
                                        "reference_calls": host.calls,
                                        "reference_s": host.spent,
                                        "measured": raw}}


# -- traced: per-layer metrics ---------------------------------------------------

def cli_pass(seed: int, traced: bool, ops: int):
    """The first ops of the seeded CLI mix; returns (raw, attempted, failed)."""
    goldens = wl.load_goldens()["cli"]
    bench = wl.Cli()
    raws, failed, wall = [], 0, 0.0
    mix = list(islice(bench.schedule(seed, goldens), ops))
    for argv in mix:
        if traced:
            t0 = time.perf_counter()
            res = probe_json("cliop", *argv)
            wall += time.perf_counter() - t0
            out = (res["code"], res["sha256"])
            raws.append(res["layers"])
        else:
            t0 = time.perf_counter()
            out = bench.run(argv)
            wall += time.perf_counter() - t0
        failed += not bench.check(argv, out, goldens)
    raw = layers.merge(raws) if traced else {}
    raw["wall_s"] = wall
    return raw, len(mix), failed


def library_pass(name: str, seed: int, traced: bool, ops: int):
    res = probe_json("pass", name, seed, ops, int(traced), timeout=170)
    return res["layers"], res["attempted"], res["failed"]


def trace(name: str, seed: int, ops: int | None = None) -> dict:
    bench_cls = wl.WORKLOADS[name]
    ops = bench_cls.trace_ops if ops is None else ops
    if name == "cli":
        def run_pass(traced):
            return cli_pass(seed, traced, ops)
    else:
        def run_pass(traced):
            return library_pass(name, seed, traced, ops)
    plain, attempted, failed = run_pass(False)
    passes = []
    for _ in range(2):
        raw, a, f = run_pass(True)
        passes.append(raw)
        attempted, failed = attempted + a, failed + f
    first, second = passes
    mismatch = sorted(k for k in layers.COUNT_KEYS
                      if first["counts"][k] != second["counts"][k])
    interp = median_wall(["-c", "pass"], START_SAMPLES)
    imported = median_wall(["-c", "import hecke.cli"], START_SAMPLES)
    values = layers.metrics(first)
    values["cli.interp_start_ms"] = interp * 1e3
    values["cli.import_ms"] = (imported - interp) * 1e3
    values["trace.overhead_ratio"] = first["wall_s"] / plain["wall_s"]
    units = {k: unit_of(k) for k in values}
    return {"attempted": attempted, "failed": failed, "values": values,
            "units": units,
            "details": {"trace_ops": ops, "count_mismatch": mismatch,
                        "coverage": layers.coverage(first),
                        "other_s": first["other_s"],
                        "traced_wall_s": first["wall_s"],
                        "untraced_wall_s": plain["wall_s"],
                        "counts": first["counts"]}}


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_ms"):
        return "ms"
    if metric.endswith("_ratio"):
        return "ratio"
    return "count"


# -- output ------------------------------------------------------------------------

def result_line(res: dict) -> dict:
    """The contract line: metrics limited to the names in BENCHMARK.json."""
    spec = json.loads((wl.ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["end_to_end" if "setup_s" in res["values"]
                                     else "per_layer"]]
    return {"correct": res["failed"] == 0, "attempted": res["attempted"],
            "failed": res["failed"],
            "metrics": {n: {"value": res["values"][n], "unit": res["units"][n]}
                        for n in names}}


def report(name: str, res: dict):
    for metric, value in res["values"].items():
        print(f"{name:14s} {metric:34s} {value:14.6g} {res['units'][metric]}")
    details = res["details"]
    if "host_slowdown" in details:
        print(f"{name:14s} host ran {details['host_slowdown']:.4f}x nominal time "
              f"({details['reference_calls']} reference calls), "
              f"{details['setup_host_slowdown']:.4f}x during set-up; as measured:")
        for metric, value in details["measured"].items():
            print(f"{name:14s}   {metric:32s} {value:14.6g} {UNITS[metric]}")
    if "coverage" in details:
        print(f"{name:14s} module self time covers {details['coverage']:.1%} "
              f"of the traced wall time")
        if details["count_mismatch"]:
            print(f"{name:14s} COUNTS DIFFER between two traced passes: "
                  f"{', '.join(details['count_mismatch'])}")
        else:
            print(f"{name:14s} counts repeat exactly across two traced passes")


def run_one(args) -> dict:
    meta = machine_meta()
    if args.trace:
        res = trace(args.workload, args.seed)
    else:
        res = measure(args.workload, args.seed, args.seconds)
    report(args.workload, res)
    record = {"meta": meta, "workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, **res}
    print("record " + json.dumps(record, sort_keys=True))
    return record


def run_all(args) -> list:
    """Each workload in its own process, so memory and caches start fresh."""
    records = []
    for name in wl.NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.splitlines()
        print("\n".join(line for line in lines[:-1] if not line.startswith("record ")))
        if proc.returncode:
            raise SystemExit(f"workload {name} exited {proc.returncode}")
        records.append(json.loads(next(line[7:] for line in lines
                                        if line.startswith("record "))))
    return records


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=wl.NAMES,
                    help="one workload; default: all four in turn")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", metavar="FILE",
                    help="also write the record(s) with machine metadata here")
    args = ap.parse_args(argv)
    wl.use_source_tree()
    pin_to_one_cpu()
    if args.workload:
        records = [run_one(args)]
        line = result_line(records[0])
    else:
        records = run_all(args)
        lines = [result_line(r) for r in records]
        line = {"correct": all(x["correct"] for x in lines),
                "attempted": sum(x["attempted"] for x in lines),
                "failed": sum(x["failed"] for x in lines),
                "metrics": {f"{r['workload']}.{k}": v for r, x in zip(records, lines)
                            for k, v in x["metrics"].items()}}
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"records": records}, fh, indent=1, sort_keys=True)
            fh.write("\n")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
