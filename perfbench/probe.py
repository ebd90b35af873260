"""Child-process entry points of the benchmark; run.py starts them.

    probe.py setup WORKLOAD              set up and exit (timed from outside)
    probe.py pass WORKLOAD SEED OPS 0|1  a fixed pass of OPS ops, optionally
                                         traced; prints one JSON line
    probe.py cliop ARGV...               one traced CLI invocation; prints one
                                         JSON line with its exit code, stdout
                                         digest and layer record
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import time
from itertools import islice

import workloads as wl


def fixed_pass(name: str, seed: int, ops: int, traced: bool) -> dict:
    import hecke.cli  # noqa: F401  (every module imported before timing)
    from layers import LayerTrace
    goldens = wl.load_goldens()[name]
    trace = LayerTrace()
    if traced:
        trace.wrap_algebra()
        trace.start()
    t0 = time.perf_counter()
    bench = wl.WORKLOADS[name]()
    attempted = failed = 0
    for key in islice(bench.schedule(seed, goldens), ops):
        attempted += 1
        try:
            ok = bench.check(key, bench.run(key), goldens)
        except Exception:  # a failed op is counted, never fatal
            ok = False
        failed += not ok
    if traced:
        trace.stop()
        layers = trace.raw()
    else:
        layers = {"wall_s": time.perf_counter() - t0}
    return {"attempted": attempted, "failed": failed, "layers": layers}


def cli_op(argv) -> dict:
    from layers import LayerTrace
    trace = LayerTrace()
    out = io.StringIO()
    trace.start()
    import hecke.cli
    trace.wrap_algebra()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = hecke.cli.main(argv)
        except SystemExit as stop:  # argparse refusals exit 2
            code = stop.code
        except Exception:  # what an uncaught error exits with
            code = 1
    trace.stop()
    return {"code": code, "sha256": hashlib.sha256(out.getvalue().encode()).hexdigest(),
            "layers": trace.raw()}


def main(argv) -> int:
    wl.use_source_tree()
    verb, rest = argv[0], argv[1:]
    if verb == "setup":
        wl.WORKLOADS[rest[0]]()
        return 0
    if verb == "pass":
        name, seed, ops, traced = rest
        result = fixed_pass(name, int(seed), int(ops), traced == "1")
    elif verb == "cliop":
        result = cli_op(rest)
    else:
        raise SystemExit(f"probe: unknown verb {verb!r}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
