"""Smoke test of the benchmark: a tiny pass of every workload, both modes.

    python3 -m pytest perfbench/test_smoke.py

Checks that each metric named in BENCHMARK.json is emitted with its unit,
that no op fails on this commit and that traced counts repeat exactly.
"""
import json
import subprocess
import sys

import pytest

import run
import workloads as wl

SPEC = json.loads((wl.ROOT / "BENCHMARK.json").read_text())


def _units(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


@pytest.mark.parametrize("name", wl.NAMES)
def test_untraced_emits_every_end_to_end_metric(name):
    proc = subprocess.run([sys.executable, str(run.HERE / "run.py"),
                           "--workload", name, "--seed", "3", "--seconds", "0.5",
                           "--trace", "0"],
                          cwd=wl.ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    line = json.loads(lines[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert {k: v["unit"] for k, v in line["metrics"].items()} == _units("end_to_end")
    assert all(v["value"] > 0 for v in line["metrics"].values())
    record = json.loads(next(x[7:] for x in lines if x.startswith("record ")))
    assert record["values"]["failed_share"] == 0
    assert set(record["meta"]) == {"python", "nproc", "platform", "git_commit",
                                   "loadavg_start"}


@pytest.mark.parametrize("name", wl.NAMES)
def test_traced_emits_every_layer_metric_and_repeats(name):
    wl.use_source_tree()
    res = run.trace(name, seed=3, ops=2)
    assert res["failed"] == 0
    assert res["details"]["count_mismatch"] == []
    line = run.result_line(res)
    assert {k: v["unit"] for k, v in line["metrics"].items()} == _units("per_layer")
