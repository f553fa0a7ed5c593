#!/usr/bin/env python3
"""Smoke test of the benchmark at tiny sizes.

For every workload in BENCHMARK.json it runs one untraced and two traced
runs with the same seed, then asserts three things. Every metric the file
names is printed with its unit. Every check passes. The two traced runs
agree exactly on the work counters and the output digests. It ends with one
run of all workloads in one process.

Run from anywhere: python3 perfbench/smoke.py
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED = 7

# Per-layer metrics that are deterministic functions of the seed.
REPEATABLE = [
    "topology.links",
    "workloads.samples",
    "routing.entries",
    "routing.entries_repaired",
    "routing.entries_reused",
    "routing.planes_rebuilt",
    "core.selects",
    "core.subflows",
    "flowsim.phases",
    "flowsim.warm_phases",
    "flowsim.warm_lambda_err_max",
    "htsim.events",
    "htsim.flows_completed",
    "htsim.packets_enqueued",
    "htsim.drops",
    "htsim.retransmits",
    "htsim.timeouts",
    "htsim.queue_peak_bytes",
    "htsim.fct_p50_us",
    "htsim.fct_p99_us",
    "planner.memo_hits",
    "planner.memo_misses",
    "planner.generations",
    "digest.lambda",
    "digest.fct",
    "digest.routes",
]


def run(workload, trace):
    cmd = [
        "cargo", "run", "--release", "--quiet", "--offline",
        "--manifest-path", "perfbench/Cargo.toml", "--",
        "--workload", workload, "--seed", str(SEED), "--seconds", "0",
        "--trace", str(trace), "--size", "tiny",
    ]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    assert out.returncode == 0, f"{' '.join(cmd)} exited {out.returncode}:\n{out.stderr}"
    return json.loads(out.stdout.strip().splitlines()[-1])


def check_result(label, result, wanted):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, label
    assert result["correct"] is True, f"{label}: a check failed"
    assert result["failed"] == 0, f"{label}: {result['failed']} failed"
    assert result["attempted"] >= 1, label
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in wanted}, f"{label}: metric names differ"
    for m in wanted:
        got = metrics[m["name"]]
        assert got["unit"] == m["unit"], f"{label}: {m['name']} unit {got['unit']}"
        assert isinstance(got["value"], (int, float)), f"{label}: {m['name']}"
    return metrics


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for w in spec["workloads"]:
        name = w["name"]
        e2e = check_result(f"{name} --trace 0", run(name, 0), spec["end_to_end"])
        for m in spec["end_to_end"]:
            assert e2e[m["name"]]["value"] > 0, f"{name}: {m['name']} is not positive"
        first = check_result(f"{name} --trace 1", run(name, 1), spec["per_layer"])
        second = check_result(f"{name} --trace 1 again", run(name, 1), spec["per_layer"])
        assert first["failed_frac"]["value"] == 0, name
        for m in REPEATABLE:
            a, b = first[m]["value"], second[m]["value"]
            assert a == b, f"{name}: {m} differs between two runs of seed {SEED}: {a} vs {b}"
        print(f"{name}: ok")
    everything = run("all", 0)
    assert everything["correct"] is True and everything["failed"] == 0, "all: a check failed"
    for w in spec["workloads"]:
        for m in spec["end_to_end"]:
            assert f"{w['name']}.{m['name']}" in everything["metrics"], m["name"]
    print("all: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
