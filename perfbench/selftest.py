#!/usr/bin/env python3
"""Self-test of the benchmark at toy sizes (about a minute).

Run from the repository root:

    python3 perfbench/selftest.py

For every workload it checks that
- the printed metric names and units match BENCHMARK.json, for the
  untraced (`end_to_end`) and the traced (`per_layer`) run;
- every job passed its checks;
- one seed repeats its fingerprint and deterministic counts exactly;
- another seed changes them.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Toy instance sizes: every layer runs, in seconds rather than minutes.
TOY_NODES = {"pipeline-16k": 400, "tvc-512": 48, "churn-2k": 160}


def run(workload, seed, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "0", "--trace", str(trace),
           "--nodes", str(TOY_NODES[workload])]
    r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or len(lines) < 3:
        raise AssertionError(f"{' '.join(cmd)} exited {r.returncode}:\n{r.stderr[-2000:]}")
    host, info, result = (json.loads(x) for x in lines[-3:])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] and result["failed"] == 0, result
    assert host["host"]["seed"] == seed and host["host"]["nproc"] >= 1, host
    return info, result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    assert [w["name"] for w in spec["workloads"]] == list(TOY_NODES), spec["workloads"]
    failures = 0
    for workload in TOY_NODES:
        try:
            for trace in (0, 1):
                _, result = run(workload, 1, trace)
                printed = {k: v["unit"] for k, v in result["metrics"].items()}
                assert printed == expected[trace], (
                    f"trace {trace}: printed {sorted(printed.items())}, "
                    f"BENCHMARK.json {sorted(expected[trace].items())}")
                for name, m in result["metrics"].items():
                    assert isinstance(m["value"], (int, float)), (name, m)
            a, _ = run(workload, 1, 0)
            b, _ = run(workload, 1, 0)
            c, _ = run(workload, 2, 0)
            assert (a["fingerprint"], a["deterministic"]) == (b["fingerprint"], b["deterministic"]), (
                f"seed 1 did not repeat: {a} vs {b}")
            assert a["fingerprint"] != c["fingerprint"], f"seeds 1 and 2 agree: {a}"
            assert a["deterministic"] != c["deterministic"], (
                f"seeds 1 and 2 give the same counts: {a['deterministic']}")
            print(f"ok   {workload}: fingerprint {a['fingerprint']} repeats, seed 2 gives "
                  f"{c['fingerprint']}")
        except AssertionError as e:
            failures += 1
            print(f"FAIL {workload}: {e}")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
