#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Run from the repository root. For every workload it runs the
end-to-end and the traced run at --scale tiny and asserts that every
metric BENCHMARK.json names is printed, as a `name value unit` line and
in the result JSON, with its declared unit. It then feeds the checker a
corrupted reply and asserts that the run fails. It also checks that
perfbench/layers.json maps every per-layer metric onto end-to-end
metrics and workloads that exist. Exits non-zero on the first failure.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace, corrupt=False):
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace), "--scale", "tiny"]
    if corrupt:
        cmd.append("--corrupt-reply")
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc, lines, result


def fail(msg):
    print("FAIL: " + msg)
    sys.exit(1)


def check_metrics(workload, trace, declared):
    proc, lines, result = run(workload, trace)
    if proc.returncode != 0 or result is None:
        fail(f"{workload} trace={trace} exited {proc.returncode}\n"
             f"{proc.stdout}\n{proc.stderr[-2000:]}")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload}: result keys {sorted(result)}")
    if result["correct"] is not True or result["attempted"] < 1:
        fail(f"{workload} trace={trace}: {lines[-1]}")
    got = result["metrics"]
    if set(got) != {m["name"] for m in declared}:
        fail(f"{workload} trace={trace}: metrics {sorted(got)} != "
             f"{sorted(m['name'] for m in declared)}")
    for m in declared:
        if got[m["name"]]["unit"] != m["unit"]:
            fail(f"{workload}: {m['name']} unit {got[m['name']]['unit']}")
        if not any(line.startswith(m["name"] + " ") and
                   line.endswith(" " + m["unit"]) for line in lines[:-1]):
            fail(f"{workload}: no '{m['name']} <value> {m['unit']}' line")
    print(f"ok   {workload} trace={trace}: {len(declared)} metrics")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "layers.json")) as f:
        layers = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    e2e = {m["name"] for m in bench["end_to_end"]}
    for m in bench["per_layer"]:
        entry = layers.get(m["name"])
        if entry is None:
            fail(f"layers.json has no entry for {m['name']}")
        if entry["moves"] is not None and entry["moves"] not in e2e:
            fail(f"{m['name']} moves unknown metric {entry['moves']}")
        if any(w not in names for w in entry["on"]):
            fail(f"{m['name']} names an unknown workload")
    print(f"ok   layers.json maps {len(bench['per_layer'])} metrics")

    for workload in names:
        check_metrics(workload, 0, bench["end_to_end"])
        check_metrics(workload, 1, bench["per_layer"])
        proc, lines, result = run(workload, 0, corrupt=True)
        if proc.returncode == 0 or (result and result["correct"]):
            fail(f"{workload}: a corrupted reply passed the checker")
        print(f"ok   {workload}: corrupted reply fails the run")
    print("selftest passed")


if __name__ == "__main__":
    main()
