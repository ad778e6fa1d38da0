#!/usr/bin/env python3
"""bench_dgr_smoke: run `dgr_bench --smoke` twice and check its contract.

    python3 dgr_bench/smoke_test.py path/to/dgr_bench path/to/BENCHMARK.json

Asserts that every workload prints every end-to-end metric of
BENCHMARK.json by name with its unit, that every output validated, and
that the exact counters (rounds, messages) are identical across the two
invocations.
"""
import json
import os
import subprocess
import sys
import tempfile

EXACT = ("rounds", "messages")


def invoke(binary, json_path):
    p = subprocess.run([binary, "--smoke", "--json", json_path],
                       capture_output=True, text=True, timeout=60)
    if p.returncode != 0:
        sys.exit(f"smoke: dgr_bench exited {p.returncode}\n{p.stderr}")
    with open(json_path) as f:
        return p.stdout, json.load(f)


def printed_metrics(stdout):
    """{workload: {metric: unit}} from the `  name value unit` lines."""
    out, cur = {}, None
    for line in stdout.splitlines():
        if line.startswith("dgr_bench: "):
            cur = out.setdefault(line.split()[1], {})
        elif cur is not None and len(line.split()) == 3:
            name, value, unit = line.split()
            float(value)
            cur[name] = unit
    return out


def main():
    binary, bench_json = sys.argv[1], sys.argv[2]
    with open(bench_json) as f:
        spec = json.load(f)
    with tempfile.TemporaryDirectory() as tmp:
        runs = [invoke(binary, os.path.join(tmp, f"{i}.json")) for i in (0, 1)]

    names = [w["name"] for w in spec["workloads"]]
    for stdout, report in runs:
        printed = printed_metrics(stdout)
        for w in names:
            for m in spec["end_to_end"]:
                if printed.get(w, {}).get(m["name"]) != m["unit"]:
                    sys.exit(f"smoke: {w} did not print {m['name']} [{m['unit']}]")
        for w in report["workloads"]:
            if not w["correct"] or w["failed"]:
                sys.exit(f"smoke: {w['name']} outputs failed validation")

    (_, a), (_, b) = runs
    for wa, wb in zip(a["workloads"], b["workloads"]):
        for m in EXACT:
            if m not in wa["metrics"]:
                continue  # serve-mixed reports rounds only
            va, vb = wa["metrics"][m]["value"], wb["metrics"][m]["value"]
            if va != vb:
                sys.exit(f"smoke: {wa['name']} {m} differs: {va} vs {vb}")
    print("smoke: ok")


if __name__ == "__main__":
    main()
