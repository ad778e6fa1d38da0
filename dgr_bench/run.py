#!/usr/bin/env python3
"""Benchmark entry point: build dgr_bench from this checkout, run one
workload, and print one JSON result line.

    python3 dgr_bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout. The build goes to $CARGO_TARGET_DIR
(default .bench_build), relative to the checkout root. Build output and
dgr_bench's own report go to stderr; the last line of stdout is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the end-to-end metrics of BENCHMARK.json (--trace 0) or its
per-layer metrics (--trace 1). Exits non-zero when the build or the run
fails, or when an output fails validation.
"""
import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def run(cmd, timeout):
    """Run cmd in its own process group with stdout sent to stderr; kill
    the whole group if it outlives the timeout."""
    proc = subprocess.Popen(cmd, stdout=sys.stderr, start_new_session=True)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise SystemExit(f"run.py: timed out after {timeout} s: {cmd[0]}")


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        if run(["cmake", "-S", HERE, "-B", build_dir,
                "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S) != 0:
            raise SystemExit("run.py: cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if run(["cmake", "--build", build_dir, "-j", jobs, "--target",
            "dgr_bench"], BUILD_TIMEOUT_S) != 0:
        raise SystemExit("run.py: build failed")
    return os.path.join(build_dir, "dgr_bench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        raise SystemExit(f"run.py: unknown workload {args.workload!r}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_dir)
    binary = build(build_dir)

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_json = os.path.join(build_dir, f"result-{stem}.json")
    if os.path.exists(out_json):
        os.remove(out_json)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--json", out_json]
    if args.trace:
        cmd += ["--trace", os.path.join(build_dir, f"spans-{stem}.json")]
    code = run(cmd, RUN_TIMEOUT_S)
    if code not in (0, 1) or not os.path.exists(out_json):
        raise SystemExit(f"run.py: dgr_bench exited with code {code}")

    with open(out_json) as f:
        (result,) = json.load(f)["workloads"]
    metrics = result["metrics"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise SystemExit(f"run.py: dgr_bench did not report {missing}")
    line = {
        "correct": bool(result["correct"]) and code == 0,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {m["name"]: metrics[m["name"]] for m in wanted},
    }
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
