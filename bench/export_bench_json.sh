#!/usr/bin/env sh
# Regenerate the perf baselines committed at the repo root.
#
#   bench/export_bench_json.sh [build-dir] [min-time-seconds]
#
# Runs the raw round-engine benchmarks (bench_engine), the §3-primitives
# benchmarks (bench_primitives), the serving-stack benchmarks
# (bench_serve) and the million-node scale trajectory (bench_scale) with
# JSON output and writes BENCH_engine.json / BENCH_primitives.json /
# BENCH_serve.json / BENCH_scale.json next to this repo's README. Thread
# sweeps carry "cores" and "oversubscribed" fields — a baseline produced
# on a machine with fewer cores than the requested thread count is flagged,
# not silently wrong. The n = 2^20 NCC0 points (bench_scale implicit and
# explicit, E2_DistributedSort) each need about 12 GB / 5.5 GB and tens of
# minutes, so run this on an otherwise idle host with that much memory.
# Future PRs that touch the engine datapath or the primitives should re-run
# this on comparable hardware and eyeball the messages/s (engine) and
# real_time (primitives) counters against the committed baselines — see
# EXPERIMENTS.md for how to read the files. CI runs the same binaries with a
# tiny min-time as a smoke test and uploads their JSON as artifacts.
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build_dir=${1:-"$repo_root/build"}
min_time=${2:-0.1}

run_bench() {
  bench_bin="$build_dir/bench/$1"
  out="$repo_root/$2"
  if [ ! -x "$bench_bin" ]; then
    echo "error: $bench_bin not found or not executable." >&2
    echo "Configure and build first:  cmake -B build -S . && cmake --build build -j" >&2
    exit 1
  fi
  "$bench_bin" \
    --benchmark_format=json \
    --benchmark_min_time="$min_time" \
    --benchmark_out="$out" \
    --benchmark_out_format=json \
    > /dev/null
  echo "wrote $out"
}

run_bench bench_engine BENCH_engine.json
run_bench bench_primitives BENCH_primitives.json
run_bench bench_serve BENCH_serve.json

# bench_scale is a plain-main driver (not Google Benchmark): one forked
# child per (algorithm, n) point up to 10^6 nodes, threads=1, sparse
# scheduler; each entry's peak RSS is its own child's.
scale_bin="$build_dir/bench/bench_scale"
if [ ! -x "$scale_bin" ]; then
  echo "error: $scale_bin not found or not executable." >&2
  exit 1
fi
"$scale_bin" --json "$repo_root/BENCH_scale.json"
echo "wrote $repo_root/BENCH_scale.json"
