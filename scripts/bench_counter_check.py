#!/usr/bin/env python3
"""Compare dgr_bench's exact counters between a base commit and this tree.

    scripts/bench_counter_check.py [--base REF] [--work DIR]

Builds dgr_bench twice: from the merge-base of HEAD and REF (default
origin/main, exported with `git archive`) and from this checkout's working
tree. Runs implicit-regular, powerlaw-explicit and connectivity-ncc1 at
seed 1 on both builds, once with `--smoke --trace` and once with `--smoke`
alone, and exits 1 if the end-to-end `rounds` or `messages` count (from
the untraced run), any per-primitive round count or any of
ncc.messages_sent / _delivered / _bounced (from the traced run) differs.
serve-mixed is run and printed but never fails the check: its request mix
depends on timing.

A change that claims to move no transcript (a refactor, a deletion, a
layout change) should pass this unchanged. Run it from the repository
root; builds and outputs go to --work (default .bench_check/).
"""
import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GATED = ("implicit-regular", "powerlaw-explicit", "connectivity-ncc1")
REPORTED = ("serve-mixed",)
MESSAGES = ("ncc.messages_sent", "ncc.messages_delivered",
            "ncc.messages_bounced")
END_TO_END = ("rounds", "messages")


def sh(cmd, **kw):
    return subprocess.run(cmd, check=True, **kw)


def git(*args):
    return sh(["git", "-C", ROOT, *args], capture_output=True,
              text=True).stdout.strip()


def build(src, build_dir):
    sh(["cmake", "-S", os.path.join(src, "dgr_bench"), "-B", build_dir,
        "-DCMAKE_BUILD_TYPE=Release"], stdout=subprocess.DEVNULL)
    sh(["cmake", "--build", build_dir, "-j", str(min(4, os.cpu_count() or 1)),
        "--target", "dgr_bench"], stdout=subprocess.DEVNULL)
    return os.path.join(build_dir, "dgr_bench")


def smoke(binary, workload, stem, *extra):
    """The metric values of one smoke run, keyed by name."""
    run = subprocess.run([binary, "--workload", workload, "--seed", "1",
                          "--smoke", *extra, "--json", stem + ".json"],
                         capture_output=True, text=True)
    if run.returncode != 0:
        sys.exit(f"bench_counter_check: {binary} --workload {workload} "
                 f"exited {run.returncode}\n{run.stdout}{run.stderr}")
    with open(stem + ".json") as f:
        metrics = json.load(f)["workloads"][0]["metrics"]
    return {k: v["value"] for k, v in metrics.items()}


def counters(binary, workload, out_dir):
    """The exact counters of one traced and one untraced smoke run."""
    stem = os.path.join(out_dir, workload)
    traced = smoke(binary, workload, stem, "--trace", stem + "-spans.json")
    out = {k: traced[k] for k in MESSAGES}
    out.update({k: v for k, v in traced.items()
                if k.startswith("primitives.rounds.")})
    # The traced report carries no plain round count; the untraced one
    # reports the run's rounds and messages end to end.
    plain = smoke(binary, workload, stem + "-untraced")
    out.update({k: plain[k] for k in END_TO_END if k in plain})
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", default="origin/main")
    ap.add_argument("--work", default=os.path.join(ROOT, ".bench_check"))
    args = ap.parse_args()

    base = git("merge-base", "HEAD", args.base)
    base_src = os.path.join(args.work, "base-src")
    sh(["rm", "-rf", base_src])
    os.makedirs(base_src)
    archive = subprocess.Popen(["git", "-C", ROOT, "archive", base],
                               stdout=subprocess.PIPE)
    sh(["tar", "-x", "-C", base_src], stdin=archive.stdout)
    if archive.wait() != 0:
        sys.exit(f"bench_counter_check: git archive {base} failed")

    sides = {}
    for side, src in (("base", base_src), ("head", ROOT)):
        out_dir = os.path.join(args.work, side + "-out")
        os.makedirs(out_dir, exist_ok=True)
        binary = build(src, os.path.join(args.work, side + "-build"))
        sides[side] = {w: counters(binary, w, out_dir)
                       for w in GATED + REPORTED}

    print(f"bench_counter_check: base {base[:12]} vs working tree")
    failed = False
    for w in GATED + REPORTED:
        a, b = sides["base"][w], sides["head"][w]
        gated = w in GATED
        # A gated workload must report every end-to-end count on both sides.
        for k in sorted(set(a) | set(b) | set(END_TO_END if gated else ())):
            same = a.get(k) == b.get(k) and a.get(k) is not None
            failed |= gated and not same
            mark = "" if same else ("  DIFFERS" if gated else "  (reported)")
            print(f"  {w:<18} {k:<38} {a.get(k)!s:>12} {b.get(k)!s:>12}{mark}")
    if failed:
        sys.exit("bench_counter_check: exact counters moved")
    print("bench_counter_check: exact counters identical")


if __name__ == "__main__":
    main()
