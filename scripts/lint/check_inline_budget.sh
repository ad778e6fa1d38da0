#!/usr/bin/env bash
# Inline-budget check, generalized over every [[gnu::always_inline]] hot op.
#
# Background (ROADMAP / PR 4): Ctx::send once outgrew the compilers'
# inlining heuristics, leaving an outlined call that copies the 48-byte
# Message through the stack per send — a ~3x slowdown on the all-dense
# engine microbenches, invisible to every correctness test. The fix is
# [[gnu::always_inline]], but a future compiler or refactor can still emit
# an out-of-line definition (attribute dropped, address taken). An outlined
# copy shows up as a DEFINED function symbol in the binary, which is what
# this script greps for.
#
# The hot-op list is not hardcoded: it is derived from the source — every
# function declared under a [[gnu::always_inline]] attribute in src/
# headers is budget-checked, so a newly annotated hot op joins the gate
# automatically.
#
# A second hot-path call hides in libgcc: without -mpopcnt (which the build
# deliberately does not pass), std::popcount compiles to a call to
# __popcountdi2. The wire-record walk once did that per record, so a binary
# that imports __popcountdi2 (`nm -u`) fails too.
#
#   usage: check_inline_budget.sh <binary> [<binary> ...]
#
# Exits non-zero if any binary defines one of those symbols or imports
# __popcountdi2.
set -euo pipefail

root="$(cd "$(dirname "$0")/../.." && pwd)"

if [ "$#" -lt 1 ]; then
  echo "usage: $0 <binary> [<binary> ...]" >&2
  exit 2
fi

# Pull the identifier of each function declared within 4 lines after an
# always_inline attribute: the first `name(` on a line that looks like a
# declaration (skips the attribute/#if lines themselves).
ops=$(grep -rhA4 'gnu::always_inline' "$root/src" --include='*.h' \
  | sed -n 's/.*[[:space:]*&]\([A-Za-z_][A-Za-z0-9_]*\)(.*/\1/p' \
  | sort -u)
if [ -z "$ops" ]; then
  echo "FAIL: no [[gnu::always_inline]] ops found under src/ — the hot-path" >&2
  echo "attributes were removed without retiring this check." >&2
  exit 1
fi
# One alternation: ' t .*::(send|send_to)(' over demangled names.
pattern=" [tTwW] .*::($(echo "$ops" | paste -sd'|' -))\("

status=0
for bin in "$@"; do
  if [ ! -f "$bin" ]; then
    echo "FAIL: $bin does not exist" >&2
    status=1
    continue
  fi
  # Defined code symbols only (t/T/w/W); undefined refs (U) would already
  # be a link error. Matching the call operator '(' keeps unrelated names
  # (send_fail, send_queue) out.
  outlined=$(nm -C "$bin" 2>/dev/null | grep -E "$pattern" || true)
  libcalls=$(nm -u "$bin" 2>/dev/null | grep -E '__popcount[sdt]i2' || true)
  if [ -n "$outlined" ]; then
    echo "FAIL: $bin has outlined hot-op symbols (inline budget lost):" >&2
    echo "$outlined" >&2
    status=1
  elif [ -n "$libcalls" ]; then
    echo "FAIL: $bin calls libgcc popcount (std::popcount without -mpopcnt):" >&2
    echo "$libcalls" >&2
    status=1
  else
    echo "OK: $bin — hot ops ($(echo "$ops" | paste -sd' ' -)) fully inlined, no libgcc popcount"
  fi
done
exit $status
