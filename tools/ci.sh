#!/usr/bin/env bash
# PARINDA CI driver: builds and tests the tree three times —
#
#   1. default configuration (RelWithDebInfo, warnings on),
#   2. hardened configuration (ASan+UBSan, -Werror), and
#   3. thread-sanitized configuration (TSan, -Werror) — gates the parallel
#      advisor evaluation layer (ThreadPool/ParallelFor) against data races
#
# — then runs every example binary as a smoke test (the interactive designer
# gets a scripted add/drop/evaluate session piped to stdin), sweeps every
# registered failpoint in error mode through the sanitizer build (injected
# faults must come back as Status, never crashes — the point list comes from
# the binary itself via --list-failpoints, so the sweep cannot drift from the
# code), proves the cache spill is crash-safe (a save killed mid-write leaves
# no target file and the rerun recovers green) and corruption-tolerant (one
# flipped payload byte costs exactly one record, and the warmed costs match
# the pre-save evaluation byte for byte), smoke-tests the bench
# --json/--trace exports (both must parse as JSON and the trace must carry
# optimizer spans), runs parinda-lint
# over src/ and tests/, failing on any violation (including the
# overlay-internals layering and unchecked-deadline checks), runs
# parinda-analyze over src/ (module layering, guarded-field lock discipline,
# call-graph deadline reachability), and — when a clang++ is on PATH —
# rebuilds with -Wthread-safety to cross-check the mutex annotations.
#
# Usage: tools/ci.sh [jobs]
set -eu

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
JOBS="${1:-$(nproc 2>/dev/null || echo 4)}"
cd "$ROOT"

run_matrix() {
  local dir="$1"; shift
  echo "=== configure $dir ($*) ==="
  cmake -B "$dir" -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON "$@"
  echo "=== build $dir ==="
  cmake --build "$dir" -j "$JOBS"
  echo "=== ctest $dir ==="
  (cd "$dir" && ctest --output-on-failure -j "$JOBS")
}

run_matrix build
run_matrix build-san -DPARINDA_SANITIZE=address,undefined -DPARINDA_WERROR=ON
run_matrix build-tsan -DPARINDA_SANITIZE=thread -DPARINDA_WERROR=ON

echo "=== examples smoke tests ==="
run_example() {
  echo "--- $1"
  "./build/examples/$@" > /dev/null
}
run_example quickstart
run_example auto_partition 64
run_example range_partition 8
run_example auto_index 16
run_example advise_from_stats /tmp/parinda_ci_stats.txt
printf '%s\n' \
  'tables' \
  'workload add SELECT objid FROM photoobj WHERE objid < 500' \
  'workload add SELECT field_id FROM field WHERE quality = 3' \
  'add index photoobj objid' \
  'add partition photoobj objid,ra,dec' \
  'add range photoobj ra 4' \
  'add join nonestloop' \
  'list' \
  'evaluate' \
  'drop 4' \
  'evaluate' \
  'clear' \
  'evaluate' \
  'quit' \
  | ./build/examples/interactive_designer > /tmp/parinda_ci_repl.txt
grep -q 'average benefit' /tmp/parinda_ci_repl.txt || {
  echo "interactive_designer smoke test produced no evaluation report:"
  cat /tmp/parinda_ci_repl.txt
  exit 1
}
echo "--- interactive_designer"

echo "=== failpoint sweep (ASan+UBSan build) ==="
# Ask the binary for every registered failpoint (FailpointRegistry feeds
# --list-failpoints, so the list is exactly what the linked code registered —
# no source grep to fall out of date) and re-run the failpoint-aware tests
# once per point in error mode under the sanitizer build: injected faults
# must surface as clean Status everywhere — no crashes, no leaks, no
# sanitizer reports.
FAILPOINTS="$(./build-san/tests/failpoint_test --list-failpoints)"
if [ -z "$FAILPOINTS" ]; then
  echo "no failpoints registered — sweep has nothing to do"
  exit 1
fi
for fp in $FAILPOINTS; do
  echo "--- $fp=error"
  (cd build-san && PARINDA_FAILPOINTS="$fp=error" \
    ctest -R Failpoint --output-on-failure -j "$JOBS" > /tmp/parinda_fp_sweep.txt) || {
    echo "failpoint sweep failed for $fp:"
    cat /tmp/parinda_fp_sweep.txt
    exit 1
  }
done

echo "=== crash-during-save recovery (ASan+UBSan build) ==="
# Kill the interactive designer *inside* the spill write (crash mode aborts
# between the two halves of the temp file): the target path must not exist
# afterwards — the torn state is confined to a .tmp sibling — and rerunning
# the identical session must complete and save cleanly. This is the
# crash-safety contract of cache_spill.h exercised end to end.
SPILL_DIR="$(mktemp -d /tmp/parinda_ci_spill.XXXXXX)"
spill_session() {
  printf '%s\n' \
    'workload add SELECT objid FROM photoobj WHERE objid < 500' \
    'workload add SELECT field_id FROM field WHERE quality = 3' \
    'add index photoobj objid' \
    'evaluate' \
    "$1" \
    'quit'
}
if spill_session "save-cache $SPILL_DIR/cache.spill" \
    | PARINDA_FAILPOINTS="engine.spill_write=crash" \
      ./build-san/examples/interactive_designer \
      > /tmp/parinda_ci_crash.txt 2>&1; then
  echo "crash-during-save: process survived an armed crash failpoint"
  exit 1
fi
if [ -e "$SPILL_DIR/cache.spill" ]; then
  echo "crash-during-save: target file exists after a save that crashed"
  exit 1
fi
spill_session "save-cache $SPILL_DIR/cache.spill" \
  | ./build-san/examples/interactive_designer > /tmp/parinda_ci_crash2.txt
grep -q 'cache saved to' /tmp/parinda_ci_crash2.txt || {
  echo "crash-during-save: rerun after the crash did not save:"
  cat /tmp/parinda_ci_crash2.txt
  exit 1
}
echo "--- crash mid-save left no target; rerun recovered and saved"

echo "=== spill round-trip with corruption (ASan+UBSan build) ==="
# Flip one byte inside one record payload of the spill just written: loading
# must reject exactly that record (CRC mismatch), keep every other record,
# and the warmed session's evaluation must print byte-identical per-query
# costs — a corrupt record is a cache miss, never a wrong cost.
grep '^  Q' /tmp/parinda_ci_crash2.txt > /tmp/parinda_ci_rt_want.txt
if command -v python3 >/dev/null 2>&1; then
  python3 - "$SPILL_DIR/cache.spill" <<'EOF'
import sys
path = sys.argv[1]
data = bytearray(open(path, "rb").read())
marker = data.find(b"\nrecord ")
assert marker >= 0, "no record header in spill file"
hdr_end = data.index(b"\n", marker + 1)
length = int(data[marker + 1:hdr_end].split()[1])
data[hdr_end + 1 + length // 2] ^= 0x01
open(path, "wb").write(bytes(data))
EOF
  # Same session shape, but the load precedes evaluate so the printed costs
  # come out of the warmed (and partially corrupted) cache.
  printf '%s\n' \
    'workload add SELECT objid FROM photoobj WHERE objid < 500' \
    'workload add SELECT field_id FROM field WHERE quality = 3' \
    'add index photoobj objid' \
    "load-cache $SPILL_DIR/cache.spill" \
    'evaluate' \
    'quit' \
    | ./build-san/examples/interactive_designer > /tmp/parinda_ci_rt_got.txt
  grep -q 'records, 1 rejected' /tmp/parinda_ci_rt_got.txt || {
    echo "spill round-trip: expected exactly 1 rejected record:"
    grep 'cache' /tmp/parinda_ci_rt_got.txt || cat /tmp/parinda_ci_rt_got.txt
    exit 1
  }
  grep '^  Q' /tmp/parinda_ci_rt_got.txt > /tmp/parinda_ci_rt_have.txt
  diff /tmp/parinda_ci_rt_want.txt /tmp/parinda_ci_rt_have.txt || {
    echo "spill round-trip: per-query costs diverged after corrupted reload"
    exit 1
  }
  echo "--- 1 corrupt record rejected, costs bit-identical after reload"
else
  echo "python3 unavailable; skipping byte-flip (covered by cache_test fuzz)"
fi
rm -rf "$SPILL_DIR"

echo "=== trace export smoke test ==="
# The bench flag layer must produce valid JSON for both the metrics report
# and the Chrome trace_event export. Validate with python's JSON parser when
# one is available; fall back to a structural grep otherwise.
./build/bench/bench_interactive \
  --json=/tmp/parinda_ci_bench.json --trace=/tmp/parinda_ci_bench.trace.json \
  --benchmark_min_time=0.01 > /dev/null
if command -v python3 >/dev/null 2>&1; then
  python3 -m json.tool /tmp/parinda_ci_bench.json > /dev/null
  python3 -m json.tool /tmp/parinda_ci_bench.trace.json > /dev/null
else
  grep -q '"metrics"' /tmp/parinda_ci_bench.json
  grep -q '"traceEvents"' /tmp/parinda_ci_bench.trace.json
fi
grep -q '"traceEvents"' /tmp/parinda_ci_bench.trace.json
grep -q 'optimizer.plan_query' /tmp/parinda_ci_bench.trace.json || {
  echo "trace export contains no optimizer.plan_query spans:"
  head -5 /tmp/parinda_ci_bench.trace.json
  exit 1
}
echo "--- bench_interactive --json --trace: both exports valid"

echo "=== engine cost-cache smoke test ==="
# The shared evaluation engine (DESIGN.md §13) must pay for itself: an
# AutoPart run (E6e in bench_autopart) makes at most half the planner calls
# of the naive queries x evaluations bound, at a non-trivial hit rate, and
# rewrites a statement only to plan it (the cache is keyed on the rewriter's
# fragment choice, so a hit needs no rewrite): at most one rewrite per
# planner call.
./build/bench/bench_autopart \
  --json=/tmp/parinda_ci_autopart.json \
  --benchmark_min_time=0.01 > /dev/null
if command -v python3 >/dev/null 2>&1; then
  python3 - <<'EOF'
import json
metrics = json.load(open("/tmp/parinda_ci_autopart.json"))["metrics"]
cached = metrics["e6e.plans_built_cached"]
naive = metrics["e6e.queries"] * metrics["e6e.evaluations"]
assert cached * 2 <= naive, (cached, naive)
assert metrics["e6e.cache_hit_rate"] > 0.5, metrics["e6e.cache_hit_rate"]
rewrites = metrics["e6e.rewrites"]
assert rewrites <= cached, (rewrites, cached)
print(f"--- engine cache: {cached:.0f} planner calls vs {naive:.0f} "
      f"naive bound, hit rate {metrics['e6e.cache_hit_rate']:.1%}, "
      f"{rewrites:.0f} rewrites")
EOF
else
  grep -q '"e6e.plans_built_cached"' /tmp/parinda_ci_autopart.json
  grep -q '"e6e.rewrites"' /tmp/parinda_ci_autopart.json
  echo "--- engine cache: metrics present (python3 unavailable for bounds)"
fi

echo "=== large-workload scaling smoke test ==="
# The scaling pipeline (DESIGN.md §15) must hold its contract at CI time:
# a 2000-query scaled SDSS workload compresses at >= 10x, a fresh design
# session's first evaluation of it plans at most twice per fold class (one
# base and one what-if plan), and the branch and bound copies its LP exactly
# once on a deep tree. Budgeted: the whole leg must finish inside 120s.
SCALE_START=$SECONDS
./build/bench/bench_scale \
  --json=/tmp/parinda_ci_scale.json \
  --benchmark_filter=NONE > /dev/null
SCALE_WALL=$((SECONDS - SCALE_START))
if command -v python3 >/dev/null 2>&1; then
  python3 - <<'EOF'
import json
metrics = json.load(open("/tmp/parinda_ci_scale.json"))["metrics"]
ratio = metrics["e10a.2000.compression_ratio"]
assert ratio >= 10.0, ratio
plans = metrics["e10a.2000.session_plans"]
distinct = metrics["e10a.2000.distinct"]
assert plans <= 2 * distinct, (plans, distinct)
assert metrics["e10c.incremental_lp_copies"] == 1.0, metrics
assert metrics["peak_rss_bytes"] > 0, metrics
print(f"--- scale: {ratio:.1f}x compression, {plans:.0f} session plans for "
      f"{distinct:.0f} fold classes, 1 LP copy")
EOF
else
  grep -q '"e10c.incremental_lp_copies": 1' /tmp/parinda_ci_scale.json
  grep -q '"e10a.2000.session_plans"' /tmp/parinda_ci_scale.json
  echo "--- scale: metrics present (python3 unavailable for bounds)"
fi
if [ "$SCALE_WALL" -gt 120 ]; then
  echo "scale smoke test exceeded its 120s budget: ${SCALE_WALL}s"
  exit 1
fi
echo "--- scale smoke test: ${SCALE_WALL}s (budget 120s)"

echo "=== parinda-lint ==="
./build/tools/parinda-lint --json src tests > /tmp/parinda_lint_report.json && {
  echo "parinda-lint: clean"
} || {
  echo "parinda-lint: violations found:"
  cat /tmp/parinda_lint_report.json
  exit 1
}

echo "=== parinda-analyze ==="
./build/tools/parinda-analyze --json src > /tmp/parinda_analyze_report.json && {
  echo "parinda-analyze: clean"
} || {
  echo "parinda-analyze: findings:"
  cat /tmp/parinda_analyze_report.json
  exit 1
}

echo "=== clang thread-safety analysis (optional) ==="
# The PARINDA_GUARDED_BY/PARINDA_REQUIRES annotations expand to clang
# attributes; when a clang is available, a -Wthread-safety build must be
# warning-free. Without one this leg is skipped — parinda-analyze's
# guarded-field check above covers the annotations on any toolchain.
if command -v clang++ >/dev/null 2>&1; then
  run_matrix build-tsafety -DCMAKE_CXX_COMPILER=clang++ \
    -DPARINDA_THREAD_SAFETY=ON -DPARINDA_WERROR=ON
else
  echo "clang++ not found; skipping (guarded-field covered by parinda-analyze)"
fi

echo "=== clang-tidy (optional) ==="
tools/run_clang_tidy.sh build

echo "CI: all gates passed"
