#!/usr/bin/env bash
# Host-side simulator throughput report -> BENCH_throughput.json.
#
# The output file is a HISTORY: each invocation appends one run entry
# ({date, git_rev, host, throughput, sweep}) to the top-level "runs"
# array instead of overwriting, so throughput can be compared across
# commits and hosts. A pre-history single-run file is wrapped as the
# first entry on the next append.
#
# Three sections per run entry:
#   "host": nproc and CPU model of the machine that produced the
#     numbers (throughput is host-dependent; the CI regression gate
#     uses only the deterministic work counters, see
#     scripts/check_sched_work.sh).
#   "throughput": per-configuration mega-cycles/sec and requests/sec
#     from bench/perf_throughput (single-threaded hot-path speed).
#     The "pair-mask-ckpt" case runs with periodic checkpointing
#     forced on and records the snapshot cost: ckpt_writes,
#     ckpt_bytes (total snapshot bytes written), ckpt_write_seconds,
#     and ckpt_overhead (fraction of wall time spent serializing).
#     The "warm-sweep" case A/B-times a 4-point measure-length grid
#     with the warm-start cache off vs on (warm_off_seconds,
#     warm_on_seconds, warm_speedup, warm_hits/misses,
#     warmup_cycles_saved) and byte-compares the two legs' results
#     (warm_identical) -- see DESIGN.md section 14.
#   "sweep": fig11 wall-clock serial (MASK_BENCH_JOBS=1) vs parallel
#     (MASK_BENCH_JOBS=<nproc>) and the resulting speedup. The speedup
#     scales with hardware threads; on a single-CPU host the parallel
#     leg is skipped and the comparison labeled inconclusive (the
#     sweep runner executes jobs=1 inline, so timing it twice would
#     just measure noise).
#   "dist": fig11 run by two concurrent worker processes sharing a
#     lease directory (MASK_SWEEP_DIST_DIR, DESIGN.md section 15).
#     Records dist_workers, wall_seconds, the summed lease counters
#     from the workers' [dist] stderr footers (leases_claimed,
#     leases_stolen, duplicates), and identical -- whether every
#     worker's merged stdout byte-matched the serial reference (the
#     script fails if not).
#
#   scripts/bench_perf.sh [output.json]
set -euo pipefail
cd "$(dirname "$0")/.."

OUT="${1:-BENCH_throughput.json}"
PERF_BIN=build/bench/perf_throughput
FIG11_BIN=build/bench/fig11_performance
for bin in "$PERF_BIN" "$FIG11_BIN"; do
    if [ ! -x "$bin" ]; then
        echo "error: $bin not built (cmake --build build)" >&2
        exit 2
    fi
done

JOBS="$(nproc 2>/dev/null || echo 1)"

# Host identity: throughput numbers are host-dependent, so the report
# records what produced them (the CI gate compares only deterministic
# work counters, never these wall-clock figures).
CPU_MODEL="$(awk -F': *' '/^model name/ { print $2; exit }' /proc/cpuinfo 2>/dev/null || true)"
if [ -z "$CPU_MODEL" ]; then
    CPU_MODEL="$(uname -m)"
fi
# Escape for JSON embedding (quotes and backslashes).
CPU_MODEL="$(printf '%s' "$CPU_MODEL" | sed 's/\\/\\\\/g; s/"/\\"/g')"

now_secs() { date +%s.%N; }

echo "== perf_throughput (hot-path cycles/sec) =="
PERF_LINES="$("$PERF_BIN" 2>/dev/null)"
echo "$PERF_LINES"

# Surface the warm-sweep A/B verdict in the console output (the full
# JSON line flows into the history file with the rest of PERF_LINES).
WARM_LINE="$(echo "$PERF_LINES" | grep '"case": "warm-sweep"' || true)"
if [ -n "$WARM_LINE" ]; then
    WARM_SPEEDUP="$(echo "$WARM_LINE" | sed -n 's/.*"warm_speedup": \([0-9.]*\).*/\1/p')"
    WARM_IDENTICAL="$(echo "$WARM_LINE" | sed -n 's/.*"warm_identical": \(true\|false\).*/\1/p')"
    echo "== warm-start sweep: speedup ${WARM_SPEEDUP}x, identical=${WARM_IDENTICAL} =="
    if [ "$WARM_IDENTICAL" != "true" ]; then
        echo "error: warm-forked sweep results diverged from fresh run" >&2
        exit 1
    fi
fi

if [ "$JOBS" -gt 1 ]; then
    echo "== fig11 sweep: serial vs MASK_BENCH_JOBS=$JOBS =="
    t0="$(now_secs)"
    MASK_BENCH_FAST=1 MASK_BENCH_JOBS=1 "$FIG11_BIN" >/dev/null 2>&1
    t1="$(now_secs)"
    MASK_BENCH_FAST=1 MASK_BENCH_JOBS="$JOBS" "$FIG11_BIN" >/dev/null 2>&1
    t2="$(now_secs)"

    SERIAL="$(echo "$t1 $t0" | awk '{printf "%.3f", $1 - $2}')"
    PARALLEL="$(echo "$t2 $t1" | awk '{printf "%.3f", $1 - $2}')"
    SPEEDUP="$(echo "$SERIAL $PARALLEL" | awk '{printf "%.2f", ($2 > 0) ? $1 / $2 : 0}')"
    SWEEP_NOTE="ok"
    echo "serial ${SERIAL}s  parallel(jobs=$JOBS) ${PARALLEL}s  speedup ${SPEEDUP}x"
else
    # One hardware thread: SweepRunner runs jobs=1 inline, so the
    # "parallel" leg would re-time the serial path and report a
    # meaningless ~1.0x. Time the serial leg once and say so.
    echo "== fig11 sweep: nproc=1, parallel comparison inconclusive =="
    t0="$(now_secs)"
    MASK_BENCH_FAST=1 MASK_BENCH_JOBS=1 "$FIG11_BIN" >/dev/null 2>&1
    t1="$(now_secs)"
    SERIAL="$(echo "$t1 $t0" | awk '{printf "%.3f", $1 - $2}')"
    PARALLEL=null
    SPEEDUP=null
    SWEEP_NOTE="inconclusive: single-CPU host, parallel leg skipped"
    echo "serial ${SERIAL}s  (parallel leg skipped)"
fi

# Distributed leg: two worker processes share a lease directory on
# the local filesystem and race over the same fig11 job list
# (DESIGN.md section 15). Both workers merge at exit, so both stdout
# streams must be byte-identical to the serial reference; the [dist]
# stderr footer supplies the lease counters recorded in the report.
DIST_TMP="$(mktemp -d)"
trap 'rm -rf "$DIST_TMP"' EXIT
echo "== fig11 sweep: 2 distributed workers (shared lease dir) =="
MASK_BENCH_FAST=1 MASK_BENCH_JOBS=1 "$FIG11_BIN" \
    >"$DIST_TMP/ref.out" 2>/dev/null
t0="$(now_secs)"
MASK_BENCH_FAST=1 MASK_BENCH_JOBS=1 \
    MASK_SWEEP_DIST_DIR="$DIST_TMP/dist" MASK_SWEEP_DIST_WORKER=w1 \
    "$FIG11_BIN" >"$DIST_TMP/w1.out" 2>"$DIST_TMP/w1.err" &
DIST_PID1=$!
MASK_BENCH_FAST=1 MASK_BENCH_JOBS=1 \
    MASK_SWEEP_DIST_DIR="$DIST_TMP/dist" MASK_SWEEP_DIST_WORKER=w2 \
    "$FIG11_BIN" >"$DIST_TMP/w2.out" 2>"$DIST_TMP/w2.err" &
DIST_PID2=$!
wait "$DIST_PID1"
wait "$DIST_PID2"
t1="$(now_secs)"
DIST_WALL="$(echo "$t1 $t0" | awk '{printf "%.3f", $1 - $2}')"

DIST_IDENTICAL=true
for out in "$DIST_TMP/w1.out" "$DIST_TMP/w2.out"; do
    if ! cmp -s "$DIST_TMP/ref.out" "$out"; then
        DIST_IDENTICAL=false
    fi
done
if [ "$DIST_IDENTICAL" != "true" ]; then
    echo "error: distributed sweep output diverged from serial run" >&2
    exit 1
fi

DIST_CLAIMED=0; DIST_STOLEN=0; DIST_DUP=0
for err in "$DIST_TMP/w1.err" "$DIST_TMP/w2.err"; do
    line="$(grep '^\[dist\]' "$err" | tail -n 1 || true)"
    [ -n "$line" ] || continue
    c="$(echo "$line" | sed -n 's/.* \([0-9]*\) leases claimed.*/\1/p')"
    s="$(echo "$line" | sed -n 's/.* \([0-9]*\) stolen,.*/\1/p')"
    d="$(echo "$line" | sed -n 's/.* \([0-9]*\) duplicates,.*/\1/p')"
    DIST_CLAIMED=$((DIST_CLAIMED + ${c:-0}))
    DIST_STOLEN=$((DIST_STOLEN + ${s:-0}))
    DIST_DUP=$((DIST_DUP + ${d:-0}))
done
echo "2 workers ${DIST_WALL}s  leases claimed $DIST_CLAIMED  stolen $DIST_STOLEN  duplicates $DIST_DUP  identical=$DIST_IDENTICAL"

# Revision the numbers belong to; "-dirty" marks uncommitted changes
# on top of it, so an entry never claims a commit it did not measure.
GIT_REV="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
if [ "$GIT_REV" != unknown ] && ! git diff --quiet HEAD -- 2>/dev/null; then
    GIT_REV="${GIT_REV}-dirty"
fi

# One run entry, built as before...
RUN_JSON="$(mktemp)"
trap 'rm -f "$RUN_JSON"; rm -rf "$DIST_TMP"' EXIT
{
    echo "{"
    echo "  \"date\": \"$(date -u +%Y-%m-%dT%H:%M:%SZ)\","
    echo "  \"git_rev\": \"$GIT_REV\","
    echo "  \"host\": {"
    echo "    \"nproc\": $JOBS,"
    echo "    \"cpu_model\": \"$CPU_MODEL\""
    echo "  },"
    echo "  \"throughput\": ["
    echo "$PERF_LINES" | sed 's/^/    /; $!s/$/,/'
    echo "  ],"
    echo "  \"sweep\": {"
    echo "    \"bench\": \"fig11_performance\","
    echo "    \"jobs\": $JOBS,"
    echo "    \"serial_seconds\": $SERIAL,"
    echo "    \"parallel_seconds\": $PARALLEL,"
    echo "    \"speedup\": $SPEEDUP,"
    echo "    \"note\": \"$SWEEP_NOTE\""
    echo "  },"
    echo "  \"dist\": {"
    echo "    \"dist_workers\": 2,"
    echo "    \"wall_seconds\": $DIST_WALL,"
    echo "    \"leases_claimed\": $DIST_CLAIMED,"
    echo "    \"leases_stolen\": $DIST_STOLEN,"
    echo "    \"duplicates\": $DIST_DUP,"
    echo "    \"identical\": $DIST_IDENTICAL"
    echo "  }"
    echo "}"
} >"$RUN_JSON"

# ...then appended to the history array in $OUT. A corrupt or
# pre-history file is wrapped/replaced rather than aborting the run.
python3 - "$OUT" "$RUN_JSON" <<'PYEOF'
import json
import sys

out_path, run_path = sys.argv[1], sys.argv[2]
with open(run_path, encoding="utf-8") as fh:
    run = json.load(fh)

runs = []
try:
    with open(out_path, encoding="utf-8") as fh:
        prev = json.load(fh)
    if isinstance(prev, dict) and isinstance(prev.get("runs"), list):
        runs = prev["runs"]
    elif isinstance(prev, dict) and "throughput" in prev:
        # Pre-history single-run format: keep it as the first entry.
        runs = [prev]
except (OSError, ValueError):
    pass

runs.append(run)
with open(out_path, "w", encoding="utf-8") as fh:
    json.dump({"schema": "mask-bench-history", "version": 1,
               "runs": runs}, fh, indent=2)
    fh.write("\n")
print(f"appended run {len(runs)} to {out_path}")
PYEOF
