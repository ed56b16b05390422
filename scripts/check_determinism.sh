#!/usr/bin/env bash
# Determinism gate: run the Figure 11 harness twice under the fast CI
# windows and require byte-for-byte identical stdout. Any divergence
# means hidden nondeterminism (unordered-container iteration, uninit
# reads, wall-clock leakage) crept into the simulator.
#
#   scripts/check_determinism.sh [path-to-fig11_performance]
set -euo pipefail
cd "$(dirname "$0")/.."

BIN="${1:-build/bench/fig11_performance}"
if [ ! -x "$BIN" ]; then
    echo "error: $BIN not built (cmake --build build)" >&2
    exit 2
fi

out_a="$(mktemp)"
out_b="$(mktemp)"
trap 'rm -f "$out_a" "$out_b"' EXIT

# kill_mid_sweep <journal> <snap dir or ""> <env assignments...>: start
# the bench in the background with the given environment, wait until
# the journal holds at least one complete line (and, when a directory
# is given, a warm .snap has landed in it), then SIGSEGV it: a crash
# from outside, the fatal-signal handler runs and the process dies.
# Fails unless the signal killed it (exit >= 128) with a non-empty
# journal.
kill_mid_sweep() {
    local journal="$1" snaps="$2"
    shift 2
    env "$@" "$BIN" >/dev/null 2>&1 &
    local pid=$! status=0
    for _ in $(seq 1 1200); do
        if [ "$(cat "$journal" 2>/dev/null | wc -l)" -ge 1 ] &&
            { [ -z "$snaps" ] || ls "$snaps"/*.snap >/dev/null 2>&1; }; then
            break
        fi
        kill -0 "$pid" 2>/dev/null || break
        sleep 0.05
    done
    kill -SEGV "$pid" 2>/dev/null || true
    wait "$pid" || status=$?
    if [ "$status" -lt 128 ]; then
        echo "DETERMINISM FAILURE: SIGSEGV did not kill the sweep (exit $status)" >&2
        exit 1
    fi
    if [ ! -s "$journal" ]; then
        echo "DETERMINISM FAILURE: no journal written before the crash" >&2
        exit 1
    fi
}

echo "== run 1 =="
MASK_BENCH_FAST=1 MASK_BENCH_PAIRS=4 MASK_BENCH_JOBS=1 \
    "$BIN" >"$out_a" 2>/dev/null
echo "== run 2 =="
MASK_BENCH_FAST=1 MASK_BENCH_PAIRS=4 MASK_BENCH_JOBS=1 \
    "$BIN" >"$out_b" 2>/dev/null

if ! diff -u "$out_a" "$out_b"; then
    echo "DETERMINISM FAILURE: identical configs produced different stats" >&2
    exit 1
fi
echo "deterministic: both runs byte-identical"

# Parallel sweeps must not change ANY byte of output relative to the
# serial run: results are consumed in submission order, and nothing
# host-dependent (wall-clock, job count) reaches stdout.
echo "== run 3 (parallel, 4 jobs) =="
MASK_BENCH_FAST=1 MASK_BENCH_PAIRS=4 MASK_BENCH_JOBS=4 \
    "$BIN" >"$out_b" 2>/dev/null

if ! diff -u "$out_a" "$out_b"; then
    echo "DETERMINISM FAILURE: parallel sweep diverged from serial" >&2
    exit 1
fi
echo "deterministic: parallel (jobs=4) byte-identical to serial"

# Journal resume (DESIGN.md §10) must also be invisible: kill the
# bench mid-sweep (SIGSEGV from outside), resume it from the JSONL
# journal, and require the resumed stdout byte-identical to an
# uninterrupted run. Loaded-from-journal results are decoded from the
# exact StateCodec result blob, so even one flipped bit would show here.
echo "== run 5 (killed mid-sweep, resumed from journal) =="
journal="$(mktemp)"
repro="$(mktemp)"
trap 'rm -f "$out_a" "$out_b" "$journal" "$repro"' EXIT
rm -f "$journal"

kill_mid_sweep "$journal" "" MASK_BENCH_FAST=1 MASK_BENCH_PAIRS=4 \
    MASK_BENCH_JOBS=1 MASK_SWEEP_JOURNAL="$journal" \
    MASK_REPRO_FILE="$repro"

MASK_BENCH_FAST=1 MASK_BENCH_PAIRS=4 MASK_BENCH_JOBS=1 \
    MASK_SWEEP_JOURNAL="$journal" "$BIN" >"$out_b" 2>/dev/null

if ! diff -u "$out_a" "$out_b"; then
    echo "DETERMINISM FAILURE: journal-resumed run diverged from uninterrupted run" >&2
    exit 1
fi
echo "deterministic: journal resume byte-identical to uninterrupted run"

# Periodic checkpointing (DESIGN.md §11) only observes state: with
# MASK_CKPT_* on, every simulated byte of output must match the
# checkpoint-free run.
echo "== run 6 (periodic checkpointing enabled) =="
ckpt_dir="$(mktemp -d)"
trap 'rm -f "$out_a" "$out_b" "$journal" "$repro"; rm -rf "$ckpt_dir"' EXIT

MASK_BENCH_FAST=1 MASK_BENCH_PAIRS=4 MASK_BENCH_JOBS=1 \
    MASK_CKPT_INTERVAL_CYCLES=7000 MASK_CKPT_DIR="$ckpt_dir" \
    "$BIN" >"$out_b" 2>/dev/null

if ! diff -u "$out_a" "$out_b"; then
    echo "DETERMINISM FAILURE: checkpoint-enabled run diverged from plain run" >&2
    exit 1
fi
echo "deterministic: checkpointing enabled byte-identical to disabled"

# Checkpoint restore across processes: serialize a run halfway
# through its measured window, restore the snapshot file in a FRESH
# process, and require the finished stats blob byte-identical to an
# uninterrupted run of the same configuration — for the SharedTLB and
# MASK designs, with fault injection on and off.
REPLAY="${CRASH_REPLAY:-build/bench/crash_replay}"
if [ -x "$REPLAY" ]; then
    echo "== run 7 (cross-process snapshot save/resume) =="
    for combo in "SharedTLB 0" "MASK 0" "MASK 1" "Ideal 1"; do
        design="${combo% *}"
        faults="${combo#* }"
        snap="$ckpt_dir/leg_${design}_${faults}.snap"
        "$REPLAY" --snapshot-run "$design" "$faults" >"$out_a" 2>/dev/null
        "$REPLAY" --snapshot-save "$design" "$faults" "$snap" 2>/dev/null
        "$REPLAY" --snapshot-resume "$design" "$faults" "$snap" >"$out_b" 2>/dev/null
        if ! diff -u "$out_a" "$out_b"; then
            echo "DETERMINISM FAILURE: snapshot resume ($design faults=$faults) diverged" >&2
            exit 1
        fi
        echo "deterministic: snapshot resume ($design faults=$faults) bit-exact"
    done
else
    echo "note: $REPLAY not built, skipping snapshot save/resume leg" >&2
fi

# Crash mid-sweep WITH checkpointing: the re-run resumes completed
# jobs from the journal and the interrupted job from its checkpoint
# file (cycle-0 fallback otherwise) — still byte-identical to a
# fault-free serial run.
echo "== run 8 (killed mid-sweep, checkpoints + journal resume) =="
MASK_BENCH_FAST=1 MASK_BENCH_PAIRS=4 MASK_BENCH_JOBS=1 \
    "$BIN" >"$out_a" 2>/dev/null
rm -f "$journal"
kill_mid_sweep "$journal" "" MASK_BENCH_FAST=1 MASK_BENCH_PAIRS=4 \
    MASK_BENCH_JOBS=1 MASK_SWEEP_JOURNAL="$journal" \
    MASK_CKPT_INTERVAL_CYCLES=7000 MASK_CKPT_DIR="$ckpt_dir" \
    MASK_REPRO_FILE="$repro"
MASK_BENCH_FAST=1 MASK_BENCH_PAIRS=4 MASK_BENCH_JOBS=1 \
    MASK_SWEEP_JOURNAL="$journal" \
    MASK_CKPT_INTERVAL_CYCLES=7000 MASK_CKPT_DIR="$ckpt_dir" \
    "$BIN" >"$out_b" 2>/dev/null

if ! diff -u "$out_a" "$out_b"; then
    echo "DETERMINISM FAILURE: checkpoint+journal resume diverged from uninterrupted run" >&2
    exit 1
fi
echo "deterministic: checkpoint+journal resume byte-identical to uninterrupted run"

# The per-stage profiler (DESIGN.md §12) is observation-only: timing
# the stages must not change a single simulated byte. Stage seconds go
# to stderr/JSON wall fields only, never into the stats stream diffed
# here.
echo "== run 9 (per-stage profiler enabled) =="
MASK_BENCH_FAST=1 MASK_BENCH_PAIRS=4 MASK_BENCH_JOBS=1 \
    MASK_PROFILE_STAGES=1 "$BIN" >"$out_b" 2>/dev/null

if ! diff -u "$out_a" "$out_b"; then
    echo "DETERMINISM FAILURE: stage profiler perturbed simulated output" >&2
    exit 1
fi
echo "deterministic: MASK_PROFILE_STAGES=1 byte-identical to profiler-off"

# The observability layer (DESIGN.md §13) is observation-only: with
# per-job telemetry on (MASK_SWEEP_OBS_DIR), stdout must stay
# byte-identical to the plain run, and the telemetry files themselves
# — timeseries JSONL and Chrome traces — must be byte-identical
# across two obs-enabled runs (same seed → same samples and events).
echo "== run 11 (per-job telemetry enabled) =="
obs_a="$ckpt_dir/obs_a"
obs_b="$ckpt_dir/obs_b"
MASK_BENCH_FAST=1 MASK_BENCH_PAIRS=4 MASK_BENCH_JOBS=1 \
    MASK_SWEEP_OBS_DIR="$obs_a" "$BIN" >"$out_b" 2>/dev/null

if ! diff -u "$out_a" "$out_b"; then
    echo "DETERMINISM FAILURE: telemetry-enabled run diverged from plain run" >&2
    exit 1
fi
if ! ls "$obs_a"/*.timeseries.jsonl >/dev/null 2>&1 ||
    ! ls "$obs_a"/*.trace.json >/dev/null 2>&1; then
    echo "DETERMINISM FAILURE: MASK_SWEEP_OBS_DIR produced no telemetry files" >&2
    exit 1
fi

MASK_BENCH_FAST=1 MASK_BENCH_PAIRS=4 MASK_BENCH_JOBS=1 \
    MASK_SWEEP_OBS_DIR="$obs_b" "$BIN" >/dev/null 2>/dev/null

if ! diff -ru "$obs_a" "$obs_b"; then
    echo "DETERMINISM FAILURE: telemetry files differ between identical runs" >&2
    exit 1
fi
echo "deterministic: telemetry on leaves stdout unchanged; obs files byte-identical across runs"

# Warm-start sweep execution (DESIGN.md §14) must be a pure
# optimization: forking warmed snapshots instead of re-running warmup
# may not change a single simulated byte. Three variants against the
# same baseline: in-memory warm cache, file-backed warm cache with two
# worker threads, and a crash-resume where both the journal AND the
# warm files persist across the two processes.
echo "== run 12a (warm cache, in-memory) =="
MASK_BENCH_FAST=1 MASK_BENCH_PAIRS=4 MASK_BENCH_JOBS=1 \
    MASK_SWEEP_WARM=1 "$BIN" >"$out_b" 2>/dev/null

if ! diff -u "$out_a" "$out_b"; then
    echo "DETERMINISM FAILURE: warm-start run diverged from cold run" >&2
    exit 1
fi
echo "deterministic: MASK_SWEEP_WARM=1 byte-identical to cold sweep"

echo "== run 12b (warm cache, file-backed, 2 jobs) =="
warm_dir="$ckpt_dir/warm"
MASK_BENCH_FAST=1 MASK_BENCH_PAIRS=4 MASK_BENCH_JOBS=2 \
    MASK_SWEEP_WARM_DIR="$warm_dir" \
    "$BIN" >"$out_b" 2>/dev/null

if ! diff -u "$out_a" "$out_b"; then
    echo "DETERMINISM FAILURE: file-backed warm run diverged from cold run" >&2
    exit 1
fi
echo "deterministic: warm files (jobs=2) byte-identical to cold sweep"

echo "== run 12c (killed mid-sweep, journal + warm files resume) =="
rm -f "$journal"
rm -rf "$warm_dir"
kill_mid_sweep "$journal" "$warm_dir" MASK_BENCH_FAST=1 MASK_BENCH_PAIRS=4 \
    MASK_BENCH_JOBS=1 MASK_SWEEP_JOURNAL="$journal" \
    MASK_SWEEP_WARM_DIR="$warm_dir" MASK_REPRO_FILE="$repro"
if ! ls "$warm_dir"/*.snap >/dev/null 2>&1; then
    echo "DETERMINISM FAILURE: no warm snapshots written before the crash" >&2
    exit 1
fi
MASK_BENCH_FAST=1 MASK_BENCH_PAIRS=4 MASK_BENCH_JOBS=1 \
    MASK_SWEEP_JOURNAL="$journal" MASK_SWEEP_WARM_DIR="$warm_dir" \
    "$BIN" >"$out_b" 2>/dev/null

if ! diff -u "$out_a" "$out_b"; then
    echo "DETERMINISM FAILURE: warm+journal resume diverged from uninterrupted run" >&2
    exit 1
fi
echo "deterministic: journal + warm-file resume byte-identical to uninterrupted run"

# Distributed sweep execution (DESIGN.md §15): two workers share a
# sweep directory; worker 1 is SIGKILLed while it holds a lease
# mid-job, worker 2 steals the stale lease, finishes the sweep, and
# its merged stdout must be byte-identical to the serial baseline. A
# third merge-only invocation must render the same bytes again from
# the shards alone.
echo "== run 13 (distributed: 2 workers, worker 1 SIGKILLed mid-sweep) =="
dist_dir="$ckpt_dir/dist"
dist_err="$ckpt_dir/dist_w2.err"
rm -rf "$dist_dir"

MASK_BENCH_FAST=1 MASK_BENCH_PAIRS=4 MASK_BENCH_JOBS=1 \
    MASK_SWEEP_DIST_DIR="$dist_dir" MASK_SWEEP_DIST_WORKER=w1 \
    MASK_SWEEP_DIST_HEARTBEAT_MS=100 \
    "$BIN" >/dev/null 2>&1 &
w1_pid=$!
# Kill worker 1 as soon as it holds a lease: the SIGKILL lands mid-job
# (fast-window jobs take far longer than the poll), leaving a stale
# lease and (usually) a torn shard tail for worker 2 to tolerate.
for _ in $(seq 1 200); do
    if ls "$dist_dir/leases/"*.lease >/dev/null 2>&1; then break; fi
    sleep 0.05
done
kill -9 "$w1_pid" 2>/dev/null || true
wait "$w1_pid" 2>/dev/null || true
if ! ls "$dist_dir/leases/"*.lease >/dev/null 2>&1; then
    echo "DETERMINISM FAILURE: worker 1 died without leaving a lease to steal" >&2
    exit 1
fi

MASK_BENCH_FAST=1 MASK_BENCH_PAIRS=4 MASK_BENCH_JOBS=1 \
    MASK_SWEEP_DIST_DIR="$dist_dir" MASK_SWEEP_DIST_WORKER=w2 \
    MASK_SWEEP_DIST_HEARTBEAT_MS=100 \
    "$BIN" >"$out_b" 2>"$dist_err"

if ! diff -u "$out_a" "$out_b"; then
    echo "DETERMINISM FAILURE: distributed crash-recovery run diverged from serial run" >&2
    exit 1
fi
if ! grep -q "stole stale lease" "$dist_err"; then
    echo "DETERMINISM FAILURE: worker 2 recovered without stealing worker 1's lease" >&2
    cat "$dist_err" >&2
    exit 1
fi
echo "deterministic: distributed recovery (1 worker killed, lease stolen) byte-identical to serial"

MASK_BENCH_FAST=1 MASK_BENCH_PAIRS=4 MASK_BENCH_JOBS=1 \
    MASK_SWEEP_DIST_DIR="$dist_dir" MASK_SWEEP_DIST_WORKER=w3 \
    MASK_SWEEP_DIST_MERGE=1 "$BIN" >"$out_b" 2>/dev/null

if ! diff -u "$out_a" "$out_b"; then
    echo "DETERMINISM FAILURE: merge-only pass diverged from serial run" >&2
    exit 1
fi
echo "deterministic: merge-only shard pass byte-identical to serial"
