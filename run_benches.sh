#!/bin/sh
# Regenerates every paper table/figure. Output: bench_output.txt.
# MASK_BENCH_CYCLES / MASK_BENCH_FAST / MASK_BENCH_PAIRS shrink runs;
# MASK_BENCH_JOBS parallelizes the sweeps (default: all hardware
# threads; output is byte-identical regardless of the job count).
# MASK_SWEEP_JOURNAL=<path> lets a killed sweep resume with its
# finished jobs loaded; see README.md. MASK_SWEEP_OBS_DIR=<dir> collects per-job
# telemetry (timeseries JSONL + Chrome trace, DESIGN.md S13) from
# every sweep into <dir>; the summary footer says where it landed.
# MASK_SWEEP_WARM=1 (or MASK_SWEEP_WARM_DIR=<dir>) forks warmed
# snapshots across sweep jobs that share a warmup prefix instead of
# re-simulating it (DESIGN.md S14); each sweep prints a "[warm]"
# hit/miss footer on stderr and stdout stays byte-identical.
#
# Every bench runs even if an earlier one fails; the script prints a
# per-bench PASS/FAIL summary and exits non-zero if any bench failed.
MASK_BENCH_JOBS="${MASK_BENCH_JOBS:-0}"
export MASK_BENCH_JOBS
if [ -n "${MASK_SWEEP_OBS_DIR:-}" ]; then
    export MASK_SWEEP_OBS_DIR
fi
if [ -n "${MASK_SWEEP_WARM:-}" ]; then
    export MASK_SWEEP_WARM
fi
if [ -n "${MASK_SWEEP_WARM_DIR:-}" ]; then
    export MASK_SWEEP_WARM_DIR
fi

failed=""
passed=0
total=0
for b in build/bench/*; do
    [ -f "$b" ] && [ -x "$b" ] || continue
    name="$(basename "$b")"
    # crash_replay is a repro-replay tool, not a figure/table bench;
    # it exits non-zero without a --replay argument.
    [ "$name" = "crash_replay" ] && continue
    total=$((total + 1))
    echo ""
    echo "########## $name ##########"
    if "$b"; then
        passed=$((passed + 1))
    else
        status=$?
        echo "(non-zero exit: $status)"
        failed="$failed $name($status)"
    fi
done

echo ""
echo "########## summary ##########"
echo "$passed/$total benches passed"
if [ -n "${MASK_SWEEP_OBS_DIR:-}" ]; then
    obs_files=$(ls "$MASK_SWEEP_OBS_DIR" 2>/dev/null | wc -l)
    echo "telemetry: $obs_files files in $MASK_SWEEP_OBS_DIR (summarize with scripts/obs_report.py)"
fi
if [ -n "${MASK_SWEEP_WARM:-}" ] || [ -n "${MASK_SWEEP_WARM_DIR:-}" ]; then
    echo "warm-start cache was enabled; per-sweep [warm] hit/miss footers are on stderr"
    if [ -n "${MASK_SWEEP_WARM_DIR:-}" ]; then
        warm_files=$(ls "$MASK_SWEEP_WARM_DIR" 2>/dev/null | wc -l)
        echo "warm snapshots: $warm_files files in $MASK_SWEEP_WARM_DIR"
    fi
fi
if [ -n "$failed" ]; then
    echo "FAILED:$failed"
    exit 1
fi
echo "all benches PASS"
