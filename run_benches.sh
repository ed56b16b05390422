#!/bin/sh
# Regenerates every paper table/figure. Output: bench_output.txt.
# MASK_BENCH_CYCLES / MASK_BENCH_FAST / MASK_BENCH_PAIRS shrink runs;
# MASK_BENCH_JOBS parallelizes the sweeps (default: all hardware
# threads; output is byte-identical regardless of the job count).
# MASK_SWEEP_JOURNAL=<path> lets a killed sweep resume with its
# finished jobs loaded; see README.md. MASK_SWEEP_OBS_DIR=<dir> collects
# per-run telemetry (timeseries JSONL + Chrome trace, DESIGN.md S13)
# from every sweep into <dir>: one file pair per distinct shared run,
# named <design>_<config fingerprint>_<benches>_<windows>, so runs that
# repeat across benches share one pair; the summary footer says where
# it landed.
#
# Every bench runs even if an earlier one fails; the script prints a
# per-bench PASS/FAIL summary and exits non-zero if any bench failed.
MASK_BENCH_JOBS="${MASK_BENCH_JOBS:-0}"
export MASK_BENCH_JOBS
if [ -n "${MASK_SWEEP_OBS_DIR:-}" ]; then
    export MASK_SWEEP_OBS_DIR
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
if [ -n "$failed" ]; then
    echo "FAILED:$failed"
    exit 1
fi
echo "all benches PASS"
