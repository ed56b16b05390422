/**
 * @file
 * Shared plumbing for the figure/table reproduction harnesses: run
 * windows (env-tunable), table formatting, and common sweeps.
 *
 * Environment knobs:
 *   MASK_BENCH_CYCLES=<n>  measurement window (default 80000)
 *   MASK_BENCH_FAST=1      short CI windows
 *   MASK_BENCH_PAIRS=<n>   cap the number of workload pairs swept
 *   MASK_BENCH_JOBS=<n>    parallel sweep workers (default 1 serial,
 *                          0 = one per hardware thread)
 */

#ifndef MASK_BENCH_BENCH_UTIL_HH
#define MASK_BENCH_BENCH_UTIL_HH

#include <cstdio>
#include <string>
#include <vector>

#include "sim/presets.hh"
#include "sim/runner.hh"
#include "sim/sweep.hh"
#include "workload/suite.hh"

namespace mask {
namespace bench {

/** Run windows honoring the environment. */
RunOptions benchOptions();

/** Pairs to sweep, honoring MASK_BENCH_PAIRS. */
std::vector<WorkloadPair> benchPairs();

/** Sweep worker count, honoring MASK_BENCH_JOBS. */
unsigned benchJobs();

/** A sweep runner over benchOptions() with benchJobs() workers. */
SweepRunner benchSweep();

/** The seven non-ideal design points in reporting order. */
const std::vector<DesignPoint> &reportedDesigns();

/** Print a header like the paper's figure captions. */
void banner(const char *figure, const char *description);

/** Progress note to stderr (stdout stays machine-parsable). */
void progress(const std::string &what);

/** geometric-ish readable float. */
std::string fmt(double v, int decimals = 3);

/**
 * Run a bench body under the hardening net: a SimInvariantError is
 * printed as one diagnostic block (the runner has already written the
 * crash-repro file) and a ConfigError as one line, both exiting 2
 * instead of aborting mid-table.
 */
int guardedMain(int (*body)());

/**
 * Result of job @p index if it completed, nullptr otherwise. The
 * graceful-degradation idiom for sweeps under a resilience policy:
 * render the row when non-null, render failedCell() when null, and
 * leave aggregates to the jobs that finished.
 */
const PairResult *okResult(const SweepRunner &sweep, std::size_t index);

/** "FAILED(<status>)" marker cell for a job that did not complete. */
std::string failedCell(const SweepRunner &sweep, std::size_t index);

/**
 * Print one stdout line per failed job (index, status, error, repro
 * path if one was written) plus a summary; silent when every job
 * completed.
 * Also emits the warm-cache footer (reportWarmCache). Returns the
 * number of failed jobs so benches can flag the run.
 */
std::size_t reportFailures(const SweepRunner &sweep);

/**
 * Warm-cache summary footer to stderr (hits/misses/warmup cycles
 * saved); silent when the warm cache is disabled. Stderr, not stdout:
 * bench stdout of a dist worker (warm on) is byte-compared with a
 * serial run (warm off) by determinism leg 13, and cache hit counts
 * legitimately differ between the two.
 */
void reportWarmCache(const SweepRunner &sweep);

/**
 * Distributed-sweep summary footer to stderr ("[dist] worker ...":
 * executed/loaded splits, lease claim/steal/duplicate counts); silent
 * when MASK_SWEEP_DIST_DIR is unset. Stderr for the same reason as
 * reportWarmCache: bench stdout is byte-compared against a serial
 * run, and which worker executed which job legitimately differs.
 */
void reportDistSweep(const SweepRunner &sweep);

} // namespace bench
} // namespace mask

#endif // MASK_BENCH_BENCH_UTIL_HH
