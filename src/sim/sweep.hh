/**
 * @file
 * Parallel workload-sweep engine with fault-tolerant execution.
 *
 * Every figure/table bench walks the same shape of loop: for each
 * (workload pair, design point), build a GPU and simulate it. A job
 * needs its shared run and, in Metrics mode, one alone run per app
 * (sim/runner.hh). SweepRunner runs each distinct one once in the
 * runner's life, as one task of a pool of worker threads that never
 * wait on one another, then builds every job's result from those runs
 * and hands results back in submission order, so bench output is
 * byte-identical to a serial run regardless of worker count or
 * completion order.
 *
 * A sweep survives a failing job (DESIGN.md §10): an exception
 * (ConfigError, SimInvariantError, ...) ends that run, and every job
 * that needs it gets a Failed SweepOutcome (the first failure of its
 * shared run, app 0's alone run, app 1's, ...), its crash-repro path
 * attached, while every other job keeps running. A job is journaled
 * as soon as its last run finishes. A fatal signal ends the process;
 * a JSONL journal lets the re-run load the completed jobs instead of
 * re-simulating them. Surviving jobs' results stay byte-identical to
 * a fault-free serial run.
 *
 * Usage is two-phase:
 *
 *     SweepRunner sweep(options);
 *     std::vector<std::size_t> ids;
 *     for (...) ids.push_back(sweep.submit({arch, point, pair}));
 *     sweep.run();    // never throws for per-job failures
 *     for (...) {
 *         if (sweep.outcome(ids[i]).status == SweepStatus::Ok)
 *             use(sweep.result(ids[i]));
 *         else
 *             report(sweep.outcome(ids[i]));
 *     }
 *
 * The job count comes from MASK_BENCH_JOBS (default 1 = serial;
 * 0 = one per hardware thread). MASK_SWEEP_JOURNAL=<path> names the
 * JSONL results journal for resume. The runner reads these and the
 * MASK_CKPT_* checkpoint policy once, when it is constructed.
 *
 * Identical jobs run once: a job whose key (config fingerprint,
 * design point, benches, mode, windows) matches an earlier job of the
 * runner's life copies that job's result and outcome instead of being
 * simulated or journaled again.
 *
 * Warm-start execution (DESIGN.md §14): with a WarmPolicy set (from
 * code, or by default in dist mode), jobs sharing a warmup fingerprint
 * fork one warmed snapshot file instead of each re-simulating the
 * warmup window — results stay byte-identical to a fresh serial sweep.
 *
 * Distributed execution (DESIGN.md §15): with MASK_SWEEP_DIST_DIR set,
 * run() becomes one worker of a multi-process sweep coordinated
 * entirely through that shared directory — lease files claim jobs,
 * per-worker journal shards publish results, stale leases of crashed
 * workers are stolen, and every worker's merged output is
 * byte-identical to a single-process serial run (sweep_dist.hh). A
 * worker runs its jobs one at a time, whatever MASK_BENCH_JOBS says.
 */

#ifndef MASK_SIM_SWEEP_HH
#define MASK_SIM_SWEEP_HH

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/config.hh"
#include "sim/runner.hh"
#include "sim/snapshot.hh"
#include "sim/sweep_dist.hh"

namespace mask {

class SweepJournal;

/**
 * Worker count from MASK_BENCH_JOBS: unset or 1 means serial, 0 means
 * one worker per hardware thread, N means N workers.
 */
unsigned sweepJobs();

/** What one sweep job computes. */
enum class SweepMode : std::uint8_t {
    Metrics,    //!< shared run + alone runs + Section 6 metrics
    SharedOnly, //!< shared run only (PairResult.stats, no metrics)
};

/** One (architecture, design point, workload) simulation request. */
struct SweepJob
{
    GpuConfig arch;
    DesignPoint point = DesignPoint::SharedTlb;
    std::vector<std::string> benches;
    SweepMode mode = SweepMode::Metrics;
    /**
     * Per-job window override; the runner's RunOptions apply when
     * unset. Warm-start measure grids submit the same (arch, point,
     * workload) with varying measure windows — they share one warmup
     * fingerprint, so one warmed snapshot serves the whole grid.
     */
    std::optional<RunOptions> options = std::nullopt;
};

/** How one sweep job ended. */
enum class SweepStatus : std::uint8_t {
    Ok,     //!< completed; result() is valid
    Failed, //!< threw (ConfigError, SimInvariantError, ...)
};

/** "Ok" / "Failed". */
const char *sweepStatusName(SweepStatus status);

/** Inverse of sweepStatusName. Unknown names decode as Failed, so
 *  the retired statuses of older journals and shards, and entries
 *  from a newer writer, still load as failures. */
SweepStatus sweepStatusFromName(const std::string &name);

/** Structured per-job outcome (valid after run() returns). */
struct SweepOutcome
{
    SweepStatus status = SweepStatus::Ok;
    std::string error;          //!< failure text ("" when Ok)
    std::string reproPath;      //!< crash-repro file, if one was written
    bool fromJournal = false;   //!< loaded from MASK_SWEEP_JOURNAL
    std::exception_ptr exception; //!< original exception (Failed only)
};

/** Journal policy (env-driven by default; settable for tests). */
struct SweepPolicy
{
    std::string journalPath; //!< "" disables the journal
};

/** Policy from MASK_SWEEP_JOURNAL. */
SweepPolicy sweepPolicyFromEnv();

// --- Warm-state cache (DESIGN.md §14) --------------------------------

/** Warm-start policy (off by default; set from code or by dist mode). */
struct WarmPolicy
{
    bool enabled = false; //!< fork warmed snapshots across jobs
    std::string dir;      //!< snapshot files; required when enabled
};

/**
 * Thread-safe, single-flight cache of warmed snapshot files keyed by
 * warmStateKey(). The first requester of a key runs warmup once (via
 * its produce callback) and publishes the image as `<dir>/<key>.snap`;
 * requesters of the same key wait while another thread holds it, then
 * read the file, so no warmup is ever simulated twice in-process.
 * Other processes (distributed workers, journal resumes) restore the
 * same files instead of re-warming. Nothing is held in memory: a hit
 * whose file cannot be read produces the image itself and counts a
 * miss, so disk trouble costs time, never a job.
 *
 * The cache stores opaque bytes; consumers (runShared, runAlone)
 * validate them, and on any header/checksum mismatch call
 * invalidate() + noteFallback() and re-run fresh — corruption can cost
 * time, never correctness.
 */
class WarmStateCache
{
  public:
    /** Throws ConfigError for an enabled @p policy without a dir. */
    explicit WarmStateCache(WarmPolicy policy);

    /** Counters surfaced in bench footers and perfbench's warm.* metrics. */
    struct Stats
    {
        std::uint64_t hits = 0;       //!< restored a warmed snapshot
        std::uint64_t misses = 0;     //!< ran warmup
        std::uint64_t bypasses = 0;   //!< run not warm-eligible
        std::uint64_t fallbacks = 0;  //!< bad image; re-ran fresh
        std::uint64_t warmupCyclesSaved = 0; //!< cycles not simulated
    };

    /**
     * Return the warm image for @p key, producing it via @p produce
     * (outside the lock) on a miss. @p warmup_cycles is the warmup
     * window the image replaces, credited to warmupCyclesSaved on
     * every hit. If the producing thread throws, one blocked waiter
     * retries the production.
     */
    std::string getOrWarm(const std::string &key, Cycle warmup_cycles,
                          const std::function<std::string()> &produce);

    /** Delete @p key's file (consumer-detected corruption). */
    void invalidate(const std::string &key);

    /** Count a warm-ineligible run (checkpointing or obs active). */
    void noteBypass();

    /** Count a rejected image that fell back to a fresh run. */
    void noteFallback();

    Stats stats() const;

  private:
    std::string filePath(const std::string &key) const;

    std::string dir_;
    mutable std::mutex mutex_;
    std::condition_variable ready_;
    std::set<std::string> busy_; //!< keys a thread is reading or warming
    Stats stats_;
};

/** Thread-pool executor for batches of independent SweepJobs. */
class SweepRunner
{
  public:
    /** @p jobs worker threads (defaults to sweepJobs()). */
    explicit SweepRunner(RunOptions options);
    SweepRunner(RunOptions options, unsigned jobs);
    ~SweepRunner();

    /** Queue a job; returns its index for result()/outcome(). */
    std::size_t submit(SweepJob job);

    /**
     * Run all jobs submitted since the last run() and block until
     * they finish. A job identical to an earlier one of the runner's
     * life (same jobKey) copies its result and outcome instead of
     * running, and a shared or alone run that an earlier job ran is
     * not run again. A run that throws never aborts the batch: its
     * exception is recorded in the outcome() of every job that needs
     * it while every other job keeps running. Only infrastructure
     * errors (journal I/O) throw. The runner is reusable: submit/run
     * again after it returns, with the finished runs carried across
     * batches.
     */
    void run();

    /**
     * Result of job @p index. For a job that did not complete, the
     * original exception is rethrown (Failed) or a
     * std::runtime_error with the outcome's reason is thrown (a
     * failure loaded from the journal) — check
     * outcome() first to degrade gracefully.
     */
    const PairResult &result(std::size_t index) const;

    /** Outcome of job @p index (valid after run() returns). */
    const SweepOutcome &outcome(std::size_t index) const;

    /** Jobs completed over the runner's lifetime (all batches). */
    std::size_t completedJobs() const { return results_.size(); }

    /** Jobs whose outcome is not Ok, over all batches. */
    std::size_t failedJobs() const;

    /** Jobs loaded from the journal instead of simulated. */
    std::size_t journalHits() const;

    unsigned jobs() const { return jobs_; }

    /** Override the env policy (tests); resets the journal binding. */
    void setPolicy(SweepPolicy policy);

    /** Set the warm policy (off by default; tests, perfbench). */
    void setWarmPolicy(WarmPolicy policy);

    /** Override the env dist policy (tests / multi-worker drivers). */
    void setDistPolicy(DistPolicy policy);

    /** Distributed execution enabled (MASK_SWEEP_DIST_DIR set)? */
    bool distActive() const { return dist_.enabled(); }

    /** Distributed counters, accumulated over all run() batches
     *  (zeroes when distribution is off). */
    const DistSweepStats &distStats() const { return distStats_; }

    /** Warm-cache counters (zeroes when the cache is disabled). */
    WarmStateCache::Stats warmStats() const;

    /** Warm cache in use, or null when disabled. */
    const std::shared_ptr<WarmStateCache> &warmCache() const
    {
        return warm_;
    }

    /** Replace the job executor (tests: inject failures); it computes
     *  each job whole, in place of its shared and alone runs. */
    using Executor = std::function<PairResult(const SweepJob &)>;
    void setExecutorForTest(Executor executor);

    /** Distinct alone runs completed so far, over all batches. */
    std::size_t aloneCacheSize() const;

  private:
    /** One shared or alone run a job needs. */
    struct Sim
    {
        std::string key;          //!< sharedRunName / aloneRunName
        bool alone = false;
        std::uint32_t app = 0;    //!< alone: index into job.benches
        std::uint32_t cores = 0;  //!< alone: core count
    };

    /** A finished run: a shared run's stats or an alone run's IPC,
     *  or the failure that ended it. */
    struct SimResult
    {
        std::unique_ptr<const GpuStats> stats; //!< a shared run's, if Ok
        std::optional<double> aloneIpc;        //!< an alone run's, if Ok
        SweepOutcome outcome;
    };

    /** Run the jobs @p todo on up to @p workers threads, as one pool
     *  task per run not yet run (or per job, with a test executor). */
    void runBatch(const std::vector<std::size_t> &todo,
                  std::size_t base, unsigned workers);
    void runDistributed(std::vector<std::size_t> todo, std::size_t base);
    /**
     * Refresh the journal and load every job of @p todo (pending
     * indices) that has a winning record: Ok ones only for a serial
     * resume (@p ok_only), any status in dist mode (DESIGN.md §15).
     * Returns the jobs not loaded, in order.
     */
    std::vector<std::size_t> loadFromJournal(
        std::size_t base, const std::vector<std::size_t> &todo,
        bool ok_only);
    void applyDistWarmDefault();
    /** The runs @p job needs: its shared run, then (Metrics) each
     *  app's alone run in app order. */
    std::vector<Sim> simsOf(const SweepJob &job) const;
    void simulate(const SweepJob &job, const Sim &sim,
                  SimResult &out) const;
    /** Build job @p pend_idx's result from its finished runs and
     *  finish it. */
    void assemble(std::size_t pend_idx, std::size_t base);
    void finishJob(std::size_t index, const std::string &key,
                   PairResult result, SweepOutcome outcome);
    std::string jobKey(const SweepJob &job) const;

    RunOptions options_;
    unsigned jobs_;
    SweepPolicy policy_;
    DistPolicy dist_;
    DistSweepStats distStats_;
    CheckpointPolicy ckpt_;
    std::shared_ptr<WarmStateCache> warm_;
    /** Every shared and alone run of the runner's life, by Sim::key. */
    std::map<std::string, SimResult> sims_;
    std::vector<SweepJob> pending_;
    std::vector<std::string> pendingKeys_; //!< jobKey of each pending_
    /** jobKey -> index of the first job with that key, all batches. */
    std::map<std::string, std::size_t> firstJob_;
    std::vector<PairResult> results_;
    std::vector<SweepOutcome> outcomes_;
    std::unique_ptr<SweepJournal> journal_;
    Executor executor_;
};

} // namespace mask

#endif // MASK_SIM_SWEEP_HH
