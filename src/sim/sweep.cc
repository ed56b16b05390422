#include "sim/sweep.hh"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

#include <fcntl.h>
#include <poll.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/check.hh"
#include "common/env.hh"
#include "sim/cancel.hh"
#include "sim/crash_repro.hh"
#include "sim/file_io.hh"
#include "sim/snapshot.hh"
#include "sim/sweep_io.hh"

namespace mask {

namespace {

/**
 * Deterministic fault injection for the resilience smoke tests:
 * MASK_SWEEP_FAULT_CRASH=<job index> segfaults that job on every
 * attempt, MASK_SWEEP_FAULT_HANG=<job index> spins it forever
 * (cancellable, so a deadline can reclaim it in-process; SIGKILL
 * reclaims it in isolation mode). Unset, this is two env reads
 * per job — invisible next to a simulation.
 */
void
injectSweepTestFault(std::size_t job_idx)
{
    constexpr std::uint64_t kNoJob = ~std::uint64_t{0};
    if (envU64("MASK_SWEEP_FAULT_CRASH", kNoJob) == job_idx) {
        volatile int *null_ptr = nullptr;
        *null_ptr = 42; // deliberate SIGSEGV
    }
    if (envU64("MASK_SWEEP_FAULT_HANG", kNoJob) == job_idx) {
        for (;;) {
            pollCancellation();
            std::this_thread::sleep_for(
                std::chrono::milliseconds(5));
        }
    }
}

/** Watch a token for the scope of one attempt (no-op without a
 *  monitor or deadline). */
struct DeadlineWatch
{
    DeadlineMonitor *monitor = nullptr;
    std::uint64_t handle = 0;

    DeadlineWatch(DeadlineMonitor *m, CancelToken &token,
                  std::uint64_t timeout_ms)
    {
        if (m != nullptr && timeout_ms > 0) {
            monitor = m;
            handle = m->watch(&token, timeout_ms);
        }
    }

    ~DeadlineWatch()
    {
        if (monitor != nullptr)
            monitor->unwatch(handle);
    }

    DeadlineWatch(const DeadlineWatch &) = delete;
    DeadlineWatch &operator=(const DeadlineWatch &) = delete;
};

const char *
fatalSignalName(int sig)
{
    switch (sig) {
      case SIGSEGV: return "SIGSEGV";
      case SIGABRT: return "SIGABRT";
      case SIGBUS: return "SIGBUS";
      case SIGFPE: return "SIGFPE";
      case SIGKILL: return "SIGKILL";
      case SIGILL: return "SIGILL";
      default: return "signal";
    }
}

bool
fileExists(const std::string &path)
{
    return ::access(path.c_str(), R_OK) == 0;
}

} // namespace

unsigned
sweepJobs()
{
    const std::uint64_t n = envU64("MASK_BENCH_JOBS", 1);
    if (n == 0) {
        const unsigned hw = std::thread::hardware_concurrency();
        return hw != 0 ? hw : 1;
    }
    return static_cast<unsigned>(n);
}

const char *
sweepStatusName(SweepStatus status)
{
    switch (status) {
      case SweepStatus::Ok: return "Ok";
      case SweepStatus::Failed: return "Failed";
      case SweepStatus::TimedOut: return "TimedOut";
      case SweepStatus::Crashed: return "Crashed";
      case SweepStatus::Abandoned: return "Abandoned";
    }
    return "Unknown";
}

SweepStatus
sweepStatusFromName(const std::string &name)
{
    for (const SweepStatus status :
         {SweepStatus::Ok, SweepStatus::Failed, SweepStatus::TimedOut,
          SweepStatus::Crashed, SweepStatus::Abandoned}) {
        if (name == sweepStatusName(status))
            return status;
    }
    return SweepStatus::Failed;
}

SweepPolicy
sweepPolicyFromEnv()
{
    SweepPolicy policy;
    policy.timeoutMs = envU64("MASK_SWEEP_TIMEOUT_MS", 0);
    policy.retries =
        static_cast<unsigned>(envU64("MASK_SWEEP_RETRIES", 0));
    policy.isolate = envFlag("MASK_SWEEP_ISOLATE");
    policy.journalPath = envString("MASK_SWEEP_JOURNAL");
    return policy;
}

std::uint64_t
sweepBackoffMs(const SweepPolicy &policy, unsigned attempt)
{
    constexpr std::uint64_t kCapMs = 5000;
    if (policy.backoffMs == 0)
        return 0;
    if (attempt >= 16)
        return kCapMs;
    return std::min(kCapMs, policy.backoffMs << attempt);
}

// ---------------------------------------------------------------------
// Warm-state cache (DESIGN.md §14)
// ---------------------------------------------------------------------

WarmPolicy
warmPolicyFromEnv()
{
    WarmPolicy policy;
    policy.dir = envString("MASK_SWEEP_WARM_DIR");
    policy.enabled = envFlag("MASK_SWEEP_WARM") || !policy.dir.empty();
    return policy;
}

WarmStateCache::WarmStateCache(WarmPolicy policy)
    : policy_(std::move(policy))
{
    if (!policy_.dir.empty())
        ::mkdir(policy_.dir.c_str(), 0777); // best-effort; open reports
}

std::string
WarmStateCache::filePath(const std::string &key) const
{
    return policy_.dir + "/" + key + ".snap";
}

std::string
WarmStateCache::getOrWarm(const std::string &key, Cycle warmup_cycles,
                          const std::function<std::string()> &produce)
{
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        auto it = slots_.find(key);
        if (it == slots_.end())
            break; // this thread produces (or reads the file)
        if (it->second.ready) {
            lru_.splice(lru_.begin(), lru_, it->second.lru);
            ++stats_.hits;
            stats_.warmupCyclesSaved += warmup_cycles;
            return it->second.image;
        }
        // Another thread is warming this key; if it fails the slot is
        // erased and the loop falls through to retry.
        ready_.wait(lock);
    }
    slots_.emplace(key, Slot{});
    lock.unlock();

    std::string image;
    bool from_file = false;
    try {
        // A file left by another process (fork-isolated sibling, a
        // previous journal-interrupted sweep) is as good as a memory
        // hit — the consumer validates header + checksum either way.
        if (!policy_.dir.empty())
            from_file = readFile(filePath(key), image);
        if (!from_file)
            image = produce();
    } catch (...) {
        lock.lock();
        slots_.erase(key);
        ready_.notify_all();
        throw;
    }
    if (!from_file && !policy_.dir.empty()) {
        try {
            writeFileAtomic(filePath(key), image);
        } catch (const std::exception &err) {
            // Disk trouble costs cross-process reuse, nothing else.
            std::fprintf(stderr, "[sweep] %s\n", err.what());
        }
    }

    lock.lock();
    if (from_file) {
        ++stats_.hits;
        stats_.warmupCyclesSaved += warmup_cycles;
    } else {
        ++stats_.misses;
    }
    publishLocked(key, image);
    ready_.notify_all();
    return image;
}

void
WarmStateCache::publishLocked(const std::string &key,
                              const std::string &image)
{
    auto it = slots_.find(key);
    if (it == slots_.end())
        return; // invalidated while producing
    if (policy_.memCapBytes != 0 &&
        image.size() > policy_.memCapBytes) {
        // Never memory-resident; the file (if any) still serves it.
        slots_.erase(it);
        return;
    }
    it->second.image = image;
    it->second.ready = true;
    lru_.push_front(key);
    it->second.lru = lru_.begin();
    memBytes_ += image.size();
    while (policy_.memCapBytes != 0 && memBytes_ > policy_.memCapBytes &&
           lru_.size() > 1) {
        const std::string victim = lru_.back();
        lru_.pop_back();
        auto vit = slots_.find(victim);
        if (vit != slots_.end()) {
            memBytes_ -= vit->second.image.size();
            slots_.erase(vit);
        }
        ++stats_.evictions;
    }
}

void
WarmStateCache::invalidate(const std::string &key)
{
    const std::lock_guard<std::mutex> lock(mutex_);
    auto it = slots_.find(key);
    if (it != slots_.end() && it->second.ready) {
        memBytes_ -= it->second.image.size();
        lru_.erase(it->second.lru);
        slots_.erase(it);
    }
    if (!policy_.dir.empty())
        ::unlink(filePath(key).c_str());
}

void
WarmStateCache::noteBypass()
{
    const std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.bypasses;
}

void
WarmStateCache::noteFallback()
{
    const std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.fallbacks;
}

WarmStateCache::Stats
WarmStateCache::stats() const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

SweepRunner::SweepRunner(RunOptions options)
    : SweepRunner(options, sweepJobs())
{}

SweepRunner::SweepRunner(RunOptions options, unsigned jobs)
    : options_(options), jobs_(jobs != 0 ? jobs : 1),
      policy_(sweepPolicyFromEnv()), dist_(distPolicyFromEnv()),
      cache_(std::make_shared<AloneIpcCache>())
{
    if (const WarmPolicy warm = warmPolicyFromEnv(); warm.enabled)
        warm_ = std::make_shared<WarmStateCache>(warm);
    applyDistWarmDefault();
}

SweepRunner::~SweepRunner() = default;

void
SweepRunner::setPolicy(SweepPolicy policy)
{
    policy_ = std::move(policy);
    journal_.reset(); // re-bound (lazily) to the new path
    monitor_.reset();
}

void
SweepRunner::setWarmPolicy(WarmPolicy policy)
{
    warm_ = policy.enabled
                ? std::make_shared<WarmStateCache>(std::move(policy))
                : nullptr;
}

void
SweepRunner::setDistPolicy(DistPolicy policy)
{
    dist_ = std::move(policy);
    journal_.reset(); // re-bound to the worker shard on the next run
    applyDistWarmDefault();
}

void
SweepRunner::applyDistWarmDefault()
{
    if (!dist_.enabled())
        return;
    // Distributed workers share warm snapshots through the sweep
    // directory by default: a memory-only (or disabled) warm cache
    // becomes file-backed at <dist dir>/warm. An explicit
    // MASK_SWEEP_WARM_DIR (or setWarmPolicy with a dir) wins.
    WarmPolicy warm =
        warm_ != nullptr ? warm_->policy() : warmPolicyFromEnv();
    if (warm.enabled && !warm.dir.empty())
        return;
    warm.enabled = true;
    warm.dir = dist_.dir + "/warm";
    // The sweep dir may not exist yet (the coordinator creates it at
    // run()); the warm cache mkdirs only its own leaf, so make the
    // parent here.
    ::mkdir(dist_.dir.c_str(), 0755);
    warm_ = std::make_shared<WarmStateCache>(std::move(warm));
}

WarmStateCache::Stats
SweepRunner::warmStats() const
{
    return warm_ != nullptr ? warm_->stats() : WarmStateCache::Stats{};
}

void
SweepRunner::setExecutorForTest(Executor executor)
{
    executor_ = std::move(executor);
}

std::size_t
SweepRunner::submit(SweepJob job)
{
    pending_.push_back(std::move(job));
    return results_.size() + pending_.size() - 1;
}

const PairResult &
SweepRunner::result(std::size_t index) const
{
    SIM_CHECK(index < results_.size(), "sim.sweep", kUnknownCycle,
              "sweep result index out of range (run() not called?)");
    const SweepOutcome &outcome = outcomes_[index];
    if (outcome.status != SweepStatus::Ok) {
        if (outcome.exception)
            std::rethrow_exception(outcome.exception);
        throw std::runtime_error(
            "sweep job " + std::to_string(index) + " " +
            sweepStatusName(outcome.status) + ": " + outcome.error);
    }
    return results_[index];
}

const SweepOutcome &
SweepRunner::outcome(std::size_t index) const
{
    SIM_CHECK(index < outcomes_.size(), "sim.sweep", kUnknownCycle,
              "sweep outcome index out of range (run() not called?)");
    return outcomes_[index];
}

std::size_t
SweepRunner::failedJobs() const
{
    std::size_t failed = 0;
    for (const SweepOutcome &outcome : outcomes_)
        failed += outcome.status != SweepStatus::Ok;
    return failed;
}

std::string
SweepRunner::jobKey(const SweepJob &job) const
{
    // Everything that determines the job's result: the structural
    // config fingerprint (covers seed, shares, hardening, ...), the
    // design point, the bench list, the sweep mode, and the run
    // windows.
    std::string key = std::to_string(configFingerprint(job.arch));
    key += '|';
    key += designPointName(job.point);
    for (const std::string &bench : job.benches) {
        key += '|';
        key += bench;
    }
    key += job.mode == SweepMode::SharedOnly ? "|shared" : "|metrics";
    const RunOptions &opts = job.options ? *job.options : options_;
    key += '|';
    key += std::to_string(opts.warmup);
    key += '|';
    key += std::to_string(opts.measure);
    return key;
}

PairResult
SweepRunner::execute(Evaluator &eval, const SweepJob &job)
{
    if (executor_)
        return executor_(eval, job);
    // A per-job window override gets an ephemeral Evaluator sharing
    // the worker's caches: the alone-IPC memo keys on the windows, and
    // the warm cache is exactly what lets a measure-length grid share
    // one warmed snapshot.
    Evaluator local(job.options ? *job.options : eval.options(),
                    cache_);
    local.setWarmCache(eval.warmCache());
    Evaluator &use = job.options ? local : eval;
    PairResult result;
    if (job.mode == SweepMode::SharedOnly) {
        result.stats = use.runShared(job.arch, job.point, job.benches);
        result.sharedIpc = result.stats.ipc;
    } else {
        result = use.evaluate(job.arch, job.point, job.benches);
    }
    return result;
}

void
SweepRunner::finishJob(std::size_t index, const std::string &key,
                       PairResult result, SweepOutcome outcome)
{
    if (journal_ != nullptr) {
        // A journal write failure must not sink the job it records.
        try {
            journal_->record(
                key, sweepStatusName(outcome.status),
                outcome.attempts, outcome.error,
                outcome.status == SweepStatus::Ok ? &result : nullptr,
                outcome.reproPath);
        } catch (const std::exception &err) {
            std::fprintf(stderr,
                         "[sweep] journal write failed: %s\n",
                         err.what());
        }
    }
    results_[index] = std::move(result);
    outcomes_[index] = std::move(outcome);
}

SweepOutcome
SweepRunner::attemptWithPolicy(Evaluator &eval, const SweepJob &job,
                               std::size_t job_idx, PairResult &out)
{
    SweepOutcome outcome;
    for (unsigned attempt = 0;; ++attempt) {
        outcome.attempts = attempt + 1;
        try {
            CancelToken token;
            const ScopedCancelToken scoped(&token);
            const DeadlineWatch watch(monitor_.get(), token,
                                      policy_.timeoutMs);
            injectSweepTestFault(job_idx);
            out = execute(eval, job);
            outcome.status = SweepStatus::Ok;
            outcome.error.clear();
            outcome.exception = nullptr;
            return outcome;
        } catch (const SimCancelledError &err) {
            outcome.status = SweepStatus::TimedOut;
            outcome.error = err.what();
            outcome.exception = nullptr;
        } catch (const SimInvariantError &err) {
            outcome.status = SweepStatus::Failed;
            outcome.error = err.what();
            outcome.exception = std::current_exception();
            // captureCrash persisted the repro before rethrowing.
            outcome.reproPath = reproFilePath();
        } catch (const std::exception &err) {
            outcome.status = SweepStatus::Failed;
            outcome.error = err.what();
            outcome.exception = std::current_exception();
        } catch (...) {
            outcome.status = SweepStatus::Failed;
            outcome.error = "unknown exception";
            outcome.exception = std::current_exception();
        }
        if (attempt >= policy_.retries)
            return outcome;
        const std::uint64_t delay = sweepBackoffMs(policy_, attempt);
        if (delay > 0) {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(delay));
        }
    }
}

void
SweepRunner::runOne(Evaluator &eval, std::size_t pend_idx,
                    std::size_t base)
{
    const SweepJob &job = pending_[pend_idx];
    PairResult result;
    SweepOutcome outcome =
        attemptWithPolicy(eval, job, base + pend_idx, result);
    finishJob(base + pend_idx, jobKey(job), std::move(result),
              std::move(outcome));
}

void
SweepRunner::run()
{
    if (pending_.empty())
        return;
    const std::size_t base = results_.size();
    const std::size_t batch = pending_.size();
    results_.resize(base + batch);
    outcomes_.resize(base + batch);

    if (dist_.enabled()) {
        runDistributed(base);
        pending_.clear();
        return;
    }

    if (!policy_.journalPath.empty() && journal_ == nullptr)
        journal_ = std::make_unique<SweepJournal>(policy_.journalPath);

    // Journal pre-pass: jobs a previous run completed are loaded, not
    // re-simulated. The decoded results are bit-exact, so bench
    // output after a resume is byte-identical to an uninterrupted run.
    std::vector<std::size_t> todo;
    todo.reserve(batch);
    std::size_t loaded = 0;
    for (std::size_t i = 0; i < batch; ++i) {
        if (journal_ != nullptr) {
            PairResult result;
            unsigned attempts = 1;
            bool hit = false;
            try {
                hit = journal_->lookupOk(jobKey(pending_[i]), result,
                                         attempts);
            } catch (const std::exception &err) {
                // A corrupt entry degrades to a re-simulation.
                std::fprintf(stderr,
                             "[sweep] journal entry unusable: %s\n",
                             err.what());
            }
            if (hit) {
                SweepOutcome outcome;
                outcome.status = SweepStatus::Ok;
                outcome.attempts = attempts;
                outcome.fromJournal = true;
                results_[base + i] = std::move(result);
                outcomes_[base + i] = std::move(outcome);
                ++loaded;
                ++journalHits_;
                continue;
            }
        }
        todo.push_back(i);
    }
    if (journal_ != nullptr) {
        std::fprintf(stderr,
                     "[sweep] journal %s: loaded %zu/%zu jobs, "
                     "simulating %zu\n",
                     journal_->path().c_str(), loaded, batch,
                     todo.size());
    }

    if (!todo.empty()) {
        if (policy_.isolate) {
            runIsolated(todo, base);
        } else {
            if (policy_.timeoutMs > 0 && monitor_ == nullptr)
                monitor_ = std::make_unique<DeadlineMonitor>();
            runBatch(todo, base);
        }
    }
    pending_.clear();
}

void
SweepRunner::runBatch(const std::vector<std::size_t> &todo,
                      std::size_t base)
{
    // Inline on the calling thread whenever a single worker would do
    // all the work anyway: a one-thread pool pays spawn/join and
    // atomic work-queue overhead for zero parallelism (visible as a
    // <1.0 "speedup" on single-CPU hosts).
    const std::size_t workers =
        std::min<std::size_t>(jobs_, todo.size());
    if (workers <= 1) {
        Evaluator eval(options_, cache_);
        eval.setWarmCache(warm_);
        for (const std::size_t pend_idx : todo)
            runOne(eval, pend_idx, base);
        return;
    }

    std::atomic<std::size_t> next{0};
    auto worker = [&]() {
        // Workers share the alone-IPC memo and the warm-state cache
        // but nothing else; each simulation is wholly thread-private,
        // and every failure is absorbed into the job's outcome rather
        // than thrown.
        Evaluator eval(options_, cache_);
        eval.setWarmCache(warm_);
        for (;;) {
            const std::size_t n =
                next.fetch_add(1, std::memory_order_relaxed);
            if (n >= todo.size())
                return;
            runOne(eval, todo[n], base);
        }
    };

    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w)
        pool.emplace_back(worker);
    for (std::thread &t : pool)
        t.join();
}

// ---------------------------------------------------------------------
// Distributed execution (MASK_SWEEP_DIST_DIR, DESIGN.md §15)
// ---------------------------------------------------------------------

void
SweepRunner::runDistributed(std::size_t base)
{
    const std::size_t batch = pending_.size();
    DistCoordinator dist(dist_);
    dist.noteJobs(batch);

    // In dist mode the per-worker shard IS the journal: finishJob()
    // lands every local outcome there as a durable, single-write
    // record, and peers learn of it by tailing the shard directory.
    if (!policy_.journalPath.empty() &&
        policy_.journalPath != dist.shardPath()) {
        std::fprintf(stderr,
                     "[dist] MASK_SWEEP_JOURNAL ignored: per-worker "
                     "shard %s is the journal\n",
                     dist.shardPath().c_str());
    }
    journal_ = std::make_unique<SweepJournal>(dist.shardPath());
    journal_->setWorkerTag(dist_.worker);

    if (policy_.timeoutMs > 0 && monitor_ == nullptr &&
        !policy_.isolate)
        monitor_ = std::make_unique<DeadlineMonitor>();

    Evaluator eval(options_, cache_);
    eval.setWarmCache(warm_);

    std::vector<std::string> keys(batch);
    for (std::size_t i = 0; i < batch; ++i)
        keys[i] = jobKey(pending_[i]);

    // Claim loop: repeated submission-order passes over the batch.
    // Every pass first ingests what other workers published; a job
    // with any terminal shard entry is done (unlike a serial-journal
    // resume, a Failed entry is not re-simulated here — one worker's
    // permafail must not cascade into every worker re-running it).
    // Unclaimed jobs are taken with a lease and executed; jobs whose
    // lease is held elsewhere are skipped and re-checked next pass.
    std::vector<char> done(batch, 0);
    std::vector<char> local(batch, 0);
    std::size_t remaining = batch;
    while (remaining > 0) {
        dist.refreshShards();
        bool progress = false;
        for (std::size_t i = 0; i < batch; ++i) {
            if (done[i] != 0)
                continue;
            if (dist.terminal(keys[i]) != nullptr) {
                done[i] = 1; // decoded in the merge pass below
                --remaining;
                progress = true;
                continue;
            }
            if (dist_.mergeOnly)
                continue;
            unsigned steals = 0;
            switch (dist.tryClaim(keys[i], &steals)) {
              case DistCoordinator::Claim::Acquired:
                if (policy_.isolate)
                    runIsolated(std::vector<std::size_t>{i}, base);
                else
                    runOne(eval, i, base);
                // Release only after finishJob made the shard record
                // durable: a lease must never vanish while the job's
                // completion is still invisible to peers.
                dist.release(keys[i]);
                dist.noteExecuted();
                local[i] = 1;
                done[i] = 1;
                --remaining;
                progress = true;
                break;
              case DistCoordinator::Claim::Abandoned: {
                SweepOutcome outcome;
                outcome.status = SweepStatus::Abandoned;
                outcome.attempts = 0;
                outcome.error =
                    "lease stolen " + std::to_string(steals) +
                    " time(s) with no durable result; job abandoned "
                    "(MASK_SWEEP_DIST_MAX_STEALS=" +
                    std::to_string(dist_.maxSteals) + ")";
                finishJob(base + i, keys[i], PairResult{},
                          std::move(outcome));
                dist.noteAbandoned();
                local[i] = 1;
                done[i] = 1;
                --remaining;
                progress = true;
                break;
              }
              case DistCoordinator::Claim::Busy:
                break;
            }
        }
        if (remaining == 0 || dist_.mergeOnly)
            break;
        if (!progress) {
            dist.noteWaiting(remaining);
            std::this_thread::sleep_for(
                std::chrono::milliseconds(dist_.pollMs));
        }
    }

    // Deterministic merge: every job this worker did not execute is
    // decoded from the shard view's winning entry. The blobs are
    // bit-exact and winner selection is arrival-order independent, so
    // this worker's results_ — and any other worker's, and a
    // merge-only pass's — match a single-process serial run byte for
    // byte.
    dist.refreshShards();
    dist.finalizeMerge();
    for (std::size_t i = 0; i < batch; ++i) {
        if (local[i] != 0)
            continue;
        const DistCoordinator::Entry *entry = dist.terminal(keys[i]);
        PairResult result;
        SweepOutcome outcome;
        if (entry == nullptr) {
            outcome.status = SweepStatus::Failed;
            outcome.error =
                dist_.mergeOnly
                    ? "no shard entry for this job "
                      "(MASK_SWEEP_DIST_MERGE=1 never executes)"
                    : "no shard entry after distributed run";
        } else {
            outcome.status = sweepStatusFromName(entry->status);
            outcome.attempts = entry->attempts;
            outcome.error = entry->error;
            outcome.reproPath = entry->repro;
            outcome.fromJournal = true;
            if (outcome.status == SweepStatus::Ok) {
                try {
                    result = decodePairResult(entry->blob);
                    ++journalHits_;
                } catch (const std::exception &err) {
                    outcome.status = SweepStatus::Failed;
                    outcome.error =
                        std::string("shard entry undecodable: ") +
                        err.what();
                }
            }
            dist.noteLoaded();
        }
        results_[base + i] = std::move(result);
        outcomes_[base + i] = std::move(outcome);
    }

    const DistSweepStats stats = dist.stats();
    distStats_.worker = stats.worker;
    distStats_.jobs += stats.jobs;
    distStats_.executed += stats.executed;
    distStats_.loadedRemote += stats.loadedRemote;
    distStats_.leasesClaimed += stats.leasesClaimed;
    distStats_.leasesStolen += stats.leasesStolen;
    distStats_.staleSeen += stats.staleSeen;
    distStats_.stealRetries += stats.stealRetries;
    distStats_.duplicates += stats.duplicates;
    distStats_.tornLines += stats.tornLines;
    distStats_.abandoned += stats.abandoned;
    distStats_.waitPolls += stats.waitPolls;
}

// ---------------------------------------------------------------------
// Subprocess isolation (MASK_SWEEP_ISOLATE=1)
// ---------------------------------------------------------------------

void
SweepRunner::runIsolated(const std::vector<std::size_t> &todo,
                         std::size_t base)
{
    using Clock = std::chrono::steady_clock;

    // One forked child per job, up to jobs_ concurrent; the parent
    // stays single-threaded (fork from a multi-threaded process risks
    // inheriting a held allocator lock) and enforces deadlines with
    // SIGKILL, which reclaims even a hard-hung child. Children report
    // over a pipe: "ok <blob>" or "err <what>"; a fatal signal leaves
    // no payload and is classified from the wait status.
    struct Child
    {
        pid_t pid = -1;
        int fd = -1;
        std::size_t pendIdx = 0;
        unsigned attempt = 0;
        Clock::time_point deadline;
        bool hasDeadline = false;
        bool timedOut = false;
        std::string buf;
        std::string reproPath;
    };
    struct Ready
    {
        std::size_t pendIdx = 0;
        unsigned attempt = 0;
        Clock::time_point notBefore;
    };

    std::vector<Ready> ready;
    ready.reserve(todo.size());
    const auto start = Clock::now();
    for (const std::size_t pend_idx : todo)
        ready.push_back(Ready{pend_idx, 0, start});
    std::vector<Child> live;
    const std::size_t width = jobs_ != 0 ? jobs_ : 1;

    auto startChild = [&](const Ready &r) {
        const SweepJob &job = pending_[r.pendIdx];
        const std::size_t job_idx = base + r.pendIdx;
        Child child;
        child.pendIdx = r.pendIdx;
        child.attempt = r.attempt;
        child.reproPath =
            reproFilePath() + ".job" + std::to_string(job_idx);
        ::unlink(child.reproPath.c_str());

        int fds[2];
        if (::pipe(fds) != 0)
            throw std::runtime_error(
                "sweep isolation: pipe() failed");
        std::fflush(stdout);
        std::fflush(stderr);
        const pid_t pid = ::fork();
        if (pid < 0) {
            ::close(fds[0]);
            ::close(fds[1]);
            throw std::runtime_error(
                "sweep isolation: fork() failed");
        }
        if (pid == 0) {
            // --- child ---
            ::close(fds[0]);
            // Redirect this job's crash-repro (both the invariant
            // path and the fatal-signal path honor the env) to a
            // per-job file the parent can harvest.
            ::setenv("MASK_REPRO_FILE", child.reproPath.c_str(), 1);
            int code = 0;
            std::string payload;
            try {
                // Job-level arm: a hard crash anywhere in the child
                // (even outside an evaluator run) leaves a repro.
                const ScopedSignalRepro armed(
                    makeRepro(job.arch, job.point, job.benches,
                              options_.warmup, options_.measure),
                    child.reproPath);
                injectSweepTestFault(job_idx);
                Evaluator eval(options_, cache_);
                // In-memory warm state dies with this child, so only a
                // file-backed cache (shared through the filesystem
                // with sibling children and future resumes) is worth
                // the snapshot-render cost here.
                if (warm_ != nullptr && !warm_->policy().dir.empty())
                    eval.setWarmCache(warm_);
                payload = "ok " + encodePairResult(execute(eval, job));
            } catch (const std::exception &err) {
                payload = std::string("err ") + err.what();
                code = 3;
            } catch (...) {
                payload = "err unknown exception";
                code = 3;
            }
            // A short write (reader gone) shows up in the parent as a
            // truncated payload.
            writeAll(fds[1], payload.data(), payload.size());
            ::close(fds[1]);
            std::_Exit(code);
        }
        // --- parent ---
        ::close(fds[1]);
        ::fcntl(fds[0], F_SETFL, O_NONBLOCK);
        child.pid = pid;
        child.fd = fds[0];
        if (policy_.timeoutMs > 0) {
            child.hasDeadline = true;
            child.deadline =
                Clock::now() +
                std::chrono::milliseconds(policy_.timeoutMs);
        }
        live.push_back(std::move(child));
    };

    auto reap = [&](Child &child) {
        int status = 0;
        while (::waitpid(child.pid, &status, 0) < 0 &&
               errno == EINTR) {
        }
        ::close(child.fd);

        const SweepJob &job = pending_[child.pendIdx];
        const std::size_t index = base + child.pendIdx;
        SweepOutcome outcome;
        outcome.attempts = child.attempt + 1;
        PairResult result;

        if (child.timedOut) {
            outcome.status = SweepStatus::TimedOut;
            outcome.error =
                "deadline exceeded (MASK_SWEEP_TIMEOUT_MS=" +
                std::to_string(policy_.timeoutMs) +
                "), child killed";
        } else if (WIFSIGNALED(status)) {
            const int sig = WTERMSIG(status);
            outcome.status = SweepStatus::Crashed;
            outcome.error = std::string("child killed by ") +
                            fatalSignalName(sig) + " (signal " +
                            std::to_string(sig) + ")";
        } else if (child.buf.rfind("ok ", 0) == 0) {
            try {
                result = decodePairResult(child.buf.substr(3));
                outcome.status = SweepStatus::Ok;
            } catch (const std::exception &err) {
                outcome.status = SweepStatus::Failed;
                outcome.error =
                    std::string("isolation protocol: ") + err.what();
            }
        } else if (child.buf.rfind("err ", 0) == 0) {
            outcome.status = SweepStatus::Failed;
            outcome.error = child.buf.substr(4);
        } else {
            outcome.status = SweepStatus::Failed;
            outcome.error =
                "isolation protocol: child exited " +
                std::to_string(WIFEXITED(status)
                                   ? WEXITSTATUS(status)
                                   : -1) +
                " with no payload";
        }
        if (outcome.status != SweepStatus::Ok &&
            fileExists(child.reproPath)) {
            outcome.reproPath = child.reproPath;
        }

        if (outcome.status != SweepStatus::Ok &&
            child.attempt < policy_.retries) {
            ready.push_back(Ready{
                child.pendIdx, child.attempt + 1,
                Clock::now() +
                    std::chrono::milliseconds(
                        sweepBackoffMs(policy_, child.attempt))});
            return;
        }
        finishJob(index, jobKey(job), std::move(result),
                  std::move(outcome));
    };

    while (!ready.empty() || !live.empty()) {
        const auto now = Clock::now();

        // Launch eligible jobs into free slots.
        for (std::size_t i = 0;
             i < ready.size() && live.size() < width;) {
            if (ready[i].notBefore <= now) {
                startChild(ready[i]);
                ready.erase(ready.begin() +
                            static_cast<std::ptrdiff_t>(i));
            } else {
                ++i;
            }
        }

        // Kill children past their deadline; their pipe EOF follows.
        for (Child &child : live) {
            if (child.hasDeadline && !child.timedOut &&
                child.deadline <= now) {
                ::kill(child.pid, SIGKILL);
                child.timedOut = true;
            }
        }

        if (live.empty()) {
            // Only backoff waits remain: sleep to the next expiry.
            auto next_ready = ready.front().notBefore;
            for (const Ready &r : ready)
                next_ready = std::min(next_ready, r.notBefore);
            if (next_ready > now)
                std::this_thread::sleep_until(next_ready);
            continue;
        }

        // Sleep until data, a deadline, or a backoff expiry.
        auto wake = now + std::chrono::milliseconds(200);
        for (const Child &child : live) {
            if (child.hasDeadline && !child.timedOut)
                wake = std::min(wake, child.deadline);
        }
        for (const Ready &r : ready)
            wake = std::min(wake, r.notBefore);
        const auto wait_ms =
            std::chrono::duration_cast<std::chrono::milliseconds>(
                wake - now)
                .count();

        std::vector<struct pollfd> fds(live.size());
        for (std::size_t i = 0; i < live.size(); ++i)
            fds[i] = {live[i].fd, POLLIN, 0};
        ::poll(fds.data(), fds.size(),
               static_cast<int>(std::max<long long>(1, wait_ms)));

        // Drain readable pipes; EOF means the child is done.
        for (std::size_t i = 0; i < live.size();) {
            Child &child = live[i];
            bool done = false;
            if (fds[i].revents != 0) {
                char buf[4096];
                for (;;) {
                    const ::ssize_t n =
                        ::read(child.fd, buf, sizeof(buf));
                    if (n > 0) {
                        child.buf.append(
                            buf, static_cast<std::size_t>(n));
                        continue;
                    }
                    if (n == 0)
                        done = true; // EOF
                    else if (errno == EINTR)
                        continue;
                    break; // EAGAIN or EOF
                }
            }
            if (done) {
                reap(child);
                fds.erase(fds.begin() +
                          static_cast<std::ptrdiff_t>(i));
                live.erase(live.begin() +
                           static_cast<std::ptrdiff_t>(i));
            } else {
                ++i;
            }
        }
    }
}

} // namespace mask
