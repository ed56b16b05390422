#include "sim/sweep.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <thread>

#include <sys/stat.h>
#include <unistd.h>

#include "common/check.hh"
#include "common/env.hh"
#include "sim/crash_repro.hh"
#include "sim/file_io.hh"
#include "sim/sweep_io.hh"

namespace mask {

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
      case SweepStatus::Abandoned: return "Abandoned";
    }
    return "Unknown";
}

SweepStatus
sweepStatusFromName(const std::string &name)
{
    for (const SweepStatus status :
         {SweepStatus::Ok, SweepStatus::Failed, SweepStatus::Abandoned}) {
        if (name == sweepStatusName(status))
            return status;
    }
    return SweepStatus::Failed;
}

SweepPolicy
sweepPolicyFromEnv()
{
    SweepPolicy policy;
    policy.journalPath = envString("MASK_SWEEP_JOURNAL");
    return policy;
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
        // A file left by another process (a distributed peer, a
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

std::size_t
SweepRunner::journalHits() const
{
    std::size_t hits = 0;
    for (const SweepOutcome &outcome : outcomes_)
        hits += outcome.fromJournal && outcome.status == SweepStatus::Ok;
    return hits;
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
                key, sweepStatusName(outcome.status), outcome.error,
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

void
SweepRunner::runOne(Evaluator &eval, std::size_t pend_idx,
                    std::size_t base)
{
    // Exceptions are contained here, one job at a time; a fatal signal
    // ends the process, and the journal resumes what finished.
    const SweepJob &job = pending_[pend_idx];
    PairResult result;
    SweepOutcome outcome;
    try {
        result = execute(eval, job);
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

    // Resume: jobs a previous run completed are loaded, not
    // re-simulated. The decoded results are bit-exact, so bench
    // output after a resume is byte-identical to an uninterrupted run.
    const std::vector<std::size_t> todo =
        loadFromJournal(base, /*ok_only=*/true, {});
    if (journal_ != nullptr) {
        std::fprintf(stderr,
                     "[sweep] journal %s: loaded %zu/%zu jobs, "
                     "simulating %zu\n",
                     journal_->path().c_str(), batch - todo.size(),
                     batch, todo.size());
    }

    if (!todo.empty())
        runBatch(todo, base);
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

std::vector<std::size_t>
SweepRunner::loadFromJournal(std::size_t base, bool ok_only,
                             const std::vector<char> &ran_here)
{
    if (journal_ != nullptr)
        journal_->refresh();
    std::vector<std::size_t> rest;
    for (std::size_t i = 0; i < pending_.size(); ++i) {
        if (!ran_here.empty() && ran_here[i] != 0)
            continue;
        const JournalEntry *entry =
            journal_ != nullptr ? journal_->find(jobKey(pending_[i]))
                                : nullptr;
        if (entry == nullptr || (ok_only && entry->status != "Ok")) {
            rest.push_back(i);
            continue;
        }
        SweepOutcome &outcome = outcomes_[base + i];
        outcome = SweepOutcome{};
        outcome.status = sweepStatusFromName(entry->status);
        outcome.error = entry->error;
        outcome.reproPath = entry->repro;
        outcome.fromJournal = true;
        results_[base + i] = entry->result;
    }
    return rest;
}

// ---------------------------------------------------------------------
// Distributed execution (MASK_SWEEP_DIST_DIR, DESIGN.md §15)
// ---------------------------------------------------------------------

void
SweepRunner::runDistributed(std::size_t base)
{
    const std::size_t batch = pending_.size();
    DistCoordinator dist(dist_);

    // In dist mode the per-worker shard IS the journal: finishJob()
    // lands every local outcome there as a durable, single-write
    // record, and the journal reads every peer's shard beside it.
    if (!policy_.journalPath.empty() &&
        policy_.journalPath != dist.shardPath()) {
        std::fprintf(stderr,
                     "[dist] MASK_SWEEP_JOURNAL ignored: per-worker "
                     "shard %s is the journal\n",
                     dist.shardPath().c_str());
    }
    journal_ = std::make_unique<SweepJournal>(dist.shardPath(),
                                              dist_.worker);

    Evaluator eval(options_, cache_);
    eval.setWarmCache(warm_);

    // Claim loop: repeated submission-order passes over the batch.
    // Every pass first loads what the journal's winners say is done —
    // any status: unlike a serial resume, a Failed record is not
    // re-simulated here, since one worker's permafail must not
    // cascade into every worker re-running it. Unclaimed jobs are
    // taken with a lease and executed; jobs whose lease is held
    // elsewhere are skipped and re-checked next pass. The loop ends
    // on a load, so every job this worker did not run holds the
    // winner of the final shard bytes: winner selection depends only
    // on those bytes, so this worker's results_ — and any other
    // worker's, and a merge-only pass's — match a single-process
    // serial run byte for byte.
    std::vector<char> ran_here(batch, 0);
    std::uint64_t executed = 0;
    std::uint64_t abandoned = 0;
    std::vector<std::size_t> todo;
    for (;;) {
        todo = loadFromJournal(base, /*ok_only=*/false, ran_here);
        if (todo.empty() || dist_.mergeOnly)
            break;
        bool claimed = false;
        for (const std::size_t i : todo) {
            const std::string key = jobKey(pending_[i]);
            unsigned steals = 0;
            const DistCoordinator::Claim claim =
                dist.tryClaim(key, &steals);
            if (claim == DistCoordinator::Claim::Busy)
                continue;
            if (claim == DistCoordinator::Claim::Acquired) {
                runOne(eval, i, base);
                // Release only after finishJob made the shard record
                // durable: a lease must never vanish while the job's
                // completion is still invisible to peers.
                dist.release(key);
                ++executed;
            } else {
                SweepOutcome outcome;
                outcome.status = SweepStatus::Abandoned;
                outcome.error =
                    "lease stolen " + std::to_string(steals) +
                    " time(s) with no durable result; job abandoned "
                    "after " +
                    std::to_string(dist_.maxSteals) + " steals";
                finishJob(base + i, key, PairResult{},
                          std::move(outcome));
                ++abandoned;
            }
            ran_here[i] = 1;
            claimed = true;
        }
        if (!claimed) {
            dist.noteWaiting(todo.size());
            std::this_thread::sleep_for(
                std::chrono::milliseconds(dist_.pollMs));
        }
    }
    for (const std::size_t i : todo) {
        SweepOutcome &outcome = outcomes_[base + i];
        outcome.status = SweepStatus::Failed;
        outcome.error = "no shard entry for this job "
                        "(MASK_SWEEP_DIST_MERGE=1 never executes)";
    }

    const DistSweepStats &leases = dist.stats();
    distStats_.worker = leases.worker;
    distStats_.jobs += batch;
    distStats_.executed += executed;
    distStats_.loadedRemote +=
        batch - executed - abandoned - todo.size();
    distStats_.leasesClaimed += leases.leasesClaimed;
    distStats_.leasesStolen += leases.leasesStolen;
    distStats_.staleSeen += leases.staleSeen;
    distStats_.stealRetries += leases.stealRetries;
    distStats_.duplicates += journal_->duplicates();
    distStats_.tornLines +=
        journal_->malformedLines() + journal_->partialTails();
    distStats_.abandoned += abandoned;
    distStats_.waitPolls += leases.waitPolls;
}

} // namespace mask
