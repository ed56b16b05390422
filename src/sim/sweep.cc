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
#include "common/file_io.hh"
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
    }
    return "Unknown";
}

SweepStatus
sweepStatusFromName(const std::string &name)
{
    return name == sweepStatusName(SweepStatus::Ok) ? SweepStatus::Ok
                                                    : SweepStatus::Failed;
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

WarmStateCache::WarmStateCache(WarmPolicy policy)
    : dir_(std::move(policy.dir))
{
    if (dir_.empty())
        throw ConfigError("warm cache needs a snapshot dir "
                          "(WarmPolicy::dir)");
    ::mkdir(dir_.c_str(), 0777); // best-effort; open reports
}

std::string
WarmStateCache::filePath(const std::string &key) const
{
    return dir_ + "/" + key + ".snap";
}

std::string
WarmStateCache::getOrWarm(const std::string &key, Cycle warmup_cycles,
                          const std::function<std::string()> &produce)
{
    // Single flight: one thread at a time holds a key; the others wait
    // for it and then read the file it published.
    std::unique_lock<std::mutex> lock(mutex_);
    ready_.wait(lock, [&] { return busy_.count(key) == 0; });
    busy_.insert(key);
    lock.unlock();

    // A file is a hit, whichever process wrote it; the consumer
    // validates header + checksum either way.
    std::string image;
    bool hit = false;
    try {
        hit = readFile(filePath(key), image);
        if (!hit)
            image = produce();
    } catch (...) {
        lock.lock();
        busy_.erase(key);
        ready_.notify_all();
        throw;
    }
    if (!hit) {
        try {
            writeFileAtomic(filePath(key), image);
        } catch (const std::exception &err) {
            // Disk trouble costs reuse, nothing else.
            std::fprintf(stderr, "[sweep] %s\n", err.what());
        }
    }

    lock.lock();
    busy_.erase(key);
    ready_.notify_all();
    if (hit) {
        ++stats_.hits;
        stats_.warmupCyclesSaved += warmup_cycles;
    } else {
        ++stats_.misses;
    }
    return image;
}

void
WarmStateCache::invalidate(const std::string &key)
{
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
    // Distributed workers share warm snapshots through the sweep
    // directory by default; a policy set with setWarmPolicy wins.
    if (!dist_.enabled() || warm_ != nullptr)
        return;
    // The sweep dir may not exist yet (the coordinator creates it at
    // run()); the warm cache mkdirs only its own leaf, so make the
    // parent here.
    ::mkdir(dist_.dir.c_str(), 0755);
    warm_ = std::make_shared<WarmStateCache>(
        WarmPolicy{true, dist_.dir + "/warm"});
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
    PairResult result;
    SweepOutcome outcome;
    try {
        result = execute(eval, pending_[pend_idx]);
    } catch (const SimInvariantError &err) {
        outcome.status = SweepStatus::Failed;
        outcome.error = err.what();
        outcome.exception = std::current_exception();
        // The failing run's own repro, if captureCrash wrote one.
        outcome.reproPath = err.reproPath();
    } catch (const std::exception &err) {
        outcome.status = SweepStatus::Failed;
        outcome.error = err.what();
        outcome.exception = std::current_exception();
    } catch (...) {
        outcome.status = SweepStatus::Failed;
        outcome.error = "unknown exception";
        outcome.exception = std::current_exception();
    }
    finishJob(base + pend_idx, pendingKeys_[pend_idx], std::move(result),
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

    // Identical jobs run once: only the first job of the runner's life
    // with a given key is run (or loaded); every later one copies its
    // result and outcome below. Results are deterministic, so the copy
    // is what a second run would have produced.
    std::vector<std::size_t> todo;
    std::vector<std::size_t> source(batch);
    pendingKeys_.clear();
    for (std::size_t i = 0; i < batch; ++i) {
        pendingKeys_.push_back(jobKey(pending_[i]));
        const auto [it, first] =
            firstJob_.emplace(pendingKeys_[i], base + i);
        source[i] = it->second;
        if (first)
            todo.push_back(i);
    }

    if (dist_.enabled()) {
        runDistributed(std::move(todo), base);
    } else {
        if (!policy_.journalPath.empty() && journal_ == nullptr)
            journal_ = std::make_unique<SweepJournal>(policy_.journalPath);

        // Resume: jobs a previous run completed are loaded, not
        // re-simulated. The decoded results are bit-exact, so bench
        // output after a resume is byte-identical to an uninterrupted
        // run.
        const std::size_t distinct = todo.size();
        todo = loadFromJournal(base, todo, /*ok_only=*/true);
        if (journal_ != nullptr) {
            std::fprintf(stderr,
                         "[sweep] journal %s: loaded %zu/%zu jobs, "
                         "simulating %zu\n",
                         journal_->path().c_str(), distinct - todo.size(),
                         distinct, todo.size());
        }
        if (!todo.empty())
            runBatch(todo, base);
    }

    for (std::size_t i = 0; i < batch; ++i) {
        if (source[i] != base + i) {
            results_[base + i] = results_[source[i]];
            outcomes_[base + i] = outcomes_[source[i]];
        }
    }
    pending_.clear();
    pendingKeys_.clear();
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
SweepRunner::loadFromJournal(std::size_t base,
                             const std::vector<std::size_t> &todo,
                             bool ok_only)
{
    if (journal_ == nullptr)
        return todo;
    journal_->refresh();
    std::vector<std::size_t> rest;
    for (const std::size_t i : todo) {
        const JournalEntry *entry = journal_->find(pendingKeys_[i]);
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
SweepRunner::runDistributed(std::vector<std::size_t> todo,
                            std::size_t base)
{
    const std::size_t distinct = todo.size();
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

    // One Evaluator: a worker runs its jobs one at a time, so more
    // parallelism in dist mode means more worker processes.
    Evaluator eval(options_, cache_);
    eval.setWarmCache(warm_);

    // Claim loop: repeated submission-order passes over the jobs not
    // yet done. Every pass first loads what the journal's winners say
    // is done — any status: unlike a serial resume, a Failed record is
    // not re-simulated here, since one worker's permafail must not
    // cascade into every worker re-running it. Unclaimed jobs are
    // taken with a lease and executed; jobs whose lease is held
    // elsewhere are kept and re-checked next pass. The loop ends on a
    // load, so every job this worker did not run holds the winner of
    // the final shard bytes: winner selection depends only on those
    // bytes, so this worker's results_ — and any other worker's —
    // match a single-process serial run byte for byte.
    std::uint64_t executed = 0;
    for (;;) {
        todo = loadFromJournal(base, todo, /*ok_only=*/false);
        if (todo.empty())
            break;
        std::vector<std::size_t> held;
        for (const std::size_t i : todo) {
            const std::string &key = pendingKeys_[i];
            if (!dist.tryClaim(key)) {
                held.push_back(i);
                continue;
            }
            runOne(eval, i, base);
            // Release only after finishJob made the shard record
            // durable: a lease must never vanish while the job's
            // completion is still invisible to peers.
            dist.release(key);
            ++executed;
        }
        if (held.size() == todo.size()) {
            dist.noteWaiting(todo.size());
            std::this_thread::sleep_for(
                std::chrono::milliseconds(dist_.pollMs));
        }
        todo = std::move(held);
    }

    const DistSweepStats &leases = dist.stats();
    distStats_.worker = leases.worker;
    distStats_.jobs += distinct;
    distStats_.executed += executed;
    distStats_.loadedRemote += distinct - executed;
    distStats_.leasesClaimed += leases.leasesClaimed;
    distStats_.leasesStolen += leases.leasesStolen;
    distStats_.staleSeen += leases.staleSeen;
    distStats_.duplicates += journal_->duplicates();
    distStats_.tornLines +=
        journal_->malformedLines() + journal_->partialTails();
    distStats_.waitPolls += leases.waitPolls;
}

} // namespace mask
