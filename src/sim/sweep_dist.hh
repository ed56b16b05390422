/**
 * @file
 * Distributed sweep execution over a shared directory (DESIGN.md §15).
 *
 * Any number of independent `mask` worker processes — on one machine
 * or many sharing a filesystem — point MASK_SWEEP_DIST_DIR at a
 * common directory, enumerate the same deterministic job list (every
 * bench builds it the same way), and divide the work through the
 * directory alone. There are no sockets and no coordinator process;
 * the shared FS is the transport:
 *
 *   <dir>/leases/<fnv1a64(job key)>.lease   exclusive job claims
 *   <dir>/shards/<worker>.jsonl             per-worker result journal
 *   <dir>/warm/                             shared warm-snapshot store
 *
 * Claiming is an atomic O_CREAT|O_EXCL create of the lease file, whose
 * fixed-size content carries {worker id, pid, host, deadline, steal
 * count}. The holder's heartbeat thread rewrites the content (and so
 * the deadline) in place every MASK_SWEEP_DIST_HEARTBEAT_MS; a lease
 * whose deadline has passed is provably stale — its holder stopped
 * heartbeating at least ten heartbeat periods ago — and any
 * worker may steal it: rename the lease aside (atomic; exactly one
 * stealer wins), unlink the tombstone, and re-claim with the steal
 * count incremented. Steal attempts per job back off exponentially
 * (capped), and once a job has been stolen DistPolicy::maxSteals (3)
 * times without producing a durable result it is abandoned: the cell
 * degrades to FAILED(Abandoned) instead of looping forever on a job
 * that kills every worker that touches it.
 *
 * Completion is a durable journal entry: each worker appends outcomes
 * to its own shard (single-write O_APPEND records, sweep_io.hh), and
 * reads every shard through the same SweepJournal to learn what the
 * others finished. Double claims are legal (a slow-but-alive worker
 * may race its thief); the journal's one winner rule — the first
 * decodable Ok entry in (shard name, line number) order, else the
 * first other entry — picks the same record on every worker, and the
 * extra entries are counted, never re-merged. So every worker (or a
 * later MASK_SWEEP_DIST_MERGE=1 invocation) renders byte-identical
 * results in submission order, themselves byte-identical to a
 * single-process serial run. DistCoordinator itself only handles
 * leases; it never reads a shard.
 */

#ifndef MASK_SIM_SWEEP_DIST_HH
#define MASK_SIM_SWEEP_DIST_HH

#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace mask {

/** Distributed-sweep policy (env-driven by default; settable for
 *  tests via SweepRunner::setDistPolicy). */
struct DistPolicy
{
    std::string dir;    //!< shared directory; "" disables
    std::string worker; //!< unique worker id (shard + lease identity)
    std::uint64_t heartbeatMs = 1000;   //!< lease refresh cadence
    std::uint64_t stealAfterMs = 10000; //!< missed-heartbeat window
    unsigned maxSteals = 3;     //!< steals before FAILED(Abandoned)
    std::uint64_t pollMs = 200; //!< idle wait between shard rescans
    bool mergeOnly = false;     //!< load shards; never claim or wait

    bool enabled() const { return !dir.empty(); }
};

/**
 * Policy from the MASK_SWEEP_DIST_* environment knobs:
 *
 *   MASK_SWEEP_DIST_DIR=<dir>         enable; the shared directory
 *   MASK_SWEEP_DIST_WORKER=<id>       worker id (default host-pid)
 *   MASK_SWEEP_DIST_HEARTBEAT_MS=<ms> lease heartbeat (default 1000,
 *                                     min 10); the staleness window
 *                                     is ten heartbeats
 *   MASK_SWEEP_DIST_MERGE=1           merge-only: decode what the
 *                                     shards hold, never execute
 *
 * The steal cap and idle poll period keep their DistPolicy defaults.
 */
DistPolicy distPolicyFromEnv();

/** Wall-clock epoch milliseconds (lease deadlines compare these
 *  across processes; workers sharing a directory need roughly
 *  synchronized clocks — see DESIGN.md §15). */
std::uint64_t distEpochMs();

/** Decoded lease-file content. */
struct DistLease
{
    std::string worker;
    std::uint64_t pid = 0;
    std::string host;
    std::uint64_t deadlineMs = 0; //!< stale once distEpochMs() passes
    unsigned steals = 0;          //!< times this job changed hands
};

/** Fixed-size lease-file image for @p lease (kDistLeaseFileSize
 *  bytes: in-place heartbeat rewrites fully overwrite it). */
std::string encodeLease(const DistLease &lease);

/** Parse @p content; false when torn/corrupt (callers then fall back
 *  to file-mtime staleness). */
bool decodeLease(const std::string &content, DistLease &out);

/** Lease basename for @p job_key: 16 hex chars of FNV-1a 64. */
std::string distLeaseName(const std::string &job_key);

constexpr std::size_t kDistLeaseFileSize = 256;

/** Counters surfaced in the per-worker "[dist]" footer. */
struct DistSweepStats
{
    std::string worker;
    std::uint64_t jobs = 0;          //!< jobs in the local list
    std::uint64_t executed = 0;      //!< simulated by this worker
    std::uint64_t loadedRemote = 0;  //!< merged from shard entries
    std::uint64_t leasesClaimed = 0; //!< fresh O_EXCL claims
    std::uint64_t leasesStolen = 0;  //!< stale leases taken over
    std::uint64_t staleSeen = 0;     //!< stale-lease observations
    std::uint64_t stealRetries = 0;  //!< steals deferred by backoff
    std::uint64_t duplicates = 0;    //!< extra Ok entries per key
    std::uint64_t tornLines = 0;     //!< torn/malformed shard lines
    std::uint64_t abandoned = 0;     //!< jobs degraded by max-steals
    std::uint64_t waitPolls = 0;     //!< idle waits on other workers
};

/**
 * One worker's lease table in a shared sweep directory: claims with
 * heartbeats, steals of stale leases, and their counters.
 *
 * Thread model: all claim/release calls come from the sweep driver
 * thread; the only internal thread is the heartbeat, which touches
 * nothing but the held-lease table (mutex-protected) and is
 * allocation-free per beat.
 */
class DistCoordinator
{
  public:
    explicit DistCoordinator(DistPolicy policy);
    ~DistCoordinator();

    DistCoordinator(const DistCoordinator &) = delete;
    DistCoordinator &operator=(const DistCoordinator &) = delete;

    const DistPolicy &policy() const { return policy_; }

    /** This worker's journal shard: <dir>/shards/<worker>.jsonl. */
    std::string shardPath() const;

    enum class Claim : std::uint8_t {
        Acquired,  //!< lease held; execute the job, then release()
        Busy,      //!< someone else holds a fresh lease (or we lost
                   //!< a steal race / are backing off) — skip for now
        Abandoned, //!< stolen maxSteals times already; degrade the job
    };

    /**
     * Try to take the lease for @p job_key: O_EXCL create, or steal
     * if the existing lease is provably stale. @p steals_out (may be
     * null) reports the observed steal count (useful in the
     * Abandoned error text).
     */
    Claim tryClaim(const std::string &job_key, unsigned *steals_out);

    /** Drop @p job_key's lease (call after its journal entry is
     *  durable — completion must be visible before the lease goes). */
    void release(const std::string &job_key);

    /** Count one idle wait on @p pending_jobs jobs other workers
     *  hold, with a rate-limited stderr note. */
    void noteWaiting(std::size_t pending_jobs);

    /** Worker id and the lease and wait counters; the runner fills
     *  in the job and shard counters. */
    const DistSweepStats &stats() const { return stats_; }

  private:
    struct Held
    {
        int fd = -1;
        unsigned steals = 0;
        char path[512];
    };
    struct StealBackoff
    {
        unsigned attempts = 0;
        std::uint64_t notBeforeMs = 0;
    };

    std::string leasePath(const std::string &lease_name) const;
    void writeLeaseLocked(Held &held, std::uint64_t now_ms);
    void startHeartbeatLocked();
    void heartbeatLoop();

    DistPolicy policy_;
    std::string leaseDir_;
    std::string shardDir_;
    char hostBuf_[256] = {0}; //!< heartbeat writes stay alloc-free

    mutable std::mutex mutex_; //!< guards held_ + heartbeat lifecycle
    std::condition_variable wake_;
    std::map<std::string, Held> held_; //!< lease name -> held state
    std::thread heartbeat_;
    bool stop_ = false;

    // Driver-thread-only state (never touched by the heartbeat).
    std::map<std::string, unsigned> stealObserved_;
    std::map<std::string, StealBackoff> stealBackoff_;
    DistSweepStats stats_;
};

} // namespace mask

#endif // MASK_SIM_SWEEP_DIST_HH
