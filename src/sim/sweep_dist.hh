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
 * A lease is a file whose mtime is its heartbeat. Claiming is an
 * atomic O_CREAT|O_EXCL create; the file holds one human-readable
 * line, `<worker> <pid> <host>`, that no code parses. The holder's
 * heartbeat thread touches the file (futimens) every
 * MASK_SWEEP_DIST_HEARTBEAT_MS. One staleness rule: a lease whose
 * mtime is more than DistPolicy::stealAfterMs (ten heartbeats) old is
 * provably stale, and any worker may steal it: rename the lease aside
 * (atomic; exactly one stealer wins), unlink the tombstone, and
 * re-claim. There is no steal cap: a job that kills every worker that
 * runs it ends each of them, as in a serial sweep (DESIGN.md §10),
 * and a healthy job on preempted workers is simply stolen again.
 *
 * Completion is a durable journal entry: each worker appends outcomes
 * to its own shard (single-write O_APPEND records, sweep_io.hh), and
 * reads every shard through the same SweepJournal to learn what the
 * others finished. Double claims are legal (a slow-but-alive worker
 * may race its thief); the journal's one winner rule — the first
 * decodable Ok entry in (shard name, line number) order, else the
 * first other entry — picks the same record on every worker, and the
 * extra entries are counted, never re-merged. So every worker (or a
 * later worker started on the finished directory, which executes
 * nothing) renders byte-identical results in submission order,
 * themselves byte-identical to a single-process serial run.
 * DistCoordinator itself only handles leases; it never reads a shard.
 */

#ifndef MASK_SIM_SWEEP_DIST_HH
#define MASK_SIM_SWEEP_DIST_HH

#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>

namespace mask {

/** Distributed-sweep policy (env-driven by default; settable for
 *  tests via SweepRunner::setDistPolicy). */
struct DistPolicy
{
    std::string dir;    //!< shared directory; "" disables
    std::string worker; //!< unique worker id (shard + lease identity)
    std::uint64_t heartbeatMs = 1000;   //!< lease touch cadence
    std::uint64_t stealAfterMs = 10000; //!< lease mtime age that is stale
    std::uint64_t pollMs = 200; //!< idle wait between shard rescans

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
 *
 * The idle poll period keeps its DistPolicy default.
 */
DistPolicy distPolicyFromEnv();

/** Lease basename for @p job_key: 16 hex chars of FNV-1a 64. */
std::string distLeaseName(const std::string &job_key);

/** Counters surfaced in the per-worker "[dist]" footer. */
struct DistSweepStats
{
    std::string worker;
    std::uint64_t jobs = 0;          //!< distinct jobs in the local list
    std::uint64_t executed = 0;      //!< simulated by this worker
    std::uint64_t loadedRemote = 0;  //!< merged from shard entries
    std::uint64_t leasesClaimed = 0; //!< fresh O_EXCL claims
    std::uint64_t leasesStolen = 0;  //!< stale leases taken over
    std::uint64_t staleSeen = 0;     //!< stale-lease observations
    std::uint64_t duplicates = 0;    //!< extra Ok entries per key
    std::uint64_t tornLines = 0;     //!< torn/malformed shard lines
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

    /**
     * Take the lease for @p job_key: O_EXCL create, or steal the
     * existing lease if it is stale. True means the lease is held:
     * execute the job, then release(). False means someone else
     * holds a fresh lease (or won the steal race): skip for now.
     */
    bool tryClaim(const std::string &job_key);

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
    std::string leasePath(const std::string &lease_name) const;
    bool acquire(const std::string &lease_name);
    void heartbeatLoop();

    DistPolicy policy_;
    std::string leaseDir_;
    std::string shardDir_;
    std::string holderLine_; //!< "<worker> <pid> <host>\n"

    mutable std::mutex mutex_; //!< guards held_ + heartbeat lifecycle
    std::condition_variable wake_;
    std::map<std::string, int> held_; //!< lease name -> open fd
    std::thread heartbeat_;
    bool stop_ = false;

    DistSweepStats stats_; //!< claim-loop thread only
};

} // namespace mask

#endif // MASK_SIM_SWEEP_DIST_HH
