#include "sim/sweep_dist.hh"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <stdexcept>
#include <vector>

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include "common/env.hh"
#include "common/rate_limit.hh"
#include "common/file_io.hh"

namespace mask {

namespace {

/** Worker ids become shard file names and the holder line of a
 *  lease: keep them to a conservative charset. */
std::string
sanitizeWorkerId(const std::string &raw)
{
    std::string out;
    out.reserve(raw.size());
    for (const char c : raw) {
        const bool ok = (c >= 'a' && c <= 'z') ||
                        (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '.' ||
                        c == '_' || c == '-';
        out += ok ? c : '_';
    }
    return out.empty() ? std::string("worker") : out;
}

std::string
hostName()
{
    char buf[256] = {0};
    if (::gethostname(buf, sizeof(buf) - 1) != 0)
        return "unknown-host";
    return sanitizeWorkerId(buf);
}

void
makeDir(const std::string &path)
{
    if (::mkdir(path.c_str(), 0755) != 0 && errno != EEXIST)
        throw std::runtime_error("cannot create sweep dist dir: " +
                                 path + ": " + std::strerror(errno));
}

/** The one staleness rule: the lease file at @p path was last
 *  touched more than @p steal_after_ms ago. */
bool
leaseIsStale(const std::string &path, std::uint64_t steal_after_ms)
{
    struct ::stat st = {};
    if (::stat(path.c_str(), &st) != 0)
        return false; // released since the claim attempt
    struct ::timespec now = {};
    ::clock_gettime(CLOCK_REALTIME, &now);
    const std::int64_t age_ns =
        (static_cast<std::int64_t>(now.tv_sec) - st.st_mtim.tv_sec) *
            1000000000 +
        (now.tv_nsec - st.st_mtim.tv_nsec);
    return age_ns > static_cast<std::int64_t>(steal_after_ms) * 1000000;
}

WarnRateLimiter &
stealWarns()
{
    static WarnRateLimiter limiter(8);
    return limiter;
}

WarnRateLimiter &
waitWarns()
{
    static WarnRateLimiter limiter(64);
    return limiter;
}

} // namespace

DistPolicy
distPolicyFromEnv()
{
    DistPolicy policy;
    policy.dir = envString("MASK_SWEEP_DIST_DIR");
    if (policy.dir.empty())
        return policy;
    const std::string worker = envString("MASK_SWEEP_DIST_WORKER");
    policy.worker = !worker.empty()
                        ? sanitizeWorkerId(worker)
                        : hostName() + "-" + std::to_string(::getpid());
    policy.heartbeatMs = std::max<std::uint64_t>(
        10, envU64("MASK_SWEEP_DIST_HEARTBEAT_MS", 1000));
    // A lease goes stale only after ten missed heartbeats, so
    // scheduling jitter never reads as worker death.
    policy.stealAfterMs = 10 * policy.heartbeatMs;
    return policy;
}

std::string
distLeaseName(const std::string &job_key)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, fnv1a64(job_key));
    return std::string(buf) + ".lease";
}

// ---------------------------------------------------------------------
// DistCoordinator
// ---------------------------------------------------------------------

DistCoordinator::DistCoordinator(DistPolicy policy)
    : policy_(std::move(policy))
{
    if (!policy_.enabled())
        throw std::logic_error(
            "DistCoordinator requires a non-empty dist dir");
    makeDir(policy_.dir);
    leaseDir_ = policy_.dir + "/leases";
    shardDir_ = policy_.dir + "/shards";
    makeDir(leaseDir_);
    makeDir(shardDir_);
    stats_.worker = policy_.worker;
    holderLine_ = policy_.worker + " " + std::to_string(::getpid()) +
                  " " + hostName() + "\n";
}

DistCoordinator::~DistCoordinator()
{
    std::vector<std::string> leftover;
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
        for (const auto &[name, fd] : held_) {
            ::close(fd);
            leftover.push_back(leasePath(name));
        }
        held_.clear();
    }
    wake_.notify_all();
    if (heartbeat_.joinable())
        heartbeat_.join();
    // Leases still held at teardown (abnormal exit paths) are dropped
    // so peers need not wait out the staleness window.
    for (const std::string &path : leftover)
        ::unlink(path.c_str());
}

std::string
DistCoordinator::shardPath() const
{
    return shardDir_ + "/" + policy_.worker + ".jsonl";
}

std::string
DistCoordinator::leasePath(const std::string &lease_name) const
{
    return leaseDir_ + "/" + lease_name;
}

bool
DistCoordinator::acquire(const std::string &lease_name)
{
    const int fd = ::open(leasePath(lease_name).c_str(),
                          O_CREAT | O_EXCL | O_WRONLY | O_CLOEXEC, 0644);
    if (fd < 0)
        return false; // someone else holds it
    // Who holds the lease, for a human reading the directory.
    [[maybe_unused]] const ::ssize_t wrote =
        ::write(fd, holderLine_.data(), holderLine_.size());
    const std::lock_guard<std::mutex> lock(mutex_);
    held_[lease_name] = fd;
    if (!heartbeat_.joinable())
        heartbeat_ = std::thread([this] { heartbeatLoop(); });
    return true;
}

void
DistCoordinator::heartbeatLoop()
{
    std::unique_lock<std::mutex> lock(mutex_);
    while (!stop_) {
        wake_.wait_for(lock,
                       std::chrono::milliseconds(policy_.heartbeatMs));
        if (stop_)
            break;
        // A failed touch is survivable: the lease goes stale and the
        // job gets stolen — wasted work, never lost work.
        for (const auto &held : held_)
            ::futimens(held.second, nullptr);
    }
}

bool
DistCoordinator::tryClaim(const std::string &job_key)
{
    const std::string name = distLeaseName(job_key);
    if (acquire(name)) {
        ++stats_.leasesClaimed;
        return true;
    }
    const std::string path = leasePath(name);
    if (!leaseIsStale(path, policy_.stealAfterMs))
        return false;
    ++stats_.staleSeen;

    // Steal: rename the stale lease aside. rename() is atomic, so
    // exactly one concurrent stealer wins; the losers see ENOENT and
    // retry against whatever the winner installs.
    const std::string tomb = path + ".steal." + policy_.worker + "." +
                             std::to_string(::getpid());
    if (::rename(path.c_str(), tomb.c_str()) != 0)
        return false;
    std::string holder;
    readFile(tomb, holder);
    ::unlink(tomb.c_str());
    if (!acquire(name))
        return false; // an interloper re-claimed first
    ++stats_.leasesStolen;
    if (const std::uint64_t n = stealWarns().tick()) {
        holder.erase(std::min(holder.find('\n'), holder.size()));
        std::fprintf(stderr,
                     "[dist] worker %s stole stale lease %s (holder: "
                     "%s; occurrence %" PRIu64 "%s)\n",
                     policy_.worker.c_str(), name.c_str(),
                     holder.empty() ? "unknown" : holder.c_str(), n,
                     stealWarns().suppressNote());
    }
    return true;
}

void
DistCoordinator::release(const std::string &job_key)
{
    const std::string name = distLeaseName(job_key);
    int fd = -1;
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        const auto it = held_.find(name);
        if (it == held_.end())
            return;
        fd = it->second;
        held_.erase(it);
    }
    ::close(fd);
    ::unlink(leasePath(name).c_str());
}

void
DistCoordinator::noteWaiting(std::size_t pending_jobs)
{
    ++stats_.waitPolls;
    if (const std::uint64_t n = waitWarns().tick()) {
        std::fprintf(stderr,
                     "[dist] worker %s waiting on %zu job(s) held by "
                     "other workers (poll %" PRIu64 "%s)\n",
                     policy_.worker.c_str(), pending_jobs, n,
                     waitWarns().suppressNote());
    }
}

} // namespace mask
