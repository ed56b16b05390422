#include "sim/sweep_dist.hh"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include "common/env.hh"
#include "common/rate_limit.hh"
#include "sim/file_io.hh"

namespace mask {

namespace {

/** Worker ids become file names and lease tokens: keep them to a
 *  conservative charset so neither role can be confused. */
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

/**
 * The fixed-size lease image: the record, space-padded to
 * kDistLeaseFileSize bytes with a final '\n', so an in-place heartbeat
 * rewrite fully overwrites the previous image and a reader never sees
 * a stale suffix of an older, longer record. Allocation-free: the
 * heartbeat thread calls it, and keeping that thread out of malloc
 * keeps fork-per-job isolation safe (no heap lock can be mid-flight
 * in the child's frozen image).
 */
void
formatLease(char (&buf)[kDistLeaseFileSize], const char *worker,
            std::uint64_t pid, const char *host,
            std::uint64_t deadline_ms, unsigned steals)
{
    const int n = std::snprintf(
        buf, sizeof(buf),
        "MASKLEASE v1 worker=%s pid=%" PRIu64 " host=%s"
        " deadline_ms=%" PRIu64 " steals=%u",
        worker, pid, host, deadline_ms, steals);
    const std::size_t len =
        std::min(n > 0 ? static_cast<std::size_t>(n) : 0,
                 sizeof(buf) - 1);
    std::memset(buf + len, ' ', sizeof(buf) - len);
    buf[sizeof(buf) - 1] = '\n';
}

/** Parse "<token>=<u64>" after @p token in @p content. */
bool
leaseU64(const std::string &content, const char *token,
         std::uint64_t &out)
{
    const std::size_t at = content.find(token);
    if (at == std::string::npos)
        return false;
    const char *p = content.c_str() + at + std::strlen(token);
    char *end = nullptr;
    errno = 0;
    out = std::strtoull(p, &end, 10);
    return end != p && errno == 0;
}

bool
leaseStr(const std::string &content, const char *token,
         std::string &out)
{
    const std::size_t at = content.find(token);
    if (at == std::string::npos)
        return false;
    const std::size_t start = at + std::strlen(token);
    std::size_t end = start;
    while (end < content.size() && content[end] != ' ' &&
           content[end] != '\n')
        ++end;
    out = content.substr(start, end - start);
    return !out.empty();
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

std::uint64_t
distEpochMs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::system_clock::now().time_since_epoch())
            .count());
}

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
    // Each refresh pushes the deadline ten heartbeats out, so
    // scheduling jitter never reads as worker death.
    policy.stealAfterMs = 10 * policy.heartbeatMs;
    policy.mergeOnly = envFlag("MASK_SWEEP_DIST_MERGE");
    return policy;
}

std::string
encodeLease(const DistLease &lease)
{
    char buf[kDistLeaseFileSize];
    formatLease(buf, lease.worker.c_str(), lease.pid, lease.host.c_str(),
                lease.deadlineMs, lease.steals);
    return std::string(buf, sizeof(buf));
}

bool
decodeLease(const std::string &content, DistLease &out)
{
    if (content.compare(0, 13, "MASKLEASE v1 ") != 0)
        return false;
    std::uint64_t pid = 0, deadline = 0, steals = 0;
    if (!leaseStr(content, "worker=", out.worker) ||
        !leaseU64(content, "pid=", pid) ||
        !leaseStr(content, "host=", out.host) ||
        !leaseU64(content, "deadline_ms=", deadline) ||
        !leaseU64(content, "steals=", steals))
        return false;
    out.pid = pid;
    out.deadlineMs = deadline;
    out.steals = static_cast<unsigned>(steals);
    return true;
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
    const std::string host = hostName();
    std::snprintf(hostBuf_, sizeof(hostBuf_), "%s", host.c_str());
}

DistCoordinator::~DistCoordinator()
{
    std::vector<std::string> leftover;
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
        for (auto &held : held_) {
            if (held.second.fd >= 0)
                ::close(held.second.fd);
            leftover.push_back(held.second.path);
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

void
DistCoordinator::writeLeaseLocked(Held &held, std::uint64_t now_ms)
{
    // Allocation-free: this also runs on the heartbeat thread.
    char buf[kDistLeaseFileSize];
    formatLease(buf, policy_.worker.c_str(),
                static_cast<std::uint64_t>(::getpid()), hostBuf_,
                now_ms + policy_.stealAfterMs, held.steals);
    ::ssize_t wrote;
    do {
        wrote = ::pwrite(held.fd, buf, sizeof(buf), 0);
    } while (wrote < 0 && errno == EINTR);
    // A failed heartbeat write is survivable: the lease goes stale
    // and the job gets stolen — wasted work, never lost work.
}

void
DistCoordinator::startHeartbeatLocked()
{
    if (heartbeat_.joinable())
        return;
    heartbeat_ = std::thread([this] { heartbeatLoop(); });
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
        const std::uint64_t now = distEpochMs();
        for (auto &held : held_)
            writeLeaseLocked(held.second, now);
    }
}

DistCoordinator::Claim
DistCoordinator::tryClaim(const std::string &job_key,
                          unsigned *steals_out)
{
    const std::string name = distLeaseName(job_key);
    const std::string path = leasePath(name);
    if (steals_out != nullptr)
        *steals_out = 0;

    unsigned inherited = 0;
    {
        const auto it = stealObserved_.find(name);
        if (it != stealObserved_.end())
            inherited = it->second;
    }

    const auto acquire = [&](unsigned steals) -> Claim {
        const int fd = ::open(path.c_str(),
                              O_CREAT | O_EXCL | O_WRONLY | O_CLOEXEC,
                              0644);
        if (fd < 0)
            return Claim::Busy; // raced: someone else owns it now
        const std::lock_guard<std::mutex> lock(mutex_);
        Held &held = held_[name];
        held.fd = fd;
        held.steals = steals;
        std::snprintf(held.path, sizeof(held.path), "%s",
                      path.c_str());
        writeLeaseLocked(held, distEpochMs());
        startHeartbeatLocked();
        if (steals_out != nullptr)
            *steals_out = steals;
        return Claim::Acquired;
    };

    if (acquire(inherited) == Claim::Acquired) {
        ++stats_.leasesClaimed;
        return Claim::Acquired;
    }

    // The lease exists. Stale means its holder missed the whole
    // steal-after window: the content deadline passed, or the content
    // is torn/corrupt and the file has not been touched either.
    struct ::stat st = {};
    if (::stat(path.c_str(), &st) != 0)
        return Claim::Busy; // released between open and stat
    std::string content;
    DistLease lease;
    bool parsed = false;
    if (readFile(path, content))
        parsed = decodeLease(content, lease);
    const std::uint64_t now = distEpochMs();
    bool stale;
    unsigned steals;
    if (parsed) {
        stale = now > lease.deadlineMs;
        steals = std::max(inherited, lease.steals);
    } else {
        const std::uint64_t mtime_ms =
            static_cast<std::uint64_t>(st.st_mtime) * 1000;
        stale = mtime_ms + policy_.stealAfterMs < now;
        steals = inherited;
    }
    if (!stale)
        return Claim::Busy;

    ++stats_.staleSeen;
    stealObserved_[name] = steals;
    if (steals >= policy_.maxSteals) {
        if (steals_out != nullptr)
            *steals_out = steals;
        return Claim::Abandoned;
    }

    // Capped exponential backoff between steal attempts on the same
    // job: a job that keeps killing its workers should not be
    // hammered in a tight loop.
    StealBackoff &backoff = stealBackoff_[name];
    if (now < backoff.notBeforeMs) {
        ++stats_.stealRetries;
        return Claim::Busy;
    }
    const std::uint64_t delay = std::min<std::uint64_t>(
        policy_.stealAfterMs,
        policy_.pollMs << std::min(backoff.attempts, 10u));
    ++backoff.attempts;
    backoff.notBeforeMs = now + delay;

    // Steal: rename the stale lease aside. rename() is atomic, so
    // exactly one concurrent stealer wins; the losers see ENOENT and
    // retry against whatever the winner installs.
    const std::string tomb = path + ".steal." + policy_.worker + "." +
                             std::to_string(::getpid());
    if (::rename(path.c_str(), tomb.c_str()) != 0)
        return Claim::Busy;
    ::unlink(tomb.c_str());
    stealObserved_[name] = steals + 1;
    if (acquire(steals + 1) != Claim::Acquired)
        return Claim::Busy; // an interloper re-claimed first
    ++stats_.leasesStolen;
    if (const std::uint64_t n = stealWarns().tick()) {
        std::fprintf(stderr,
                     "[dist] worker %s stole stale lease %s (holder "
                     "%s pid %" PRIu64 ", steals now %u; occurrence "
                     "%" PRIu64 "%s)\n",
                     policy_.worker.c_str(), name.c_str(),
                     parsed ? lease.worker.c_str() : "<torn>",
                     parsed ? lease.pid : 0, steals + 1, n,
                     stealWarns().suppressNote());
    }
    return Claim::Acquired;
}

void
DistCoordinator::release(const std::string &job_key)
{
    const std::string name = distLeaseName(job_key);
    int fd = -1;
    char path[sizeof(Held::path)] = {0};
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        const auto it = held_.find(name);
        if (it == held_.end())
            return;
        fd = it->second.fd;
        std::memcpy(path, it->second.path, sizeof(path));
        held_.erase(it);
    }
    if (fd >= 0)
        ::close(fd);
    ::unlink(path);
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
