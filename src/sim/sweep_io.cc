#include "sim/sweep_io.hh"

#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

#include <fcntl.h>
#include <unistd.h>

namespace mask {

namespace {

// ---------------------------------------------------------------------
// Token-stream encoder/decoder (exact round-trip)
// ---------------------------------------------------------------------

// v2: added the checkpoint-overhead fields (ckptWriteSeconds,
// ckptBytes, ckptWrites) to the GpuStats tail.
// v3: dropped the cycle-skip statistics (skippedCycles, skipWindows,
// skipWindowLog2); the main loop no longer fast-forwards.
constexpr const char *kBlobVersion = "v3";

struct Encoder
{
    std::string out;

    void
    u(std::uint64_t v)
    {
        char buf[24];
        std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
        out += ' ';
        out += buf;
    }

    void
    d(double v)
    {
        // %a hex floats re-read bit-exactly through strtod.
        char buf[40];
        std::snprintf(buf, sizeof(buf), "%a", v);
        out += ' ';
        out += buf;
    }

    void
    hm(const HitMiss &v)
    {
        u(v.hits);
        u(v.misses);
    }

    void
    rs(const RunningStat &v)
    {
        u(v.count);
        d(v.sum);
        d(v.minVal);
        d(v.maxVal);
    }

    template <typename Vec, typename Fn>
    void
    vec(const Vec &v, Fn &&item)
    {
        u(v.size());
        for (const auto &x : v)
            item(x);
    }
};

struct Decoder
{
    const char *p;
    const char *end;

    explicit Decoder(const std::string &blob)
        : p(blob.c_str()), end(blob.c_str() + blob.size())
    {}

    [[noreturn]] void
    fail(const char *what) const
    {
        throw std::runtime_error(
            std::string("sweep result blob: ") + what);
    }

    std::uint64_t
    u()
    {
        char *next = nullptr;
        errno = 0;
        const unsigned long long v = std::strtoull(p, &next, 10);
        if (next == p || errno != 0)
            fail("bad integer token");
        p = next;
        return v;
    }

    double
    d()
    {
        char *next = nullptr;
        errno = 0;
        const double v = std::strtod(p, &next);
        if (next == p)
            fail("bad float token");
        p = next;
        return v;
    }

    HitMiss
    hm()
    {
        HitMiss v;
        v.hits = u();
        v.misses = u();
        return v;
    }

    RunningStat
    rs()
    {
        RunningStat v;
        v.count = u();
        v.sum = d();
        v.minVal = d();
        v.maxVal = d();
        return v;
    }

    template <typename Vec, typename Fn>
    void
    vec(Vec &v, Fn &&item)
    {
        const std::uint64_t n = u();
        // Every element costs at least two bytes (" 0"); a count the
        // remaining stream cannot possibly hold is corruption, and
        // must fail cleanly here rather than as a giant reserve().
        if (n > static_cast<std::uint64_t>(end - p) / 2)
            fail("implausible vector length");
        v.clear();
        v.reserve(n);
        for (std::uint64_t i = 0; i < n; ++i)
            v.push_back(item());
    }

    void
    finish() const
    {
        const char *q = p;
        while (q != end && (*q == ' ' || *q == '\n'))
            ++q;
        if (q != end)
            fail("trailing tokens");
    }
};

void
encodeStats(Encoder &enc, const GpuStats &s)
{
    enc.u(s.cycles);
    enc.vec(s.instructions, [&](std::uint64_t v) { enc.u(v); });
    enc.vec(s.ipc, [&](double v) { enc.d(v); });
    enc.hm(s.l1Tlb);
    enc.hm(s.l2Tlb);
    enc.vec(s.l2TlbPerApp, [&](const HitMiss &v) { enc.hm(v); });
    enc.hm(s.bypassCache);
    enc.hm(s.pwCache);
    enc.hm(s.l1d);
    for (const HitMiss &v : s.l2Cache)
        enc.hm(v);
    for (const HitMiss &v : s.l2CachePerLevel)
        enc.hm(v);

    for (const std::uint64_t v : s.dram.busBusy)
        enc.u(v);
    for (const std::uint64_t v : s.dram.serviced)
        enc.u(v);
    for (const RunningStat &v : s.dram.latency)
        enc.rs(v);
    enc.u(s.dram.rowHits);
    enc.u(s.dram.rowMisses);
    enc.u(s.dram.rowConflicts);
    enc.u(s.dram.enqueueRejects);
    enc.u(s.dram.capEscalations);

    enc.u(s.walks);
    enc.rs(s.walkLatency);
    enc.rs(s.tlbMissLatency);
    enc.rs(s.concurrentWalks);
    enc.vec(s.concurrentWalksPerApp,
            [&](const RunningStat &v) { enc.rs(v); });
    enc.rs(s.warpsPerMiss);
    enc.vec(s.warpsPerMissPerApp,
            [&](const RunningStat &v) { enc.rs(v); });
    enc.rs(s.readyWarpsPerCore);

    enc.vec(s.tokens, [&](std::uint32_t v) { enc.u(v); });
    enc.u(s.l2Bypasses);
    enc.u(s.warpStallCycles);
    enc.u(s.watchdogSweeps);
    enc.u(s.watchdogMaxAgeSeen);
    enc.u(s.faultsInjected);
    enc.u(s.poolPeakLive);
    enc.u(s.poolCapacity);
    // wallSeconds is host-side accounting, explicitly outside the
    // bit-identical guarantee (gpu.hh) — encoding the measured value
    // would make isolated/journaled blobs differ run to run, so the
    // field travels as zero and keeps the blob a pure function of the
    // simulation.
    enc.d(0.0);
    enc.u(s.requests);
    // Checkpoint overhead is host-side like wallSeconds: the measured
    // values vary run to run (and are zero whenever checkpointing is
    // off), so the blob carries zeros to stay a pure function of the
    // simulation.
    enc.d(0.0);
    enc.u(0);
    enc.u(0);
}

void
decodeStats(Decoder &dec, GpuStats &s)
{
    s.cycles = dec.u();
    dec.vec(s.instructions, [&]() { return dec.u(); });
    dec.vec(s.ipc, [&]() { return dec.d(); });
    s.l1Tlb = dec.hm();
    s.l2Tlb = dec.hm();
    dec.vec(s.l2TlbPerApp, [&]() { return dec.hm(); });
    s.bypassCache = dec.hm();
    s.pwCache = dec.hm();
    s.l1d = dec.hm();
    for (HitMiss &v : s.l2Cache)
        v = dec.hm();
    for (HitMiss &v : s.l2CachePerLevel)
        v = dec.hm();

    for (std::uint64_t &v : s.dram.busBusy)
        v = dec.u();
    for (std::uint64_t &v : s.dram.serviced)
        v = dec.u();
    for (RunningStat &v : s.dram.latency)
        v = dec.rs();
    s.dram.rowHits = dec.u();
    s.dram.rowMisses = dec.u();
    s.dram.rowConflicts = dec.u();
    s.dram.enqueueRejects = dec.u();
    s.dram.capEscalations = dec.u();

    s.walks = dec.u();
    s.walkLatency = dec.rs();
    s.tlbMissLatency = dec.rs();
    s.concurrentWalks = dec.rs();
    dec.vec(s.concurrentWalksPerApp, [&]() { return dec.rs(); });
    s.warpsPerMiss = dec.rs();
    dec.vec(s.warpsPerMissPerApp, [&]() { return dec.rs(); });
    s.readyWarpsPerCore = dec.rs();

    dec.vec(s.tokens, [&]() {
        return static_cast<std::uint32_t>(dec.u());
    });
    s.l2Bypasses = dec.u();
    s.warpStallCycles = dec.u();
    s.watchdogSweeps = dec.u();
    s.watchdogMaxAgeSeen = dec.u();
    s.faultsInjected = dec.u();
    s.poolPeakLive = dec.u();
    s.poolCapacity = dec.u();
    s.wallSeconds = dec.d();
    s.requests = dec.u();
    s.ckptWriteSeconds = dec.d();
    s.ckptBytes = dec.u();
    s.ckptWrites = dec.u();
}

} // namespace

std::string
encodePairResult(const PairResult &result)
{
    Encoder enc;
    enc.out = kBlobVersion;
    enc.vec(result.sharedIpc, [&](double v) { enc.d(v); });
    enc.vec(result.aloneIpc, [&](double v) { enc.d(v); });
    enc.d(result.weightedSpeedup);
    enc.d(result.ipcThroughput);
    enc.d(result.unfairness);
    encodeStats(enc, result.stats);
    return enc.out;
}

PairResult
decodePairResult(const std::string &blob)
{
    Decoder dec(blob);
    const std::size_t ver_len = std::strlen(kBlobVersion);
    if (blob.compare(0, ver_len, kBlobVersion) != 0)
        dec.fail("unknown version");
    dec.p += ver_len;

    PairResult result;
    dec.vec(result.sharedIpc, [&]() { return dec.d(); });
    dec.vec(result.aloneIpc, [&]() { return dec.d(); });
    result.weightedSpeedup = dec.d();
    result.ipcThroughput = dec.d();
    result.unfairness = dec.d();
    decodeStats(dec, result.stats);
    dec.finish();
    return result;
}

// ---------------------------------------------------------------------
// JSONL journal
// ---------------------------------------------------------------------

std::string
jsonEscape(const std::string &raw)
{
    std::string out;
    out.reserve(raw.size());
    for (const char c : raw) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default: out += c; break;
        }
    }
    return out;
}

bool
jsonField(const std::string &line, const std::string &field,
          std::string &out)
{
    const std::string marker = "\"" + field + "\":\"";
    const std::size_t start = line.find(marker);
    if (start == std::string::npos)
        return false;
    out.clear();
    for (std::size_t i = start + marker.size(); i < line.size(); ++i) {
        const char c = line[i];
        if (c == '"')
            return true;
        if (c != '\\') {
            out += c;
            continue;
        }
        if (++i >= line.size())
            return false; // truncated escape
        switch (line[i]) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          default: return false;
        }
    }
    return false; // no closing quote (truncated line)
}

SweepJournal::SweepJournal(std::string path) : path_(std::move(path))
{
    const int fd = ::open(path_.c_str(), O_RDONLY);
    if (fd < 0)
        return; // fresh journal
    std::string data;
    char buf[1 << 16];
    for (;;) {
        const ::ssize_t n = ::read(fd, buf, sizeof(buf));
        if (n > 0) {
            data.append(buf, static_cast<std::size_t>(n));
            continue;
        }
        if (n < 0 && errno == EINTR)
            continue;
        break;
    }
    ::close(fd);

    // Parse complete ('\n'-terminated) lines only. Whatever trails
    // the final newline is a torn record from a writer killed
    // mid-append: truncate it away so the next append starts on a
    // clean line boundary instead of gluing onto the torn tail.
    std::size_t pos = 0;
    while (pos < data.size()) {
        const std::size_t nl = data.find('\n', pos);
        if (nl == std::string::npos)
            break; // torn tail, handled below
        const std::string line = data.substr(pos, nl - pos);
        pos = nl + 1;
        if (line.empty())
            continue;
        std::string key, status, result;
        if (!jsonField(line, "key", key) ||
            !jsonField(line, "status", status)) {
            ++malformed_;
            continue;
        }
        if (status != "Ok")
            continue;
        if (!jsonField(line, "result", result)) {
            ++malformed_;
            continue;
        }
        std::string attempts;
        OkEntry entry;
        entry.blob = result;
        if (jsonField(line, "attempts", attempts))
            entry.attempts = static_cast<unsigned>(
                std::strtoul(attempts.c_str(), nullptr, 10));
        ok_[key] = std::move(entry); // latest entry per key wins
    }
    if (pos < data.size()) {
        tornTail_ = 1;
        if (::truncate(path_.c_str(),
                       static_cast<::off_t>(pos)) != 0) {
            // Repair failure is survivable: appends after the torn
            // tail produce one more malformed line on the next load.
            std::fprintf(stderr,
                         "[sweep] journal %s: cannot truncate torn "
                         "tail (%zu bytes): %s\n",
                         path_.c_str(), data.size() - pos,
                         std::strerror(errno));
        } else {
            std::fprintf(stderr,
                         "[sweep] journal %s: truncated torn final "
                         "record (%zu bytes)\n",
                         path_.c_str(), data.size() - pos);
        }
    }
    if (malformed_ > 0) {
        std::fprintf(stderr,
                     "[sweep] journal %s: skipped %zu malformed "
                     "line(s)\n",
                     path_.c_str(), malformed_);
    }
}

SweepJournal::~SweepJournal()
{
    if (fd_ >= 0)
        ::close(fd_);
}

void
SweepJournal::setWorkerTag(std::string worker)
{
    const std::lock_guard<std::mutex> lock(mutex_);
    worker_ = std::move(worker);
}

bool
SweepJournal::lookupOk(const std::string &key, PairResult &result,
                       unsigned &attempts) const
{
    std::string blob;
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        const auto it = ok_.find(key);
        if (it == ok_.end())
            return false;
        blob = it->second.blob;
        attempts = it->second.attempts;
    }
    result = decodePairResult(blob);
    return true;
}

void
SweepJournal::record(const std::string &key, const char *status,
                     unsigned attempts, const std::string &error,
                     const PairResult *result,
                     const std::string &repro)
{
    std::string blob;
    if (result != nullptr)
        blob = encodePairResult(*result);

    const std::lock_guard<std::mutex> lock(mutex_);
    std::string line = "{\"key\":\"" + jsonEscape(key) +
                       "\",\"status\":\"" + status +
                       "\",\"attempts\":\"" +
                       std::to_string(attempts) + "\",\"error\":\"" +
                       jsonEscape(error) + "\"";
    if (!repro.empty())
        line += ",\"repro\":\"" + jsonEscape(repro) + "\"";
    if (!worker_.empty())
        line += ",\"worker\":\"" + jsonEscape(worker_) + "\"";
    line += ",\"result\":\"" + jsonEscape(blob) + "\"}\n";

    // One write() on an O_APPEND descriptor: concurrent writers
    // (sibling processes sharing this journal) each land a whole
    // record at the file's end; bytes of two records never
    // interleave. A crash mid-write leaves at most one torn tail,
    // which the next open truncates away.
    if (fd_ < 0) {
        fd_ = ::open(path_.c_str(),
                     O_WRONLY | O_APPEND | O_CREAT | O_CLOEXEC, 0644);
        if (fd_ < 0)
            throw std::runtime_error(
                "cannot append to sweep journal: " + path_);
    }
    ::ssize_t n;
    do {
        n = ::write(fd_, line.data(), line.size());
    } while (n < 0 && errno == EINTR);
    if (n != static_cast<::ssize_t>(line.size()))
        throw std::runtime_error("short write to sweep journal: " +
                                 path_);
    if (std::strcmp(status, "Ok") == 0) {
        OkEntry entry;
        entry.attempts = attempts;
        entry.blob = std::move(blob);
        ok_[key] = std::move(entry);
    }
}

std::size_t
SweepJournal::okEntries() const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    return ok_.size();
}

} // namespace mask
