#include "sim/snapshot.hh"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cstdio>
#include <utility>

#include <fcntl.h>
#include <unistd.h>

#include "common/env.hh"
#include "sim/gpu.hh"

namespace mask {

namespace {

constexpr const char *kMagic = "MASKSNAP";

/** Parse one full base-10 token; returns false on any stray byte. */
bool
parseU64(std::string_view tok, std::uint64_t &out)
{
    if (tok.empty() || tok.size() > 20)
        return false;
    std::uint64_t v = 0;
    for (const char c : tok) {
        if (c < '0' || c > '9')
            return false;
        const std::uint64_t digit = static_cast<std::uint64_t>(c - '0');
        if (v > (UINT64_MAX - digit) / 10)
            return false;
        v = v * 10 + digit;
    }
    out = v;
    return true;
}

/** Next space-separated token of @p line starting at @p pos. */
std::string_view
nextToken(std::string_view line, std::size_t &pos)
{
    while (pos < line.size() && line[pos] == ' ')
        ++pos;
    const std::size_t start = pos;
    while (pos < line.size() && line[pos] != ' ')
        ++pos;
    return line.substr(start, pos - start);
}

/**
 * Payload size of the last snapshot rendered on this thread: the
 * reserve hint for the next render. Periodic checkpoints of one run
 * are near-constant size, so reserving the previous size (plus a
 * small growth margin) makes serialization a single allocation.
 */
thread_local std::size_t tl_lastPayloadSize = 0;

} // namespace

std::string
renderSnapshot(std::uint64_t config_fingerprint, const Gpu &gpu)
{
    StateWriter writer;
    if (tl_lastPayloadSize != 0)
        writer.reserve(tl_lastPayloadSize + tl_lastPayloadSize / 16 +
                       4096);
    gpu.serialize(writer);
    const std::string payload = writer.take();
    tl_lastPayloadSize = payload.size();

    char header[128];
    const int len = std::snprintf(
        header, sizeof(header), "%s %llu %llu %llu %zu %llu\n", kMagic,
        static_cast<unsigned long long>(kSnapshotVersion),
        static_cast<unsigned long long>(config_fingerprint),
        static_cast<unsigned long long>(gpu.now()), payload.size(),
        static_cast<unsigned long long>(fnv1a64(payload)));

    std::string image;
    image.reserve(static_cast<std::size_t>(len) + payload.size());
    image.append(header, static_cast<std::size_t>(len));
    image.append(payload);
    return image;
}

std::uint64_t
saveSnapshotFile(const std::string &path,
                 std::uint64_t config_fingerprint, const Gpu &gpu)
{
    const std::string image = renderSnapshot(config_fingerprint, gpu);
    writeFileAtomic(path, image);
    return image.size();
}

std::string_view
validateSnapshotImage(std::string_view data,
                      std::uint64_t config_fingerprint,
                      std::uint64_t *cycle_out)
{
    constexpr std::uint64_t kNoCycle = SnapshotError::kNoCycle;

    const std::size_t nl = data.find('\n');
    if (nl == std::string_view::npos)
        throw SnapshotError("missing snapshot header line", "header",
                            kNoCycle);
    const std::string_view line = data.substr(0, nl);

    std::size_t pos = 0;
    if (nextToken(line, pos) != kMagic)
        throw SnapshotError("not a snapshot file (bad magic)",
                            "header", kNoCycle);

    std::uint64_t version = 0;
    if (!parseU64(nextToken(line, pos), version))
        throw SnapshotError("malformed version field", "header",
                            kNoCycle);
    if (version != kSnapshotVersion)
        throw SnapshotError("unsupported snapshot format version " +
                                std::to_string(version) +
                                " (this build reads version " +
                                std::to_string(kSnapshotVersion) + ")",
                            "header", kNoCycle);

    std::uint64_t fingerprint = 0;
    if (!parseU64(nextToken(line, pos), fingerprint))
        throw SnapshotError("malformed fingerprint field", "header",
                            kNoCycle);

    std::uint64_t cycle = 0;
    if (!parseU64(nextToken(line, pos), cycle))
        throw SnapshotError("malformed cycle field", "header",
                            kNoCycle);
    if (cycle_out != nullptr)
        *cycle_out = cycle;

    if (fingerprint != config_fingerprint)
        throw SnapshotError(
            "config fingerprint mismatch (snapshot " +
                std::to_string(fingerprint) + ", run " +
                std::to_string(config_fingerprint) + ")",
            "header", cycle);

    std::uint64_t length = 0;
    if (!parseU64(nextToken(line, pos), length))
        throw SnapshotError("malformed payload length", "header",
                            cycle);
    std::uint64_t checksum = 0;
    if (!parseU64(nextToken(line, pos), checksum))
        throw SnapshotError("malformed checksum field", "header",
                            cycle);
    if (pos != line.size() && nextToken(line, pos) != "")
        throw SnapshotError("trailing bytes in header", "header",
                            cycle);

    const std::string_view payload = data.substr(nl + 1);
    if (payload.size() != length)
        throw SnapshotError(
            "truncated payload (" + std::to_string(payload.size()) +
                " of " + std::to_string(length) + " bytes)",
            "payload", cycle);
    if (fnv1a64(payload) != checksum)
        throw SnapshotError("payload checksum mismatch", "payload",
                            cycle);
    return payload;
}

namespace {

std::string
readFileOrThrow(const std::string &path)
{
    std::string data;
    if (!readFile(path, data))
        throw SnapshotError("cannot read snapshot file: " + path, "file",
                            SnapshotError::kNoCycle);
    return data;
}

} // namespace

void
loadSnapshotFile(const std::string &path,
                 std::uint64_t config_fingerprint, Gpu &gpu)
{
    const std::string data = readFileOrThrow(path);
    std::uint64_t cycle = SnapshotError::kNoCycle;
    const std::string_view payload =
        validateSnapshotImage(data, config_fingerprint, &cycle);
    StateReader reader(payload, cycle);
    gpu.deserialize(reader);
}

std::uint64_t
snapshotFileCycle(const std::string &path,
                  std::uint64_t config_fingerprint)
{
    const std::string data = readFileOrThrow(path);
    std::uint64_t cycle = SnapshotError::kNoCycle;
    validateSnapshotImage(data, config_fingerprint, &cycle);
    return cycle;
}

// ---------------------------------------------------------------------
// Periodic checkpoint policy
// ---------------------------------------------------------------------

CheckpointPolicy
checkpointPolicyFromEnv()
{
    CheckpointPolicy policy;
    policy.intervalCycles = envU64("MASK_CKPT_INTERVAL_CYCLES", 0);
    policy.dir = envString("MASK_CKPT_DIR", ".");
    return policy;
}

std::string
checkpointPath(const CheckpointPolicy &policy,
               std::uint64_t config_fingerprint,
               const std::vector<std::string> &benches, Cycle warmup,
               Cycle measure)
{
    std::string name = "ckpt_";
    char fp_hex[24];
    std::snprintf(fp_hex, sizeof(fp_hex), "%016llx",
                  static_cast<unsigned long long>(config_fingerprint));
    name += fp_hex;
    for (const std::string &bench : benches) {
        name += '_';
        for (const char c : bench) {
            name += std::isalnum(static_cast<unsigned char>(c)) != 0
                        ? c
                        : '-';
        }
    }
    name += '_' + std::to_string(warmup) + '_' +
            std::to_string(measure) + ".snap";
    const std::string &dir = policy.dir.empty() ? "." : policy.dir;
    return dir + "/" + name;
}

GpuStats
runWithCheckpoints(const std::function<std::unique_ptr<Gpu>()> &make_gpu,
                   const CheckpointPolicy &policy,
                   std::uint64_t config_fingerprint,
                   const std::string &path, Cycle warmup, Cycle measure)
{
    std::unique_ptr<Gpu> gpu = make_gpu();
    if (!policy.enabled() || path.empty()) {
        gpu->run(warmup);
        gpu->resetStats();
        gpu->run(measure);
        return gpu->collect();
    }

    const std::string sig_path = path + ".sig";

    // Resume from the newest valid checkpoint: periodic snapshots and
    // the fatal-signal emergency flush are both candidates, newest
    // cycle first. Each candidate is read and header-validated once;
    // one that fails validation is skipped outright, and one that
    // fails mid-restore poisons the half-written Gpu, so the instance
    // is rebuilt before the next attempt (or the cycle-0 fallback).
    struct Candidate
    {
        std::string file;
        std::string image;
        std::size_t payloadLen = 0; //!< payload is the image's tail
        std::uint64_t cycle = 0;
    };
    std::vector<Candidate> candidates;
    for (const std::string &file : {path, sig_path}) {
        Candidate cand{file, {}};
        if (!readFile(file, cand.image))
            continue;
        try {
            cand.payloadLen =
                validateSnapshotImage(cand.image, config_fingerprint,
                                      &cand.cycle)
                    .size();
            candidates.push_back(std::move(cand));
        } catch (const SnapshotError &err) {
            std::fprintf(stderr,
                         "mask: ignoring invalid checkpoint %s: %s\n",
                         file.c_str(), err.what());
        }
    }
    std::sort(candidates.begin(), candidates.end(),
              [](const Candidate &a, const Candidate &b) {
                  return a.cycle > b.cycle;
              });
    for (const Candidate &cand : candidates) {
        try {
            StateReader reader(
                std::string_view(cand.image)
                    .substr(cand.image.size() - cand.payloadLen),
                cand.cycle);
            gpu->deserialize(reader);
            std::fprintf(stderr,
                         "mask: resumed from checkpoint %s at cycle "
                         "%llu\n",
                         cand.file.c_str(),
                         static_cast<unsigned long long>(cand.cycle));
            break;
        } catch (const SnapshotError &err) {
            std::fprintf(stderr,
                         "mask: checkpoint %s rejected (%s); falling "
                         "back\n",
                         cand.file.c_str(), err.what());
            gpu = make_gpu();
        }
    }

    gpu->setCheckpointHook(
        policy.intervalCycles, [path, config_fingerprint](Gpu &g) {
            std::string image = renderSnapshot(config_fingerprint, g);
            writeFileAtomic(path, image);
            g.noteCheckpointBytes(image.size());
            publishEmergencySnapshot(std::move(image));
        });
    const ScopedEmergencySnapshot emergency(sig_path);

    // The snapshot cookie records the runner phase: 0 while warming
    // up (stats not yet reset), 1 inside the measured window.
    if (gpu->snapshotCookie() == 0) {
        if (gpu->now() < warmup)
            gpu->run(warmup - gpu->now());
        gpu->resetStats();
        gpu->setSnapshotCookie(1);
    }
    const Cycle end = warmup + measure;
    if (gpu->now() < end)
        gpu->run(end - gpu->now());

    gpu->setCheckpointHook(0, {});
    GpuStats stats = gpu->collect();
    if (!policy.keep) {
        std::remove(path.c_str());
        std::remove(sig_path.c_str());
    }
    return stats;
}

// ---------------------------------------------------------------------
// Emergency snapshots (fatal-signal flush)
// ---------------------------------------------------------------------

namespace {

/**
 * Per-thread double buffer. publishEmergencySnapshot writes the buffer
 * the handler is NOT pointed at, then flips `ready` atomically; a
 * fatal signal landing mid-publish therefore flushes the previous
 * complete image. The handler itself only reads `armed`, `path`,
 * `ready`, and the ready buffer's bytes — all stable between publish
 * calls on this thread — and calls only open/write/close.
 */
struct EmergencySink
{
    std::string path;
    std::string buf[2];
    std::atomic<int> ready{-1};
};

thread_local EmergencySink tl_emergency;

/**
 * &tl_emergency while armed, else null. Constant-initialized and
 * trivially destructible, so the handler can read it on any thread;
 * the first touch of tl_emergency itself registers a TLS destructor
 * and may allocate, so only armed threads (whose scope already
 * touched it) ever reach it from a signal.
 */
constinit thread_local std::atomic<EmergencySink *> tl_armed_sink{nullptr};

} // namespace

ScopedEmergencySnapshot::ScopedEmergencySnapshot(const std::string &path)
    : prevArmed_(tl_armed_sink.exchange(nullptr) != nullptr)
{
    prevPath_ = std::exchange(tl_emergency.path, path);
    tl_emergency.ready.store(-1, std::memory_order_release);
    tl_armed_sink.store(&tl_emergency);
}

ScopedEmergencySnapshot::~ScopedEmergencySnapshot()
{
    tl_armed_sink.store(nullptr);
    tl_emergency.ready.store(-1, std::memory_order_release);
    tl_emergency.path = std::move(prevPath_);
    if (prevArmed_)
        tl_armed_sink.store(&tl_emergency);
}

void
publishEmergencySnapshot(const std::string &image)
{
    publishEmergencySnapshot(std::string(image));
}

void
publishEmergencySnapshot(std::string &&image)
{
    EmergencySink *sink = tl_armed_sink.load();
    if (sink == nullptr)
        return;
    const int current = sink->ready.load(std::memory_order_relaxed);
    const int next = current == 0 ? 1 : 0;
    sink->buf[next] = std::move(image);
    sink->ready.store(next, std::memory_order_release);
}

void
flushEmergencySnapshotFromSignal() noexcept
{
    const EmergencySink *sink = tl_armed_sink.load();
    if (sink == nullptr || sink->path.empty())
        return;
    const int ready = sink->ready.load(std::memory_order_acquire);
    if (ready < 0)
        return;
    const std::string &image = sink->buf[ready];
    const int fd = ::open(sink->path.c_str(),
                          O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0)
        return;
    writeAll(fd, image.data(), image.size());
    ::close(fd);
}

} // namespace mask
