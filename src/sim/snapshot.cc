#include "sim/snapshot.hh"

#include <cctype>
#include <charconv>
#include <cstdio>

#include "common/env.hh"
#include "sim/gpu.hh"

namespace mask {

namespace {

constexpr const char *kMagic = "MASKSNAP";

/**
 * Parse one full base-10 token by the envU64 rule: from_chars into an
 * unsigned type rejects a sign and leading space and reports overflow;
 * a short parse is a stray byte. Tokens past 20 bytes (the width of
 * UINT64_MAX) are rejected even when zero-padded.
 */
bool
parseU64(std::string_view tok, std::uint64_t &out)
{
    if (tok.size() > 20)
        return false;
    const char *end = tok.data() + tok.size();
    const auto [ptr, ec] = std::from_chars(tok.data(), end, out);
    return ec == std::errc() && ptr == end;
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

std::uint64_t
restoreSnapshot(std::string_view image, std::uint64_t config_fingerprint,
                Gpu &gpu)
{
    std::uint64_t cycle = SnapshotError::kNoCycle;
    StateReader reader(validateSnapshotImage(image, config_fingerprint,
                                             &cycle),
                       cycle);
    gpu.deserialize(reader);
    return cycle;
}

void
loadSnapshotFile(const std::string &path,
                 std::uint64_t config_fingerprint, Gpu &gpu)
{
    std::string data;
    if (!readFile(path, data))
        throw SnapshotError("cannot read snapshot file: " + path, "file",
                            SnapshotError::kNoCycle);
    restoreSnapshot(data, config_fingerprint, gpu);
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
stateFileName(std::string_view prefix, std::uint64_t fingerprint,
              const std::vector<std::string> &benches,
              std::initializer_list<Cycle> windows)
{
    char fp_hex[24];
    std::snprintf(fp_hex, sizeof(fp_hex), "%016llx",
                  static_cast<unsigned long long>(fingerprint));
    std::string name(prefix);
    name += '_';
    name += fp_hex;
    for (const std::string &bench : benches) {
        name += '_';
        for (const char c : bench) {
            name += std::isalnum(static_cast<unsigned char>(c)) != 0
                        ? c
                        : '-';
        }
    }
    for (const Cycle window : windows)
        name += '_' + std::to_string(window);
    return name;
}

std::string
checkpointPath(const CheckpointPolicy &policy,
               std::uint64_t config_fingerprint,
               const std::vector<std::string> &benches, Cycle warmup,
               Cycle measure)
{
    const std::string name =
        stateFileName("ckpt", config_fingerprint, benches,
                      {warmup, measure}) +
        ".snap";
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

    // Resume from the checkpoint file if one is there. A restore that
    // fails (header or payload) may have half-written the Gpu, so the
    // run starts over on a fresh instance from cycle 0.
    if (std::string image; readFile(path, image)) {
        try {
            const std::uint64_t cycle =
                restoreSnapshot(image, config_fingerprint, *gpu);
            std::fprintf(stderr,
                         "mask: resumed from checkpoint %s at cycle "
                         "%llu\n",
                         path.c_str(),
                         static_cast<unsigned long long>(cycle));
        } catch (const SnapshotError &err) {
            std::fprintf(stderr,
                         "mask: ignoring invalid checkpoint %s: %s\n",
                         path.c_str(), err.what());
            gpu = make_gpu();
        }
    }

    gpu->setCheckpointHook(
        policy.intervalCycles, [path, config_fingerprint](Gpu &g) {
            g.noteCheckpointBytes(
                saveSnapshotFile(path, config_fingerprint, g));
        });

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
    if (!policy.keep)
        std::remove(path.c_str());
    return stats;
}

} // namespace mask
