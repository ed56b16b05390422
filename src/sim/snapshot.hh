/**
 * @file
 * Deterministic checkpoint/restore of full GPU state (DESIGN.md §11).
 *
 * A snapshot file is one text header line followed by the binary
 * StateWriter payload (varints, raw little-endian doubles, tagged
 * sections; see common/state_codec.hh):
 *
 *   MASKSNAP <version> <configFingerprint> <cycle> <payloadLen> <fnv1a>
 *   <payload bytes>
 *
 * The header stays text so `head -1` identifies a snapshot. The loader
 * is strict: the magic, format version, configuration fingerprint,
 * payload length, and FNV-1a checksum must all match before a single
 * payload byte is decoded, and the payload itself is decoded by the
 * bounds-checked StateReader — so a truncated,
 * bit-flipped, stale-version, or wrong-config snapshot is rejected
 * with a structured SnapshotError (never UB; the corruption tests run
 * under ASan/UBSan).
 *
 * Periodic checkpointing is driven by two environment knobs:
 *
 *   MASK_CKPT_INTERVAL_CYCLES  checkpoint every N simulated cycles
 *                              (0 / unset = disabled)
 *   MASK_CKPT_DIR              directory for snapshot files
 *                              (default ".")
 *
 * Snapshots are deleted once a run succeeds, unless code sets
 * CheckpointPolicy::keep.
 *
 * The checkpoint file is the one resume image. Each checkpoint is
 * renamed into place whole, so a run killed by any signal (SIGKILL or
 * a fatal SIGSEGV/SIGABRT alike) loses at most one checkpoint interval
 * and resumes from that file.
 */

#ifndef MASK_SIM_SNAPSHOT_HH
#define MASK_SIM_SNAPSHOT_HH

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/state_codec.hh"
#include "common/types.hh"
#include "sim/file_io.hh"

namespace mask {

class Gpu;
struct GpuStats;

/** Snapshot file format version (bump on any payload layout change).
 *  2: the "skip" section (cycle-skip loop state) was removed.
 *  3: binary payload (varints, raw doubles) replaced text tokens. */
constexpr std::uint64_t kSnapshotVersion = 3;

/** Render the complete snapshot file image for @p gpu. */
std::string renderSnapshot(std::uint64_t config_fingerprint,
                           const Gpu &gpu);

/**
 * Serialize @p gpu and atomically write it to @p path (tmp + rename,
 * so a crash mid-write never leaves a half-snapshot under the real
 * name). Returns the file size in bytes; throws std::runtime_error on
 * I/O failure.
 */
std::uint64_t saveSnapshotFile(const std::string &path,
                               std::uint64_t config_fingerprint,
                               const Gpu &gpu);

/**
 * Validate the header of the snapshot image in @p data against
 * @p config_fingerprint and return the payload view. Throws
 * SnapshotError naming the failing check (magic, version,
 * fingerprint, truncation, checksum).
 */
std::string_view validateSnapshotImage(
    std::string_view data, std::uint64_t config_fingerprint,
    std::uint64_t *cycle_out = nullptr);

/**
 * Validate @p image against @p config_fingerprint and restore its
 * payload into @p gpu, which must have been constructed from that
 * configuration; returns the restored cycle. Every snapshot restore
 * goes through here. Throws SnapshotError on any validation or decode
 * failure (the Gpu may then be half-written and must be discarded).
 */
std::uint64_t restoreSnapshot(std::string_view image,
                              std::uint64_t config_fingerprint, Gpu &gpu);

/** Read @p path and restoreSnapshot() it into @p gpu (a missing or
 *  unreadable file is a SnapshotError with field "file"). */
void loadSnapshotFile(const std::string &path,
                      std::uint64_t config_fingerprint, Gpu &gpu);

// --- Periodic checkpoint policy (MASK_CKPT_* knobs) ------------------

struct CheckpointPolicy
{
    Cycle intervalCycles = 0; //!< 0 = checkpointing disabled
    std::string dir = ".";    //!< directory for snapshot files
    bool keep = false;        //!< keep snapshots after success (code only)

    bool enabled() const { return intervalCycles != 0; }
};

/** Policy from MASK_CKPT_INTERVAL_CYCLES / MASK_CKPT_DIR (throws
 *  ConfigError on a malformed interval). */
CheckpointPolicy checkpointPolicyFromEnv();

/**
 * Basename of a per-job state file: "<prefix>_<fingerprint as 16 hex
 * digits>", then "_<bench>" per bench with every non-alphanumeric
 * byte mapped to '-', then "_<window>" per window. Filename-safe by
 * construction; checkpoint paths and warm-state keys are built here.
 */
std::string stateFileName(std::string_view prefix,
                          std::uint64_t fingerprint,
                          const std::vector<std::string> &benches,
                          std::initializer_list<Cycle> windows);

/**
 * Deterministic per-job snapshot path: the same (config, workload,
 * windows) job always maps to the same file, so a re-run after a kill
 * finds the checkpoints its previous incarnation wrote.
 */
std::string checkpointPath(const CheckpointPolicy &policy,
                           std::uint64_t config_fingerprint,
                           const std::vector<std::string> &benches,
                           Cycle warmup, Cycle measure);

/**
 * Run warmup + measure windows on a Gpu built by @p make_gpu, with
 * checkpoint/resume under @p policy, and return collect(). With
 * checkpointing disabled this is exactly run(warmup); resetStats();
 * run(measure). When enabled:
 *
 *  - @p path, if present, is read once and restored first; an invalid
 *    one is skipped with a stderr warning, the Gpu is rebuilt via
 *    @p make_gpu, and the run starts from cycle 0;
 *  - a checkpoint is written to @p path every intervalCycles;
 *  - on success the snapshot file is deleted unless policy.keep.
 *
 * Simulated results are bit-identical with checkpointing on, off, or
 * resumed mid-run — checkpoints only observe state, never change it.
 */
GpuStats
runWithCheckpoints(const std::function<std::unique_ptr<Gpu>()> &make_gpu,
                   const CheckpointPolicy &policy,
                   std::uint64_t config_fingerprint,
                   const std::string &path, Cycle warmup,
                   Cycle measure);

} // namespace mask

#endif // MASK_SIM_SNAPSHOT_HH
