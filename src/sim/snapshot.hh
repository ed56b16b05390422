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
 * Every periodic checkpoint also publishes its rendered bytes to a
 * thread-local double buffer; the fatal-signal handlers flush the last
 * complete buffer to "<path>.sig" with async-signal-safe calls, so a
 * SIGSEGV/SIGABRT mid-run loses at most one checkpoint interval. A
 * thread that never armed a buffer returns from the handler without
 * touching it.
 */

#ifndef MASK_SIM_SNAPSHOT_HH
#define MASK_SIM_SNAPSHOT_HH

#include <cstdint>
#include <functional>
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
 * Load, validate, and restore @p path into @p gpu, which must have
 * been constructed from the configuration whose fingerprint is
 * @p config_fingerprint. Throws SnapshotError on any validation or
 * decode failure (the Gpu must then be discarded, not reused).
 */
void loadSnapshotFile(const std::string &path,
                      std::uint64_t config_fingerprint, Gpu &gpu);

/**
 * Cycle recorded in the header of @p path, without restoring the
 * payload. Throws SnapshotError if the file is missing or its header
 * fails validation against @p config_fingerprint.
 */
std::uint64_t snapshotFileCycle(const std::string &path,
                                std::uint64_t config_fingerprint);

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
 *  - the newest valid snapshot among {path, path + ".sig"} is
 *    restored first (an invalid candidate is skipped with a stderr
 *    warning — and the Gpu rebuilt via @p make_gpu if the restore
 *    failed mid-payload — falling back to cycle 0 when none loads);
 *  - a checkpoint is written every intervalCycles and mirrored to the
 *    emergency buffer flushed by the fatal-signal handlers;
 *  - on success the snapshot files are deleted unless policy.keep.
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

// --- Emergency snapshots (fatal-signal flush) -------------------------

/**
 * Arm the calling thread's emergency snapshot sink for this scope: the
 * fatal-signal handlers write the last buffer published with
 * publishEmergencySnapshot() to @p path. Scopes nest; destruction
 * restores the previous state.
 */
class ScopedEmergencySnapshot
{
  public:
    explicit ScopedEmergencySnapshot(const std::string &path);
    ~ScopedEmergencySnapshot();

    ScopedEmergencySnapshot(const ScopedEmergencySnapshot &) = delete;
    ScopedEmergencySnapshot &
    operator=(const ScopedEmergencySnapshot &) = delete;

  private:
    std::string prevPath_;
    bool prevArmed_;
};

/**
 * Publish a freshly-rendered snapshot image to the calling thread's
 * double buffer. The write goes to the buffer the signal handler is
 * NOT reading, then the ready index flips atomically — a signal
 * landing mid-publish flushes the previous complete image.
 */
void publishEmergencySnapshot(const std::string &image);

/**
 * Move-publish overload for the periodic checkpoint path: the caller
 * is done with @p image, so the bytes move into the double buffer
 * instead of being copied (snapshots run to megabytes).
 */
void publishEmergencySnapshot(std::string &&image);

/**
 * Flush the calling thread's armed emergency snapshot, if any, to its
 * path with async-signal-safe calls only (open/write/close). Invoked
 * by the fatal-signal handlers in crash_repro.cc next to the repro
 * flush; safe to call from any context.
 */
void flushEmergencySnapshotFromSignal() noexcept;

} // namespace mask

#endif // MASK_SIM_SNAPSHOT_HH
