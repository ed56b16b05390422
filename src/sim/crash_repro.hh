/**
 * @file
 * Deterministic crash-replay records.
 *
 * When a SimInvariantError trips inside a shared or alone run
 * (sim/runner.hh), the runner serializes everything needed to
 * re-execute to the failure — the architecture preset, design point,
 * workload names, an alone run's core count, RNG seeds, run windows,
 * and the hardening (watchdog + fault injection) knobs — to a small
 * key/value repro file, with the fingerprint of the exact config that
 * ran. Each run has its own file, named by the run (reproPath), so the
 * failures of one sweep never overwrite each other. `replayRepro` (and
 * the `crash_replay` binary's `--replay <file>` flag) re-runs that
 * configuration and reports whether the failure reproduces at the
 * recorded cycle.
 *
 * Hard crashes are covered too: fatal-signal handlers
 * (SIGSEGV/SIGABRT/SIGBUS/SIGFPE) flush a pre-rendered repro for the
 * run the faulting thread had armed (ScopedSignalRepro) before
 * re-raising the signal, so a segfault loses neither the repro nor
 * the original kill signal. The crash still ends the process; a
 * journaled sweep resumes from its completed jobs (DESIGN.md §10).
 */

#ifndef MASK_SIM_CRASH_REPRO_HH
#define MASK_SIM_CRASH_REPRO_HH

#include <string>
#include <vector>

#include "common/check.hh"
#include "common/config.hh"

namespace mask {

/** Everything needed to re-run a crashed evaluation. */
struct CrashRepro
{
    std::string arch = "maxwell";     //!< preset name (archByName)
    std::string design = "SharedTLB"; //!< designPointName
    std::vector<std::string> benches;
    std::uint64_t seed = 1;
    Cycle warmup = 0;
    Cycle measure = 0;
    /** An alone run's core count (aloneConfig); 0 = a shared run on
     *  the preset's own cores (and every file from older writers). */
    std::uint32_t cores = 0;
    HardenConfig harden;
    /** configFingerprint of the run's config; 0 = not recorded (files
     *  from older writers). replayRepro refuses a mismatch. */
    std::uint64_t fingerprint = 0;

    // Failure snapshot.
    Cycle failCycle = 0;
    std::string module;
    std::string detail;
};

/** Repro path of the run named @p run_name:
 *  <MASK_REPRO_DIR>/<run_name>.repro, MASK_REPRO_DIR defaulting to
 *  "." (created if missing). */
std::string reproPath(const std::string &run_name);

/** Render @p repro to its key/value file format. */
std::string formatRepro(const CrashRepro &repro);

/** Serialize @p repro to @p path (throws std::runtime_error on I/O). */
void writeRepro(const std::string &path, const CrashRepro &repro);

/** Parse a repro file (throws std::runtime_error on a malformed file). */
CrashRepro loadRepro(const std::string &path);

/** Repro record for a run that has not failed (yet): the signal
 *  handler, or the runner on a tripped invariant, fills the failure
 *  fields. A nonzero @p cores records an alone run of benches[0] on
 *  aloneConfig(arch, point, cores). */
CrashRepro makeRepro(const GpuConfig &arch, DesignPoint point,
                     const std::vector<std::string> &benches,
                     Cycle warmup, Cycle measure,
                     std::uint32_t cores = 0);

/**
 * Install process-wide SIGSEGV/SIGABRT/SIGBUS/SIGFPE handlers that
 * write the faulting thread's armed repro (see ScopedSignalRepro)
 * and then re-raise with the default disposition, preserving the
 * kill signal and core dump. Idempotent.
 */
void installFatalSignalHandlers();

/**
 * Arm the calling thread's fatal-signal repro for this scope: a hard
 * crash while armed writes @p repro (module/detail overridden with
 * the signal name) to @p path. Scopes nest; the previous armed state
 * is restored on destruction. Also installs the handlers on first
 * use.
 */
class ScopedSignalRepro
{
  public:
    ScopedSignalRepro(const CrashRepro &repro, const std::string &path);
    ~ScopedSignalRepro();

    ScopedSignalRepro(const ScopedSignalRepro &) = delete;
    ScopedSignalRepro &operator=(const ScopedSignalRepro &) = delete;

  private:
    std::string prevPath_;
    std::string prevContent_;
    bool prevArmed_;
};

} // namespace mask

#endif // MASK_SIM_CRASH_REPRO_HH
