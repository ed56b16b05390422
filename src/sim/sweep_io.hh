/**
 * @file
 * Exact serialization for sweep results, and the resumable results
 * journal.
 *
 * Both fault-tolerance transports need a PairResult to survive a trip
 * through bytes without perturbing a single bit: the subprocess
 * isolation mode pipes results from a forked child back to the
 * parent, and the JSONL journal replays completed jobs into a resumed
 * sweep whose bench output must stay byte-identical to an
 * uninterrupted run.
 *
 * A result blob is "v4 " followed by the RFC 4648 base64 of a
 * StateCodec payload (common/state_codec.hh): a "pair" section, then
 * GpuStats::state. Doubles travel as their raw bit patterns, so
 * every value (-0.0, denormals, NaN payloads) round-trips exactly.
 * Decoding is strict: a foreign version prefix, a non-alphabet byte
 * or bad padding, and any tag, bounds, count or trailing-byte
 * mismatch caught by StateReader all throw. Host-side GpuStats fields
 * are not written, so a blob is a pure function of the simulation.
 * A simulated stat added to GpuStats goes into its state
 * description together with a prefix bump, so older
 * journal entries fail to decode and are re-simulated rather than
 * misread.
 *
 * Journal format (one JSON object per line, append-only):
 *
 *   {"key":"<job key>","status":"Ok","attempts":"1","error":"",
 *    "result":"v4 ..."}
 *
 * plus optional "repro" (harvested crash-repro path) and "worker"
 * (distributed-sweep worker id, DESIGN.md §15) fields when non-empty.
 *
 * The key fingerprints everything that determines a job's result:
 * config fingerprint, design point, bench list, sweep mode, and run
 * windows. On load, the latest "Ok" entry per key wins; failed
 * entries are kept for the record but are never resumed from, so a
 * re-run re-simulates exactly the jobs that did not complete.
 *
 * Crash tolerance: every record is appended with a single write() on
 * an O_APPEND descriptor, so concurrent writers (two processes
 * sharing one journal, per-worker distributed shards living in one
 * directory) never interleave bytes of different records. A process
 * killed mid-append can still leave a torn final line; on open the
 * journal tolerates it, truncates the file back to the last complete
 * record (so future appends start on a clean boundary), and counts
 * it in tornTailLines(). Torn or malformed lines never fail a
 * resume.
 */

#ifndef MASK_SIM_SWEEP_IO_HH
#define MASK_SIM_SWEEP_IO_HH

#include <cstddef>
#include <map>
#include <mutex>
#include <string>

#include "sim/runner.hh"

namespace mask {

/** Encode @p result as a single-line "v4 <base64>" blob (exact). */
std::string encodePairResult(const PairResult &result);

/** Inverse of encodePairResult (throws std::runtime_error). */
PairResult decodePairResult(const std::string &blob);

/** Minimal JSON string escaping for journal fields. */
std::string jsonEscape(const std::string &raw);

/**
 * Extract and unescape the string value of @p field from a
 * single-line JSON object written by this module. Returns false when
 * the field is absent or the line is malformed.
 */
bool jsonField(const std::string &line, const std::string &field,
               std::string &out);

/** One journal record. */
struct JournalEntry
{
    std::string key;
    std::string status; //!< "Ok" / "Failed" / ... / "Abandoned"
    std::string blob;   //!< encodePairResult payload (Ok only)
    std::string error;
    std::string repro;  //!< harvested crash-repro path, if any
    std::string worker; //!< distributed worker that recorded it
    unsigned attempts = 1;
};

/**
 * Parse one complete, non-empty journal line into @p entry. Returns
 * false when the line is malformed: no key or status, or an "Ok"
 * record without a result.
 */
bool parseJournalLine(const std::string &line, JournalEntry &entry);

/**
 * Append-only JSONL journal of per-job sweep outcomes, keyed by job
 * fingerprint. Thread-safe; every record is flushed as it lands so a
 * killed process loses at most the in-flight line.
 */
class SweepJournal
{
  public:
    /**
     * Open @p path, loading any entries a previous run left. A torn
     * final line (writer killed mid-append) is truncated away and
     * counted, never fatal. Only open a journal this process owns:
     * the truncation repair must not race a live writer.
     */
    explicit SweepJournal(std::string path);

    ~SweepJournal();

    /**
     * Completed result for @p key from a previous run, if any.
     * Returns true and fills @p result / @p attempts on a hit.
     */
    bool lookupOk(const std::string &key, PairResult &result,
                  unsigned &attempts) const;

    /**
     * Append one outcome as a single O_APPEND write. @p result must
     * be non-null when @p status is "Ok"; @p repro (a harvested
     * crash-repro path) is recorded when non-empty. Malformed I/O
     * throws std::runtime_error.
     */
    void record(const std::string &key, const char *status,
                unsigned attempts, const std::string &error,
                const PairResult *result,
                const std::string &repro = std::string());

    /** Distinct keys with a completed result loaded or recorded. */
    std::size_t okEntries() const;

    /**
     * Tag every future record with a worker id ("worker" field) —
     * set by the distributed executor so merged shards identify who
     * produced each entry.
     */
    void setWorkerTag(std::string worker);

    /** Torn trailing lines truncated away on open (0 or 1). */
    std::size_t tornTailLines() const { return tornTail_; }

    /** Complete-but-unparsable lines skipped on open. */
    std::size_t malformedLines() const { return malformed_; }

    const std::string &path() const { return path_; }

  private:
    std::string path_;
    std::string worker_;
    std::size_t tornTail_ = 0;
    std::size_t malformed_ = 0;
    mutable std::mutex mutex_;
    int fd_ = -1; //!< lazily-opened O_APPEND descriptor
    std::map<std::string, JournalEntry> ok_;
};

} // namespace mask

#endif // MASK_SIM_SWEEP_IO_HH
