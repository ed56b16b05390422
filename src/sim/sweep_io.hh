/**
 * @file
 * Exact serialization for sweep results, and the resumable results
 * journal.
 *
 * The JSONL journal (and the distributed shards built on it) replays
 * completed jobs into a resumed sweep whose bench output must stay
 * byte-identical to an uninterrupted run, so a PairResult has to
 * survive a trip through bytes without perturbing a single bit.
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
 * "attempts" is always "1" (each job runs once); readers still reject
 * a value that is not an unsigned decimal fitting `unsigned`. Plus
 * optional "repro" (crash-repro path) and "worker"
 * (distributed-sweep worker id, DESIGN.md §15) fields when non-empty.
 *
 * The key fingerprints everything that determines a job's result:
 * config fingerprint, design point, bench list, sweep mode, and run
 * windows.
 *
 * SweepJournal is the one reader of these records. A serial journal
 * reads its own file; a distributed worker's journal also reads every
 * other "*.jsonl" in its directory, which holds each peer's shard.
 * One winner rule serves both: per key, the first "Ok" entry whose
 * blob decodes wins, in (file name, line number) order; a key with no
 * such entry falls back to its first non-"Ok" entry. An "Ok" entry
 * that does not decode is never the winner, so its job runs again.
 * The order is a property of the bytes, not of when a reader saw
 * them, so every reader of the same files picks the same winners.
 *
 * Crash tolerance: every record is appended with a single write() on
 * an O_APPEND descriptor, so concurrent writers (two processes
 * sharing one journal, per-worker distributed shards living in one
 * directory) never interleave bytes of different records. A process
 * killed mid-append can still leave a torn final line. Readers only
 * consume '\n'-terminated lines; the bytes after the last newline
 * wait for the next refresh(), since a live writer may finish them.
 * The owner truncates its own file back to the last complete record
 * on open (so future appends start on a clean boundary); a peer's
 * file is never truncated, since its owner may still be writing.
 * Torn or malformed lines never fail a load.
 */

#ifndef MASK_SIM_SWEEP_IO_HH
#define MASK_SIM_SWEEP_IO_HH

#include <cstddef>
#include <map>
#include <mutex>
#include <string>
#include <tuple>

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
    std::string repro;  //!< crash-repro path, if any
    PairResult result;  //!< the decoded blob of a winning Ok entry
};

/**
 * Append-only JSONL journal of per-job sweep outcomes, keyed by job
 * fingerprint, and the index of winning records read from it (and,
 * for a distributed worker, from its peers' shards). record() is
 * thread-safe; refresh(), find() and the counters belong to the one
 * thread that drives the sweep.
 */
class SweepJournal
{
  public:
    /**
     * Open @p path and read what it holds. A non-empty @p worker
     * makes it one shard of a distributed sweep: every record is
     * tagged with that id ("worker" field), and every other "*.jsonl"
     * in the same directory (the peers' shards) is read too. A torn
     * final line of @p path (writer killed mid-append) is truncated
     * away and counted, never fatal. Only open a journal this process
     * owns: the truncation repair must not race a live writer.
     */
    explicit SweepJournal(std::string path,
                          std::string worker = std::string());

    ~SweepJournal();

    /**
     * Read the complete lines appended since the last refresh to
     * every source (a peer shard created since is picked up too) and
     * update the winners. Records this process appends become
     * visible here, not at record().
     */
    void refresh();

    /** Winning entry for @p key, or null. Valid until the next
     *  refresh(). */
    const JournalEntry *find(const std::string &key) const;

    /**
     * Append one outcome as a single O_APPEND write. @p result must
     * be non-null when @p status is "Ok"; @p repro (a crash-repro
     * path) is recorded when non-empty. Malformed I/O throws
     * std::runtime_error.
     */
    void record(const std::string &key, const char *status,
                const std::string &error, const PairResult *result,
                const std::string &repro = std::string());

    /** Torn trailing lines truncated away on open (0 or 1). */
    std::size_t tornTailLines() const { return tornTail_; }

    /** Complete-but-unparsable lines skipped, over every source. */
    std::size_t malformedLines() const { return malformed_; }

    /** "Ok" entries beyond the first for their key (double claims). */
    std::size_t duplicates() const { return duplicates_; }

    /** Sources whose bytes after the last newline were still
     *  unconsumed at the last refresh: after a sweep ends, the torn
     *  tails of peers that died mid-append. */
    std::size_t partialTails() const;

    const std::string &path() const { return path_; }

  private:
    struct Source
    {
        std::string path;
        std::size_t offset = 0; //!< consumed up to here
        std::size_t lines = 0;  //!< complete lines consumed
        bool partial = false;   //!< bytes past offset at last read
    };
    struct Slot
    {
        JournalEntry entry; //!< status "" until a winner lands
        /** The winner's (not a decoded Ok, file name, line): the
         *  smallest rank wins. */
        std::tuple<bool, std::string, std::size_t> rank;
        bool okSeen = false; //!< an "Ok" entry was read
    };

    void consume(const std::string &source, std::size_t line_no,
                 const std::string &line);

    std::string path_;
    std::string worker_;
    std::string peerDir_; //!< "" unless peers are read
    std::size_t tornTail_ = 0;
    std::size_t malformed_ = 0;
    std::size_t duplicates_ = 0;
    std::mutex mutex_; //!< guards fd_ (record())
    int fd_ = -1;      //!< lazily-opened O_APPEND descriptor
    std::map<std::string, Source> sources_; //!< by file name
    std::map<std::string, Slot> slots_;     //!< by job key
};

} // namespace mask

#endif // MASK_SIM_SWEEP_IO_HH
