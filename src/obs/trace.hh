/**
 * @file
 * Bounded ring-buffer event tracer emitting Chrome trace-event /
 * Perfetto-compatible JSON (DESIGN.md §13).
 *
 * Output is the JSON-object trace format: {"otherData":{...},
 * "traceEvents":[...]} with one event per line, loadable by
 * chrome://tracing, Perfetto and `python3 -m json.tool`. Timestamps
 * are GPU cycles (1 ts unit = 1 cycle), never wall-clock, so traces
 * are deterministic. Duration events use the "X" complete phase
 * emitted at completion time — the begin cycle (walk start, DRAM
 * enqueue) is part of the simulated machine state, so an event whose
 * span crosses a snapshot boundary appears exactly once, in the
 * resumed process, with its full duration.
 *
 * Events buffer in a bounded ring and flush to the file when the ring
 * fills; close() (or destruction) writes the closing bracket so the
 * file is always valid JSON.
 */

#ifndef MASK_OBS_TRACE_HH
#define MASK_OBS_TRACE_HH

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <initializer_list>
#include <string>
#include <vector>

namespace mask {
namespace obs {

/** Event categories selectable via MASK_TRACE_CATS. Bit values must
 *  match parseCatsSpec() in registry.cc. */
enum class TraceCat : std::uint32_t
{
    kTlb = 1u << 0,       //!< token adjustments
    kWalk = 1u << 1,      //!< page-walk durations, bypass flips
    kDram = 1u << 2,      //!< DRAM request durations
    kQuota = 1u << 3,     //!< epoch boundaries, Eq. 1 quota state
    kShootdown = 1u << 4, //!< TLB shootdowns
};

const char *traceCatName(TraceCat c);

/** Event ring size of the Gpu's tracer. */
constexpr std::size_t kTraceRingEvents = 4096;

/** One numeric event argument; keys must be string literals (stored
 *  by pointer in the ring). */
struct TraceArg
{
    const char *key;
    std::int64_t value;
};

/** Chrome trace-event writer with a flush-on-full event ring. */
class TraceWriter
{
  public:
    /**
     * Open @p path, write the preamble, and accept events whose
     * category bit is set in @p cat_mask. On open failure the writer
     * disables itself with a warning on stderr.
     */
    TraceWriter(std::string path, std::uint32_t cat_mask,
                std::size_t ring_events);
    ~TraceWriter();

    TraceWriter(const TraceWriter &) = delete;
    TraceWriter &operator=(const TraceWriter &) = delete;

    /** Cheap pre-filter so call sites can skip argument gathering. */
    bool wants(TraceCat c) const
    {
        return file_ != nullptr &&
               (catMask_ & static_cast<std::uint32_t>(c)) != 0;
    }

    /**
     * Duration ("X") event covering [ts, ts + dur) cycles. @p name
     * must be a string literal; @p tid groups events into tracks
     * (app id + 1 for per-app events, 0 for global).
     */
    void complete(TraceCat c, const char *name, std::uint32_t tid,
                  std::uint64_t ts, std::uint64_t dur,
                  std::initializer_list<TraceArg> args);

    /** Instant ("i") event at cycle @p ts. */
    void instant(TraceCat c, const char *name, std::uint32_t tid,
                 std::uint64_t ts,
                 std::initializer_list<TraceArg> args);

    /** Write buffered events to the file. */
    void flush();

    /** Flush and write the closing bracket; further events are
     *  dropped. Idempotent; also run by the destructor. */
    void close();

    std::uint64_t eventsRecorded() const { return eventsRecorded_; }
    bool ok() const { return file_ != nullptr; }

  private:
    static constexpr std::size_t kMaxArgs = 4;

    struct Event
    {
        const char *name;
        TraceCat cat;
        char phase;
        std::uint32_t tid;
        std::uint64_t ts;
        std::uint64_t dur;
        std::uint32_t nargs;
        TraceArg args[kMaxArgs];
    };

    void push(TraceCat c, const char *name, char phase,
              std::uint32_t tid, std::uint64_t ts, std::uint64_t dur,
              std::initializer_list<TraceArg> args);

    std::string path_;
    std::uint32_t catMask_;
    std::size_t ringEvents_;
    std::FILE *file_ = nullptr;
    std::vector<Event> ring_;
    bool anyWritten_ = false;
    bool closed_ = false;
    std::uint64_t eventsRecorded_ = 0;
};

} // namespace obs
} // namespace mask

#endif // MASK_OBS_TRACE_HH
