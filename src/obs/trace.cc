#include "obs/trace.hh"

#include <cinttypes>

#include "common/file_io.hh"

namespace mask {
namespace obs {

const char *
traceCatName(TraceCat c)
{
    switch (c) {
    case TraceCat::kTlb:
        return "tlb";
    case TraceCat::kWalk:
        return "walk";
    case TraceCat::kDram:
        return "dram";
    case TraceCat::kQuota:
        return "quota";
    case TraceCat::kShootdown:
        return "shootdown";
    }
    return "?";
}

TraceWriter::TraceWriter(std::string path, std::uint32_t cat_mask,
                         std::size_t ring_events)
    : path_(std::move(path)),
      tmpPath_(uniqueTmpPath(path_)),
      catMask_(cat_mask),
      ringEvents_(ring_events == 0 ? 1 : ring_events)
{
    file_ = std::fopen(tmpPath_.c_str(), "w");
    if (file_ == nullptr) {
        std::fprintf(stderr,
                     "warning: trace: cannot open %s; "
                     "tracing disabled\n",
                     tmpPath_.c_str());
        return;
    }
    // 1 ts unit = 1 GPU cycle; displayTimeUnit keeps chrome://tracing
    // from assuming microseconds mean anything wall-clock here.
    std::fputs("{\"otherData\":{\"schema\":\"mask-trace\","
               "\"version\":1,\"clock\":\"gpu-cycle\"},"
               "\"displayTimeUnit\":\"ns\",\n"
               "\"traceEvents\":[\n",
               file_);
    ring_.reserve(ringEvents_);
}

TraceWriter::~TraceWriter()
{
    close();
}

void
TraceWriter::complete(TraceCat c, const char *name, std::uint32_t tid,
                      std::uint64_t ts, std::uint64_t dur,
                      std::initializer_list<TraceArg> args)
{
    push(c, name, 'X', tid, ts, dur, args);
}

void
TraceWriter::instant(TraceCat c, const char *name, std::uint32_t tid,
                     std::uint64_t ts,
                     std::initializer_list<TraceArg> args)
{
    push(c, name, 'i', tid, ts, 0, args);
}

void
TraceWriter::push(TraceCat c, const char *name, char phase,
                  std::uint32_t tid, std::uint64_t ts,
                  std::uint64_t dur,
                  std::initializer_list<TraceArg> args)
{
    if (!wants(c) || closed_)
        return;
    Event e;
    e.name = name;
    e.cat = c;
    e.phase = phase;
    e.tid = tid;
    e.ts = ts;
    e.dur = dur;
    e.nargs = 0;
    for (const TraceArg &a : args) {
        if (e.nargs == kMaxArgs)
            break;
        e.args[e.nargs++] = a;
    }
    ring_.push_back(e);
    ++eventsRecorded_;
    if (ring_.size() >= ringEvents_)
        flush();
}

void
TraceWriter::flush()
{
    if (file_ == nullptr || closed_) {
        ring_.clear();
        return;
    }
    std::string out;
    for (const Event &e : ring_) {
        if (anyWritten_)
            out += ",\n";
        anyWritten_ = true;
        out += "{\"name\":\"";
        out += e.name;
        out += "\",\"cat\":\"";
        out += traceCatName(e.cat);
        out += "\",\"ph\":\"";
        out += e.phase;
        out += "\",\"pid\":1,\"tid\":" + std::to_string(e.tid);
        out += ",\"ts\":" + std::to_string(e.ts);
        if (e.phase == 'X')
            out += ",\"dur\":" + std::to_string(e.dur);
        else if (e.phase == 'i')
            out += ",\"s\":\"t\"";
        if (e.nargs > 0) {
            out += ",\"args\":{";
            for (std::uint32_t i = 0; i < e.nargs; ++i) {
                if (i != 0)
                    out += ",";
                out += "\"";
                out += e.args[i].key;
                out += "\":" + std::to_string(e.args[i].value);
            }
            out += "}";
        }
        out += "}";
    }
    std::fwrite(out.data(), 1, out.size(), file_);
    std::fflush(file_);
    ring_.clear();
}

void
TraceWriter::close()
{
    if (file_ == nullptr || closed_)
        return;
    flush();
    std::fputs("\n]}\n", file_);
    closed_ = true;
    std::fclose(file_);
    file_ = nullptr;
    if (std::rename(tmpPath_.c_str(), path_.c_str()) != 0) {
        std::fprintf(stderr, "warning: trace: cannot publish %s\n",
                     path_.c_str());
        std::remove(tmpPath_.c_str());
    }
}

} // namespace obs
} // namespace mask
