#include "obs/timeseries.hh"

#include <limits>

#include "common/file_io.hh"

namespace mask {
namespace obs {

namespace {
constexpr std::uint64_t kNever =
    std::numeric_limits<std::uint64_t>::max();
}

TimeseriesWriter::TimeseriesWriter(std::string path,
                                   SeriesRegistry registry,
                                   std::uint64_t interval,
                                   std::size_t ring_rows,
                                   const std::string &stream)
    : registry_(std::move(registry)),
      path_(std::move(path)),
      tmpPath_(uniqueTmpPath(path_)),
      interval_(interval),
      nextDue_(interval == 0 ? kNever : interval),
      ringRows_(ring_rows == 0 ? 1 : ring_rows)
{
    file_ = std::fopen(tmpPath_.c_str(), "w");
    if (file_ == nullptr) {
        std::fprintf(stderr,
                     "warning: timeseries: cannot open %s; "
                     "timeseries disabled\n",
                     tmpPath_.c_str());
        return;
    }
    const std::string header =
        registry_.schemaJson(stream, interval_);
    std::fwrite(header.data(), 1, header.size(), file_);
    std::fputc('\n', file_);
    ring_.reserve(ringRows_);
}

TimeseriesWriter::~TimeseriesWriter()
{
    if (file_ == nullptr)
        return;
    flush();
    std::fclose(file_);
    if (std::rename(tmpPath_.c_str(), path_.c_str()) != 0) {
        std::fprintf(stderr, "warning: timeseries: cannot publish %s\n",
                     path_.c_str());
        std::remove(tmpPath_.c_str());
    }
}

void
TimeseriesWriter::rearm(std::uint64_t now)
{
    if (interval_ == 0) {
        nextDue_ = kNever;
        return;
    }
    const std::uint64_t k = (now + interval_ - 1) / interval_;
    nextDue_ = (k == 0 ? 1 : k) * interval_;
}

void
TimeseriesWriter::record(std::uint64_t cycle,
                         const std::vector<double> &values)
{
    if (interval_ != 0)
        nextDue_ = cycle + interval_;
    ++rowsRecorded_;
    if (file_ == nullptr)
        return;
    std::string row = "{\"cycle\":" + std::to_string(cycle) +
                      ",\"v\":[";
    for (std::size_t i = 0; i < values.size(); ++i) {
        if (i != 0)
            row += ",";
        appendJsonNumber(row, values[i]);
    }
    row += "]}";
    ring_.push_back(std::move(row));
    if (ring_.size() >= ringRows_)
        flush();
}

void
TimeseriesWriter::flush()
{
    if (file_ == nullptr) {
        ring_.clear();
        return;
    }
    for (const std::string &row : ring_) {
        std::fwrite(row.data(), 1, row.size(), file_);
        std::fputc('\n', file_);
    }
    ring_.clear();
    std::fflush(file_);
}

} // namespace obs
} // namespace mask
