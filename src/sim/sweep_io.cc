#include "sim/sweep_io.hh"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string_view>

#include <fcntl.h>
#include <unistd.h>

#include "sim/file_io.hh"

namespace mask {

namespace {

// v3 was a text token stream with C99 hex floats; v4 is the StateCodec
// payload in base64 (no byte of it needs JSON escaping).
constexpr std::string_view kBlobPrefix = "v4 ";

constexpr char kBase64[] =
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

/** RFC 4648 base64 with '=' padding. */
void
appendBase64(std::string &out, std::string_view in)
{
    out.reserve(out.size() + (in.size() + 2) / 3 * 4);
    for (std::size_t i = 0; i < in.size(); i += 3) {
        const std::size_t n = std::min<std::size_t>(3, in.size() - i);
        std::uint32_t v = 0;
        for (std::size_t k = 0; k < 3; ++k)
            v = v << 8 |
                (k < n ? static_cast<unsigned char>(in[i + k]) : 0u);
        for (std::size_t k = 0; k < 4; ++k)
            out += k <= n ? kBase64[(v >> (18 - 6 * k)) & 63] : '=';
    }
}

int
sextet(char c)
{
    if (c >= 'A' && c <= 'Z')
        return c - 'A';
    if (c >= 'a' && c <= 'z')
        return c - 'a' + 26;
    if (c >= '0' && c <= '9')
        return c - '0' + 52;
    if (c == '+')
        return 62;
    return c == '/' ? 63 : -1;
}

/**
 * Strict inverse of appendBase64: false on a non-alphabet byte, a
 * length that is not a multiple of 4, padding anywhere but the end of
 * the last quantum, or non-zero bits under the padding (so every
 * payload has exactly one accepted spelling).
 */
bool
decodeBase64(std::string_view in, std::string &out)
{
    if (in.size() % 4 != 0)
        return false;
    out.clear();
    out.reserve(in.size() / 4 * 3);
    for (std::size_t i = 0; i < in.size(); i += 4) {
        const bool last = i + 4 == in.size();
        std::uint32_t v = 0;
        unsigned pad = 0;
        for (std::size_t k = 0; k < 4; ++k) {
            const char c = in[i + k];
            int d = sextet(c);
            if (c == '=' && last && k >= 2) {
                ++pad;
                d = 0;
            } else if (d < 0 || pad > 0) {
                return false;
            }
            v = v << 6 | static_cast<std::uint32_t>(d);
        }
        if ((v & ((1u << (8 * pad)) - 1)) != 0)
            return false;
        for (unsigned k = 0; k < 3 - pad; ++k)
            out += static_cast<char>(v >> (16 - 8 * k));
    }
    return true;
}

void
putDouble(StateWriter &w, double v)
{
    w.d(v);
}

void
getDouble(StateReader &r, double &v)
{
    v = r.d();
}

} // namespace

std::string
encodePairResult(const PairResult &result)
{
    StateWriter w;
    w.tag("pair");
    putSeq(w, result.sharedIpc, putDouble);
    putSeq(w, result.aloneIpc, putDouble);
    w.d(result.weightedSpeedup);
    w.d(result.ipcThroughput);
    w.d(result.unfairness);
    result.stats.serialize(w);
    std::string out(kBlobPrefix);
    appendBase64(out, w.str());
    return out;
}

PairResult
decodePairResult(const std::string &blob)
{
    if (blob.compare(0, kBlobPrefix.size(), kBlobPrefix) != 0)
        throw std::runtime_error(
            "sweep result blob: unknown version (this build reads " +
            std::string(kBlobPrefix.substr(0, 2)) + ")");
    std::string payload;
    if (!decodeBase64(std::string_view(blob).substr(kBlobPrefix.size()),
                      payload))
        throw std::runtime_error("sweep result blob: malformed base64");
    StateReader r(payload);
    PairResult result;
    r.tag("pair");
    getSeq(r, result.sharedIpc, getDouble);
    getSeq(r, result.aloneIpc, getDouble);
    result.weightedSpeedup = r.d();
    result.ipcThroughput = r.d();
    result.unfairness = r.d();
    result.stats.deserialize(r);
    r.finish();
    return result;
}

// ---------------------------------------------------------------------
// JSONL journal
// ---------------------------------------------------------------------

std::string
jsonEscape(const std::string &raw)
{
    std::string out;
    out.reserve(raw.size());
    for (const char c : raw) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default: out += c; break;
        }
    }
    return out;
}

bool
jsonField(const std::string &line, const std::string &field,
          std::string &out)
{
    const std::string marker = "\"" + field + "\":\"";
    const std::size_t start = line.find(marker);
    if (start == std::string::npos)
        return false;
    out.clear();
    for (std::size_t i = start + marker.size(); i < line.size(); ++i) {
        const char c = line[i];
        if (c == '"')
            return true;
        if (c != '\\') {
            out += c;
            continue;
        }
        if (++i >= line.size())
            return false; // truncated escape
        switch (line[i]) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          default: return false;
        }
    }
    return false; // no closing quote (truncated line)
}

bool
parseJournalLine(const std::string &line, JournalEntry &entry)
{
    entry = JournalEntry{};
    if (!jsonField(line, "key", entry.key) ||
        !jsonField(line, "status", entry.status))
        return false;
    jsonField(line, "error", entry.error);
    jsonField(line, "repro", entry.repro);
    jsonField(line, "worker", entry.worker);
    std::string attempts;
    if (jsonField(line, "attempts", attempts))
        entry.attempts = static_cast<unsigned>(
            std::strtoul(attempts.c_str(), nullptr, 10));
    return entry.status != "Ok" || jsonField(line, "result", entry.blob);
}

SweepJournal::SweepJournal(std::string path) : path_(std::move(path))
{
    std::string data;
    if (!readFile(path_, data))
        return; // fresh journal

    // Parse complete ('\n'-terminated) lines only. Whatever trails
    // the final newline is a torn record from a writer killed
    // mid-append: truncate it away so the next append starts on a
    // clean line boundary instead of gluing onto the torn tail.
    std::size_t pos = 0;
    while (pos < data.size()) {
        const std::size_t nl = data.find('\n', pos);
        if (nl == std::string::npos)
            break; // torn tail, handled below
        const std::string line = data.substr(pos, nl - pos);
        pos = nl + 1;
        if (line.empty())
            continue;
        JournalEntry entry;
        if (!parseJournalLine(line, entry))
            ++malformed_;
        else if (entry.status == "Ok")
            ok_[entry.key] = std::move(entry); // latest per key wins
    }
    if (pos < data.size()) {
        tornTail_ = 1;
        if (::truncate(path_.c_str(),
                       static_cast<::off_t>(pos)) != 0) {
            // Repair failure is survivable: appends after the torn
            // tail produce one more malformed line on the next load.
            std::fprintf(stderr,
                         "[sweep] journal %s: cannot truncate torn "
                         "tail (%zu bytes): %s\n",
                         path_.c_str(), data.size() - pos,
                         std::strerror(errno));
        } else {
            std::fprintf(stderr,
                         "[sweep] journal %s: truncated torn final "
                         "record (%zu bytes)\n",
                         path_.c_str(), data.size() - pos);
        }
    }
    if (malformed_ > 0) {
        std::fprintf(stderr,
                     "[sweep] journal %s: skipped %zu malformed "
                     "line(s)\n",
                     path_.c_str(), malformed_);
    }
}

SweepJournal::~SweepJournal()
{
    if (fd_ >= 0)
        ::close(fd_);
}

void
SweepJournal::setWorkerTag(std::string worker)
{
    const std::lock_guard<std::mutex> lock(mutex_);
    worker_ = std::move(worker);
}

bool
SweepJournal::lookupOk(const std::string &key, PairResult &result,
                       unsigned &attempts) const
{
    std::string blob;
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        const auto it = ok_.find(key);
        if (it == ok_.end())
            return false;
        blob = it->second.blob;
        attempts = it->second.attempts;
    }
    result = decodePairResult(blob);
    return true;
}

void
SweepJournal::record(const std::string &key, const char *status,
                     unsigned attempts, const std::string &error,
                     const PairResult *result,
                     const std::string &repro)
{
    std::string blob;
    if (result != nullptr)
        blob = encodePairResult(*result);

    const std::lock_guard<std::mutex> lock(mutex_);
    std::string line = "{\"key\":\"" + jsonEscape(key) +
                       "\",\"status\":\"" + status +
                       "\",\"attempts\":\"" +
                       std::to_string(attempts) + "\",\"error\":\"" +
                       jsonEscape(error) + "\"";
    if (!repro.empty())
        line += ",\"repro\":\"" + jsonEscape(repro) + "\"";
    if (!worker_.empty())
        line += ",\"worker\":\"" + jsonEscape(worker_) + "\"";
    line += ",\"result\":\"" + jsonEscape(blob) + "\"}\n";

    // One write() on an O_APPEND descriptor: concurrent writers
    // (sibling processes sharing this journal) each land a whole
    // record at the file's end; bytes of two records never
    // interleave. A crash mid-write leaves at most one torn tail,
    // which the next open truncates away.
    if (fd_ < 0) {
        fd_ = ::open(path_.c_str(),
                     O_WRONLY | O_APPEND | O_CREAT | O_CLOEXEC, 0644);
        if (fd_ < 0)
            throw std::runtime_error(
                "cannot append to sweep journal: " + path_);
    }
    ::ssize_t n;
    do {
        n = ::write(fd_, line.data(), line.size());
    } while (n < 0 && errno == EINTR);
    if (n != static_cast<::ssize_t>(line.size()))
        throw std::runtime_error("short write to sweep journal: " +
                                 path_);
    if (std::strcmp(status, "Ok") == 0) {
        JournalEntry &entry = ok_[key];
        entry.attempts = attempts;
        entry.blob = std::move(blob);
    }
}

std::size_t
SweepJournal::okEntries() const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    return ok_.size();
}

} // namespace mask
