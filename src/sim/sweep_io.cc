#include "sim/sweep_io.hh"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string_view>
#include <tuple>
#include <utility>

#include <dirent.h>
#include <fcntl.h>
#include <unistd.h>

#include "common/env.hh"
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

/** The blob payload: a "pair" section, then the GpuStats fields. */
template <typename Self, typename Io>
void
pairState(Self &result, Io &io)
{
    const auto dbl = [&io](auto &v) { io.d(v); };
    io.tag("pair");
    io.seq(result.sharedIpc, dbl);
    io.seq(result.aloneIpc, dbl);
    io.d(result.weightedSpeedup);
    io.d(result.ipcThroughput);
    io.d(result.unfairness);
    io.obj(result.stats);
}

} // namespace

std::string
encodePairResult(const PairResult &result)
{
    StateWriter w;
    pairState(result, w);
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
    pairState(result, r);
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

namespace {

/**
 * Parse one complete, non-empty journal line into @p entry. Returns
 * false when the line is malformed: no key or status, an "attempts"
 * field that is not an unsigned decimal fitting `unsigned`, or an
 * "Ok" record without a result.
 */
bool
parseJournalLine(const std::string &line, JournalEntry &entry)
{
    entry = JournalEntry{};
    if (!jsonField(line, "key", entry.key) ||
        !jsonField(line, "status", entry.status))
        return false;
    jsonField(line, "error", entry.error);
    jsonField(line, "repro", entry.repro);
    // Writers have recorded "1" since each job runs once; older
    // journals may hold larger counts. A value that overflows
    // `unsigned` is malformed, not wrapped.
    std::string attempts;
    std::uint64_t n = 0;
    if (jsonField(line, "attempts", attempts) &&
        (!parseU64(attempts, n) ||
         n > std::numeric_limits<unsigned>::max()))
        return false;
    return entry.status != "Ok" || jsonField(line, "result", entry.blob);
}

} // namespace

SweepJournal::SweepJournal(std::string path, std::string worker)
    : path_(std::move(path)), worker_(std::move(worker))
{
    const std::size_t slash = path_.rfind('/');
    const std::string own_name =
        slash == std::string::npos ? path_ : path_.substr(slash + 1);
    if (!worker_.empty())
        peerDir_ = slash == std::string::npos ? "." : path_.substr(0, slash);
    Source &own = sources_[own_name];
    own.path = path_;
    refresh();

    // Whatever trails the final newline of our own file is a torn
    // record from a writer killed mid-append: truncate it away so the
    // next append starts on a clean line boundary instead of gluing
    // onto the torn tail.
    if (own.partial) {
        tornTail_ = 1;
        own.partial = false;
        if (::truncate(path_.c_str(),
                       static_cast<::off_t>(own.offset)) != 0) {
            // Repair failure is survivable: appends after the torn
            // tail produce one more malformed line on the next load.
            std::fprintf(stderr,
                         "[sweep] journal %s: cannot truncate torn "
                         "tail: %s\n",
                         path_.c_str(), std::strerror(errno));
        } else {
            std::fprintf(stderr,
                         "[sweep] journal %s: truncated torn final "
                         "record\n",
                         path_.c_str());
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
SweepJournal::refresh()
{
    if (!peerDir_.empty()) {
        if (::DIR *dir = ::opendir(peerDir_.c_str())) {
            constexpr std::string_view kExt = ".jsonl";
            for (const struct ::dirent *ent = ::readdir(dir);
                 ent != nullptr; ent = ::readdir(dir)) {
                const std::string_view name = ent->d_name;
                if (name.size() <= kExt.size() ||
                    name.substr(name.size() - kExt.size()) != kExt)
                    continue;
                Source &src = sources_[std::string(name)];
                if (src.path.empty())
                    src.path = peerDir_ + "/" + std::string(name);
            }
            ::closedir(dir);
        }
    }
    for (auto &[name, src] : sources_) {
        std::string data;
        if (!readFile(src.path, data, src.offset))
            continue; // not created yet
        // Complete lines only: a partial tail is usually a write in
        // flight and is read again once its newline lands.
        std::size_t pos = 0;
        for (;;) {
            const std::size_t nl = data.find('\n', pos);
            if (nl == std::string::npos)
                break;
            consume(name, src.lines++, data.substr(pos, nl - pos));
            pos = nl + 1;
        }
        src.offset += pos;
        src.partial = pos < data.size();
    }
}

void
SweepJournal::consume(const std::string &source, std::size_t line_no,
                      const std::string &line)
{
    if (line.empty())
        return;
    JournalEntry entry;
    if (!parseJournalLine(line, entry)) {
        ++malformed_;
        return;
    }
    Slot &slot = slots_[entry.key];
    const bool ok = entry.status == "Ok";
    if (ok && std::exchange(slot.okSeen, true))
        ++duplicates_; // a double claim: one more Ok for the key

    // A decoded Ok outranks every other entry; within a rank the
    // smaller (file name, line number) wins. Sources are only ever
    // appended to, but a refresh can meet a new file whose name sorts
    // first, so the rank is compared rather than arrival order used.
    auto rank = std::make_tuple(!ok, source, line_no);
    if (!slot.entry.status.empty() && rank >= slot.rank)
        return;
    if (ok) {
        try {
            entry.result = decodePairResult(entry.blob);
        } catch (const std::exception &err) {
            // Never the winner: the job runs again.
            std::fprintf(stderr,
                         "[sweep] journal %s: entry for %s in %s "
                         "unusable: %s\n",
                         path_.c_str(), entry.key.c_str(),
                         source.c_str(), err.what());
            return;
        }
        entry.blob.clear();
    }
    slot.entry = std::move(entry);
    slot.rank = std::move(rank);
}

const JournalEntry *
SweepJournal::find(const std::string &key) const
{
    const auto it = slots_.find(key);
    return it == slots_.end() || it->second.entry.status.empty()
               ? nullptr
               : &it->second.entry;
}

void
SweepJournal::record(const std::string &key, const char *status,
                     const std::string &error, const PairResult *result,
                     const std::string &repro)
{
    std::string blob;
    if (result != nullptr)
        blob = encodePairResult(*result);

    const std::lock_guard<std::mutex> lock(mutex_);
    std::string line = "{\"key\":\"" + jsonEscape(key) +
                       "\",\"status\":\"" + status +
                       "\",\"attempts\":\"1\",\"error\":\"" +
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
}

std::size_t
SweepJournal::partialTails() const
{
    std::size_t n = 0;
    for (const auto &source : sources_)
        n += source.second.partial;
    return n;
}

} // namespace mask
