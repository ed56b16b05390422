#include "common/state_codec.hh"

#include <bit>
#include <cstring>

namespace mask {

namespace {

std::string
describe(const std::string &reason, const std::string &field,
         std::uint64_t cycle)
{
    std::string msg = "snapshot error: " + reason;
    if (!field.empty())
        msg += " (at field '" + field + "')";
    if (cycle != SnapshotError::kNoCycle)
        msg += " (snapshot cycle " + std::to_string(cycle) + ")";
    return msg;
}

} // namespace

SnapshotError::SnapshotError(const std::string &reason,
                             const std::string &field,
                             std::uint64_t cycle)
    : std::runtime_error(describe(reason, field, cycle)),
      reason_(reason),
      field_(field),
      cycle_(cycle)
{
}

// ---------------------------------------------------------------------
// StateWriter
// ---------------------------------------------------------------------

namespace {

/** Longest LEB128 encoding of a 64-bit value. */
constexpr std::size_t kMaxVarintBytes = 10;

void
putVarint(std::string &out, std::uint64_t v)
{
    char buf[kMaxVarintBytes];
    std::size_t n = 0;
    while (v >= 0x80) {
        buf[n++] = static_cast<char>((v & 0x7f) | 0x80);
        v >>= 7;
    }
    buf[n++] = static_cast<char>(v);
    out.append(buf, n);
}

} // namespace

void
StateWriter::tag(const char *name)
{
    const std::size_t len = std::strlen(name);
    if (len > 0xff)
        throw std::length_error("snapshot tag name over 255 bytes");
    out_.push_back('/');
    out_.push_back(static_cast<char>(len));
    out_.append(name, len);
}

void
StateWriter::u(std::uint64_t v)
{
    putVarint(out_, v);
}

void
StateWriter::i(std::int64_t v)
{
    // Zigzag: 0, -1, 1, -2, ... -> 0, 1, 2, 3, ...
    putVarint(out_, (static_cast<std::uint64_t>(v) << 1) ^
                        static_cast<std::uint64_t>(v >> 63));
}

void
StateWriter::d(double v)
{
    const auto bits = std::bit_cast<std::uint64_t>(v);
    char buf[8];
    for (int k = 0; k < 8; ++k)
        buf[k] = static_cast<char>(bits >> (8 * k));
    out_.append(buf, sizeof(buf));
}

void
StateWriter::s(std::string_view v)
{
    putVarint(out_, v.size());
    out_.append(v);
}

// ---------------------------------------------------------------------
// StateReader
// ---------------------------------------------------------------------

StateReader::StateReader(std::string_view payload, std::uint64_t cycle)
    : data_(payload), cycle_(cycle)
{
}

void
StateReader::fail(const std::string &why) const
{
    throw SnapshotError(why, lastTag_, cycle_);
}

const char *
StateReader::consume(std::size_t n)
{
    if (n > remaining())
        fail("payload truncated");
    const char *p = data_.data() + pos_;
    pos_ += n;
    return p;
}

void
StateReader::tag(const char *name)
{
    const std::string_view want(name);
    const char *head = consume(2);
    const auto len = static_cast<unsigned char>(head[1]);
    if (head[0] != '/' || len != want.size() || len > remaining() ||
        std::string_view(data_.data() + pos_, len) != want) {
        std::string found = "no marker";
        if (head[0] == '/' && len <= remaining())
            found = "'/" + std::string(data_.substr(pos_, len)) + "'";
        fail("expected field marker '/" + std::string(want) +
             "', found " + found);
    }
    pos_ += len;
    lastTag_ = want;
}

std::uint64_t
StateReader::u()
{
    const auto *p =
        reinterpret_cast<const unsigned char *>(data_.data()) + pos_;
    const std::size_t avail = remaining();
    std::uint64_t v = 0;
    for (std::size_t k = 0;; ++k) {
        if (k == avail)
            fail("payload truncated");
        const std::uint64_t byte = p[k];
        if (k == kMaxVarintBytes - 1) {
            // Tenth byte: only bit 63 is left to fill.
            if ((byte & 0x80) != 0)
                fail("varint longer than " +
                     std::to_string(kMaxVarintBytes) + " bytes");
            if (byte > 1)
                fail("varint overflows 64 bits");
        }
        v |= (byte & 0x7f) << (7 * k);
        if ((byte & 0x80) == 0) {
            pos_ += k + 1;
            return v;
        }
    }
}

std::int64_t
StateReader::i()
{
    const std::uint64_t z = u();
    return static_cast<std::int64_t>((z >> 1) ^ (0 - (z & 1)));
}

bool
StateReader::b()
{
    const std::uint64_t v = u();
    if (v > 1)
        fail("malformed boolean (" + std::to_string(v) + ")");
    return v == 1;
}

double
StateReader::d()
{
    const char *p = consume(8);
    std::uint64_t bits = 0;
    for (int k = 0; k < 8; ++k)
        bits |= static_cast<std::uint64_t>(
                    static_cast<unsigned char>(p[k]))
                << (8 * k);
    return std::bit_cast<double>(bits);
}

std::string
StateReader::s()
{
    const std::uint64_t len = u();
    if (len > remaining())
        fail("payload truncated (string length " + std::to_string(len) +
             " exceeds remaining " + std::to_string(remaining()) +
             " bytes)");
    return std::string(consume(static_cast<std::size_t>(len)),
                       static_cast<std::size_t>(len));
}

void
StateReader::failWidth(const std::string &value, std::size_t bits) const
{
    fail("value " + value + " does not fit the " + std::to_string(bits) +
         "-bit field");
}

void
StateReader::fixed(std::uint64_t configured, const char *what)
{
    const std::uint64_t v = u();
    if (v != configured)
        fail(std::string(what) + " mismatch (" + std::to_string(v) +
             " vs configured " + std::to_string(configured) + ")");
}

std::uint64_t
StateReader::count(std::uint64_t max_items)
{
    const std::uint64_t n = u();
    if (n > max_items)
        fail("element count " + std::to_string(n) +
             " exceeds bound " + std::to_string(max_items));
    // Each element encodes to at least one byte; reject corrupted
    // counts before any allocation happens.
    if (n > remaining())
        fail("element count " + std::to_string(n) +
             " exceeds remaining payload");
    return n;
}

void
StateReader::finish()
{
    if (pos_ < data_.size())
        fail("trailing bytes after payload (" +
             std::to_string(data_.size() - pos_) + ")");
}

} // namespace mask
