/**
 * @file
 * Binary codec for full simulator-state snapshots.
 *
 * Every component exposes a `serialize(StateWriter&)` /
 * `deserialize(StateReader&)` pair built on these two classes — the
 * common StateCodec interface of the checkpoint/restore subsystem.
 * The payload is a flat byte stream:
 *
 *   u    unsigned LEB128 varint (7 bits per byte, low group first)
 *   i    zigzag-mapped varint, so small negatives stay short
 *   b    varint that must be 0 or 1
 *   d    the IEEE-754 bit pattern as 8 little-endian bytes — exact for
 *        every double (NaN payloads, -0.0, denormals), independent of
 *        host byte order
 *   s    varint length followed by the raw bytes
 *   tag  '/', a one-byte name length, then the name
 *
 * Varints rather than fixed-width words because most fields are small
 * counters and indices: a fixed 8 bytes per field would be larger
 * than the decimal text this encoding replaced.
 *
 * Every component writes `tag("name")` before its fields and the
 * reader verifies each marker in order. A truncated or corrupted
 * payload therefore fails fast with a SnapshotError naming the field
 * where decoding desynced, instead of silently misassigning state —
 * and never with UB: all reads are bounds-checked, varints longer
 * than 10 bytes or wider than 64 bits are rejected, and all counts
 * are validated before allocation (the corruption and fuzz tests run
 * under ASan/UBSan).
 */

#ifndef MASK_COMMON_STATE_CODEC_HH
#define MASK_COMMON_STATE_CODEC_HH

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

namespace mask {

/**
 * A snapshot could not be decoded: truncated file, corrupted payload,
 * stale format version, or mismatched configuration fingerprint.
 * Carries the snapshot cycle and the last structural field reached so
 * diagnostics can say *where* decoding failed, not just that it did.
 */
class SnapshotError : public std::runtime_error
{
  public:
    SnapshotError(const std::string &reason, const std::string &field,
                  std::uint64_t cycle);

    /** Why decoding failed. */
    const std::string &reason() const { return reason_; }
    /** Last tag() marker successfully read ("" if none). */
    const std::string &field() const { return field_; }
    /** Snapshot cycle from the header; kNoCycle if unknown. */
    std::uint64_t cycle() const { return cycle_; }

    static constexpr std::uint64_t kNoCycle =
        static_cast<std::uint64_t>(-1);

  private:
    std::string reason_;
    std::string field_;
    std::uint64_t cycle_;
};

/** Serializes state into a flat binary stream. */
class StateWriter
{
  public:
    /**
     * Pre-reserve the output buffer. Periodic checkpointing passes
     * the previous snapshot's payload size so a multi-megabyte
     * serialization appends into one allocation instead of growing
     * through the realloc ladder.
     */
    void reserve(std::size_t bytes) { out_.reserve(bytes); }

    /** Structural marker verified by StateReader::tag; @p name is
     *  at most 255 bytes. */
    void tag(const char *name);

    void u(std::uint64_t v);
    void i(std::int64_t v);
    void b(bool v) { u(v ? 1 : 0); }
    /** Exact double: its bit pattern, little-endian. */
    void d(double v);
    /** Length-prefixed raw bytes. */
    void s(std::string_view v);

    const std::string &str() const { return out_; }
    std::string take() { return std::move(out_); }

  private:
    std::string out_;
};

/** Bounds-checked reader for a StateWriter stream. */
class StateReader
{
  public:
    /** @p cycle is the snapshot cycle for error context (kNoCycle ok). */
    explicit StateReader(std::string_view payload,
                         std::uint64_t cycle = SnapshotError::kNoCycle);

    /** Verify the next bytes are the marker written by tag(). */
    void tag(const char *name);

    std::uint64_t u();
    std::int64_t i();
    bool b();
    double d();
    std::string s();

    /**
     * Read an element count and validate it against @p max_items and
     * the bytes remaining (each element costs >= 1 byte), so a
     * corrupted count is rejected before any allocation.
     */
    std::uint64_t count(std::uint64_t max_items);

    /** Require the whole payload to have been consumed. */
    void finish();

    std::size_t remaining() const { return data_.size() - pos_; }

    /** Throw SnapshotError carrying the current field context. */
    [[noreturn]] void fail(const std::string &why) const;

  private:
    /** Consume @p n bytes, failing "payload truncated" if short. */
    const char *consume(std::size_t n);

    std::string_view data_;
    std::size_t pos_ = 0;
    std::string lastTag_;
    std::uint64_t cycle_;
};

/**
 * Intern a diagnostic label restored from a snapshot so it can be
 * stored in `const char *` fields (MemRequest::where points at string
 * literals during normal operation). Thread-safe; storage lives for
 * the process lifetime.
 */
const char *internLabel(const std::string &label);

// --- Sequence helpers -------------------------------------------------

/** Default element bound for variable-length sequences. */
constexpr std::uint64_t kMaxSeqItems = std::uint64_t{1} << 26;

/** Write container @p c; @p item(w, elem) writes one element. */
template <typename C, typename Fn>
void
putSeq(StateWriter &w, const C &c, Fn &&item)
{
    w.u(static_cast<std::uint64_t>(c.size()));
    for (const auto &e : c)
        item(w, e);
}

/**
 * Read a sequence written by putSeq into @p c (vector or deque of
 * default-constructible elements); @p item(r, elem) reads one element.
 */
template <typename C, typename Fn>
void
getSeq(StateReader &r, C &c, Fn &&item,
       std::uint64_t max_items = kMaxSeqItems)
{
    const std::uint64_t n = r.count(max_items);
    c.clear();
    c.resize(static_cast<std::size_t>(n));
    for (auto &e : c)
        item(r, e);
}

/** putSeq specialization for containers of unsigned integers. */
template <typename C>
void
putUintSeq(StateWriter &w, const C &c)
{
    putSeq(w, c, [](StateWriter &sw, const auto &v) {
        sw.u(static_cast<std::uint64_t>(v));
    });
}

/** getSeq specialization for containers of unsigned integers. */
template <typename C>
void
getUintSeq(StateReader &r, C &c,
           std::uint64_t max_items = kMaxSeqItems)
{
    using V = typename C::value_type;
    getSeq(
        r, c, [](StateReader &sr, V &v) { v = static_cast<V>(sr.u()); },
        max_items);
}

} // namespace mask

#endif // MASK_COMMON_STATE_CODEC_HH
