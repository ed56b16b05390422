/**
 * @file
 * Binary codec for full simulator-state snapshots.
 *
 * Every snapshotted component describes its state once, as
 *
 *   template <typename Self, typename Io>
 *   static void state(Self &self, Io &io);
 *
 * instantiated with Io = StateWriter (Self const) to write and
 * Io = StateReader to read. Both classes take the same typed field
 * calls — tag, u, i, b, d, s, fixed, obj, seq, uintSeq — so one
 * description fixes the field order for both directions, and adding a
 * field is one line plus a kSnapshotVersion bump (sim/snapshot.hh).
 * Reader-only work (validation, rebuilding derived indices) sits in
 * the same description behind `if constexpr (Io::kReading)`.
 *
 * Separate write and read branches remain only where the wire layout
 * is a transform of the in-memory one: FlatTable::slots (raw slot
 * array, used slots only), PageTable (the radix tree as a pre-order
 * walk of present children), BankedRequestQueue (linked indices as an
 * age-ordered sequence, rebuilt by replaying pushes) and the Gpu's
 * per-core data-retry queues (flattened to global arrival order, then
 * re-sharded).
 *
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
 * under ASan/UBSan). Width rule: a u or i read into a field (an enum
 * through its underlying type) fails unless the value fits the
 * field's type, so a checksum-valid payload cannot restore a
 * truncated value.
 */

#ifndef MASK_COMMON_STATE_CODEC_HH
#define MASK_COMMON_STATE_CODEC_HH

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

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

/** Default element bound for variable-length sequences. */
constexpr std::uint64_t kMaxSeqItems = std::uint64_t{1} << 26;

/** Serializes state into a flat binary stream. */
class StateWriter
{
  public:
    /** False: `if constexpr (Io::kReading)` guards reader-only code. */
    static constexpr bool kReading = false;

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
    /** An enum travels as its underlying value. */
    template <typename E>
        requires std::is_enum_v<E>
    void
    u(E v)
    {
        u(static_cast<std::uint64_t>(
            static_cast<std::underlying_type_t<E>>(v)));
    }
    void i(std::int64_t v);
    void b(bool v) { u(v ? 1 : 0); }
    /** Exact double: its bit pattern, little-endian. */
    void d(double v);
    /** Length-prefixed raw bytes. */
    void s(std::string_view v);

    /** A value the configuration fixes (a geometry or count): the
     *  reader checks it instead of assigning it. */
    void fixed(std::uint64_t v, const char *) { u(v); }

    /** A nested component: `T::state(x, *this)`. */
    template <typename T>
    void
    obj(const T &x)
    {
        T::state(x, *this);
    }

    /** Element count, then @p item(elem) per element. */
    template <typename C, typename Fn>
    void
    seq(const C &c, Fn &&item, std::uint64_t = kMaxSeqItems)
    {
        u(static_cast<std::uint64_t>(c.size()));
        for (const auto &e : c)
            item(e);
    }

    /** A sequence of nested components. */
    template <typename C>
    void
    seq(const C &c)
    {
        seq(c, [this](const auto &e) { obj(e); });
    }

    /** A sequence of unsigned integers. */
    template <typename C>
    void
    uintSeq(const C &c, std::uint64_t = kMaxSeqItems)
    {
        seq(c, [this](const auto v) { u(v); });
    }

    const std::string &str() const { return out_; }
    std::string take() { return std::move(out_); }

  private:
    std::string out_;
};

/**
 * Bounds-checked reader for a StateWriter stream. The value-returning
 * calls decode one field; the assigning ones mirror StateWriter so a
 * `state` description reads back what it wrote, range-checking each
 * integer against the width of the field it lands in.
 */
class StateReader
{
  public:
    static constexpr bool kReading = true;

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

    /** Read into an unsigned field or enum; a value wider than the
     *  field (or its enum's underlying type) is rejected. */
    template <typename T>
    void
    u(T &dst)
    {
        if constexpr (std::is_enum_v<T>) {
            std::underlying_type_t<T> raw;
            u(raw);
            dst = static_cast<T>(raw);
        } else {
            static_assert(std::is_unsigned_v<T> &&
                          !std::is_same_v<T, bool>);
            const std::uint64_t v = u();
            if (v > std::numeric_limits<T>::max())
                failWidth(std::to_string(v), 8 * sizeof(T));
            dst = static_cast<T>(v);
        }
    }

    /** Read into a signed field, range-checked like u(). */
    template <typename T>
    void
    i(T &dst)
    {
        static_assert(std::is_signed_v<T> && std::is_integral_v<T>);
        const std::int64_t v = i();
        if (v < std::numeric_limits<T>::min() ||
            v > std::numeric_limits<T>::max())
            failWidth(std::to_string(v), 8 * sizeof(T));
        dst = static_cast<T>(v);
    }

    void b(bool &dst) { dst = b(); }
    void b(std::vector<bool>::reference dst) { dst = b(); }
    void d(double &dst) { dst = d(); }
    void s(std::string &dst) { dst = s(); }

    /** Fail unless the stored value equals @p configured. */
    void fixed(std::uint64_t configured, const char *what);

    template <typename T>
    void
    obj(T &x)
    {
        T::state(x, *this);
    }

    /**
     * Read a count (validated by count(@p max_items) before any
     * allocation), resize @p c (vector or deque of default-
     * constructible elements) and read each element with @p item.
     */
    template <typename C, typename Fn>
    void
    seq(C &c, Fn &&item, std::uint64_t max_items = kMaxSeqItems)
    {
        const std::uint64_t n = count(max_items);
        c.clear();
        c.resize(static_cast<std::size_t>(n));
        for (auto &&e : c)
            item(e);
    }

    template <typename C>
    void
    seq(C &c)
    {
        seq(c, [this](auto &e) { obj(e); });
    }

    template <typename C>
    void
    uintSeq(C &c, std::uint64_t max_items = kMaxSeqItems)
    {
        seq(c, [this](auto &v) { u(v); }, max_items);
    }

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
    [[noreturn]] void failWidth(const std::string &value,
                                std::size_t bits) const;

    std::string_view data_;
    std::size_t pos_ = 0;
    std::string lastTag_;
    std::uint64_t cycle_;
};

/**
 * Explicitly instantiate `T::state` for both directions; components
 * that define their description in a .cc file end with this.
 */
#define MASK_STATE_INSTANTIATE(T)                                      \
    template void T::state(const T &, StateWriter &);                   \
    template void T::state(T &, StateReader &)

} // namespace mask

#endif // MASK_COMMON_STATE_CODEC_HH
