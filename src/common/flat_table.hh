/**
 * @file
 * Open-addressed hash table with 64-bit keys, used in the simulator's
 * per-cycle hot paths (MSHR tables, page table leaf maps, per-core
 * translation waiters) in place of std::unordered_map.
 *
 * Why not unordered_map: every allocate/complete pair on the miss path
 * costs a node allocation, a pointer chase per probe, and an erase
 * that frees the node. This table keeps all slots in one contiguous
 * array (linear probing, power-of-two capacity), so the common probe
 * touches one or two cache lines and insert/erase never allocate once
 * the table has grown to its working-set size.
 *
 * Deletion uses backward shifting instead of tombstones: erase moves
 * displaced entries back toward their home slots, so an unsuccessful
 * find stops at the first empty slot and probe chains never degrade
 * under churn. This matters because the MSHR-full retry path performs
 * hundreds of unsuccessful finds per cycle under memory pressure.
 * Erase/take therefore invalidate pointers returned by find() (they
 * may relocate other entries), just as insert() does when it grows.
 *
 * Iteration order is a deterministic function of the insertion/erase
 * sequence (no pointer-value dependence), which the determinism gate
 * relies on.
 */

#ifndef MASK_COMMON_FLAT_TABLE_HH
#define MASK_COMMON_FLAT_TABLE_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/state_codec.hh"

namespace mask {

/** splitmix64 finalizer: cheap, well-mixed 64-bit hash. */
constexpr std::uint64_t
mixHash64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/** Open-addressed map from uint64 keys to V. */
template <typename V>
class FlatTable
{
  public:
    explicit FlatTable(std::size_t expected = 8)
    {
        std::size_t cap = 16;
        while (cap < expected * 2)
            cap <<= 1;
        slots_.resize(cap);
        states_.assign(cap, State::Empty);
    }

    /** Pointer to the value for @p key, or nullptr. */
    V *
    find(std::uint64_t key)
    {
        const std::size_t idx = findIndex(key);
        return idx == kNotFound ? nullptr : &slots_[idx].value;
    }

    const V *
    find(std::uint64_t key) const
    {
        const std::size_t idx = findIndex(key);
        return idx == kNotFound ? nullptr : &slots_[idx].value;
    }

    bool contains(std::uint64_t key) const
    {
        return findIndex(key) != kNotFound;
    }

    /**
     * Insert @p value under @p key; the key must not be present
     * (callers on the miss path always check first). Returns the
     * stored value.
     */
    V &
    insert(std::uint64_t key, V value)
    {
        if ((size_ + 1) * 4 >= capacity() * 3)
            grow();
        std::size_t idx = mixHash64(key) & mask();
        while (states_[idx] == State::Used)
            idx = (idx + 1) & mask();
        states_[idx] = State::Used;
        slots_[idx].key = key;
        slots_[idx].value = std::move(value);
        ++size_;
        return slots_[idx].value;
    }

    /** Remove @p key; returns true if it was present. */
    bool
    erase(std::uint64_t key)
    {
        const std::size_t idx = findIndex(key);
        if (idx == kNotFound)
            return false;
        removeAt(idx);
        return true;
    }

    /** Remove @p key, moving its value into @p out; false (and @p out
     *  untouched) when absent. */
    bool
    take(std::uint64_t key, V &out)
    {
        const std::size_t idx = findIndex(key);
        if (idx == kNotFound)
            return false;
        out = std::move(slots_[idx].value);
        removeAt(idx);
        return true;
    }

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    std::size_t capacity() const { return slots_.size(); }

    void
    clear()
    {
        states_.assign(states_.size(), State::Empty);
        for (Slot &slot : slots_)
            slot.value = V{};
        size_ = 0;
    }

    /** Visit every (key, value) pair; fn(uint64_t, const V&). */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (std::size_t i = 0; i < slots_.size(); ++i) {
            if (states_[i] == State::Used)
                fn(slots_[i].key, slots_[i].value);
        }
    }

    /** Mutable visit; fn(uint64_t, V&). */
    template <typename Fn>
    void
    forEachMutable(Fn &&fn)
    {
        for (std::size_t i = 0; i < slots_.size(); ++i) {
            if (states_[i] == State::Used)
                fn(slots_[i].key, slots_[i].value);
        }
    }

    /**
     * Snapshot the raw slot layout: capacity plus (index, key, value)
     * for every used slot. Re-inserting the entries would not
     * reproduce the probe layout — backward-shift deletion makes the
     * layout a function of the full insert/erase history — and
     * forEach() order must survive a restore bit-exactly, so the
     * physical layout itself is the canonical state. The wire holds
     * only the used slots, so writing and reading are separate
     * transforms; @p item(value) describes one value for either.
     */
    template <typename Fn>
    void
    slots(StateWriter &w, Fn &&item) const
    {
        w.tag("ft");
        w.u(slots_.size());
        w.u(size_);
        for (std::size_t i = 0; i < slots_.size(); ++i) {
            if (states_[i] != State::Used)
                continue;
            w.u(i);
            w.u(slots_[i].key);
            item(slots_[i].value);
        }
    }

    /** Restore a slots() layout; rejects malformed capacities and
     *  slot indices. */
    template <typename Fn>
    void
    slots(StateReader &r, Fn &&item)
    {
        r.tag("ft");
        const std::uint64_t cap = r.u();
        constexpr std::uint64_t kMaxCapacity = std::uint64_t{1} << 22;
        if (cap < 16 || cap > kMaxCapacity || (cap & (cap - 1)) != 0)
            r.fail("invalid table capacity " + std::to_string(cap));
        const std::uint64_t n = r.count(cap);
        slots_.assign(static_cast<std::size_t>(cap), Slot{});
        states_.assign(static_cast<std::size_t>(cap), State::Empty);
        for (std::uint64_t k = 0; k < n; ++k) {
            const std::uint64_t idx = r.u();
            if (idx >= cap)
                r.fail("slot index " + std::to_string(idx) +
                       " out of range");
            if (states_[idx] == State::Used)
                r.fail("duplicate slot index " + std::to_string(idx));
            states_[idx] = State::Used;
            slots_[idx].key = r.u();
            item(slots_[idx].value);
        }
        size_ = static_cast<std::size_t>(n);
    }

  private:
    enum class State : std::uint8_t { Empty, Used };

    struct Slot
    {
        std::uint64_t key = 0;
        V value{};
    };

    static constexpr std::size_t kNotFound =
        static_cast<std::size_t>(-1);

    std::size_t mask() const { return slots_.size() - 1; }

    std::size_t
    findIndex(std::uint64_t key) const
    {
        std::size_t idx = mixHash64(key) & mask();
        while (states_[idx] == State::Used) {
            if (slots_[idx].key == key)
                return idx;
            idx = (idx + 1) & mask();
        }
        return kNotFound;
    }

    /**
     * Backward-shift deletion: pull every displaced entry after @p idx
     * back toward its home slot so no tombstone is left behind.
     */
    void
    removeAt(std::size_t idx)
    {
        std::size_t hole = idx;
        std::size_t next = (idx + 1) & mask();
        while (states_[next] == State::Used) {
            const std::size_t home =
                mixHash64(slots_[next].key) & mask();
            // The entry at `next` may fill the hole only if the hole
            // lies on its probe path (home cyclically precedes hole).
            if (((next - home) & mask()) >= ((next - hole) & mask())) {
                slots_[hole] = std::move(slots_[next]);
                hole = next;
            }
            next = (next + 1) & mask();
        }
        states_[hole] = State::Empty;
        slots_[hole] = Slot{};
        --size_;
    }

    void
    grow()
    {
        std::vector<Slot> old_slots = std::move(slots_);
        std::vector<State> old_states = std::move(states_);
        slots_.assign(old_slots.size() * 2, Slot{});
        states_.assign(old_states.size() * 2, State::Empty);
        size_ = 0;
        for (std::size_t i = 0; i < old_slots.size(); ++i) {
            if (old_states[i] == State::Used)
                insert(old_slots[i].key,
                       std::move(old_slots[i].value));
        }
    }

    std::vector<Slot> slots_;
    std::vector<State> states_;
    std::size_t size_ = 0; //!< live entries
};

} // namespace mask

#endif // MASK_COMMON_FLAT_TABLE_HH
