/**
 * @file
 * Per-address-space four-level radix page tables backed by a simulated
 * physical frame allocator.
 *
 * Page table nodes occupy real (simulated) physical frames, so a page
 * table walk turns into a sequence of physical memory reads whose
 * addresses land in specific DRAM rows and L2 cache sets — exactly the
 * traffic the paper's mechanisms act on.
 */

#ifndef MASK_VM_PAGE_TABLE_HH
#define MASK_VM_PAGE_TABLE_HH

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/flat_table.hh"
#include "common/types.hh"

namespace mask {

/** Number of radix levels in the page table (paper Section 3). */
constexpr std::uint32_t kPtLevels = 4;

/** Radix bits per level (512-entry nodes, 8-byte PTEs). */
constexpr std::uint32_t kPtBitsPerLevel = 9;

constexpr std::uint32_t kPteBytes = 8;

/**
 * Monotonic allocator of simulated physical frames.
 *
 * Frames are handed out sequentially so that consecutively-allocated
 * virtual pages of an application map to adjacent physical rows,
 * giving data demand requests the high row-buffer locality the paper
 * observes (Section 4.3).
 */
class FrameAllocator
{
  public:
    explicit FrameAllocator(std::uint32_t page_bits)
        : pageBits_(page_bits)
    {}

    Pfn allocate() { return next_++; }
    std::uint64_t allocated() const { return next_; }
    std::uint64_t pageBytes() const { return 1ull << pageBits_; }
    Addr frameAddr(Pfn pfn) const { return pfn << pageBits_; }

    template <typename Self, typename Io>
    static void
    state(Self &self, Io &io)
    {
        io.tag("frames");
        io.u(self.next_);
    }

  private:
    std::uint32_t pageBits_;
    Pfn next_ = 0;
};

/**
 * A four-level page table for one address space.
 *
 * Mappings are demand-allocated: the multi-application runner maps a
 * page the first time a warp touches it (the paper treats page faults
 * as future work, Section 5.5).
 */
class PageTable
{
  public:
    PageTable(Asid asid, std::uint32_t page_bits, FrameAllocator &frames);

    Asid asid() const { return asid_; }

    /** Map vpn (allocating a frame on first use); returns its PFN. */
    Pfn mapPage(Vpn vpn);

    /** Look up vpn without mapping; kInvalidPfn if unmapped. */
    Pfn lookup(Vpn vpn) const;

    /**
     * Physical addresses of the PTE read at each level of a walk of
     * vpn, root first. The vpn must already be mapped.
     */
    std::array<Addr, kPtLevels> walkAddrs(Vpn vpn) const;

    /** Physical address of the root node (CR3 analog). */
    Addr rootAddr() const;

    /** Number of page table nodes allocated (all levels). */
    std::uint64_t nodeCount() const { return nodeCount_; }

    /** Number of leaf mappings installed. */
    std::uint64_t mappedPages() const { return mapped_.size(); }

    /**
     * Remove a single mapping (used by TLB shootdown tests). Interior
     * nodes are kept. Returns true if the mapping existed.
     */
    bool unmapPage(Vpn vpn);

    /**
     * Snapshot the radix tree (interior frames interleave with leaf
     * allocations in the shared FrameAllocator, so the exact tree
     * shape and frame numbers are semantic) plus the leaf map.
     */
    template <typename Self, typename Io>
    static void state(Self &self, Io &io);

  private:
    struct Node
    {
        Pfn frame = 0;
        /**
         * Direct-indexed child array, sized to the 512-entry radix on
         * first child insertion (leaf-level nodes never pay for it).
         * A walk then costs three array indexings, not three hash
         * probes — walkAddrs runs once per page table walk.
         */
        std::vector<std::unique_ptr<Node>> children;

        Node *
        child(std::uint32_t idx) const
        {
            return children.empty() ? nullptr : children[idx].get();
        }
    };

    std::uint32_t levelIndex(Vpn vpn, std::uint32_t level) const;
    Node *walkToLeafNode(Vpn vpn, bool allocate);

    Asid asid_;
    std::uint32_t pageBits_;
    FrameAllocator &frames_;
    std::unique_ptr<Node> root_;
    /** Leaf VPN -> PFN map; probed on every warp memory access. */
    FlatTable<Pfn> mapped_;
    std::uint64_t nodeCount_ = 0;
};

} // namespace mask

#endif // MASK_VM_PAGE_TABLE_HH
