#include "vm/page_table.hh"

#include <cassert>

namespace mask {

PageTable::PageTable(Asid asid, std::uint32_t page_bits,
                     FrameAllocator &frames)
    : asid_(asid), pageBits_(page_bits), frames_(frames)
{
    root_ = std::make_unique<Node>();
    root_->frame = frames_.allocate();
    ++nodeCount_;
}

std::uint32_t
PageTable::levelIndex(Vpn vpn, std::uint32_t level) const
{
    assert(level >= 1 && level <= kPtLevels);
    const std::uint32_t shift = (kPtLevels - level) * kPtBitsPerLevel;
    return static_cast<std::uint32_t>(vpn >> shift) &
           ((1u << kPtBitsPerLevel) - 1);
}

PageTable::Node *
PageTable::walkToLeafNode(Vpn vpn, bool allocate)
{
    Node *node = root_.get();
    // Levels 1..3 are interior; the level-4 node holds leaf PTEs.
    for (std::uint32_t level = 1; level < kPtLevels; ++level) {
        const std::uint32_t idx = levelIndex(vpn, level);
        Node *child = node->child(idx);
        if (child == nullptr) {
            if (!allocate)
                return nullptr;
            if (node->children.empty())
                node->children.resize(1u << kPtBitsPerLevel);
            auto fresh = std::make_unique<Node>();
            fresh->frame = frames_.allocate();
            ++nodeCount_;
            child = fresh.get();
            node->children[idx] = std::move(fresh);
        }
        node = child;
    }
    return node;
}

Pfn
PageTable::mapPage(Vpn vpn)
{
    if (const Pfn *pfn = mapped_.find(vpn))
        return *pfn;

    walkToLeafNode(vpn, true);
    const Pfn pfn = frames_.allocate();
    mapped_.insert(vpn, pfn);
    return pfn;
}

Pfn
PageTable::lookup(Vpn vpn) const
{
    const Pfn *pfn = mapped_.find(vpn);
    return pfn == nullptr ? kInvalidPfn : *pfn;
}

std::array<Addr, kPtLevels>
PageTable::walkAddrs(Vpn vpn) const
{
    std::array<Addr, kPtLevels> addrs{};
    const Node *node = root_.get();
    for (std::uint32_t level = 1; level <= kPtLevels; ++level) {
        assert(node != nullptr && "walkAddrs on unmapped vpn");
        const std::uint32_t idx = levelIndex(vpn, level);
        addrs[level - 1] =
            frames_.frameAddr(node->frame) + Addr{idx} * kPteBytes;
        if (level < kPtLevels)
            node = node->child(idx);
    }
    return addrs;
}

Addr
PageTable::rootAddr() const
{
    return frames_.frameAddr(root_->frame);
}

bool
PageTable::unmapPage(Vpn vpn)
{
    return mapped_.erase(vpn);
}

template <typename Self, typename Io>
void
PageTable::state(Self &self, Io &io)
{
    io.tag("pt");
    io.fixed(self.asid_, "page table ASID");
    io.u(self.nodeCount_);
    // Recursive pre-order encoding: frame, child count, then
    // (index, subtree) per present child. Absent children are not on
    // the wire, so the tree is written and read by separate walks.
    if constexpr (Io::kReading) {
        constexpr std::uint32_t kRadix = 1u << kPtBitsPerLevel;
        struct Dec
        {
            StateReader &r;
            std::uint64_t seen = 0;
            void
            node(Node &n, std::uint32_t depth)
            {
                if (depth > kPtLevels)
                    r.fail("page table deeper than " +
                           std::to_string(kPtLevels) + " levels");
                ++seen;
                r.u(n.frame);
                n.children.clear();
                const std::uint64_t present = r.count(kRadix);
                if (present > 0)
                    n.children.resize(kRadix);
                std::uint64_t prev_idx = 0;
                for (std::uint64_t k = 0; k < present; ++k) {
                    const std::uint64_t idx = r.u();
                    if (idx >= kRadix || (k > 0 && idx <= prev_idx))
                        r.fail("page table child index out of order");
                    prev_idx = idx;
                    auto child = std::make_unique<Node>();
                    node(*child, depth + 1);
                    n.children[idx] = std::move(child);
                }
            }
        };
        Dec dec{io};
        self.root_ = std::make_unique<Node>();
        dec.node(*self.root_, 1);
        if (dec.seen != self.nodeCount_)
            io.fail("page table node count " +
                    std::to_string(self.nodeCount_) + " disagrees with " +
                    std::to_string(dec.seen) + " decoded nodes");
    } else {
        struct Enc
        {
            StateWriter &w;
            void
            node(const Node &n)
            {
                w.u(n.frame);
                std::uint64_t present = 0;
                for (const auto &child : n.children) {
                    if (child)
                        ++present;
                }
                w.u(present);
                for (std::size_t i = 0; i < n.children.size(); ++i) {
                    if (n.children[i]) {
                        w.u(i);
                        node(*n.children[i]);
                    }
                }
            }
        };
        Enc{io}.node(*self.root_);
    }
    self.mapped_.slots(io, [&io](auto &pfn) { io.u(pfn); });
}

MASK_STATE_INSTANTIATE(PageTable);

} // namespace mask
