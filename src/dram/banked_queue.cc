#include "dram/banked_queue.hh"

#include <algorithm>

#include "common/check.hh"

namespace mask {

BankedRequestQueue::BankedRequestQueue(std::uint32_t num_banks)
    : banks_(num_banks)
{
}

void
BankedRequestQueue::linkHit(std::uint32_t node, BankIndex &bank)
{
    Node &n = nodes_[node];
    n.inHitChain = true;
    n.hitPrev = bank.hitTail;
    n.hitNext = kNil;
    if (bank.hitTail != kNil)
        nodes_[bank.hitTail].hitNext = node;
    else
        bank.hitHead = node;
    bank.hitTail = node;
}

void
BankedRequestQueue::unlinkHit(std::uint32_t node, BankIndex &bank)
{
    Node &n = nodes_[node];
    if (n.hitPrev != kNil)
        nodes_[n.hitPrev].hitNext = n.hitNext;
    else
        bank.hitHead = n.hitNext;
    if (n.hitNext != kNil)
        nodes_[n.hitNext].hitPrev = n.hitPrev;
    else
        bank.hitTail = n.hitPrev;
    n.hitPrev = n.hitNext = kNil;
    n.inHitChain = false;
}

void
BankedRequestQueue::push(const DramQueueEntry &e,
                         const std::vector<DramBank> &banks)
{
    std::uint32_t node;
    if (!freeNodes_.empty()) {
        node = freeNodes_.back();
        freeNodes_.pop_back();
    } else {
        node = static_cast<std::uint32_t>(nodes_.size());
        nodes_.emplace_back();
    }
    Node &n = nodes_[node];
    n.entry = e;
    n.seq = nextSeq_++;
    n.hitPrev = n.hitNext = kNil;
    n.inHitChain = false;

    // Age list tail (youngest).
    n.agePrev = ageTail_;
    n.ageNext = kNil;
    if (ageTail_ != kNil)
        nodes_[ageTail_].ageNext = node;
    else
        ageHead_ = node;
    ageTail_ = node;

    // Bank FIFO tail.
    BankIndex &bank = banks_[e.bank];
    n.bankPrev = bank.tail;
    n.bankNext = kNil;
    if (bank.tail != kNil)
        nodes_[bank.tail].bankNext = node;
    else
        bank.head = node;
    bank.tail = node;
    ++bank.count;

    // Row-hit chain: appending keeps the chain age-ordered because
    // the new entry is the youngest in its bank.
    const DramBank &state = banks[e.bank];
    if (state.rowValid && state.openRow == e.row)
        linkHit(node, bank);

    ++size_;
}

DramQueueEntry
BankedRequestQueue::take(std::uint32_t node)
{
    Node &n = nodes_[node];
    BankIndex &bank = banks_[n.entry.bank];

    if (n.agePrev != kNil)
        nodes_[n.agePrev].ageNext = n.ageNext;
    else
        ageHead_ = n.ageNext;
    if (n.ageNext != kNil)
        nodes_[n.ageNext].agePrev = n.agePrev;
    else
        ageTail_ = n.agePrev;

    if (n.bankPrev != kNil)
        nodes_[n.bankPrev].bankNext = n.bankNext;
    else
        bank.head = n.bankNext;
    if (n.bankNext != kNil)
        nodes_[n.bankNext].bankPrev = n.bankPrev;
    else
        bank.tail = n.bankPrev;
    --bank.count;

    if (n.inHitChain)
        unlinkHit(node, bank);

    --size_;
    freeNodes_.push_back(node);
    return n.entry;
}

DramQueueEntry &
BankedRequestQueue::entry(std::uint32_t node)
{
    return nodes_[node].entry;
}

const DramQueueEntry &
BankedRequestQueue::entry(std::uint32_t node) const
{
    return nodes_[node].entry;
}

std::uint32_t
BankedRequestQueue::pick(const std::vector<DramBank> &banks, Cycle now,
                         std::uint32_t starvation_cap,
                         std::uint64_t *cap_escalations,
                         std::uint64_t *scanned, Cycle *busy_until)
{
    // The age-scan minima reduce to per-bank head minima: within a
    // bank the FIFO head is its oldest entry (and the hit-chain head
    // its oldest open-row hit), so the globally oldest serviceable
    // entry / row hit is the minimum sequence number over ready
    // banks' heads.
    std::uint32_t oldest = kNil;
    std::uint64_t oldest_seq = ~std::uint64_t{0};
    std::uint32_t hit = kNil;
    std::uint64_t hit_seq = ~std::uint64_t{0};

    for (std::uint32_t b = 0; b < banks_.size(); ++b) {
        const BankIndex &bank = banks_[b];
        if (bank.count == 0)
            continue;
        if (scanned != nullptr)
            ++*scanned;
        if (banks[b].readyAt > now) {
            if (busy_until != nullptr)
                *busy_until = std::min(*busy_until, banks[b].readyAt);
            continue;
        }
        const Node &head = nodes_[bank.head];
        if (head.seq < oldest_seq) {
            oldest = bank.head;
            oldest_seq = head.seq;
        }
        if (bank.hitHead != kNil) {
            const Node &hit_head = nodes_[bank.hitHead];
            if (hit_head.seq < hit_seq) {
                hit = bank.hitHead;
                hit_seq = hit_head.seq;
            }
        }
    }

    if (oldest == kNil)
        return kNil;

    if (hit != kNil && hit != oldest) {
        DramQueueEntry &entry = nodes_[oldest].entry;
        if (entry.bypassed >= starvation_cap) {
            if (cap_escalations != nullptr)
                ++*cap_escalations;
            return oldest;
        }
        ++entry.bypassed;
        return hit;
    }
    return oldest;
}

void
BankedRequestQueue::onRowChange(std::uint32_t bank,
                                const std::vector<DramBank> &banks)
{
    BankIndex &idx = banks_[bank];
    // Drop the stale chain, then relink matches by walking the bank
    // FIFO list (age-ordered, so the rebuilt chain is too).
    while (idx.hitHead != kNil)
        unlinkHit(idx.hitHead, idx);
    const DramBank &state = banks[bank];
    if (!state.rowValid)
        return;
    for (std::uint32_t n = idx.head; n != kNil;
         n = nodes_[n].bankNext) {
        if (nodes_[n].entry.row == state.openRow)
            linkHit(n, idx);
    }
}

void
BankedRequestQueue::clear()
{
    nodes_.clear();
    freeNodes_.clear();
    for (BankIndex &bank : banks_)
        bank = BankIndex{};
    ageHead_ = ageTail_ = kNil;
    size_ = 0;
    nextSeq_ = 0;
}

template <typename Self, typename Io>
void
BankedRequestQueue::state(Self &self, Io &io,
                          const std::vector<DramBank> &banks)
{
    if constexpr (Io::kReading) {
        const std::uint64_t n = io.count(kMaxSeqItems);
        self.clear();
        for (std::uint64_t i = 0; i < n; ++i) {
            DramQueueEntry e;
            io.obj(e);
            if (e.bank >= self.banks_.size())
                io.fail("DRAM queue bank index " +
                        std::to_string(e.bank) + " out of range");
            self.push(e, banks);
        }
    } else {
        io.u(self.size_);
        self.forEachAge([&io](const DramQueueEntry &e) { io.obj(e); });
    }
}

template void BankedRequestQueue::state(const BankedRequestQueue &,
                                        StateWriter &,
                                        const std::vector<DramBank> &);
template void BankedRequestQueue::state(BankedRequestQueue &,
                                        StateReader &,
                                        const std::vector<DramBank> &);

} // namespace mask
