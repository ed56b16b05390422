/**
 * @file
 * FR-FCFS scheduling decision (Rixner et al. / Zuravleff-Robinson),
 * shared by the baseline single-queue controller and by MASK's Silver
 * and Normal queues (the paper uses FR-FCFS within both, Section 5.4).
 */

#include "dram/dram.hh"

namespace mask {

int
frFcfsPick(std::vector<DramQueueEntry> &queue,
           const std::vector<DramBank> &banks, Cycle now,
           std::uint32_t starvation_cap,
           std::uint64_t *cap_escalations)
{
    int oldest_serviceable = -1;
    int oldest_row_hit = -1;

    for (std::size_t i = 0; i < queue.size(); ++i) {
        const DramQueueEntry &entry = queue[i];
        const DramBank &bank = banks[entry.bank];
        if (bank.readyAt > now)
            continue;
        if (oldest_serviceable < 0)
            oldest_serviceable = static_cast<int>(i);
        if (oldest_row_hit < 0 && bank.rowValid &&
            bank.openRow == entry.row) {
            oldest_row_hit = static_cast<int>(i);
            break; // queue is age-ordered; first row hit is oldest
        }
    }

    if (oldest_serviceable < 0)
        return -1;

    // Starvation control: once the oldest serviceable request has been
    // bypassed too many times, first-come-first-serve wins.
    DramQueueEntry &oldest = queue[oldest_serviceable];
    if (oldest_row_hit >= 0 && oldest_row_hit != oldest_serviceable) {
        if (oldest.bypassed >= starvation_cap) {
            if (cap_escalations != nullptr)
                ++*cap_escalations;
            return oldest_serviceable;
        }
        ++oldest.bypassed;
        return oldest_row_hit;
    }
    return oldest_serviceable;
}

} // namespace mask
