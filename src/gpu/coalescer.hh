/**
 * @file
 * Memory access coalescing: per-lane accesses from one warp
 * instruction collapse into unique line-sized transactions, the way
 * the paper's SIMT core coalescing unit does (Table 2).
 */

#ifndef EMERALD_GPU_COALESCER_HH
#define EMERALD_GPU_COALESCER_HH

#include <vector>

#include "gpu/isa/executor.hh"
#include "sim/types.hh"

namespace emerald::gpu
{

/** One coalesced, line-aligned transaction. */
struct CoalescedAccess
{
    Addr lineAddr = 0;
    bool write = false;

    bool operator==(const CoalescedAccess &other) const = default;
};

/**
 * Coalesce @p accesses into unique line transactions in @p out
 * (cleared first, so a caller can reuse one buffer), preserving
 * first-touch order. Reads and writes to the same line stay separate
 * transactions.
 */
void coalesce(const std::vector<isa::ThreadMemAccess> &accesses,
              unsigned line_size, std::vector<CoalescedAccess> &out);

} // namespace emerald::gpu

#endif // EMERALD_GPU_COALESCER_HH
