#include "gpu/coalescer.hh"

#include <algorithm>

namespace emerald::gpu
{

void
coalesce(const std::vector<isa::ThreadMemAccess> &accesses,
         unsigned line_size, std::vector<CoalescedAccess> &out)
{
    out.clear();
    const Addr mask = ~static_cast<Addr>(line_size - 1);
    for (const isa::ThreadMemAccess &access : accesses) {
        CoalescedAccess coalesced{access.addr & mask, access.write};
        // Accesses within a warp instruction touch few lines; linear
        // search beats hashing at this scale.
        if (std::find(out.begin(), out.end(), coalesced) == out.end())
            out.push_back(coalesced);
    }
}

} // namespace emerald::gpu
