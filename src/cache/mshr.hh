/**
 * @file
 * Miss status holding registers for the non-blocking caches.
 */

#ifndef EMERALD_CACHE_MSHR_HH
#define EMERALD_CACHE_MSHR_HH

#include <vector>

#include "sim/packet.hh"
#include "sim/types.hh"

namespace emerald::cache
{

/** One outstanding line fill with its waiting requests. */
struct Mshr
{
    Addr lineAddr = 0;
    bool fillSent = false;
    /** Original requests to answer once the line arrives. */
    std::vector<MemPacket *> targets;
};

/**
 * A fixed-capacity MSHR file indexed by line address: one slot per
 * entry, allocated at construction and reused, so a miss allocates
 * nothing.
 */
class MshrFile
{
  public:
    MshrFile(unsigned num_entries, unsigned targets_per_entry);

    /** Look up the MSHR covering @p line_addr, or nullptr. */
    Mshr *
    find(Addr line_addr)
    {
        for (std::size_t i = 0; i < _lineOf.size(); ++i) {
            if (_lineOf[i] == line_addr)
                return &_slots[i];
        }
        return nullptr;
    }

    /** True when a new MSHR can be allocated. */
    bool available() const { return _inUse < _slots.size(); }

    /**
     * Allocate an MSHR for @p line_addr, with no targets and
     * fillSent false.
     * @pre available() and no entry for the line exists.
     */
    Mshr &allocate(Addr line_addr);

    /** True when @p mshr can absorb one more target. */
    bool
    canAddTarget(const Mshr &mshr) const
    {
        return mshr.targets.size() < _targetsPerEntry;
    }

    /** Release the MSHR for @p line_addr. */
    void release(Addr line_addr);

    std::size_t inUse() const { return _inUse; }

    /** All live entries sorted by line address, for checkpointing. */
    std::vector<const Mshr *> entries() const;

  private:
    /** _lineOf value of a free slot; no line address is all ones. */
    static constexpr Addr freeSlot = ~Addr(0);

    unsigned _targetsPerEntry;
    /** Line address held by each slot, or freeSlot. */
    std::vector<Addr> _lineOf;
    std::vector<Mshr> _slots;
    std::size_t _inUse = 0;
};

} // namespace emerald::cache

#endif // EMERALD_CACHE_MSHR_HH
