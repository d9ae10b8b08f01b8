#include "cache/mshr.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace emerald::cache
{

MshrFile::MshrFile(unsigned num_entries, unsigned targets_per_entry)
    : _targetsPerEntry(targets_per_entry), _lineOf(num_entries, freeSlot),
      _slots(num_entries)
{
}

Mshr &
MshrFile::allocate(Addr line_addr)
{
    panic_if(!available(), "MSHR file overflow");
    panic_if(line_addr == freeSlot,
             "line address 0x%llx is the free-slot marker",
             (unsigned long long)line_addr);
    panic_if(find(line_addr), "duplicate MSHR for line 0x%llx",
             (unsigned long long)line_addr);
    auto free = std::find(_lineOf.begin(), _lineOf.end(), freeSlot);
    std::size_t slot = static_cast<std::size_t>(free - _lineOf.begin());
    *free = line_addr;
    ++_inUse;
    Mshr &mshr = _slots[slot];
    mshr.lineAddr = line_addr;
    mshr.fillSent = false;
    mshr.targets.clear();
    return mshr;
}

void
MshrFile::release(Addr line_addr)
{
    auto it = std::find(_lineOf.begin(), _lineOf.end(), line_addr);
    panic_if(it == _lineOf.end(), "releasing unknown MSHR 0x%llx",
             (unsigned long long)line_addr);
    *it = freeSlot;
    --_inUse;
}

std::vector<const Mshr *>
MshrFile::entries() const
{
    std::vector<const Mshr *> live;
    live.reserve(_inUse);
    for (std::size_t i = 0; i < _slots.size(); ++i) {
        if (_lineOf[i] != freeSlot)
            live.push_back(&_slots[i]);
    }
    std::sort(live.begin(), live.end(), [](const Mshr *a, const Mshr *b) {
        return a->lineAddr < b->lineAddr;
    });
    return live;
}

} // namespace emerald::cache
