/**
 * @file
 * Functional (data-carrying) memory, separate from the timing model.
 *
 * GPGPU buffers, vertex/index buffers and shader constants live here.
 * Timing packets never carry data; functional reads and writes happen
 * at execute time against this store. A simple bump allocator hands
 * out disjoint address ranges so every buffer also has a stable
 * physical address for the timing model to exercise.
 */

#ifndef EMERALD_MEM_FUNCTIONAL_MEMORY_HH
#define EMERALD_MEM_FUNCTIONAL_MEMORY_HH

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/types.hh"

namespace emerald::mem
{

/** Sparse, page-granular byte-addressable memory with an allocator. */
class FunctionalMemory
{
  public:
    static constexpr unsigned pageBits = 12;
    static constexpr Addr pageSize = Addr(1) << pageBits;

    FunctionalMemory() = default;

    /** Allocate @p bytes aligned to @p align; returns base address. */
    Addr allocate(std::uint64_t bytes, std::uint64_t align = 128);

    void read(Addr addr, void *buf, std::uint64_t bytes) const;
    void write(Addr addr, const void *buf, std::uint64_t bytes);

    std::uint32_t
    read32(Addr addr) const
    {
        std::uint32_t v = 0;
        read(addr, &v, sizeof(v));
        return v;
    }

    void
    write32(Addr addr, std::uint32_t value)
    {
        write(addr, &value, sizeof(value));
    }

    float
    readF32(Addr addr) const
    {
        float v = 0.0f;
        read(addr, &v, sizeof(v));
        return v;
    }

    void
    writeF32(Addr addr, float value)
    {
        write(addr, &value, sizeof(value));
    }

  private:
    std::uint8_t *pageFor(Addr addr, bool create) const;

    mutable std::unordered_map<Addr, std::unique_ptr<std::uint8_t[]>>
        _pages;
    Addr _nextAlloc = 0x10000;
};

} // namespace emerald::mem

#endif // EMERALD_MEM_FUNCTIONAL_MEMORY_HH
