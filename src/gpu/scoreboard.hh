/**
 * @file
 * Per-warp register scoreboard: tracks pending writes so the issue
 * logic can enforce RAW/WAW dependences. Predicates are tracked in
 * the same namespace, offset past the general registers.
 */

#ifndef EMERALD_GPU_SCOREBOARD_HH
#define EMERALD_GPU_SCOREBOARD_HH

#include <array>
#include <cstdint>
#include <vector>

#include "gpu/isa/instruction.hh"

namespace emerald::gpu
{

/**
 * The register/predicate slots one instruction writes: at most four
 * (a TEX quad), held inline so issue never allocates.
 */
class SlotList
{
  public:
    static constexpr unsigned capacity = 4;

    void
    push(unsigned slot)
    {
        _slots[_size++] = static_cast<std::uint8_t>(slot);
    }

    const std::uint8_t *begin() const { return _slots.data(); }
    const std::uint8_t *end() const { return _slots.data() + _size; }
    unsigned size() const { return _size; }
    bool empty() const { return _size == 0; }

  private:
    std::array<std::uint8_t, capacity> _slots{};
    std::uint8_t _size = 0;
};

class Scoreboard
{
  public:
    /** Slot index of a predicate register in the pending table. */
    static constexpr unsigned
    predSlot(int pred)
    {
        return isa::maxRegs + static_cast<unsigned>(pred);
    }

    static constexpr unsigned numSlots = isa::maxRegs + isa::maxPreds;

    explicit Scoreboard(unsigned num_warps);

    /** Registers written by @p instr (dest regs; quads for TEX). */
    static SlotList destSlots(const isa::Instruction &instr);

    /**
     * True when @p instr has no hazard in warp @p warp: its guard,
     * sources (quads for BLEND/STFB) and destinations are all clear.
     */
    bool ready(unsigned warp, const isa::Instruction &instr) const;

    /** Mark @p slots pending in @p warp; panics on a pending slot. */
    void markPending(unsigned warp, const SlotList &slots);

    /** Clear @p slots in @p warp; panics on a clear slot. */
    void release(unsigned warp, const SlotList &slots);

    /** True when nothing is pending for @p warp. */
    bool
    idle(unsigned warp) const
    {
        return _pending[warp][0] == 0 && _pending[warp][1] == 0;
    }

    /** Clear all state for @p warp (new task assigned). */
    void resetWarp(unsigned warp) { _pending[warp] = {}; }

  private:
    /** One warp's pending slots: slot s is bit s % 64 of word s / 64. */
    using Bits = std::array<std::uint64_t, 2>;
    static_assert(numSlots <= 128, "scoreboard slots exceed two words");

    bool
    pending(unsigned warp, unsigned slot) const
    {
        return (_pending[warp][slot / 64] >> (slot % 64)) & 1;
    }

    /** True when any of the @p count slots from @p first is pending. */
    bool
    anyPending(unsigned warp, int first, unsigned count) const
    {
        for (unsigned i = 0; i < count; ++i) {
            if (pending(warp, static_cast<unsigned>(first) + i))
                return true;
        }
        return false;
    }

    std::vector<Bits> _pending;
};

} // namespace emerald::gpu

#endif // EMERALD_GPU_SCOREBOARD_HH
