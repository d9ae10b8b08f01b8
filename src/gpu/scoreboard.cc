#include "gpu/scoreboard.hh"

#include "sim/logging.hh"

namespace emerald::gpu
{

using isa::Instruction;
using isa::Opcode;
using isa::Operand;

namespace
{

/** Registers the destination of @p instr spans: a quad for TEX. */
unsigned
destWidth(const Instruction &instr)
{
    return instr.op == Opcode::TEX ? 4 : 1;
}

} // namespace

Scoreboard::Scoreboard(unsigned num_warps) : _pending(num_warps) {}

SlotList
Scoreboard::destSlots(const Instruction &instr)
{
    SlotList slots;
    if (instr.op == Opcode::SETP) {
        slots.push(predSlot(instr.dst.index));
        return slots;
    }
    if (instr.dst.kind == Operand::Kind::Reg) {
        for (unsigned i = 0; i < destWidth(instr); ++i)
            slots.push(static_cast<unsigned>(instr.dst.index) + i);
    }
    return slots;
}

bool
Scoreboard::ready(unsigned warp, const Instruction &instr) const
{
    if (instr.guard >= 0 && pending(warp, predSlot(instr.guard)))
        return false;
    // BLEND and STFB read a color quad.
    const unsigned src_width =
        instr.op == Opcode::BLEND || instr.op == Opcode::STFB ? 4 : 1;
    for (const Operand &src : instr.src) {
        if (src.kind == Operand::Kind::Reg) {
            if (anyPending(warp, src.index, src_width))
                return false;
        } else if (src.kind == Operand::Kind::Pred) {
            if (pending(warp, predSlot(src.index)))
                return false;
        }
    }
    if (instr.op == Opcode::SETP)
        return !pending(warp, predSlot(instr.dst.index));
    if (instr.dst.kind == Operand::Kind::Reg)
        return !anyPending(warp, instr.dst.index, destWidth(instr));
    return true;
}

void
Scoreboard::markPending(unsigned warp, const SlotList &slots)
{
    for (unsigned slot : slots) {
        std::uint64_t bit = std::uint64_t{1} << (slot % 64);
        std::uint64_t &word = _pending[warp][slot / 64];
        panic_if(word & bit, "scoreboard: slot %u of warp %u marked twice",
                 slot, warp);
        word |= bit;
    }
}

void
Scoreboard::release(unsigned warp, const SlotList &slots)
{
    for (unsigned slot : slots) {
        std::uint64_t bit = std::uint64_t{1} << (slot % 64);
        std::uint64_t &word = _pending[warp][slot / 64];
        panic_if(!(word & bit), "scoreboard underflow");
        word &= ~bit;
    }
}

} // namespace emerald::gpu
