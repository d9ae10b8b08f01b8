#include <gtest/gtest.h>

#include <vector>

#include "core/shader_builder.hh"
#include "gpu/coalescer.hh"
#include "gpu/isa/assembler.hh"
#include "gpu/scoreboard.hh"
#include "gpu/simt_stack.hh"
#include "scenes/shaders.hh"
#include "sim/random.hh"

using namespace emerald;
using namespace emerald::gpu;
using namespace emerald::gpu::isa;

namespace
{

Instruction
braInstr(int target, int rpc, int guard = 0)
{
    Instruction instr;
    instr.op = Opcode::BRA;
    instr.target = target;
    instr.reconvergePc = rpc;
    instr.guard = guard;
    return instr;
}

/**
 * Reference model of the scoreboard's dependence rules as explicit
 * slot lists: the slots @p instr writes (quads for TEX, a predicate
 * for SETP).
 */
std::vector<unsigned>
refDestSlots(const Instruction &instr)
{
    std::vector<unsigned> slots;
    if (instr.op == Opcode::SETP) {
        slots.push_back(Scoreboard::predSlot(instr.dst.index));
        return slots;
    }
    if (instr.dst.kind == Operand::Kind::Reg) {
        unsigned count = instr.op == Opcode::TEX ? 4 : 1;
        for (unsigned i = 0; i < count; ++i)
            slots.push_back(static_cast<unsigned>(instr.dst.index) + i);
    }
    return slots;
}

/** The slots @p instr reads: guard, sources, quads for BLEND/STFB. */
std::vector<unsigned>
refSrcSlots(const Instruction &instr)
{
    std::vector<unsigned> slots;
    if (instr.guard >= 0)
        slots.push_back(Scoreboard::predSlot(instr.guard));
    for (const Operand &src : instr.src) {
        if (src.kind == Operand::Kind::Reg) {
            unsigned count = (instr.op == Opcode::BLEND ||
                              instr.op == Opcode::STFB)
                                 ? 4
                                 : 1;
            for (unsigned i = 0; i < count; ++i)
                slots.push_back(static_cast<unsigned>(src.index) + i);
        } else if (src.kind == Operand::Kind::Pred) {
            slots.push_back(Scoreboard::predSlot(src.index));
        }
    }
    return slots;
}

/** Every program of scenes/shaders.cc; fragments with both ROP tails. */
std::vector<const Program *>
allShaderPrograms(core::ShaderBuilder &builder)
{
    std::vector<const Program *> programs = {
        builder.buildVertex("vs", scenes::vertexShaderSource()),
        builder.buildKernel("vecadd", scenes::kernelVecAddSource()),
        builder.buildKernel("reduce", scenes::kernelReduceSource()),
        builder.buildKernel("saxpy", scenes::kernelSaxpyBranchySource()),
    };
    const std::string *fragments[] = {
        &scenes::fragmentTexturedSource(),
        &scenes::fragmentTranslucentSource(),
        &scenes::fragmentFlatSource(),
        &scenes::fragmentHeavySource(),
    };
    for (const std::string *source : fragments) {
        for (bool blend : {false, true}) {
            core::RenderState state;
            state.blend = blend;
            programs.push_back(builder.buildFragment(
                blend ? "fs.blend" : "fs.stfb", *source, state));
        }
    }
    return programs;
}

} // namespace

TEST(SimtStack, UniformExecutionAdvances)
{
    SimtStack stack;
    stack.reset(0xffffffffu);
    EXPECT_EQ(stack.pc(), 0);
    EXPECT_EQ(stack.activeMask(), 0xffffffffu);
    stack.advance();
    EXPECT_EQ(stack.pc(), 1);
    EXPECT_EQ(stack.depth(), 1u);
}

TEST(SimtStack, DivergenceAndReconvergence)
{
    SimtStack stack;
    stack.reset(0xffffffffu);
    // Branch at pc 0: lanes 0-15 taken (to pc 10), reconverge pc 20.
    stack.branch(braInstr(10, 20), 0x0000ffffu, 0xffffffffu);

    // Taken path executes first.
    EXPECT_EQ(stack.pc(), 10);
    EXPECT_EQ(stack.activeMask(), 0x0000ffffu);
    EXPECT_EQ(stack.depth(), 3u);

    // Walk the taken path to the reconvergence point.
    for (int pc = 10; pc < 20; ++pc)
        stack.advance();

    // Now the not-taken path (fallthrough pc 1).
    EXPECT_EQ(stack.pc(), 1);
    EXPECT_EQ(stack.activeMask(), 0xffff0000u);
    for (int pc = 1; pc < 20; ++pc)
        stack.advance();

    // Full mask restored at the reconvergence point.
    EXPECT_EQ(stack.pc(), 20);
    EXPECT_EQ(stack.activeMask(), 0xffffffffu);
    EXPECT_EQ(stack.depth(), 1u);
}

TEST(SimtStack, UniformTakenBranchJustJumps)
{
    SimtStack stack;
    stack.reset(0xfu);
    stack.branch(braInstr(7, 9), 0xfu, 0xfu);
    EXPECT_EQ(stack.pc(), 7);
    EXPECT_EQ(stack.depth(), 1u);
}

TEST(SimtStack, BranchTargetAtReconvergenceMergesImmediately)
{
    // Guarded jump straight to the join label: the taken entry starts
    // at the reconvergence pc and must merge at once (the bug behind
    // a barrier deadlock found during bring-up).
    SimtStack stack;
    stack.reset(0xffu);
    stack.branch(braInstr(5, 5), 0x0fu, 0xffu);
    // Taken lanes merged; not-taken path executes pc 1..4 first.
    EXPECT_EQ(stack.pc(), 1);
    EXPECT_EQ(stack.activeMask(), 0xf0u);
    for (int pc = 1; pc < 5; ++pc)
        stack.advance();
    EXPECT_EQ(stack.pc(), 5);
    EXPECT_EQ(stack.activeMask(), 0xffu);
    EXPECT_EQ(stack.depth(), 1u);
}

TEST(SimtStack, NestedDivergence)
{
    SimtStack stack;
    stack.reset(0xffffffffu);
    stack.branch(braInstr(10, 30), 0x0000ffffu, 0xffffffffu);
    EXPECT_EQ(stack.pc(), 10);
    // Nested branch inside the taken path.
    stack.branch(braInstr(20, 25), 0x000000ffu, 0xffffffffu);
    EXPECT_EQ(stack.pc(), 20);
    EXPECT_EQ(stack.activeMask(), 0x000000ffu);
    EXPECT_EQ(stack.depth(), 5u);

    for (int pc = 20; pc < 25; ++pc)
        stack.advance();
    EXPECT_EQ(stack.pc(), 11); // Inner not-taken.
    for (int pc = 11; pc < 25; ++pc)
        stack.advance();
    EXPECT_EQ(stack.pc(), 25);
    EXPECT_EQ(stack.activeMask(), 0x0000ffffu);
}

TEST(SimtStack, PruneDeadPopsEmptyEntries)
{
    SimtStack stack;
    stack.reset(0xffffffffu);
    stack.branch(braInstr(10, 20), 0x0000ffffu, 0xffffffffu);
    // All taken lanes exit.
    stack.pruneDead(0xffff0000u);
    EXPECT_EQ(stack.pc(), 1);
    EXPECT_EQ(stack.activeMask(), 0xffff0000u);

    // Everyone exits.
    stack.pruneDead(0);
    EXPECT_TRUE(stack.empty());
}

TEST(Coalescer, SequentialAccessesShareLine)
{
    std::vector<ThreadMemAccess> accesses;
    for (unsigned i = 0; i < 32; ++i)
        accesses.push_back({0x1000 + i * 4, 4, false});
    std::vector<CoalescedAccess> lines;
    coalesce(accesses, 128, lines);
    ASSERT_EQ(lines.size(), 1u);
    EXPECT_EQ(lines[0].lineAddr, 0x1000u);
}

TEST(Coalescer, StridedAccessesSplit)
{
    std::vector<ThreadMemAccess> accesses;
    for (unsigned i = 0; i < 32; ++i)
        accesses.push_back({Addr(i) * 128, 4, false});
    std::vector<CoalescedAccess> lines;
    coalesce(accesses, 128, lines);
    EXPECT_EQ(lines.size(), 32u);
}

TEST(Coalescer, ReadsAndWritesStayDistinct)
{
    std::vector<ThreadMemAccess> accesses = {
        {0x1000, 4, false},
        {0x1004, 4, true},
    };
    std::vector<CoalescedAccess> lines;
    coalesce(accesses, 128, lines);
    ASSERT_EQ(lines.size(), 2u);
    EXPECT_FALSE(lines[0].write);
    EXPECT_TRUE(lines[1].write);
}

TEST(Coalescer, PreservesFirstTouchOrder)
{
    std::vector<ThreadMemAccess> accesses = {
        {0x2000, 4, false},
        {0x1000, 4, false},
        {0x2004, 4, false},
    };
    std::vector<CoalescedAccess> lines;
    coalesce(accesses, 128, lines);
    ASSERT_EQ(lines.size(), 2u);
    EXPECT_EQ(lines[0].lineAddr, 0x2000u);
    EXPECT_EQ(lines[1].lineAddr, 0x1000u);
}

TEST(Coalescer, ReusedBufferStartsEmpty)
{
    std::vector<CoalescedAccess> lines;
    coalesce({{0x1000, 4, false}, {0x3000, 4, true}}, 128, lines);
    coalesce({{0x2000, 4, false}}, 128, lines);
    ASSERT_EQ(lines.size(), 1u);
    EXPECT_EQ(lines[0].lineAddr, 0x2000u);
}

TEST(Scoreboard, RawAndWawHazards)
{
    Scoreboard sb(4);
    Program p = assemble("t", R"(
        add.f32 r2, r0, r1
        add.f32 r3, r2, r1
        add.f32 r2, r4, r5
        add.f32 r6, r4, r5
        exit
    )");

    // Issue instr 0: r2 pending.
    EXPECT_TRUE(sb.ready(0, p.code[0]));
    sb.markPending(0, Scoreboard::destSlots(p.code[0]));

    EXPECT_FALSE(sb.ready(0, p.code[1])); // RAW on r2.
    EXPECT_FALSE(sb.ready(0, p.code[2])); // WAW on r2.
    EXPECT_TRUE(sb.ready(0, p.code[3]));  // Independent.
    EXPECT_TRUE(sb.ready(1, p.code[1]));  // Other warp unaffected.

    sb.release(0, Scoreboard::destSlots(p.code[0]));
    EXPECT_TRUE(sb.ready(0, p.code[1]));
    EXPECT_TRUE(sb.idle(0));
}

TEST(Scoreboard, PredicateDependencies)
{
    Scoreboard sb(1);
    Program p = assemble("t", R"(
        setp.lt.f32 p0, r0, r1
        @p0 mov.f32 r2, 1.0
        exit
    )");
    sb.markPending(0, Scoreboard::destSlots(p.code[0]));
    EXPECT_FALSE(sb.ready(0, p.code[1])); // Guard depends on p0.
    sb.release(0, Scoreboard::destSlots(p.code[0]));
    EXPECT_TRUE(sb.ready(0, p.code[1]));
}

TEST(Scoreboard, TexWritesQuad)
{
    Scoreboard sb(1);
    Program p = assemble("t", R"(
        tex.2d r4, t0, r0, r1
        add.f32 r8, r6, r7
        exit
    )");
    auto dests = Scoreboard::destSlots(p.code[0]);
    EXPECT_EQ(dests.size(), 4u);
    sb.markPending(0, dests);
    EXPECT_FALSE(sb.ready(0, p.code[1])); // r6/r7 in the quad.
}

TEST(Scoreboard, MatchesSlotListReference)
{
    // For every instruction of every library shader and kernel, under
    // random pending sets in several warps, ready() must agree with
    // the slot-list reference.
    core::ShaderBuilder builder;
    const std::vector<const Program *> programs =
        allShaderPrograms(builder);
    constexpr unsigned warps = 3;
    constexpr unsigned trials = 48;
    Scoreboard sb(warps);
    Random rng(0x5c0feb0a7dULL);
    std::vector<std::vector<bool>> pending(
        warps, std::vector<bool>(Scoreboard::numSlots));
    std::vector<bool> ever_pending(Scoreboard::numSlots);

    // Hazards the reference found through exactly one pending slot,
    // by the kind of slot: the new code must see each one on its own.
    unsigned guard = 0, setp_dest = 0, tex_quad = 0, rop_quad = 0;
    unsigned ready = 0, blocked = 0;
    for (const Program *program : programs) {
        for (std::size_t pc = 0; pc < program->code.size(); ++pc) {
            const Instruction &instr = program->code[pc];
            const std::vector<unsigned> srcs = refSrcSlots(instr);
            const std::vector<unsigned> dests = refDestSlots(instr);
            for (unsigned trial = 0; trial < trials; ++trial) {
                for (unsigned w = 0; w < warps; ++w) {
                    sb.resetWarp(w);
                    for (unsigned slot = 0; slot < Scoreboard::numSlots;
                         ++slot) {
                        pending[w][slot] = rng.below(8) == 0;
                        if (!pending[w][slot])
                            continue;
                        SlotList one;
                        one.push(slot);
                        sb.markPending(w, one);
                        ever_pending[slot] = true;
                    }
                }
                for (unsigned w = 0; w < warps; ++w) {
                    std::vector<unsigned> hazards;
                    for (unsigned slot : srcs) {
                        if (pending[w][slot])
                            hazards.push_back(slot);
                    }
                    for (unsigned slot : dests) {
                        if (pending[w][slot])
                            hazards.push_back(slot);
                    }
                    ASSERT_EQ(sb.ready(w, instr), hazards.empty())
                        << program->name << " pc " << pc << " warp " << w;
                    ++(hazards.empty() ? ready : blocked);
                    if (hazards.size() != 1)
                        continue;
                    unsigned slot = hazards[0];
                    if (instr.guard >= 0 &&
                        slot == Scoreboard::predSlot(instr.guard)) {
                        ++guard;
                    } else if (instr.op == Opcode::SETP) {
                        ++setp_dest;
                    } else if (instr.op == Opcode::TEX &&
                               slot > dests[0] && slot <= dests[0] + 3) {
                        ++tex_quad;
                    } else if ((instr.op == Opcode::BLEND ||
                                instr.op == Opcode::STFB) &&
                               slot > srcs.back() - 3 &&
                               slot <= srcs.back()) {
                        ++rop_quad;
                    }
                }
            }
        }
    }
    // Every slot, all 8 predicates included, was pending somewhere.
    for (unsigned slot = 0; slot < Scoreboard::numSlots; ++slot)
        EXPECT_TRUE(ever_pending[slot]) << "slot " << slot;
    EXPECT_GT(guard, 0u);
    EXPECT_GT(setp_dest, 0u);
    EXPECT_GT(tex_quad, 0u);
    EXPECT_GT(rop_quad, 0u);
    EXPECT_GT(ready, 0u);
    EXPECT_GT(blocked, 0u);
}

TEST(Scoreboard, DoubleMarkPanics)
{
    Scoreboard sb(2);
    Program p = assemble("t", R"(
        add.f32 r2, r0, r1
        exit
    )");
    SlotList dests = Scoreboard::destSlots(p.code[0]);
    sb.markPending(1, dests);
    EXPECT_DEATH(sb.markPending(1, dests), "slot 2 of warp 1 marked twice");
}

TEST(Scoreboard, ReleasingClearSlotPanics)
{
    Scoreboard sb(1);
    Program p = assemble("t", R"(
        setp.lt.f32 p3, r0, r1
        exit
    )");
    EXPECT_DEATH(sb.release(0, Scoreboard::destSlots(p.code[0])),
                 "scoreboard underflow");
}
