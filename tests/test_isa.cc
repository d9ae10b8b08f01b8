#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>

#include "gpu/isa/assembler.hh"
#include "gpu/isa/cfg.hh"
#include "gpu/isa/executor.hh"

using namespace emerald;
using namespace emerald::gpu::isa;

namespace
{

/** Execute a program functionally on a single thread (lane 0). */
struct MiniRunner
{
    Program prog;
    WarpState state;
    ExecEnv env;
    StepEffects effects;

    explicit MiniRunner(const std::string &src)
        : prog(assemble("test", src))
    {
    }

    /** Run to completion with a scalar pc walker (no divergence). */
    void
    run(std::uint32_t mask = 1)
    {
        int pc = 0;
        int guard_steps = 0;
        while (pc >= 0 &&
               pc < static_cast<int>(prog.code.size()) &&
               ++guard_steps < 10000) {
            const Instruction &instr =
                prog.code[static_cast<std::size_t>(pc)];
            executeWarpInstruction(instr, mask, state, env, effects);
            if (instr.op == Opcode::EXIT)
                break;
            if (instr.op == Opcode::BRA &&
                effects.takenMask == (effects.execMask & mask) &&
                effects.execMask != 0) {
                pc = instr.target;
            } else {
                ++pc;
            }
        }
    }

    float regF(int r) const { return std::bit_cast<float>(state.r[r][0]); }
    std::int32_t regI(int r) const
    {
        return static_cast<std::int32_t>(state.r[r][0]);
    }
    std::uint32_t regU(int r) const { return state.r[r][0]; }
};

} // namespace

TEST(Assembler, ParsesBasicProgram)
{
    Program p = assemble("t", R"(
        mov.f32 r0, 1.5
        add.f32 r1, r0, 2.5
        exit
    )");
    ASSERT_EQ(p.code.size(), 3u);
    EXPECT_EQ(p.code[0].op, Opcode::MOV);
    EXPECT_EQ(p.code[1].op, Opcode::ADD);
    EXPECT_EQ(p.numRegs, 2u);
}

TEST(Assembler, LabelsAndGuards)
{
    Program p = assemble("t", R"(
        setp.lt.f32 p0, r0, r1
        @p0 bra SKIP
        mov.f32 r2, 1.0
        SKIP:
        exit
    )");
    EXPECT_EQ(p.code[1].target, 3);
    EXPECT_EQ(p.code[1].guard, 0);
    EXPECT_EQ(p.numPreds, 1u);
}

TEST(Assembler, RejectsBadInput)
{
    EXPECT_THROW(assemble("t", "bogus.f32 r0, r1\n"), AsmError);
    EXPECT_THROW(assemble("t", "bra NOWHERE\n"), AsmError);
    EXPECT_THROW(assemble("t", "add.f32 r0, r1\n"), AsmError);
    EXPECT_THROW(assemble("t", "mov.f32 r99, r1\n"), AsmError);
    EXPECT_THROW(assemble("t", ""), AsmError);
    EXPECT_THROW(assemble("t", "setp.lt.f32 r0, r1, r2\n"), AsmError);
}

TEST(Assembler, DetectsDiscardAndZTest)
{
    Program p1 = assemble("t", "discard\nexit\n");
    EXPECT_TRUE(p1.usesDiscard);
    Program p2 = assemble("t", "ztest %z\nexit\n");
    EXPECT_TRUE(p2.usesZTest);
    EXPECT_FALSE(p2.usesDiscard);
}

TEST(Assembler, TexUsesQuadRegisters)
{
    Program p = assemble("t", "tex.2d r4, t0, r0, r1\nexit\n");
    EXPECT_EQ(p.code[0].texUnit, 0);
    EXPECT_EQ(p.numRegs, 8u); // r4..r7 written.
}

TEST(Cfg, IfElseReconvergesAtJoin)
{
    Program p = assemble("t", R"(
        setp.lt.f32 p0, r0, r1
        @p0 bra ELSE
        mov.f32 r2, 1.0
        bra JOIN
        ELSE:
        mov.f32 r2, 2.0
        JOIN:
        exit
    )");
    // The conditional branch at pc 1 reconverges at JOIN (pc 5).
    EXPECT_EQ(p.code[1].reconvergePc, 5);
}

TEST(Cfg, LoopBranchReconverges)
{
    Program p = assemble("t", R"(
        mov.u32 r0, 4
        LOOP:
        sub.u32 r0, r0, 1
        setp.gt.u32 p0, r0, 0
        @p0 bra LOOP
        exit
    )");
    // Back edge at pc 3; reconvergence is the loop exit (pc 4).
    EXPECT_EQ(p.code[3].reconvergePc, 4);
}

TEST(Cfg, BasicBlockPartition)
{
    Program p = assemble("t", R"(
        mov.f32 r0, 0.0
        @p0 bra L
        mov.f32 r1, 1.0
        L:
        exit
    )");
    auto blocks = buildBasicBlocks(p);
    ASSERT_EQ(blocks.size(), 3u);
    EXPECT_EQ(blocks[0].first, 0);
    EXPECT_EQ(blocks[0].last, 1);
    EXPECT_EQ(blocks[1].first, 2);
    EXPECT_EQ(blocks[2].first, 3);
}

struct AluCase
{
    const char *name;
    const char *source;
    int dstReg;
    float expected;
};

void
PrintTo(const AluCase &c, std::ostream *os)
{
    *os << c.name;
}

class AluOps : public ::testing::TestWithParam<AluCase>
{
};

TEST_P(AluOps, ComputesExpected)
{
    MiniRunner r(std::string(GetParam().source) + "\nexit\n");
    r.run();
    EXPECT_NEAR(r.regF(GetParam().dstReg), GetParam().expected, 1e-4f)
        << GetParam().source;
}

INSTANTIATE_TEST_SUITE_P(
    Arithmetic, AluOps,
    ::testing::Values(
        AluCase{"mov", "mov.f32 r1, 3.25", 1, 3.25f},
        AluCase{"add", "mov.f32 r0, 2.0\nadd.f32 r1, r0, 0.5", 1, 2.5f},
        AluCase{"sub", "mov.f32 r0, 2.0\nsub.f32 r1, r0, 0.5", 1, 1.5f},
        AluCase{"mul", "mov.f32 r0, 3.0\nmul.f32 r1, r0, r0", 1, 9.0f},
        AluCase{"div", "mov.f32 r0, 9.0\ndiv.f32 r1, r0, 2.0", 1, 4.5f},
        AluCase{"mad", "mov.f32 r0, 2.0\nmad.f32 r1, r0, 3.0, 1.0", 1, 7.0f},
        AluCase{"abs", "mov.f32 r0, -4.0\nabs.f32 r1, r0", 1, 4.0f},
        AluCase{"neg", "mov.f32 r0, 4.0\nneg.f32 r1, r0", 1, -4.0f},
        AluCase{"flr", "mov.f32 r0, 2.75\nflr.f32 r1, r0", 1, 2.0f},
        AluCase{"frc", "mov.f32 r0, 2.75\nfrc.f32 r1, r0", 1, 0.75f},
        AluCase{"min", "mov.f32 r0, 3.0\nmin.f32 r1, r0, 2.0", 1, 2.0f},
        AluCase{"max", "mov.f32 r0, 3.0\nmax.f32 r1, r0, 2.0", 1, 3.0f},
        AluCase{"rcp", "mov.f32 r0, 4.0\nrcp.f32 r1, r0", 1, 0.25f},
        AluCase{"rsq", "mov.f32 r0, 16.0\nrsq.f32 r1, r0", 1, 0.25f},
        AluCase{"sqrt", "mov.f32 r0, 16.0\nsqrt.f32 r1, r0", 1, 4.0f},
        AluCase{"ex2", "mov.f32 r0, 3.0\nex2.f32 r1, r0", 1, 8.0f},
        AluCase{"lg2", "mov.f32 r0, 8.0\nlg2.f32 r1, r0", 1, 3.0f},
        AluCase{"sin", "mov.f32 r0, 0.0\nsin.f32 r1, r0", 1, 0.0f},
        AluCase{"cos", "mov.f32 r0, 0.0\ncos.f32 r1, r0", 1, 1.0f},
        AluCase{"pow", "mov.f32 r0, 2.0\npow.f32 r1, r0, 10.0", 1, 1024.0f}),
    [](const ::testing::TestParamInfo<AluCase> &param_info) {
        return std::string(param_info.param.name);
    });

TEST(Executor, IntegerOps)
{
    MiniRunner r(R"(
        mov.s32 r0, 7
        mov.s32 r1, 3
        add.s32 r2, r0, r1
        sub.s32 r3, r0, r1
        mul.s32 r4, r0, r1
        div.s32 r5, r0, r1
        and.u32 r6, r0, r1
        or.u32 r7, r0, r1
        xor.u32 r8, r0, r1
        shl.u32 r9, r1, 2
        shr.u32 r10, r0, 1
        exit
    )");
    r.run();
    EXPECT_EQ(r.regI(2), 10);
    EXPECT_EQ(r.regI(3), 4);
    EXPECT_EQ(r.regI(4), 21);
    EXPECT_EQ(r.regI(5), 2);
    EXPECT_EQ(r.regI(6), 3);
    EXPECT_EQ(r.regI(7), 7);
    EXPECT_EQ(r.regI(8), 4);
    EXPECT_EQ(r.regI(9), 12);
    EXPECT_EQ(r.regI(10), 3);
}

TEST(Executor, Conversions)
{
    MiniRunner r(R"(
        mov.s32 r0, -7
        cvt.f32.s32 r1, r0
        mov.f32 r2, 3.7
        cvt.s32.f32 r3, r2
        mov.f32 r4, 5.9
        cvt.u32.f32 r5, r4
        exit
    )");
    r.run();
    EXPECT_FLOAT_EQ(r.regF(1), -7.0f);
    EXPECT_EQ(r.regI(3), 3);
    EXPECT_EQ(r.regI(5), 5);
}

TEST(Executor, IntegerToIntegerCvtKeepsBits)
{
    MiniRunner r(R"(
        mov.s32 r0, 5
        cvt.u32.s32 r1, r0
        mov.u32 r2, 7
        cvt.s32.u32 r3, r2
        mov.s32 r4, -1
        cvt.u32.s32 r5, r4
        exit
    )");
    r.run();
    EXPECT_EQ(r.regU(1), 5u);
    EXPECT_EQ(r.regI(3), 7);
    EXPECT_EQ(r.regU(5), 0xffffffffu);
}

TEST(Executor, FloatToIntegerCvtSaturatesAndMapsNanToZero)
{
    MiniRunner r(R"(
        mov.f32 r0, 0.0
        div.f32 r0, r0, r0
        cvt.s32.f32 r1, r0
        cvt.u32.f32 r2, r0
        mov.f32 r3, 3e9
        cvt.s32.f32 r4, r3
        cvt.u32.f32 r5, r3
        mov.f32 r6, -3e9
        cvt.s32.f32 r7, r6
        cvt.u32.f32 r8, r6
        mov.f32 r9, 5e9
        cvt.u32.f32 r10, r9
        mov.f32 r11, -2.9
        cvt.s32.f32 r12, r11
        exit
    )");
    r.run();
    ASSERT_TRUE(std::isnan(r.regF(0)));
    EXPECT_EQ(r.regI(1), 0);
    EXPECT_EQ(r.regU(2), 0u);
    EXPECT_EQ(r.regI(4), std::numeric_limits<std::int32_t>::max());
    EXPECT_EQ(r.regU(5), 3000000000u);
    EXPECT_EQ(r.regI(7), std::numeric_limits<std::int32_t>::min());
    EXPECT_EQ(r.regU(8), 0u);
    EXPECT_EQ(r.regU(10), 0xffffffffu);
    EXPECT_EQ(r.regI(12), -2); // In range: truncates toward zero.
}

TEST(Executor, UnsignedDivMinMaxAreUnsigned)
{
    MiniRunner r(R"(
        mov.u32 r0, 3000000000
        div.u32 r1, r0, 2
        min.u32 r2, r0, 1
        max.u32 r3, r0, 1
        div.u32 r4, r0, 0
        exit
    )");
    r.run();
    EXPECT_EQ(r.regU(1), 1500000000u);
    EXPECT_EQ(r.regU(2), 1u);
    EXPECT_EQ(r.regU(3), 3000000000u);
    EXPECT_EQ(r.regU(4), 0u);
}

TEST(Executor, SignedDivisionOverflowWrapsAndByZeroIsZero)
{
    MiniRunner r(R"(
        mov.s32 r0, -2147483648
        div.s32 r1, r0, -1
        div.s32 r2, r0, 0
        mov.s32 r3, -7
        div.s32 r4, r3, 2
        min.s32 r5, r3, 1
        max.s32 r6, r3, 1
        exit
    )");
    r.run();
    EXPECT_EQ(r.regI(1), std::numeric_limits<std::int32_t>::min());
    EXPECT_EQ(r.regI(2), 0);
    EXPECT_EQ(r.regI(4), -3);
    EXPECT_EQ(r.regI(5), -7);
    EXPECT_EQ(r.regI(6), 1);
}

TEST(Executor, PredicatesAndSelp)
{
    MiniRunner r(R"(
        mov.f32 r0, 1.0
        mov.f32 r1, 2.0
        setp.lt.f32 p0, r0, r1
        selp.f32 r2, 10.0, 20.0, p0
        setp.gt.f32 p1, r0, r1
        selp.f32 r3, 10.0, 20.0, p1
        @p0 mov.f32 r4, 5.0
        @p1 mov.f32 r5, 6.0
        exit
    )");
    r.run();
    EXPECT_FLOAT_EQ(r.regF(2), 10.0f);
    EXPECT_FLOAT_EQ(r.regF(3), 20.0f);
    EXPECT_FLOAT_EQ(r.regF(4), 5.0f);  // Guard true: executed.
    EXPECT_FLOAT_EQ(r.regF(5), 0.0f);  // Guard false: skipped.
}

TEST(Executor, GlobalMemoryRoundTrip)
{
    MiniRunner r(R"(
        mov.u32 r0, 4096
        mov.f32 r1, 42.5
        stg.f32 [r0 + 8], r1
        ldg.f32 r2, [r0 + 8]
        exit
    )");
    mem::FunctionalMemory fmem;
    r.env.global = &fmem;
    r.run();
    EXPECT_FLOAT_EQ(r.regF(2), 42.5f);
    EXPECT_FLOAT_EQ(fmem.readF32(4104), 42.5f);
}

TEST(Executor, SharedMemoryRoundTrip)
{
    MiniRunner r(R"(
        mov.u32 r0, 16
        mov.f32 r1, 7.5
        sts.f32 [r0], r1
        lds.f32 r2, [r0]
        exit
    )");
    std::uint8_t shared[128] = {};
    r.env.sharedMem = shared;
    r.env.sharedSize = sizeof(shared);
    r.run();
    EXPECT_FLOAT_EQ(r.regF(2), 7.5f);
}

TEST(Executor, ConstantsAndAttrs)
{
    MiniRunner r(R"(
        add.f32 r0, c[2], a[1]
        exit
    )");
    float consts[4] = {0.0f, 0.0f, 1.5f, 0.0f};
    r.env.constants = consts;
    r.env.numConstants = 4;
    r.state.a[1][0] = 2.25f;
    r.run();
    EXPECT_FLOAT_EQ(r.regF(0), 3.75f);
}

TEST(Executor, OutputRegisters)
{
    MiniRunner r(R"(
        mov.f32 r0, 1.25
        sto o[3], r0
        mov.f32 r1, o[3]
        exit
    )");
    r.run();
    EXPECT_FLOAT_EQ(r.state.o[3][0], 1.25f);
    EXPECT_FLOAT_EQ(r.regF(1), 1.25f);
}

TEST(Executor, SpecialRegisters)
{
    MiniRunner r(R"(
        mov.u32 r0, %tid.x
        mov.u32 r1, %ctaid.x
        mov.u32 r2, %ntid.x
        mov.f32 r3, %z
        exit
    )");
    r.state.tidX[0] = 5;
    r.state.ctaIdX[0] = 7;
    r.state.ntidX[0] = 128;
    r.state.fragZ[0] = 0.5f;
    r.run();
    EXPECT_EQ(r.regI(0), 5);
    EXPECT_EQ(r.regI(1), 7);
    EXPECT_EQ(r.regI(2), 128);
    EXPECT_FLOAT_EQ(r.regF(3), 0.5f);
}

TEST(Executor, DiscardKillsThread)
{
    MiniRunner r("discard\nexit\n");
    r.run();
    EXPECT_FALSE(r.state.alive & 1u);
    EXPECT_TRUE(r.state.killed & 1u);
}

TEST(Executor, GuardedLanesDoNotAccessMemory)
{
    Program p = assemble("t", R"(
        setp.eq.u32 p0, %tid.x, 0
        @p0 ldg.f32 r0, [r1]
        exit
    )");
    WarpState state;
    for (unsigned i = 0; i < warpSize; ++i)
        state.tidX[i] = i;
    mem::FunctionalMemory fmem;
    ExecEnv env;
    env.global = &fmem;
    StepEffects fx;
    executeWarpInstruction(p.code[0], 0xffffffffu, state, env, fx);
    executeWarpInstruction(p.code[1], 0xffffffffu, state, env, fx);
    // Only lane 0 passed the guard: exactly one access.
    EXPECT_EQ(fx.accesses.size(), 1u);
    EXPECT_EQ(fx.execMask, 1u);
}
