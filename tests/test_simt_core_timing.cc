#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/shader_builder.hh"
#include "gpu/gpu_top.hh"
#include "mem/frfcfs_scheduler.hh"
#include "mem/memory_system.hh"
#include "scenes/workloads.hh"
#include "sim/simulation.hh"
#include "soc/configs.hh"

using namespace emerald;
using namespace emerald::gpu;

namespace
{

/** A single-core rig with real caches and DRAM behind it. */
struct CoreRig
{
    Simulation sim;
    ClockDomain &clk;
    mem::FrfcfsScheduler sched;
    mem::MemorySystem memory;
    GpuTop gpu;
    core::ShaderBuilder builder;
    mem::FunctionalMemory fmem;

    CoreRig()
        : clk(sim.createClockDomain(1000.0, "gpu")),
          memory(sim, "mem",
                 [] {
                     mem::MemorySystemParams mp;
                     mp.geom.channels = 2;
                     mp.timing = mem::lpddr3Timing(1600, 32, 128);
                     return mp;
                 }(),
                 sched),
          gpu(sim, "gpu",
              clk,
              [] {
                  GpuTopParams p = defaultGpuParams();
                  p.numClusters = 1;
                  return p;
              }(),
              memory)
    {
    }

    /** Run one warp of @p source to completion; return cycles. */
    std::uint64_t
    runWarp(const std::string &source, unsigned lanes = 32)
    {
        const isa::Program *prog =
            builder.buildKernel("k", source);
        WarpTask task;
        task.type = WarpTaskType::Compute;
        task.program = prog;
        task.state = std::make_unique<isa::WarpState>();
        task.env.global = &fmem;
        std::uint32_t mask = lanes >= 32
                                 ? 0xffffffffu
                                 : ((1u << lanes) - 1u);
        task.activeMask = mask;
        for (unsigned lane = 0; lane < 32; ++lane)
            task.state->tidX[lane] = lane;
        bool done = false;
        task.onComplete = [&](const isa::WarpState &) { done = true; };
        Tick start = sim.curTick();
        EXPECT_TRUE(gpu.core(0).tryAddTask(std::move(task)));
        while (!done && sim.eventQueue().runOne()) {
        }
        EXPECT_TRUE(done);
        return (sim.curTick() - start) / clk.period();
    }
};

} // namespace

TEST(SimtCoreTiming, DependentChainSlowerThanIndependent)
{
    // Six dependent MULs must serialize on the scoreboard; six
    // independent MULs pipeline.
    CoreRig rig_dep;
    std::uint64_t dep = rig_dep.runWarp(R"(
        mov.f32 r0, 1.5
        mul.f32 r0, r0, r0
        mul.f32 r0, r0, r0
        mul.f32 r0, r0, r0
        mul.f32 r0, r0, r0
        mul.f32 r0, r0, r0
        mul.f32 r0, r0, r0
        exit
    )");
    CoreRig rig_ind;
    std::uint64_t ind = rig_ind.runWarp(R"(
        mov.f32 r0, 1.5
        mul.f32 r1, r0, r0
        mul.f32 r2, r0, r0
        mul.f32 r3, r0, r0
        mul.f32 r4, r0, r0
        mul.f32 r5, r0, r0
        mul.f32 r6, r0, r0
        exit
    )");
    EXPECT_GT(dep, ind);
}

TEST(SimtCoreTiming, SfuLatencyExceedsAlu)
{
    CoreRig rig_alu;
    std::uint64_t alu = rig_alu.runWarp(R"(
        mov.f32 r0, 2.0
        add.f32 r1, r0, r0
        add.f32 r1, r1, r1
        add.f32 r1, r1, r1
        exit
    )");
    CoreRig rig_sfu;
    std::uint64_t sfu = rig_sfu.runWarp(R"(
        mov.f32 r0, 2.0
        sqrt.f32 r1, r0
        sqrt.f32 r1, r1
        sqrt.f32 r1, r1
        exit
    )");
    EXPECT_GT(sfu, alu);
}

TEST(SimtCoreTiming, ColdLoadSlowerThanWarm)
{
    CoreRig rig;
    // Same program twice: the second run hits the L1D.
    const std::string prog = R"(
        mov.u32 r0, 65536
        ldg.f32 r1, [r0]
        add.f32 r2, r1, r1
        exit
    )";
    std::uint64_t cold = rig.runWarp(prog);
    std::uint64_t warm = rig.runWarp(prog);
    EXPECT_GT(cold, warm + 20);
}

TEST(SimtCoreTiming, DivergenceExecutesBothPaths)
{
    // Divergent warp: both sides of the branch run sequentially, so
    // more warp instructions issue than in the uniform case.
    CoreRig rig_div;
    rig_div.runWarp(R"(
        and.u32 r1, %tid.x, 1
        setp.eq.u32 p0, r1, 0
        @p0 bra EVEN
        mul.f32 r2, r2, r2
        mul.f32 r2, r2, r2
        bra JOIN
        EVEN:
        add.f32 r2, r2, r2
        add.f32 r2, r2, r2
        JOIN:
        exit
    )");
    double div_instrs = rig_div.gpu.core(0).statWarpInstrs.value();

    CoreRig rig_uni;
    rig_uni.runWarp(R"(
        and.u32 r1, %tid.x, 0
        setp.eq.u32 p0, r1, 0
        @p0 bra EVEN
        mul.f32 r2, r2, r2
        mul.f32 r2, r2, r2
        bra JOIN
        EVEN:
        add.f32 r2, r2, r2
        add.f32 r2, r2, r2
        JOIN:
        exit
    )");
    double uni_instrs = rig_uni.gpu.core(0).statWarpInstrs.value();
    EXPECT_GT(div_instrs, uni_instrs);
}

TEST(SimtCoreTiming, CoalescedLoadsCheaperThanScattered)
{
    // 32 lanes reading consecutive words: 1 transaction. 32 lanes
    // striding 128 B apart: 32 transactions.
    CoreRig rig_seq;
    std::uint64_t seq = rig_seq.runWarp(R"(
        mov.u32 r0, %tid.x
        shl.u32 r0, r0, 2
        add.u32 r0, r0, 65536
        ldg.f32 r1, [r0]
        exit
    )");
    CoreRig rig_str;
    std::uint64_t strided = rig_str.runWarp(R"(
        mov.u32 r0, %tid.x
        shl.u32 r0, r0, 7
        add.u32 r0, r0, 65536
        ldg.f32 r1, [r0]
        exit
    )");
    EXPECT_GT(strided, seq);
    EXPECT_GT(rig_str.gpu.core(0).l1d().accesses(),
              rig_seq.gpu.core(0).l1d().accesses());
}

TEST(SimtCoreTiming, TaskQueueBackpressure)
{
    CoreRig rig;
    const isa::Program *prog = rig.builder.buildKernel("k", R"(
        mov.f32 r0, 1.0
        exit
    )");
    unsigned accepted = 0;
    for (unsigned i = 0; i < 100; ++i) {
        WarpTask task;
        task.type = WarpTaskType::Compute;
        task.program = prog;
        task.state = std::make_unique<isa::WarpState>();
        task.activeMask = 1;
        if (rig.gpu.core(0).tryAddTask(std::move(task)))
            ++accepted;
    }
    // Bounded by the task queue depth.
    EXPECT_EQ(accepted, rig.gpu.core(0).params().taskQueueDepth);
    rig.sim.run();
    EXPECT_TRUE(rig.gpu.core(0).idle());
}

TEST(SimtCoreTiming, ManyWarpsHideMemoryLatency)
{
    // Throughput test: 8 memory-heavy warps on one core should take
    // far less than 8x the time of one warp (latency hiding).
    const std::string prog = R"(
        mov.u32 r0, %tid.x
        shl.u32 r0, r0, 7
        add.u32 r0, r0, 1048576
        ldg.f32 r1, [r0]
        add.u32 r0, r0, 4096
        ldg.f32 r2, [r0]
        add.u32 r0, r0, 4096
        ldg.f32 r3, [r0]
        exit
    )";
    CoreRig rig_one;
    std::uint64_t one = rig_one.runWarp(prog);

    CoreRig rig_many;
    const isa::Program *p = rig_many.builder.buildKernel("k", prog);
    int remaining = 8;
    Tick start = rig_many.sim.curTick();
    for (int i = 0; i < 8; ++i) {
        WarpTask task;
        task.type = WarpTaskType::Compute;
        task.program = p;
        task.state = std::make_unique<isa::WarpState>();
        task.env.global = &rig_many.fmem;
        task.activeMask = 0xffffffffu;
        for (unsigned lane = 0; lane < 32; ++lane)
            task.state->tidX[lane] = lane + 32u * unsigned(i);
        task.onComplete = [&](const isa::WarpState &) { --remaining; };
        ASSERT_TRUE(rig_many.gpu.core(0).tryAddTask(std::move(task)));
    }
    while (remaining > 0 && rig_many.sim.eventQueue().runOne()) {
    }
    ASSERT_EQ(remaining, 0);
    std::uint64_t eight =
        (rig_many.sim.curTick() - start) / rig_many.clk.period();
    EXPECT_LT(eight, one * 6);
}

// One bit per warp slot in the core's issue-blocked mask.
TEST(SimtCoreTiming, CyclesActiveIsTheUnionOfWarpLifetimes)
{
    // Render one small frame event by event and mark, per core, every
    // cycle from a warp's launch to its retirement. Residency changes
    // only inside the core's own tick, so between two observations it
    // held for every cycle in between, whether the core ticked or
    // slept through them.
    soc::StandaloneGpu rig(128, 96, soc::caseStudy2GpuParams(),
                           soc::caseStudy2MemParams(), SimulationBuilder());
    bool done = false;
    scenes::SceneRenderer scene(
        rig.pipeline(), scenes::makeWorkload(scenes::WorkloadId::W3_Cube),
        rig.functionalMemory());
    scene.renderFrame(0, [&](const core::FrameStats &) { done = true; });

    GpuTop &gpu = rig.gpu();
    const unsigned cores = gpu.numCores();
    ClockDomain &clk = gpu.core(0).clockDomain();
    std::vector<std::vector<bool>> busy(cores);
    std::vector<unsigned> resident(cores, 0);
    std::vector<std::uint64_t> launched(cores, 0);
    std::vector<Cycle> seen(cores, 0);
    auto mark = [&](unsigned c, Cycle from, Cycle to) {
        if (busy[c].size() <= to)
            busy[c].resize(to + 1, false);
        std::fill(busy[c].begin() + static_cast<long>(from),
                  busy[c].begin() + static_cast<long>(to) + 1, true);
    };
    while (!done && rig.sim().eventQueue().runOne()) {
        Cycle now = clk.curCycle();
        for (unsigned c = 0; c < cores; ++c) {
            const SimtCore &core = gpu.core(c);
            if (resident[c] > 0)
                mark(c, seen[c], now);
            if (core.residentWarps() > 0 ||
                core.tasksLaunched() != launched[c])
                mark(c, now, now);
            resident[c] = core.residentWarps();
            launched[c] = core.tasksLaunched();
            seen[c] = now;
        }
    }
    ASSERT_TRUE(done);

    double slept = 0;
    for (unsigned c = 0; c < cores; ++c) {
        const SimtCore &core = gpu.core(c);
        auto lifetime = std::count(busy[c].begin(), busy[c].end(), true);
        EXPECT_GT(lifetime, 0) << "core " << c;
        EXPECT_EQ(core.statCyclesActive.value(),
                  static_cast<double>(lifetime))
            << "core " << c;
        slept += core.statCyclesMemWait.value();
    }
    // The frame does wait on memory with warps resident.
    EXPECT_GT(slept, 0.0);
}

TEST(SimtCoreDeathTest, MoreThan64WarpSlotsIsFatal)
{
    EXPECT_DEATH(
        {
            Simulation sim;
            ClockDomain &clk = sim.createClockDomain(1000.0, "gpu");
            mem::FrfcfsScheduler sched;
            mem::MemorySystemParams mp;
            mp.geom.channels = 2;
            mp.timing = mem::lpddr3Timing(1600, 32, 128);
            mem::MemorySystem memory(sim, "mem", mp, sched);
            GpuTopParams p = defaultGpuParams();
            p.numClusters = 1;
            p.core.maxWarps = 65;
            GpuTop gpu(sim, "gpu", clk, p, memory);
        },
        "at most 64");
}
