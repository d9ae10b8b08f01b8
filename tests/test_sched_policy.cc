/**
 * @file
 * Tests for the scheduling-policy registries (gpu/warp_sched.hh and
 * mem/sched_factory.hh): registry lookup with near-miss diagnostics,
 * the built-in policies' ordering behavior, LRR's bit-exactness
 * against the core's original round-robin scan, an end-to-end
 * smoke run of every warp policy through the full timing model, and
 * each policy's event stream pinned on kernels and a frame.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "core/shader_builder.hh"
#include "gpu/warp_sched.hh"
#include "mem/sched_factory.hh"
#include "scenes/shaders.hh"
#include "scenes/workloads.hh"
#include "sim/simulation.hh"
#include "sim/simulation_builder.hh"
#include "soc/configs.hh"

using namespace emerald;

namespace
{

/**
 * Simulated-time limit of every run here, far beyond the longest (a
 * cube frame, 0.024 ms): a warp that never issues again fails its
 * run in seconds instead of stalling the test.
 */
const Tick runLimit = ticksFromMs(1.0);

/** Run @p launch on @p rig until its onDone fires. */
void
runKernel(soc::StandaloneGpu &rig, gpu::KernelLaunch launch)
{
    bool done = false;
    launch.onDone = [&] { done = true; };
    rig.kernels().launch(std::move(launch));
    EXPECT_TRUE(rig.runUntil([&] { return done; }, runLimit));
}

/** Run one vecadd kernel on a fresh rig and check the results. */
std::uint64_t
runVecAdd(const SimulationBuilder &builder)
{
    soc::StandaloneGpu rig(64, 64, soc::caseStudy2GpuParams(),
                           soc::caseStudy2MemParams(), builder);
    auto &fmem = rig.functionalMemory();
    unsigned n = 1024;
    Addr a = fmem.allocate(n * 4), b = fmem.allocate(n * 4),
         c = fmem.allocate(n * 4);
    for (unsigned i = 0; i < n; ++i) {
        fmem.writeF32(a + i * 4, static_cast<float>(i));
        fmem.writeF32(b + i * 4, 2.0f);
    }
    core::ShaderBuilder sb;
    gpu::KernelLaunch launch;
    launch.program = sb.buildKernel("vecadd",
                                    scenes::kernelVecAddSource());
    launch.blockX = 128;
    launch.gridX = n / 128;
    launch.memory = &fmem;
    launch.constants = {static_cast<float>(a), static_cast<float>(b),
                        static_cast<float>(c), static_cast<float>(n)};
    runKernel(rig, std::move(launch));
    for (unsigned i = 0; i < n; ++i) {
        EXPECT_FLOAT_EQ(fmem.readF32(c + i * 4),
                        static_cast<float>(i) + 2.0f)
            << i;
    }
    return rig.sim().determinismHash();
}

/** SAXPY with a guard that diverges every other lane. */
std::uint64_t
runSaxpyBranchy(const SimulationBuilder &builder)
{
    soc::StandaloneGpu rig(64, 64, soc::caseStudy2GpuParams(),
                           soc::caseStudy2MemParams(), builder);
    auto &fmem = rig.functionalMemory();
    unsigned n = 2048;
    Addr x = fmem.allocate(n * 4), y = fmem.allocate(n * 4);
    for (unsigned i = 0; i < n; ++i) {
        fmem.writeF32(x + i * 4, 2.0f);
        fmem.writeF32(y + i * 4, 1.0f);
    }
    core::ShaderBuilder sb;
    gpu::KernelLaunch launch;
    launch.program = sb.buildKernel("saxpy",
                                    scenes::kernelSaxpyBranchySource());
    launch.blockX = 128;
    launch.gridX = n / 128;
    launch.memory = &fmem;
    launch.constants = {static_cast<float>(x), static_cast<float>(y),
                        3.0f, static_cast<float>(n)};
    runKernel(rig, std::move(launch));
    for (unsigned i = 0; i < n; ++i) {
        float expect = (i % 2 == 0) ? 13.0f : 7.0f;
        EXPECT_FLOAT_EQ(fmem.readF32(y + i * 4), expect) << i;
    }
    return rig.sim().determinismHash();
}

/** Block-wise sum through shared memory and barriers. */
std::uint64_t
runReduce(const SimulationBuilder &builder)
{
    soc::StandaloneGpu rig(64, 64, soc::caseStudy2GpuParams(),
                           soc::caseStudy2MemParams(), builder);
    auto &fmem = rig.functionalMemory();
    unsigned n = 2048, block = 64, ctas = n / block;
    Addr in = fmem.allocate(n * 4), out = fmem.allocate(ctas * 4);
    for (unsigned i = 0; i < n; ++i)
        fmem.writeF32(in + i * 4, 1.0f);
    core::ShaderBuilder sb;
    gpu::KernelLaunch launch;
    launch.program = sb.buildKernel("reduce", scenes::kernelReduceSource());
    launch.blockX = block;
    launch.gridX = ctas;
    launch.memory = &fmem;
    launch.sharedBytesPerCta = block * 4;
    launch.constants = {static_cast<float>(in), static_cast<float>(out)};
    runKernel(rig, std::move(launch));
    for (unsigned i = 0; i < ctas; ++i) {
        EXPECT_FLOAT_EQ(fmem.readF32(out + i * 4),
                        static_cast<float>(block))
            << i;
    }
    return rig.sim().determinismHash();
}

/** One W3 cube frame: vertex warps, then TEX, early-Z and STFB. */
std::uint64_t
runCubeFrame(const SimulationBuilder &builder)
{
    soc::StandaloneGpu rig(128, 96, soc::caseStudy2GpuParams(),
                           soc::caseStudy2MemParams(), builder);
    scenes::SceneRenderer scene(
        rig.pipeline(), scenes::makeWorkload(scenes::WorkloadId::W3_Cube),
        rig.functionalMemory());
    bool done = false;
    scene.renderFrame(0, [&](const core::FrameStats &) { done = true; });
    EXPECT_TRUE(rig.runUntil([&] { return done; }, runLimit));
    return rig.sim().determinismHash();
}

} // namespace

// Registry lookup --------------------------------------------------------

TEST(WarpSchedRegistry, BuiltinsAreRegistered)
{
    auto policies = gpu::warpSchedulerPolicies();
    for (const char *name : {"lrr", "gto", "wasp"}) {
        EXPECT_NE(std::find(policies.begin(), policies.end(), name),
                  policies.end())
            << name;
    }
}

TEST(WarpSchedRegistry, EmptyNameSelectsDefault)
{
    auto sched = gpu::createWarpScheduler("", {0, 2, 4}, 0);
    ASSERT_NE(sched, nullptr);
    EXPECT_STREQ(sched->policyName(), gpu::defaultWarpSchedPolicy);
}

TEST(WarpSchedRegistry, UnknownPolicySuggestsNearMiss)
{
    EXPECT_DEATH(gpu::createWarpScheduler("lr", {0}, 0),
                 "unknown warp scheduler policy 'lr'.*did you mean "
                 "'lrr'");
    EXPECT_DEATH(gpu::createWarpScheduler("gtoo", {0}, 0),
                 "did you mean 'gto'");
}

TEST(MemSchedRegistry, BuiltinsAreRegistered)
{
    auto policies = mem::memSchedulerPolicies();
    for (const char *name : {"frfcfs", "dash"}) {
        EXPECT_NE(std::find(policies.begin(), policies.end(), name),
                  policies.end())
            << name;
    }
}

TEST(MemSchedRegistry, FrfcfsBundleHasNoCoordinator)
{
    Simulation sim;
    mem::MemSchedContext ctx{sim};
    auto bundle = mem::createMemScheduler("", ctx);
    ASSERT_NE(bundle.scheduler, nullptr);
    EXPECT_EQ(bundle.coordinator, nullptr);
    EXPECT_STREQ(bundle.scheduler->policyName(), "FR-FCFS");
}

TEST(MemSchedRegistry, DashBundleCarriesCoordinator)
{
    Simulation sim;
    mem::MemSchedContext ctx{sim};
    ctx.coordinatorName = "dash";
    auto bundle = mem::createMemScheduler("dash", ctx);
    ASSERT_NE(bundle.scheduler, nullptr);
    ASSERT_NE(bundle.coordinator, nullptr);
    EXPECT_STREQ(bundle.scheduler->policyName(), "DASH");
    bundle.coordinator->shutdown();
}

TEST(MemSchedRegistry, UnknownPolicySuggestsNearMiss)
{
    Simulation sim;
    mem::MemSchedContext ctx{sim};
    EXPECT_DEATH(mem::createMemScheduler("frfcf", ctx),
                 "unknown memory scheduler policy 'frfcf'.*did you "
                 "mean 'frfcfs'");
}

TEST(MemSchedRegistry, UnknownPolicyWithoutNearMissListsKnown)
{
    Simulation sim;
    mem::MemSchedContext ctx{sim};
    EXPECT_DEATH(mem::createMemScheduler("zzzz", ctx),
                 "fatal: unknown memory scheduler policy 'zzzz' "
                 "\\(known: dash, frfcfs\\) \\(");
}

// Ordering behavior ------------------------------------------------------

TEST(WarpSchedPolicies, LrrMatchesOriginalRoundRobinScan)
{
    // Lane 1 of a 2-scheduler core owning {1, 3, 5, 7}: the original
    // code scanned all slots from a per-lane _issuePtr starting at 0,
    // skipping non-owned via modulo, so the first owned slot visited
    // was 1 and after issuing slot 3 the next scan started at 5.
    auto sched = gpu::createWarpScheduler("lrr", {1, 3, 5, 7}, 1);
    std::vector<gpu::Warp> warps(8);
    std::vector<unsigned> order;
    sched->order(warps, order);
    EXPECT_EQ(order, (std::vector<unsigned>{1, 3, 5, 7}));
    sched->issued(3);
    sched->order(warps, order);
    EXPECT_EQ(order, (std::vector<unsigned>{5, 7, 1, 3}));
    sched->issued(7);
    sched->order(warps, order);
    EXPECT_EQ(order, (std::vector<unsigned>{1, 3, 5, 7}));
}

TEST(WarpSchedPolicies, LrrCursorRoundTrips)
{
    auto sched = gpu::createWarpScheduler("lrr", {0, 2}, 0);
    sched->issued(2);
    std::uint64_t state = sched->cursorState();
    auto fresh = gpu::createWarpScheduler("lrr", {0, 2}, 0);
    fresh->setCursorState(state);
    std::vector<gpu::Warp> warps(4);
    std::vector<unsigned> a, b;
    sched->order(warps, a);
    fresh->order(warps, b);
    EXPECT_EQ(a, b);
}

TEST(WarpSchedPolicies, GtoStaysGreedyThenFallsBackToOldest)
{
    auto sched = gpu::createWarpScheduler("gto", {0, 1, 2, 3}, 0);
    std::vector<gpu::Warp> warps(4);
    for (unsigned i = 0; i < 4; ++i) {
        warps[i].valid = true;
        // Launch order: slot 2 oldest, then 0, 3, 1.
        warps[i].launchSeq = std::vector<std::uint64_t>{1, 3, 0, 2}[i];
    }
    std::vector<unsigned> order;
    sched->order(warps, order);
    // No last-issued warp yet: pure oldest-first.
    EXPECT_EQ(order, (std::vector<unsigned>{2, 0, 3, 1}));
    sched->issued(3);
    sched->order(warps, order);
    // Greedy: stay on 3; the rest by age.
    EXPECT_EQ(order, (std::vector<unsigned>{3, 2, 0, 1}));
    // Invalid warps sort last.
    warps[3].valid = false;
    sched->order(warps, order);
    EXPECT_EQ(order[0], 3u); // Still greedy-first; the core skips it.
}

TEST(WarpSchedPolicies, WaspBreaksTiesBySlotForEmptyWarps)
{
    // Invalid warps all have "no memory instruction in window": the
    // lookahead distance ties and the slot index breaks it.
    auto sched = gpu::createWarpScheduler("wasp", {0, 2, 4}, 0);
    std::vector<gpu::Warp> warps(6);
    std::vector<unsigned> order;
    sched->order(warps, order);
    EXPECT_EQ(order, (std::vector<unsigned>{0, 2, 4}));
}

// End-to-end smoke -------------------------------------------------------

TEST(WarpSchedPolicies, EveryPolicyRunsKernelsCorrectly)
{
    for (const std::string &policy : gpu::warpSchedulerPolicies()) {
        SCOPED_TRACE(policy);
        runVecAdd(SimulationBuilder().warpScheduler(policy));
    }
}

TEST(WarpSchedPolicies, DefaultPathIsBitIdenticalToExplicitLrr)
{
    std::uint64_t dflt =
        runVecAdd(SimulationBuilder().checkDeterminism());
    std::uint64_t lrr = runVecAdd(
        SimulationBuilder().checkDeterminism().warpScheduler("lrr"));
    EXPECT_EQ(dflt, lrr);
}

TEST(WarpSchedPolicies, EveryPolicyMatchesPinnedHashes)
{
    // Each policy's whole event stream on divergent, barrier-heavy
    // and graphics warps. The core may skip a slot whose issue checks
    // cannot have changed, but never reorder what a policy ranks, so
    // these hold for every policy. Regenerate only for an intended
    // change of issue behaviour, and say why in CHANGES.md.
    struct Pin
    {
        const char *policy;
        std::uint64_t vecadd;
        std::uint64_t saxpy;
        std::uint64_t reduce;
        std::uint64_t cube;
    };
    const Pin pins[] = {
        {"lrr", 0x4cd99b55cdb39471ULL, 0xd8a71aaf708d431bULL,
         0xf73a92f2bd8f1c17ULL, 0xb613715d2f092e98ULL},
        {"gto", 0x23c1d465df9d412fULL, 0xe1d385ba5af87255ULL,
         0xd34c3a08d8888caeULL, 0x7ed5ce5d6de7780aULL},
        {"wasp", 0x6d9f4289e49bbae6ULL, 0xfe3802b838da3f07ULL,
         0x740068f319fd3316ULL, 0x1fabdc840e45200aULL},
    };
    for (const Pin &pin : pins) {
        SCOPED_TRACE(pin.policy);
        SimulationBuilder builder =
            SimulationBuilder().checkDeterminism().warpScheduler(
                pin.policy);
        EXPECT_EQ(runVecAdd(builder), pin.vecadd);
        EXPECT_EQ(runSaxpyBranchy(builder), pin.saxpy);
        EXPECT_EQ(runReduce(builder), pin.reduce);
        EXPECT_EQ(runCubeFrame(builder), pin.cube);
    }
}
