/**
 * @file
 * google-benchmark microbenchmarks of the simulator's own hot paths:
 * event queue throughput, cache lookups, DRAM scheduling, assembly,
 * rasterization, and warp execution. These gate the simulator's
 * wall-clock performance (full-system simulation speed is a core
 * usability property the paper leans on vs. slower Ruby-style
 * models).
 */

#include <benchmark/benchmark.h>

#include "cache/cache.hh"
#include "core/rasterizer.hh"
#include "gpu/isa/assembler.hh"
#include "gpu/isa/executor.hh"
#include "mem/frfcfs_scheduler.hh"
#include "mem/memory_system.hh"
#include "scenes/shaders.hh"
#include "sim/random.hh"
#include "sim/simulation.hh"

using namespace emerald;

namespace
{

void
BM_EventQueue(benchmark::State &state)
{
    EventQueue eq;
    int counter = 0;
    std::vector<std::unique_ptr<EventFunction>> events;
    for (int i = 0; i < 64; ++i) {
        events.push_back(std::make_unique<EventFunction>(
            [&counter] { ++counter; }, "ev"));
    }
    std::uint64_t t = 1;
    for (auto _ : state) {
        for (auto &ev : events)
            eq.schedule(*ev, t++);
        eq.runUntil();
    }
    benchmark::DoNotOptimize(counter);
}
BENCHMARK(BM_EventQueue);

void
BM_CacheHits(benchmark::State &state)
{
    Simulation sim;
    ClockDomain &clk = sim.createClockDomain(1000.0, "clk");
    cache::CacheParams params;
    params.sizeBytes = 32 * 1024;
    params.assoc = 8;
    cache::Cache cache(sim, "c", clk, params);

    struct NullSink : MemSink
    {
        bool
        tryAccept(MemPacket *pkt) override
        {
            completePacket(pkt);
            return true;
        }
    } sink;
    cache.setDownstream(sink);

    Random rng(1);
    for (auto _ : state) {
        Addr addr = (rng.next() % 256) * 128;
        auto *pkt = new MemPacket(addr, 4, false, TrafficClass::Gpu,
                                  AccessKind::GlobalData, 0, nullptr);
        if (!cache.tryAccept(pkt))
            delete pkt;
        sim.run();
    }
}
BENCHMARK(BM_CacheHits);

void
BM_DramChannel(benchmark::State &state)
{
    Simulation sim;
    mem::MemorySystemParams mp;
    mp.geom.channels = 2;
    mp.timing = mem::lpddr3Timing(1333, 32, 128);
    mem::FrfcfsScheduler sched;
    mem::MemorySystem mem(sim, "m", mp, sched);
    Random rng(2);
    for (auto _ : state) {
        for (int i = 0; i < 8; ++i) {
            auto *pkt = new MemPacket(
                (rng.next() & 0xfffff80ULL), 128, false,
                TrafficClass::Gpu, AccessKind::GlobalData, 0,
                nullptr);
            if (!mem.tryAccept(pkt))
                delete pkt;
        }
        sim.run();
    }
}
BENCHMARK(BM_DramChannel);

void
BM_Assemble(benchmark::State &state)
{
    for (auto _ : state) {
        gpu::isa::Program p = gpu::isa::assemble(
            "vs", scenes::vertexShaderSource());
        benchmark::DoNotOptimize(p.code.data());
    }
}
BENCHMARK(BM_Assemble);

void
BM_WarpExecuteAlu(benchmark::State &state)
{
    gpu::isa::Program p =
        gpu::isa::assemble("k", "mad.f32 r1, r0, r2, r1\n"
                                "exit\n");
    gpu::isa::WarpState warp;
    gpu::isa::ExecEnv env;
    gpu::isa::StepEffects fx;
    for (auto _ : state) {
        executeWarpInstruction(p.code[0], 0xffffffffu, warp, env, fx);
    }
}
BENCHMARK(BM_WarpExecuteAlu);

void
BM_RasterizeTile(benchmark::State &state)
{
    core::ScreenVertex verts[3];
    verts[0] = {2.0f, 2.0f, 0.4f, 1.0f, {}};
    verts[1] = {60.0f, 6.0f, 0.5f, 1.0f, {}};
    verts[2] = {10.0f, 60.0f, 0.6f, 1.0f, {}};
    core::SetupPrim prim;
    core::setupPrimitive(verts, 64, 64, false, prim);
    core::FragmentTile tile;
    int tx = 3, ty = 3;
    for (auto _ : state) {
        core::rasterizeTile(prim, tx, ty, 5, 64, 64, tile);
        benchmark::DoNotOptimize(tile.coverMask);
    }
}
BENCHMARK(BM_RasterizeTile);

} // namespace

BENCHMARK_MAIN();
