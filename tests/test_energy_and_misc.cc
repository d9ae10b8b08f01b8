#include <gtest/gtest.h>

#include "core/energy.hh"
#include "mem/frfcfs_scheduler.hh"
#include "noc/link.hh"
#include "sim/random.hh"
#include "core/shader_builder.hh"
#include "scenes/shaders.hh"
#include "scenes/workloads.hh"
#include "soc/configs.hh"

using namespace emerald;

namespace
{

core::FrameStats
render(soc::StandaloneGpu &rig, scenes::SceneRenderer &scene,
       unsigned frame)
{
    bool done = false;
    core::FrameStats stats;
    scene.renderFrame(frame, [&](const core::FrameStats &s) {
        stats = s;
        done = true;
    });
    EXPECT_TRUE(rig.runUntil([&] { return done; }));
    return stats;
}

} // namespace

TEST(EnergyModel, ZeroWindowZeroDynamicEnergy)
{
    soc::StandaloneGpu rig(64, 64, soc::caseStudy2GpuParams(),
                           soc::caseStudy2MemParams(), SimulationBuilder());
    core::EnergyModel energy(rig.gpu(), rig.pipeline(), rig.memory());
    energy.snapshot();
    core::EnergyReport report = energy.report(0);
    EXPECT_DOUBLE_EQ(report.coreDynamic_uj, 0.0);
    EXPECT_DOUBLE_EQ(report.dram_uj, 0.0);
    EXPECT_DOUBLE_EQ(report.staticEnergy_uj, 0.0);
}

TEST(EnergyModel, FrameEnergyPositiveAndDecomposed)
{
    soc::StandaloneGpu rig(128, 96, soc::caseStudy2GpuParams(),
                           soc::caseStudy2MemParams(), SimulationBuilder());
    scenes::SceneRenderer scene(
        rig.pipeline(),
        scenes::makeWorkload(scenes::WorkloadId::W3_Cube),
        rig.functionalMemory());
    core::EnergyModel energy(rig.gpu(), rig.pipeline(), rig.memory());

    energy.snapshot();
    core::FrameStats stats = render(rig, scene, 0);
    core::EnergyReport report =
        energy.report(stats.endTick - stats.startTick);

    EXPECT_GT(report.coreDynamic_uj, 0.0);
    EXPECT_GT(report.cacheL1_uj, 0.0);
    EXPECT_GT(report.dram_uj, 0.0);
    EXPECT_GT(report.raster_uj, 0.0);
    EXPECT_GT(report.staticEnergy_uj, 0.0);
    EXPECT_NEAR(report.total_uj(),
                report.coreDynamic_uj + report.cacheL1_uj +
                    report.cacheL2_uj + report.dram_uj +
                    report.raster_uj + report.staticEnergy_uj,
                1e-9);
}

TEST(EnergyModel, MoreWorkMoreEnergy)
{
    soc::StandaloneGpu rig(128, 96, soc::caseStudy2GpuParams(),
                           soc::caseStudy2MemParams(), SimulationBuilder());
    scenes::SceneRenderer small(
        rig.pipeline(),
        scenes::makeWorkload(scenes::WorkloadId::W3_Cube),
        rig.functionalMemory());
    core::EnergyModel energy(rig.gpu(), rig.pipeline(), rig.memory());
    energy.snapshot();
    core::FrameStats s1 = render(rig, small, 0);
    double cube = energy.report(s1.endTick - s1.startTick).total_uj();

    soc::StandaloneGpu rig2(128, 96, soc::caseStudy2GpuParams(),
                            soc::caseStudy2MemParams(), SimulationBuilder());
    scenes::SceneRenderer big(
        rig2.pipeline(),
        scenes::makeWorkload(scenes::WorkloadId::W1_Sibenik),
        rig2.functionalMemory());
    core::EnergyModel energy2(rig2.gpu(), rig2.pipeline(),
                              rig2.memory());
    energy2.snapshot();
    core::FrameStats s2 = render(rig2, big, 0);
    double interior =
        energy2.report(s2.endTick - s2.startTick).total_uj();
    EXPECT_GT(interior, cube);
}

TEST(TriangleStrips, RenderAndMatchTriangleList)
{
    // The same quad as a strip and as a triangle list must rasterize
    // the same pixels (overlapped vertex warps, Section 3.3.3).
    soc::StandaloneGpu rig(64, 64, soc::caseStudy2GpuParams(),
                           soc::caseStudy2MemParams(), SimulationBuilder());
    mem::FunctionalMemory &fmem = rig.functionalMemory();
    core::ShaderBuilder builder;
    const auto *vs =
        builder.buildVertex("vs", scenes::vertexShaderSource());
    core::RenderState state;
    state.cullBackface = false;
    const auto *fs = builder.buildFragment(
        "fs", scenes::fragmentFlatSource(), state);

    auto make_vertex = [](float x, float y, float *out) {
        out[0] = x;
        out[1] = y;
        out[2] = 0.5f;
        out[3] = 0;
        out[4] = 0;
        out[5] = 1;
        out[6] = 0;
        out[7] = 0;
    };

    auto run_draw = [&](core::PrimitiveType type,
                        const std::vector<std::pair<float, float>>
                            &verts)
        -> std::unique_ptr<core::Framebuffer> {
        std::vector<float> data(verts.size() * 8);
        for (std::size_t i = 0; i < verts.size(); ++i)
            make_vertex(verts[i].first, verts[i].second,
                        &data[i * 8]);
        Addr vb = fmem.allocate(data.size() * 4, 128);
        fmem.write(vb, data.data(), data.size() * 4);

        core::DrawCall draw;
        draw.vertexProgram = vs;
        draw.fragmentProgram = fs;
        draw.primType = type;
        draw.vertexCount = static_cast<unsigned>(verts.size());
        draw.vertexBufferAddr = vb;
        draw.floatsPerVertex = 8;
        draw.numVaryings = scenes::standardVaryings;
        draw.memory = &fmem;
        draw.state = state;
        draw.constants.resize(24, 0.0f);
        for (int i = 0; i < 4; ++i)
            draw.constants[static_cast<std::size_t>(i) * 5] = 1.0f;
        draw.constants[19] = 0.7f;

        auto fb = std::make_unique<core::Framebuffer>(64, 64);
        rig.pipeline().beginFrame(fb.get());
        rig.pipeline().submitDraw(std::move(draw));
        bool done = false;
        rig.pipeline().endFrame(
            [&](const core::FrameStats &) { done = true; });
        EXPECT_TRUE(rig.runUntil([&] { return done; }));
        return fb;
    };

    // Quad from (-0.5,-0.5) to (0.5,0.5).
    auto strip = run_draw(
        core::PrimitiveType::TriangleStrip,
        {{-0.5f, -0.5f}, {0.5f, -0.5f}, {-0.5f, 0.5f}, {0.5f, 0.5f}});
    auto list = run_draw(
        core::PrimitiveType::Triangles,
        {{-0.5f, -0.5f}, {0.5f, -0.5f}, {-0.5f, 0.5f},
         {0.5f, -0.5f}, {0.5f, 0.5f}, {-0.5f, 0.5f}});

    // Same coverage; colors may differ by 1 LSB per channel from
    // barycentric rounding across the different triangulations.
    for (int y = 0; y < 64; ++y) {
        for (int x = 0; x < 64; ++x) {
            std::uint32_t a = strip->pixel(x, y);
            std::uint32_t b = list->pixel(x, y);
            ASSERT_EQ(a == 0xff000000u, b == 0xff000000u)
                << "coverage differs at " << x << "," << y;
            for (int ch = 0; ch < 4; ++ch) {
                int va = static_cast<int>((a >> (ch * 8)) & 0xff);
                int vb = static_cast<int>((b >> (ch * 8)) & 0xff);
                ASSERT_LE(std::abs(va - vb), 1)
                    << "channel " << ch << " at " << x << "," << y;
            }
        }
    }
}

TEST(TriangleStrips, LongStripUsesOverlappedWarps)
{
    // A strip longer than one warp exercises the vertex overlap
    // logic: every primitive must still appear.
    soc::StandaloneGpu rig(96, 64, soc::caseStudy2GpuParams(),
                           soc::caseStudy2MemParams(), SimulationBuilder());
    mem::FunctionalMemory &fmem = rig.functionalMemory();
    core::ShaderBuilder builder;
    const auto *vs =
        builder.buildVertex("vs", scenes::vertexShaderSource());
    core::RenderState state;
    state.cullBackface = false;
    const auto *fs = builder.buildFragment(
        "fs", scenes::fragmentFlatSource(), state);

    // A horizontal ribbon of 80 vertices (78 triangles).
    unsigned n = 80;
    std::vector<float> data(n * 8, 0.0f);
    for (unsigned i = 0; i < n; ++i) {
        float x = -0.9f + 1.8f * static_cast<float>(i / 2) /
                              static_cast<float>(n / 2 - 1);
        float y = (i & 1) ? 0.25f : -0.25f;
        data[i * 8] = x;
        data[i * 8 + 1] = y;
        data[i * 8 + 2] = 0.5f;
        data[i * 8 + 5] = 1.0f;
    }
    Addr vb = fmem.allocate(data.size() * 4, 128);
    fmem.write(vb, data.data(), data.size() * 4);

    core::DrawCall draw;
    draw.vertexProgram = vs;
    draw.fragmentProgram = fs;
    draw.primType = core::PrimitiveType::TriangleStrip;
    draw.vertexCount = n;
    draw.vertexBufferAddr = vb;
    draw.floatsPerVertex = 8;
    draw.numVaryings = scenes::standardVaryings;
    draw.memory = &fmem;
    draw.state = state;
    draw.constants.resize(24, 0.0f);
    for (int i = 0; i < 4; ++i)
        draw.constants[static_cast<std::size_t>(i) * 5] = 1.0f;
    draw.constants[19] = 0.7f;

    core::Framebuffer fb(96, 64);
    rig.pipeline().beginFrame(&fb);
    rig.pipeline().submitDraw(std::move(draw));
    bool done = false;
    core::FrameStats stats;
    rig.pipeline().endFrame([&](const core::FrameStats &s) {
        stats = s;
        done = true;
    });
    ASSERT_TRUE(rig.runUntil([&] { return done; }));
    EXPECT_EQ(stats.primsIn, n - 2);

    // The whole ribbon drew: a horizontal run of covered pixels.
    unsigned covered = 0;
    for (unsigned x = 5; x < 91; ++x)
        if (fb.pixel(static_cast<int>(x), 32) != 0xff000000u)
            ++covered;
    EXPECT_GT(covered, 80u);
}

TEST(MemoryConservation, EveryReadGetsExactlyOneResponse)
{
    // Property: through link -> L2-style cache -> DRAM, N read
    // requests produce exactly N responses (no loss, no duplication).
    Simulation sim;
    ClockDomain &clk = sim.createClockDomain(1000.0, "clk");

    mem::MemorySystemParams mp;
    mp.geom.channels = 2;
    mp.timing = mem::lpddr3Timing(1333, 32, 128);
    mem::FrfcfsScheduler sched;
    mem::MemorySystem memory(sim, "mem", mp, sched);

    cache::CacheParams cp;
    cp.sizeBytes = 8 * 1024;
    cp.assoc = 4;
    cache::Cache l2(sim, "l2", clk, cp);
    noc::LinkParams lp;
    noc::Link link(sim, "link", lp);
    link.setTarget(memory);
    l2.setDownstream(link);

    struct Counter : MemClient
    {
        unsigned responses = 0;
        void
        memResponse(MemPacket *pkt) override
        {
            ++responses;
            delete pkt;
        }
    } counter;

    emerald::Random rng(99);
    unsigned sent = 0;
    for (int burst = 0; burst < 40; ++burst) {
        for (int i = 0; i < 8; ++i) {
            Addr addr = (rng.next() % 512) * 128;
            auto *pkt = new MemPacket(addr, 4, rng.chance(0.25),
                                      TrafficClass::Gpu,
                                      AccessKind::GlobalData, 0,
                                      &counter);
            if (l2.tryAccept(pkt)) {
                ++sent;
            } else {
                delete pkt;
            }
        }
        sim.run();
    }
    EXPECT_EQ(counter.responses, sent);
}
