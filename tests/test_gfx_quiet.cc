/**
 * @file
 * The graphics pipeline's quiet ticks (docs/scheduling.md, "The
 * graphics tick contract"): a tick after one that moved nothing
 * returns at once until an input the blocked stages read changes.
 * Every case here renders one frame on the standalone GPU and must
 * reproduce the event stream and frame length that the pipeline had
 * before quiet ticks existed, while skipping some ticks.
 */

#include <gtest/gtest.h>

#include "core/shader_builder.hh"
#include "scenes/shaders.hh"
#include "scenes/workloads.hh"
#include "sim/simulation.hh"
#include "sim/simulation_builder.hh"
#include "soc/configs.hh"

using namespace emerald;

namespace
{

/** One frame's setup, and what it must produce. */
struct QuietCase
{
    const char *name;
    scenes::WorkloadId workload = scenes::WorkloadId::W6_Teapot;
    /** Three draws in one frame instead of the workload's one. */
    bool multiDraw = false;
    unsigned wt = 1;
    unsigned fineQueueDepth = 8;
    bool hiz = true;
    unsigned tcTimeout = 32;
    bool ooo = false;
    unsigned taskQueueDepth = 8;
    unsigned maxWarps = 48;
    /** Recorded before quiet ticks existed. */
    std::uint64_t eventHash = 0;
    std::uint64_t cycles = 0;
    /** Recorded with quiet ticks. */
    std::uint64_t quietTicks = 0;
};

struct Outcome
{
    std::uint64_t eventHash = 0;
    std::uint64_t cycles = 0;
    std::uint64_t quietTicks = 0;
};

/** A draw of @p verts (8 floats each) through @p vp, flat-shaded. */
core::DrawCall
flatDraw(mem::FunctionalMemory &fmem, const std::vector<float> &verts,
         core::PrimitiveType type, const core::Mat4 &vp,
         const gpu::isa::Program *vs, const gpu::isa::Program *fs,
         const core::RenderState &state)
{
    Addr vb = fmem.allocate(verts.size() * 4, 128);
    fmem.write(vb, verts.data(), verts.size() * 4);
    core::DrawCall draw;
    draw.vertexProgram = vs;
    draw.fragmentProgram = fs;
    draw.primType = type;
    draw.vertexCount =
        static_cast<unsigned>(verts.size() / scenes::vertexFloats);
    draw.vertexBufferAddr = vb;
    draw.floatsPerVertex = scenes::vertexFloats;
    draw.numVaryings = scenes::standardVaryings;
    draw.memory = &fmem;
    draw.state = state;
    draw.constants.resize(24, 0.0f);
    vp.toColumnMajor(draw.constants.data());
    draw.constants[16] = 0.45f;
    draw.constants[17] = 0.7f;
    draw.constants[18] = 0.55f;
    draw.constants[19] = 0.25f;
    return draw;
}

Outcome
runCase(const QuietCase &c)
{
    gpu::GpuTopParams gp = soc::caseStudy2GpuParams();
    gp.core.taskQueueDepth = c.taskQueueDepth;
    gp.core.maxWarps = c.maxWarps;
    soc::StandaloneGpu rig(128, 96, gp, soc::caseStudy2MemParams(),
                           SimulationBuilder().checkDeterminism());
    core::GfxParams gfx;
    gfx.fineQueueDepth = c.fineQueueDepth;
    gfx.hizEnabled = c.hiz;
    gfx.tcFlushTimeoutCycles = c.tcTimeout;
    gfx.oooPrimitives = c.ooo;
    core::GraphicsPipeline pipe(rig.sim(), "gfx2", rig.gpu(), 128, 96,
                                gfx);
    pipe.setWtSize(c.wt);

    bool done = false;
    Outcome out;
    auto on_done = [&](const core::FrameStats &s) {
        out.cycles = s.cycles;
        done = true;
    };
    mem::FunctionalMemory &fmem = rig.functionalMemory();
    scenes::SceneRenderer scene(pipe, scenes::makeWorkload(c.workload),
                                fmem);
    core::ShaderBuilder shaders;
    if (!c.multiDraw) {
        scene.renderFrame(0, on_done);
    } else {
        // The cube and the teapot as triangle lists, then a quad
        // strip in front of part of both.
        core::RenderState state;
        state.cullBackface = false;
        const auto *vs =
            shaders.buildVertex("vs", scenes::vertexShaderSource());
        const auto *fs = shaders.buildFragment(
            "fs", scenes::fragmentFlatSource(), state);
        scenes::Workload cube =
            scenes::makeWorkload(scenes::WorkloadId::W3_Cube);
        core::Mat4 vp = cube.camera.viewProj(0, 128.0f / 96.0f);
        const std::vector<float> strip = {
            -0.5f, -0.4f, 0.2f, 0, 0, 1, 0, 0, //
            0.6f,  -0.4f, 0.2f, 0, 0, 1, 1, 0, //
            -0.5f, 0.3f,  0.2f, 0, 0, 1, 0, 1, //
            0.6f,  0.3f,  0.2f, 0, 0, 1, 1, 1,
        };
        pipe.beginFrame(&scene.framebuffer());
        pipe.submitDraw(flatDraw(fmem, cube.mesh.data(),
                                 core::PrimitiveType::Triangles, vp, vs,
                                 fs, state));
        pipe.submitDraw(flatDraw(
            fmem,
            scenes::makeWorkload(scenes::WorkloadId::W6_Teapot)
                .mesh.data(),
            core::PrimitiveType::Triangles, vp, vs, fs, state));
        pipe.submitDraw(flatDraw(fmem, strip,
                                 core::PrimitiveType::TriangleStrip,
                                 core::Mat4::identity(), vs, fs, state));
        pipe.endFrame(on_done);
    }
    EXPECT_TRUE(rig.runUntil([&] { return done; }, ticksFromMs(1.0)))
        << c.name;
    out.eventHash = rig.sim().determinismHash();
    out.quietTicks =
        static_cast<std::uint64_t>(pipe.statQuietTicks.value());
    return out;
}

} // namespace

TEST(GfxQuietTicks, EventStreamsMatchParentPins)
{
    using scenes::WorkloadId;
    // eventHash and cycles were recorded before quiet ticks existed;
    // a case whose pins move has changed behaviour, not just speed.
    const QuietCase cases[] = {
        {.name = "cube",
         .workload = WorkloadId::W3_Cube,
         .eventHash = 0xa39936c0357232caULL,
         .cycles = 22981,
         .quietTicks = 21867},
        {.name = "teapot",
         .eventHash = 0xb385243da497f000ULL,
         .cycles = 50145,
         .quietTicks = 39849},
        {.name = "teapot, fine queue depth 1",
         .fineQueueDepth = 1,
         .eventHash = 0x21809865a25d0762ULL,
         .cycles = 50145,
         .quietTicks = 39841},
        {.name = "suzanne, WT 1",
         .workload = WorkloadId::W4_Suzanne,
         .eventHash = 0x538432ffd3ba6c08ULL,
         .cycles = 43232,
         .quietTicks = 29838},
        {.name = "suzanne, WT 4",
         .workload = WorkloadId::W4_Suzanne,
         .wt = 4,
         .eventHash = 0xaeac22bbaca2b944ULL,
         .cycles = 59512,
         .quietTicks = 39305},
        {.name = "suzanne, WT 10",
         .workload = WorkloadId::W4_Suzanne,
         .wt = 10,
         .eventHash = 0x8291a6fde34e14d8ULL,
         .cycles = 61134,
         .quietTicks = 41149},
        {.name = "cube, Hi-Z off",
         .workload = WorkloadId::W3_Cube,
         .hiz = false,
         .eventHash = 0x20ec5c74cc4a3dc6ULL,
         .cycles = 22969,
         .quietTicks = 21895},
        {.name = "teapot, TC timeout 1",
         .tcTimeout = 1,
         .eventHash = 0x9b6ae9520415a1bdULL,
         .cycles = 48768,
         .quietTicks = 39865},
        {.name = "cube, out-of-order primitives",
         .workload = WorkloadId::W3_Cube,
         .ooo = true,
         .eventHash = 0xc47f1f521bb24a86ULL,
         .cycles = 23273,
         .quietTicks = 21851},
        {.name = "multi-draw frame",
         .multiDraw = true,
         .eventHash = 0x43bb6850fea593c0ULL,
         .cycles = 36557,
         .quietTicks = 7413},
        {.name = "blended suzanne",
         .workload = WorkloadId::W5_SuzanneAlpha,
         .eventHash = 0x6c29ca4d7ab0d918ULL,
         .cycles = 55844,
         .quietTicks = 43792},
        // Four warps a core keep tasks waiting in the core queues, so
        // TC issue and vertex launch wait for queue space (with the
        // default 8-deep queue this frame takes 23232 cycles).
        {.name = "cube, task queue depth 2, 4 warps a core",
         .workload = WorkloadId::W3_Cube,
         .taskQueueDepth = 2,
         .maxWarps = 4,
         .eventHash = 0x80412a22719d019eULL,
         .cycles = 23410,
         .quietTicks = 22258},
    };
    for (const QuietCase &c : cases) {
        Outcome out = runCase(c);
        EXPECT_EQ(out.eventHash, c.eventHash) << c.name;
        EXPECT_EQ(out.cycles, c.cycles) << c.name;
        EXPECT_EQ(out.quietTicks, c.quietTicks) << c.name;
        EXPECT_GT(out.quietTicks, 0u) << c.name;
    }
}
