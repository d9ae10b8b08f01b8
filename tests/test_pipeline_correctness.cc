#include <gtest/gtest.h>

#include <set>
#include <utility>

#include "core/clipper.hh"
#include "core/rasterizer.hh"
#include "core/shader_builder.hh"
#include "scenes/procedural.hh"
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

/** Count pixels that differ from the clear color. */
unsigned
drawnPixels(core::Framebuffer &fb)
{
    unsigned count = 0;
    for (unsigned y = 0; y < fb.height(); ++y)
        for (unsigned x = 0; x < fb.width(); ++x)
            if (fb.pixel(static_cast<int>(x), static_cast<int>(y)) !=
                0xff000000u)
                ++count;
    return count;
}

} // namespace

TEST(PipelineCorrectness, ImageIdenticalAcrossWtSizes)
{
    // WT granularity is a performance knob; the image must be
    // bit-identical regardless (depth test makes opaque rendering
    // order-independent).
    std::uint64_t reference = 0;
    for (unsigned wt : {1u, 3u, 10u}) {
        soc::StandaloneGpu rig(128, 96);
        scenes::SceneRenderer scene(
            rig.pipeline(),
            scenes::makeWorkload(scenes::WorkloadId::W4_Suzanne),
            rig.functionalMemory());
        rig.pipeline().setWtSize(wt);
        render(rig, scene, 0);
        std::uint64_t hash = scene.framebuffer().colorHash();
        if (wt == 1)
            reference = hash;
        else
            EXPECT_EQ(hash, reference) << "wt=" << wt;
    }
}

TEST(PipelineCorrectness, ImageIdenticalWithHiZDisabled)
{
    std::uint64_t hashes[2];
    for (int enabled = 0; enabled < 2; ++enabled) {
        Simulation *sim_keep = nullptr;
        (void)sim_keep;
        core::GfxParams gfx;
        gfx.hizEnabled = enabled != 0;
        soc::StandaloneGpu rig(128, 96);
        // Rebuild the pipeline with the chosen Hi-Z setting.
        core::GraphicsPipeline pipe(rig.sim(), "gfx2", rig.gpu(), 128,
                                    96, gfx);
        scenes::SceneRenderer scene(
            pipe, scenes::makeWorkload(scenes::WorkloadId::W6_Teapot),
            rig.functionalMemory());
        bool done = false;
        scene.renderFrame(0,
                          [&](const core::FrameStats &) { done = true; });
        ASSERT_TRUE(rig.runUntil([&] { return done; }));
        hashes[enabled] = scene.framebuffer().colorHash();
    }
    EXPECT_EQ(hashes[0], hashes[1]);
}

TEST(PipelineCorrectness, NearTriangleOccludesFar)
{
    // Two overlapping full-screen-ish triangles: the nearer one must
    // win everywhere they overlap, regardless of submission order.
    soc::StandaloneGpu rig(64, 64);
    mem::FunctionalMemory &fmem = rig.functionalMemory();
    core::ShaderBuilder builder;

    const auto *vs = builder.buildVertex(
        "vs", scenes::vertexShaderSource());
    core::RenderState state;
    state.cullBackface = false;
    const auto *fs = builder.buildFragment(
        "fs", scenes::fragmentFlatSource(), state);

    // Far triangle (z=0.8): lit color channel a[0..2] encodes id via
    // normals -> just use two draws and distinct light constants.
    auto make_draw = [&](float z, float brightness) {
        // Triangle covering the lower-left half of clip space.
        float verts[3][8] = {
            {-1, -1, z, 0, 0, 1, 0, 0},
            {3, -1, z, 0, 0, 1, 1, 0},
            {-1, 3, z, 0, 0, 1, 0, 1},
        };
        Addr vb = fmem.allocate(sizeof(verts), 128);
        fmem.write(vb, verts, sizeof(verts));
        core::DrawCall draw;
        draw.vertexProgram = vs;
        draw.fragmentProgram = fs;
        draw.vertexCount = 3;
        draw.vertexBufferAddr = vb;
        draw.floatsPerVertex = 8;
        draw.numVaryings = scenes::standardVaryings;
        draw.memory = &fmem;
        draw.state = state;
        draw.constants.resize(24, 0.0f);
        // Identity view-projection.
        for (int i = 0; i < 4; ++i)
            draw.constants[static_cast<std::size_t>(i) * 4 +
                           static_cast<std::size_t>(i)] = 1.0f;
        // Light along +z so n.l = brightness knob via ambient.
        draw.constants[19] = brightness; // ambient only.
        return draw;
    };

    core::Framebuffer fb(64, 64);
    rig.pipeline().beginFrame(&fb);
    rig.pipeline().submitDraw(make_draw(0.5f, 0.9f));  // Near, bright.
    rig.pipeline().submitDraw(make_draw(0.9f, 0.2f));  // Far, dark.
    bool done = false;
    rig.pipeline().endFrame(
        [&](const core::FrameStats &) { done = true; });
    ASSERT_TRUE(rig.runUntil([&] { return done; }));

    // Center pixel: near triangle's bright color must survive even
    // though the far one was drawn second.
    std::uint32_t px = fb.pixel(10, 10);
    unsigned red = px & 0xff;
    EXPECT_NEAR(red, 230, 5); // 0.9 ~ 230.
    EXPECT_LT(fb.depthAt(10, 10), 0.8f);
}

TEST(PipelineCorrectness, NearClippedPiecesShareATile)
{
    // A triangle crossing the near plane is clipped into two
    // triangles of one primitive. Here both land in the same raster
    // tile, so the raster stage must rasterize the second piece rather
    // than take the first piece's tile for it: the drawn pixels are
    // exactly the union of the pieces' coverage.
    const float pos[3][3] = {
        {0.005f, 0.035f, -2.0f}, // Behind the near plane (z < -w).
        {0.085f, 0.035f, 0.5f},
        {0.005f, 0.115f, 0.5f},
    };
    core::ClipVertex clip[3];
    for (int i = 0; i < 3; ++i)
        clip[i].pos = {pos[i][0], pos[i][1], pos[i][2], 1.0f};
    core::ClipResult pieces;
    ASSERT_TRUE(core::clipTriangle(clip, pieces));
    ASSERT_EQ(pieces.count, 2u);
    std::set<std::pair<int, int>> expected;
    for (unsigned t = 0; t < pieces.count; ++t) {
        core::ScreenVertex sv[3];
        for (int i = 0; i < 3; ++i) {
            sv[i] = core::viewportTransform(pieces.tris[t][i].pos,
                                            nullptr, 0, 64, 64);
        }
        core::SetupPrim prim;
        ASSERT_TRUE(core::setupPrimitive(sv, 64, 64, false, prim));
        ASSERT_EQ(prim.tileCount(), 1) << "piece " << t;
        ASSERT_EQ(prim.tileX0, 8) << "piece " << t;
        ASSERT_EQ(prim.tileY0, 7) << "piece " << t;
        core::FragmentTile tile;
        ASSERT_TRUE(core::rasterizeTile(prim, 8, 7, 0, 64, 64, tile))
            << "piece " << t << " covers no pixel";
        for (unsigned p = 0; p < core::rasterTilePixels; ++p) {
            if (tile.coverMask & (1u << p)) {
                expected.insert({32 + static_cast<int>(p % 4),
                                 28 + static_cast<int>(p / 4)});
            }
        }
    }

    soc::StandaloneGpu rig(64, 64);
    mem::FunctionalMemory &fmem = rig.functionalMemory();
    core::ShaderBuilder builder;
    core::RenderState state;
    state.cullBackface = false;
    float verts[3][8] = {};
    for (int i = 0; i < 3; ++i) {
        for (int c = 0; c < 3; ++c)
            verts[i][c] = pos[i][c];
    }
    Addr vb = fmem.allocate(sizeof(verts), 128);
    fmem.write(vb, verts, sizeof(verts));
    core::DrawCall draw;
    draw.vertexProgram =
        builder.buildVertex("vs", scenes::vertexShaderSource());
    draw.fragmentProgram = builder.buildFragment(
        "fs", scenes::fragmentFlatSource(), state);
    draw.vertexCount = 3;
    draw.vertexBufferAddr = vb;
    draw.floatsPerVertex = 8;
    draw.numVaryings = scenes::standardVaryings;
    draw.memory = &fmem;
    draw.state = state;
    draw.constants.resize(24, 0.0f);
    for (int i = 0; i < 4; ++i) // Identity view-projection.
        draw.constants[static_cast<std::size_t>(i) * 5] = 1.0f;
    draw.constants[19] = 0.9f; // Ambient only.

    core::Framebuffer fb(64, 64);
    rig.pipeline().beginFrame(&fb);
    rig.pipeline().submitDraw(std::move(draw));
    bool done = false;
    rig.pipeline().endFrame(
        [&](const core::FrameStats &) { done = true; });
    ASSERT_TRUE(rig.runUntil([&] { return done; }));

    std::set<std::pair<int, int>> drawn;
    for (int y = 0; y < 64; ++y) {
        for (int x = 0; x < 64; ++x) {
            if (fb.pixel(x, y) != 0xff000000u)
                drawn.insert({x, y});
        }
    }
    EXPECT_EQ(drawn, expected);
}

TEST(PipelineCorrectness, TranslucencyBlendsOverOpaque)
{
    soc::StandaloneGpu rig(128, 96);
    scenes::SceneRenderer scene(
        rig.pipeline(),
        scenes::makeWorkload(scenes::WorkloadId::W5_SuzanneAlpha),
        rig.functionalMemory());
    core::FrameStats stats = render(rig, scene, 0);
    EXPECT_GT(stats.fragments, 1000u);
    EXPECT_GT(drawnPixels(scene.framebuffer()), 500u);
}

TEST(PipelineCorrectness, GoldenHashesStable)
{
    // Golden image hashes and frame counters: any change to shading,
    // rasterization, Hi-Z, clipping or ROP ordering shows up here.
    // With a fine queue one tile deep, the raster stage stalls on
    // backpressure and retries the turned-away tile, so that path is
    // pinned too. Regenerate only when behaviour is *intentionally*
    // changed, and say why in CHANGES.md.
    struct Golden
    {
        const char *name;
        scenes::WorkloadId id;
        unsigned fineQueueDepth;
        std::uint64_t colorHash;
        std::uint64_t rasterTiles;
        std::uint64_t hizRejects;
        std::uint64_t fragments;
        std::uint64_t fragWarps;
        std::uint64_t cycles;
    };
    const Golden goldens[] = {
        {"cube", scenes::WorkloadId::W3_Cube, 8, 0x596537f04f12d169ULL, 290, 46,
         2958, 153, 22981},
        {"teapot", scenes::WorkloadId::W6_Teapot, 8, 0x60ccaf6160878280ULL, 1448, 0,
         1574, 331, 50145},
        {"teapot, fine queue depth 1", scenes::WorkloadId::W6_Teapot, 1,
         0x60ccaf6160878280ULL, 1448, 0, 1574, 331, 50145},
    };
    for (const Golden &golden : goldens) {
        core::GfxParams gfx;
        gfx.fineQueueDepth = golden.fineQueueDepth;
        soc::StandaloneGpu rig(128, 96);
        core::GraphicsPipeline pipe(rig.sim(), "gfx2", rig.gpu(), 128,
                                    96, gfx);
        scenes::SceneRenderer scene(pipe, scenes::makeWorkload(golden.id),
                                    rig.functionalMemory());
        bool done = false;
        core::FrameStats stats;
        scene.renderFrame(0, [&](const core::FrameStats &s) {
            stats = s;
            done = true;
        });
        ASSERT_TRUE(rig.runUntil([&] { return done; })) << golden.name;
        EXPECT_EQ(scene.framebuffer().colorHash(), golden.colorHash)
            << golden.name;
        EXPECT_EQ(stats.rasterTiles, golden.rasterTiles) << golden.name;
        EXPECT_EQ(stats.hizRejects, golden.hizRejects) << golden.name;
        EXPECT_EQ(stats.fragments, golden.fragments) << golden.name;
        EXPECT_EQ(stats.fragWarps, golden.fragWarps) << golden.name;
        EXPECT_EQ(stats.cycles, golden.cycles) << golden.name;
        EXPECT_GT(drawnPixels(scene.framebuffer()), 300u) << golden.name;
    }
}

TEST(PipelineCorrectness, TemporalCoherenceSmallDeltas)
{
    // Consecutive frames differ only slightly (the property DFSL
    // exploits): fragment counts move by far less than the total.
    soc::StandaloneGpu rig(128, 96);
    scenes::SceneRenderer scene(
        rig.pipeline(),
        scenes::makeWorkload(scenes::WorkloadId::W2_Spot),
        rig.functionalMemory());
    core::FrameStats f0 = render(rig, scene, 0);
    core::FrameStats f1 = render(rig, scene, 1);
    double delta = std::abs(static_cast<double>(f1.fragments) -
                            static_cast<double>(f0.fragments));
    EXPECT_LT(delta, 0.1 * static_cast<double>(f0.fragments));
}

TEST(PipelineCorrectness, MultiDrawFramesDrain)
{
    // Several draws in one frame, sequential draining.
    soc::StandaloneGpu rig(96, 96);
    mem::FunctionalMemory &fmem = rig.functionalMemory();
    scenes::Workload w = scenes::makeWorkload(
        scenes::WorkloadId::W3_Cube);
    scenes::SceneRenderer scene(rig.pipeline(), std::move(w), fmem);

    // Render three animated frames back to back.
    for (unsigned f = 0; f < 3; ++f) {
        core::FrameStats stats = render(rig, scene, f);
        EXPECT_GT(stats.fragments, 100u) << "frame " << f;
    }
}

TEST(PipelineCorrectness, EmptyFrameCompletes)
{
    soc::StandaloneGpu rig(64, 64);
    core::Framebuffer fb(64, 64);
    rig.pipeline().beginFrame(&fb);
    bool done = false;
    rig.pipeline().endFrame(
        [&](const core::FrameStats &s) {
            done = true;
            EXPECT_EQ(s.fragments, 0u);
        });
    EXPECT_TRUE(rig.runUntil([&] { return done; }));
}

TEST(PipelineCorrectness, HiZCullsOccludedWork)
{
    // Draw a big near quad first, then geometry behind it: Hi-Z must
    // reject a meaningful share of the occluded tiles.
    soc::StandaloneGpu rig(128, 96);
    mem::FunctionalMemory &fmem = rig.functionalMemory();
    core::ShaderBuilder builder;
    const auto *vs = builder.buildVertex(
        "vs", scenes::vertexShaderSource());
    core::RenderState state;
    state.cullBackface = false;
    const auto *fs = builder.buildFragment(
        "fs", scenes::fragmentFlatSource(), state);

    auto fullscreen = [&](float z) {
        float verts[6][8] = {
            {-1, -1, z, 0, 0, 1, 0, 0}, {1, -1, z, 0, 0, 1, 1, 0},
            {1, 1, z, 0, 0, 1, 1, 1},   {-1, -1, z, 0, 0, 1, 0, 0},
            {1, 1, z, 0, 0, 1, 1, 1},   {-1, 1, z, 0, 0, 1, 0, 1},
        };
        Addr vb = fmem.allocate(sizeof(verts), 128);
        fmem.write(vb, verts, sizeof(verts));
        core::DrawCall draw;
        draw.vertexProgram = vs;
        draw.fragmentProgram = fs;
        draw.vertexCount = 6;
        draw.vertexBufferAddr = vb;
        draw.floatsPerVertex = 8;
        draw.numVaryings = scenes::standardVaryings;
        draw.memory = &fmem;
        draw.state = state;
        draw.constants.resize(24, 0.0f);
        for (int i = 0; i < 4; ++i)
            draw.constants[static_cast<std::size_t>(i) * 4 +
                           static_cast<std::size_t>(i)] = 1.0f;
        draw.constants[19] = 0.5f;
        return draw;
    };

    core::Framebuffer fb(128, 96);
    rig.pipeline().beginFrame(&fb);
    rig.pipeline().submitDraw(fullscreen(0.1f)); // Near occluder.
    rig.pipeline().submitDraw(fullscreen(0.9f)); // Fully occluded.
    bool done = false;
    core::FrameStats stats;
    rig.pipeline().endFrame([&](const core::FrameStats &s) {
        stats = s;
        done = true;
    });
    ASSERT_TRUE(rig.runUntil([&] { return done; }));
    // The second draw's tiles are all occluded; Hi-Z kills them
    // before fragment shading.
    EXPECT_GT(stats.hizRejects, 300u);
    // Fragments shaded ~ one full screen, not two.
    EXPECT_LT(stats.fragments, 128u * 96u * 3 / 2);
}

TEST(PipelineCorrectness, OutOfOrderPrimitivesImageMatches)
{
    // Extension (paper Section 3.3.6): OOO primitive release is safe
    // for depth-tested, non-blended draws - the image must match the
    // in-order pipeline exactly.
    std::uint64_t hashes[2];
    for (int ooo = 0; ooo < 2; ++ooo) {
        core::GfxParams gfx;
        gfx.oooPrimitives = ooo != 0;
        soc::StandaloneGpu rig(128, 96);
        core::GraphicsPipeline pipe(rig.sim(), "gfx_ooo", rig.gpu(),
                                    128, 96, gfx);
        scenes::SceneRenderer scene(
            pipe, scenes::makeWorkload(scenes::WorkloadId::W4_Suzanne),
            rig.functionalMemory());
        bool done = false;
        scene.renderFrame(0,
                          [&](const core::FrameStats &) { done = true; });
        ASSERT_TRUE(rig.runUntil([&] { return done; }));
        hashes[ooo] = scene.framebuffer().colorHash();
    }
    EXPECT_EQ(hashes[0], hashes[1]);
}
