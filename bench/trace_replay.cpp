/**
 * @file
 * trace_replay: trace capture and replay (the paper's standalone-mode
 * workflow: APITrace captures played through the simulator;
 * full-system checkpointing records and replays draw calls the same
 * way).
 *
 * Records a few frames of a workload into a trace directory (the
 * checkpoint codec's data.bin), reloads it, replays it on one rig
 * while a second rig renders the same frames live, and checks that
 * the images hash-match. Exits 1 on any mismatch.
 *
 *   emerald_bench --run=trace_replay [--workload=W3-cube] [--frames=3]
 *       [--out=draw_trace]
 *
 * The two rigs are labelled "live" and "replay", so
 * --trace-file=t.json writes t.live.json and t.replay.json.
 */

#include "core/trace.hh"
#include "harness.hh"
#include "registry.hh"
#include "scenes/shaders.hh"

using namespace emerald;
using namespace emerald::bench;

namespace
{

/**
 * @p frames frames of @p workload as a driver shim would record them:
 * one draw per frame with the animated view-projection constants.
 */
core::Trace
recordTrace(const scenes::Workload &workload, unsigned frames,
            unsigned w, unsigned h)
{
    core::Trace trace;
    trace.fbWidth = w;
    trace.fbHeight = h;
    for (unsigned f = 0; f < frames; ++f) {
        trace.beginFrame();
        core::TraceDraw draw;
        draw.vsSource = scenes::vertexShaderSource();
        draw.fsSource = workload.translucent
                            ? scenes::fragmentTranslucentSource()
                            : scenes::fragmentTexturedSource();
        draw.state.cullBackface = false;
        draw.state.blend = workload.translucent;
        draw.state.depthWrite = !workload.translucent;
        draw.floatsPerVertex = scenes::vertexFloats;
        draw.numVaryings = scenes::standardVaryings;
        draw.vertexData = workload.mesh.data();
        draw.constants.resize(24, 0.0f);
        workload.camera
            .viewProj(f, static_cast<float>(w) / static_cast<float>(h))
            .toColumnMajor(draw.constants.data());
        draw.constants[16] = 0.45f;
        draw.constants[17] = 0.7f;
        draw.constants[18] = 0.55f;
        draw.constants[19] = 0.25f;
        draw.constants[20] = 0.55f;

        core::TraceTexture tex;
        tex.unit = 0;
        tex.width = workload.textureSize;
        tex.height = workload.textureSize;
        tex.texels.resize(std::size_t(tex.width) * tex.height);
        for (unsigned y = 0; y < tex.height; ++y) {
            for (unsigned x = 0; x < tex.width; ++x) {
                bool odd = ((x / (tex.width / 8)) +
                            (y / (tex.height / 8))) &
                           1;
                tex.texels[std::size_t(y) * tex.width + x] =
                    odd ? 0xffe0e0e0u : 0xff508ad0u;
            }
        }
        draw.textures.push_back(std::move(tex));
        trace.recordDraw(std::move(draw));
    }
    return trace;
}

int
runScenario(int argc, char **argv)
{
    BenchHarness harness(argc, argv, "trace_replay");
    const Config &cfg = harness.cfg;
    unsigned frames = static_cast<unsigned>(cfg.getU64("frames", 3));
    std::string out = cfg.getString("out", "draw_trace");
    unsigned w = 192, h = 144;

    core::Trace trace = recordTrace(
        scenes::makeWorkload(scenes::workloadFromName(
            cfg.getString("workload", "W3-cube"))),
        frames, w, h);
    core::saveTrace(out, trace);
    std::printf("recorded %u frames (%u draws, %u verts/frame) to "
                "%s\n",
                frames, 1u, trace.frames[0][0].vertexCount(),
                out.c_str());

    auto loaded = core::loadTrace(out);
    if (!loaded) {
        std::fprintf(stderr, "cannot reload %s\n", out.c_str());
        return 1;
    }
    soc::StandaloneGpu live_rig(w, h, soc::caseStudy2GpuParams(),
                                soc::caseStudy2MemParams(),
                                harness.builderFor("live"));
    core::TracePlayer live(live_rig.pipeline(), trace,
                           live_rig.functionalMemory());
    soc::StandaloneGpu replay_rig(w, h, soc::caseStudy2GpuParams(),
                                  soc::caseStudy2MemParams(),
                                  harness.builderFor("replay"));
    core::TracePlayer replay(replay_rig.pipeline(), *loaded,
                             replay_rig.functionalMemory());

    auto render = [](soc::StandaloneGpu &rig, core::TracePlayer &player,
                     unsigned idx) {
        bool done = false;
        player.playFrame(idx, [&](const core::FrameStats &) {
            done = true;
        });
        rig.runUntil([&] { return done; });
        return player.framebuffer().colorHash();
    };
    std::printf("%-6s %18s %18s %7s\n", "frame", "live hash",
                "replay hash", "match");
    bool all_match = true;
    for (unsigned f = 0; f < frames; ++f) {
        std::uint64_t h1 = render(live_rig, live, f);
        std::uint64_t h2 = render(replay_rig, replay, f);
        all_match &= h1 == h2;
        std::printf("%-6u %018llx %018llx %7s\n", f,
                    (unsigned long long)h1, (unsigned long long)h2,
                    h1 == h2 ? "yes" : "NO");
    }
    std::printf(all_match ? "replay is bit-identical\n"
                          : "REPLAY MISMATCH\n");
    return all_match ? 0 : 1;
}

const RegisterScenario reg{{
    .name = "trace_replay",
    .desc = "record a draw-call trace, replay it bit-identically",
    .run = runScenario,
    .kind = ScenarioKind::Aux,
}};

} // namespace
