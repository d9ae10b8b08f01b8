/**
 * @file
 * Trace capture and replay (the paper's standalone-mode workflow:
 * APITrace captures played through the simulator; full-system
 * checkpointing records and replays draw calls the same way).
 *
 * Records a few frames of a workload into a trace directory (the
 * checkpoint codec's manifest.json + data.bin), reloads it, replays
 * through a fresh simulator instance, and verifies the replayed
 * images hash-match a live render. Exits 1 on any mismatch.
 *
 * Usage: trace_replay [--workload=W3] [--frames=3]
 *                     [--out=draw_trace] [--sim-stats-out=stats.json]
 *                     [--check-determinism] [--profile]
 *
 * The simulation flags apply to both rigs.
 */

#include <cstdio>
#include <string>

#include "core/trace.hh"
#include "scenes/shaders.hh"
#include "scenes/workloads.hh"
#include "sim/config.hh"
#include "soc/configs.hh"

using namespace emerald;

namespace
{

scenes::WorkloadId
workloadFromName(const std::string &name)
{
    using scenes::WorkloadId;
    if (name == "W1")
        return WorkloadId::W1_Sibenik;
    if (name == "W2")
        return WorkloadId::W2_Spot;
    if (name == "W4")
        return WorkloadId::W4_Suzanne;
    if (name == "W6")
        return WorkloadId::W6_Teapot;
    return WorkloadId::W3_Cube;
}

} // namespace

int
main(int argc, char **argv)
{
    Config cfg;
    cfg.parseArgs(argc, argv);
    unsigned frames = static_cast<unsigned>(cfg.getU64("frames", 3));
    std::string out = cfg.getString("out", "draw_trace");
    unsigned w = 192, h = 144;

    scenes::Workload workload =
        scenes::makeWorkload(workloadFromName(
            cfg.getString("workload", "W3")));

    // 1. Record: build the trace the way a driver shim would - one
    // draw per frame with the animated view-projection constants.
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

    core::saveTrace(out, trace);
    std::printf("recorded %u frames (%u draws, %u verts/frame) to "
                "%s\n",
                frames, 1u, trace.frames[0][0].vertexCount(),
                out.c_str());

    // 2. Replay in a fresh simulator and render the same frames
    // live in another; images must hash-match.
    auto loaded = core::loadTrace(out);
    if (!loaded) {
        std::fprintf(stderr, "cannot reload %s\n", out.c_str());
        return 1;
    }

    SimulationBuilder builder = SimulationBuilder().observability(cfg);
    soc::StandaloneGpu live_rig(w, h, soc::caseStudy2GpuParams(),
                                soc::caseStudy2MemParams(), builder);
    core::TracePlayer live(live_rig.pipeline(), trace,
                           live_rig.functionalMemory());
    soc::StandaloneGpu replay_rig(w, h, soc::caseStudy2GpuParams(),
                                  soc::caseStudy2MemParams(), builder);
    core::TracePlayer replay(replay_rig.pipeline(), *loaded,
                             replay_rig.functionalMemory());

    std::printf("%-6s %18s %18s %7s\n", "frame", "live hash",
                "replay hash", "match");
    bool all_match = true;
    for (unsigned f = 0; f < frames; ++f) {
        auto render = [](soc::StandaloneGpu &rig,
                         core::TracePlayer &player, unsigned idx) {
            bool done = false;
            player.playFrame(idx, [&](const core::FrameStats &) {
                done = true;
            });
            rig.runUntil([&] { return done; });
            return player.framebuffer().colorHash();
        };
        std::uint64_t h1 = render(live_rig, live, f);
        std::uint64_t h2 = render(replay_rig, replay, f);
        bool match = h1 == h2;
        all_match &= match;
        std::printf("%-6u %018llx %018llx %7s\n", f,
                    (unsigned long long)h1, (unsigned long long)h2,
                    match ? "yes" : "NO");
    }
    std::printf(all_match ? "replay is bit-identical\n"
                          : "REPLAY MISMATCH\n");
    return all_match ? 0 : 1;
}
