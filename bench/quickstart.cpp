/**
 * @file
 * quickstart: render frames of the teapot workload on the standalone
 * Emerald GPU (paper Table 7 configuration), print the frame
 * statistics, and write the image to a PPM file.
 *
 *   emerald_bench --run=quickstart [--width=256] [--height=192]
 *       [--wt=1] [--frames=1] [--out=teapot.ppm]
 *
 * The one simulation has the empty label: --trace-file is written as
 * given and --stats-out files its stats tree as sim.sim.
 */

#include "harness.hh"
#include "registry.hh"

using namespace emerald;
using namespace emerald::bench;

namespace
{

int
runScenario(int argc, char **argv)
{
    BenchHarness harness(argc, argv, "quickstart");
    const Config &cfg = harness.cfg;
    unsigned width = static_cast<unsigned>(cfg.getU64("width", 256));
    unsigned height = static_cast<unsigned>(cfg.getU64("height", 192));
    unsigned wt = static_cast<unsigned>(cfg.getU64("wt", 1));
    unsigned frames = static_cast<unsigned>(cfg.getU64("frames", 1));
    std::string out = cfg.getString("out", "teapot.ppm");

    // Standalone GPU: 6 SIMT clusters + 2 MB L2 + 4-channel LPDDR3.
    soc::StandaloneGpu rig(width, height, soc::caseStudy2GpuParams(),
                           soc::caseStudy2MemParams(),
                           harness.builderFor(""));
    rig.pipeline().setWtSize(wt);
    scenes::SceneRenderer scene(
        rig.pipeline(),
        scenes::makeWorkload(scenes::WorkloadId::W6_Teapot),
        rig.functionalMemory());

    for (unsigned f = 0; f < frames; ++f) {
        core::FrameStats stats = renderFrame(rig, scene, f);
        std::printf("frame %u: %llu GPU cycles, %llu vertices, "
                    "%llu prims (%llu culled), %llu raster tiles, "
                    "%llu Hi-Z rejects, %llu fragments in %llu warps "
                    "(WT=%u)\n",
                    f, (unsigned long long)stats.cycles,
                    (unsigned long long)stats.vertices,
                    (unsigned long long)stats.primsIn,
                    (unsigned long long)stats.primsCulled,
                    (unsigned long long)stats.rasterTiles,
                    (unsigned long long)stats.hizRejects,
                    (unsigned long long)stats.fragments,
                    (unsigned long long)stats.fragWarps,
                    stats.wtSize);
    }

    std::printf("L1T miss rate %.3f, L2 miss rate %.3f, DRAM row-hit "
                "rate %.3f\n",
                rig.gpu().core(0).l1t().missRate(),
                rig.gpu().l2().missRate(), rig.memory().rowHitRate());

    if (EventTracer *tracer = rig.sim().tracer()) {
        tracer->close();
        std::printf("wrote %s (%llu trace records)\n",
                    tracer->path().c_str(),
                    (unsigned long long)tracer->numRecords());
    }

    if (scene.framebuffer().writePpm(out))
        std::printf("wrote %s (hash %016llx)\n", out.c_str(),
                    (unsigned long long)scene.framebuffer()
                        .colorHash());
    return 0;
}

const RegisterScenario reg{{
    .name = "quickstart",
    .desc = "render the teapot on the standalone GPU, write a PPM",
    .run = runScenario,
    .kind = ScenarioKind::Aux,
}};

} // namespace
