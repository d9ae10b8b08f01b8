/**
 * @file
 * Quickstart: render one frame of the teapot workload on the
 * standalone Emerald GPU (paper Table 7 configuration), print the
 * frame statistics, and write the image to teapot.ppm.
 *
 * Usage: quickstart [--width=256] [--height=192] [--wt=1]
 *                   [--frames=1] [--out=teapot.ppm]
 *                   [--trace-file=trace.json] [--profile] [--stats]
 *
 * --stats prints the whole stats tree as JSON.
 */

#include <cstdio>
#include <sstream>

#include "sim/config.hh"
#include "scenes/workloads.hh"
#include "soc/configs.hh"

using namespace emerald;

int
main(int argc, char **argv)
{
    Config cfg;
    cfg.parseArgs(argc, argv);
    unsigned width = static_cast<unsigned>(cfg.getU64("width", 256));
    unsigned height = static_cast<unsigned>(cfg.getU64("height", 192));
    unsigned wt = static_cast<unsigned>(cfg.getU64("wt", 1));
    unsigned frames = static_cast<unsigned>(cfg.getU64("frames", 1));
    std::string out = cfg.getString("out", "teapot.ppm");

    // Standalone GPU: 6 SIMT clusters + 2 MB L2 + 4-channel LPDDR3.
    soc::StandaloneGpu rig(width, height, soc::caseStudy2GpuParams(),
                           soc::caseStudy2MemParams(),
                           SimulationBuilder().observability(cfg));
    rig.pipeline().setWtSize(wt);

    mem::FunctionalMemory &fmem = rig.functionalMemory();
    scenes::SceneRenderer scene(
        rig.pipeline(),
        scenes::makeWorkload(scenes::WorkloadId::W6_Teapot), fmem);

    for (unsigned f = 0; f < frames; ++f) {
        bool done = false;
        core::FrameStats stats;
        scene.renderFrame(f, [&](const core::FrameStats &s) {
            stats = s;
            done = true;
        });
        if (!rig.runUntil([&] { return done; })) {
            std::fprintf(stderr, "frame %u did not finish\n", f);
            return 1;
        }
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

    if (cfg.getBool("stats", false)) {
        std::printf("--- full stats dump ---\n");
        std::ostringstream os;
        rig.sim().statsRoot().dumpJson(os);
        std::printf("%s\n", os.str().c_str());
    }

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
