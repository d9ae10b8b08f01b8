/**
 * @file
 * Render every workload in the library to a PPM image (the paper's
 * Fig. 16 shows its workloads "rendered with Emerald"; this does the
 * same for the procedural stand-ins) and print per-workload frame
 * statistics.
 *
 * Usage: render_scenes [--width=256] [--height=192] [--outdir=.]
 *                      [--check-determinism] [--profile]
 */

#include <cstdio>
#include <string>

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
    std::string outdir = cfg.getString("outdir", ".");

    const scenes::WorkloadId all[] = {
        scenes::WorkloadId::W1_Sibenik,
        scenes::WorkloadId::W2_Spot,
        scenes::WorkloadId::W3_Cube,
        scenes::WorkloadId::W4_Suzanne,
        scenes::WorkloadId::W5_SuzanneAlpha,
        scenes::WorkloadId::W6_Teapot,
        scenes::WorkloadId::M1_Chair,
        scenes::WorkloadId::M2_Cube,
        scenes::WorkloadId::M3_Mask,
        scenes::WorkloadId::M4_Triangles,
    };

    std::printf("%-18s %9s %9s %10s %12s\n", "workload", "tris",
                "prims", "fragments", "GPU cycles");

    SimulationBuilder builder = SimulationBuilder().observability(cfg);
    for (scenes::WorkloadId id : all) {
        // A fresh rig per workload keeps runs independent.
        soc::StandaloneGpu rig(width, height, soc::caseStudy2GpuParams(),
                               soc::caseStudy2MemParams(), builder);
        scenes::SceneRenderer scene(rig.pipeline(),
                                    scenes::makeWorkload(id),
                                    rig.functionalMemory());
        bool done = false;
        core::FrameStats stats;
        scene.renderFrame(0, [&](const core::FrameStats &s) {
            stats = s;
            done = true;
        });
        if (!rig.runUntil([&] { return done; })) {
            std::fprintf(stderr, "%s stalled\n",
                         scene.workload().name.c_str());
            return 1;
        }
        std::printf("%-18s %9u %9llu %10llu %12llu\n",
                    scene.workload().name.c_str(),
                    scene.triangleCount(),
                    (unsigned long long)stats.primsIn,
                    (unsigned long long)stats.fragments,
                    (unsigned long long)stats.cycles);
        std::string path = outdir + "/" + scene.workload().name +
                           ".ppm";
        scene.framebuffer().writePpm(path);
    }
    std::printf("images written to %s/*.ppm\n", outdir.c_str());
    return 0;
}
