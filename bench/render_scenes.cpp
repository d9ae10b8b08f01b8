/**
 * @file
 * render_scenes: render every workload in the library to a PPM image
 * (the paper's Fig. 16 shows its workloads "rendered with Emerald";
 * this does the same for the procedural stand-ins) and print
 * per-workload frame statistics.
 *
 *   emerald_bench --run=render_scenes [--width=256] [--height=192]
 *       [--outdir=.]
 *
 * Each workload renders on a fresh rig labelled with its
 * workloadName, so --trace-file=t.json writes t.W1-sibenik.json ...
 * t.M4-triangles.json.
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
    BenchHarness harness(argc, argv, "render_scenes");
    const Config &cfg = harness.cfg;
    unsigned width = static_cast<unsigned>(cfg.getU64("width", 256));
    unsigned height = static_cast<unsigned>(cfg.getU64("height", 192));
    std::string outdir = cfg.getString("outdir", ".");

    std::printf("%-18s %9s %9s %10s %12s\n", "workload", "tris",
                "prims", "fragments", "GPU cycles");
    std::vector<scenes::WorkloadId> all = caseStudy2Workloads();
    for (scenes::WorkloadId id : caseStudy1Models())
        all.push_back(id);
    for (scenes::WorkloadId id : all) {
        const char *name = scenes::workloadName(id);
        soc::StandaloneGpu rig(width, height, soc::caseStudy2GpuParams(),
                               soc::caseStudy2MemParams(),
                               harness.builderFor(name));
        scenes::SceneRenderer scene(rig.pipeline(),
                                    scenes::makeWorkload(id),
                                    rig.functionalMemory());
        core::FrameStats stats = renderFrame(rig, scene, 0);
        std::printf("%-18s %9u %9llu %10llu %12llu\n", name,
                    scene.triangleCount(),
                    (unsigned long long)stats.primsIn,
                    (unsigned long long)stats.fragments,
                    (unsigned long long)stats.cycles);
        scene.framebuffer().writePpm(outdir + "/" + name + ".ppm");
    }
    std::printf("images written to %s/*.ppm\n", outdir.c_str());
    return 0;
}

const RegisterScenario reg{{
    .name = "render_scenes",
    .desc = "Fig. 16: every workload rendered to a PPM image",
    .run = runScenario,
    .kind = ScenarioKind::Aux,
}};

} // namespace
