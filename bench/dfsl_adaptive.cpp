/**
 * @file
 * dfsl_adaptive: DFSL in action (paper case study II). Renders an
 * animated workload while the DFSL controller alternates evaluation
 * and run phases, adapting the WT granularity to the content, and
 * prints each frame's WT choice and execution time.
 *
 *   emerald_bench --run=dfsl_adaptive [--workload=W5-suzanne-alpha]
 *       [--frames=24]
 *
 * --workload takes a workloadName spelling (W1-sibenik ...
 * M4-triangles).
 */

#include "core/dfsl.hh"
#include "harness.hh"
#include "registry.hh"

using namespace emerald;
using namespace emerald::bench;

namespace
{

int
runScenario(int argc, char **argv)
{
    BenchHarness harness(argc, argv, "dfsl_adaptive");
    const Config &cfg = harness.cfg;
    unsigned frames = static_cast<unsigned>(cfg.getU64("frames", 24));
    scenes::WorkloadId id = scenes::workloadFromName(
        cfg.getString("workload", "W5-suzanne-alpha"));

    soc::StandaloneGpu rig(256, 192, soc::caseStudy2GpuParams(),
                           soc::caseStudy2MemParams(),
                           harness.builderFor(""));
    scenes::SceneRenderer scene(rig.pipeline(), scenes::makeWorkload(id),
                                rig.functionalMemory());

    core::DfslParams dp;
    dp.minWT = 1;
    dp.maxWT = 10;
    dp.runFrames = 8;
    core::DfslController dfsl(dp);

    std::printf("DFSL on %s (eval %u frames, run %u frames)\n",
                scene.workload().name.c_str(),
                dp.maxWT - dp.minWT + 1, dp.runFrames);
    std::printf("%-6s %-5s %-6s %14s\n", "frame", "phase", "WT",
                "cycles");
    for (unsigned f = 0; f < frames; ++f) {
        unsigned wt = dfsl.wtForNextFrame();
        rig.pipeline().setWtSize(wt);
        core::FrameStats stats = renderFrame(rig, scene, f);
        bool eval = dfsl.evaluating();
        dfsl.frameCompleted(stats.cycles);
        std::printf("%-6u %-5s %-6u %14llu\n", f, eval ? "eval" : "run",
                    wt, (unsigned long long)stats.cycles);
    }
    std::printf("best WT discovered: %u\n", dfsl.bestWT());
    return 0;
}

const RegisterScenario reg{{
    .name = "dfsl_adaptive",
    .desc = "DFSL picking the WT size frame by frame on one workload",
    .run = runScenario,
    .kind = ScenarioKind::Aux,
}};

} // namespace
