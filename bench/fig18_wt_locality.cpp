/**
 * @file
 * Paper Fig. 18: W1 execution time and total L1 misses (color,
 * texture, depth) across WT sizes, plus the execution-time/miss
 * correlations.
 * Expected shape: larger WTs improve L1 locality (fewer misses);
 * execution time correlates strongly (paper: ~0.78-0.82) with L1
 * miss counts.
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
    BenchHarness harness(argc, argv, "fig18_wt_locality");
    const Config &cfg = harness.cfg;
    unsigned fbw = static_cast<unsigned>(cfg.getU64("width", 256));
    unsigned fbh = static_cast<unsigned>(cfg.getU64("height", 192));
    unsigned frames = static_cast<unsigned>(cfg.getU64("frames", 3));
    BenchResults &results = *harness.results;

    std::printf("=== Fig. 18: W1 execution time and L1 misses vs WT "
                "(normalized to WT=1) ===\n");
    std::printf("%4s %10s %10s %10s %10s\n", "WT", "time", "color",
                "texture", "depth");

    std::vector<double> time, color, texture, depth;
    for (unsigned wt = 1; wt <= 10; ++wt) {
        soc::StandaloneGpu rig(fbw, fbh, soc::caseStudy2GpuParams(),
                               soc::caseStudy2MemParams(),
                               harness.builder());
        scenes::SceneRenderer scene(
            rig.pipeline(),
            scenes::makeWorkload(scenes::WorkloadId::W1_Sibenik),
            rig.functionalMemory());
        rig.pipeline().setWtSize(wt);
        renderFrame(rig, scene, 0); // Warm-up.

        // Measure misses over the profiled frames only.
        double c0 = static_cast<double>(
            rig.gpu().l1Misses(AccessKind::Color));
        double t0 = static_cast<double>(
            rig.gpu().l1Misses(AccessKind::Texture));
        double z0 = static_cast<double>(
            rig.gpu().l1Misses(AccessKind::Depth));
        double cyc = 0;
        for (unsigned f = 1; f <= frames; ++f)
            cyc += static_cast<double>(
                renderFrame(rig, scene, f).cycles);
        time.push_back(cyc / frames);
        color.push_back(
            (static_cast<double>(
                 rig.gpu().l1Misses(AccessKind::Color)) -
             c0) /
            frames);
        texture.push_back(
            (static_cast<double>(
                 rig.gpu().l1Misses(AccessKind::Texture)) -
             t0) /
            frames);
        depth.push_back(
            (static_cast<double>(
                 rig.gpu().l1Misses(AccessKind::Depth)) -
             z0) /
            frames);
        std::printf("%4u %10.3f %10.3f %10.3f %10.3f\n", wt,
                    time.back() / time[0], color.back() / color[0],
                    texture.back() / texture[0],
                    depth.back() / depth[0]);
        std::fflush(stdout);
    }

    results.record("corr_time_color", correlation(time, color));
    results.record("corr_time_texture", correlation(time, texture));
    results.record("corr_time_depth", correlation(time, depth));
    for (std::size_t i = 0; i < time.size(); ++i)
        results.record("wt" + std::to_string(i + 1) + ".time_norm",
                       time[i] / time[0]);

    std::printf("\ncorrelation(time, color misses)   = %.2f\n",
                correlation(time, color));
    std::printf("correlation(time, texture misses) = %.2f\n",
                correlation(time, texture));
    std::printf("correlation(time, depth misses)   = %.2f\n",
                correlation(time, depth));
    std::printf("\npaper shape: execution time correlates ~0.78-0.82 "
                "with L1 miss counts\n");
    return 0;
}

const RegisterScenario reg{{
    .name = "fig18_wt_locality",
    .desc = "Fig. 18: W1 execution time and L1 misses vs WT",
    .axes = {"frames", "width", "height"},
    .expectedShape = "execution time correlates ~0.78-0.82 with L1 miss counts",
    .run = runScenario,
    .kind = ScenarioKind::Figure,
}};

} // namespace
