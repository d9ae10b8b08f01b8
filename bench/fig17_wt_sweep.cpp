/**
 * @file
 * Paper Figs. 17 and 18, from one WT 1-10 sweep (Table 7 GPU
 * configuration).
 * Fig. 17: frame execution time for WT sizes 1-10, normalized to
 * WT=1, across W1-W6. Expected shape: execution time varies by tens
 * of percent across WT sizes; the best WT differs per workload
 * (paper: WT=1 best for the translucent W5, mid WTs best for W2/W4).
 * Fig. 18: the first workload's execution time and L1 misses (color,
 * texture, depth) across WT sizes, plus the execution-time/miss
 * correlations (the paper's W1; W3 at --quick). Expected shape:
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
    BenchHarness harness(argc, argv, "fig17_wt_sweep");
    const Config &cfg = harness.cfg;
    unsigned frames = harness.count("frames", 3);
    unsigned fbw = static_cast<unsigned>(cfg.getU64("width", 256));
    unsigned fbh = static_cast<unsigned>(cfg.getU64("height", 192));
    bool quick = harness.quick;

    auto workloads = caseStudy2Workloads();
    if (quick)
        workloads = {scenes::WorkloadId::W3_Cube};

    std::printf("=== Fig. 17: frame time vs WT size (normalized to "
                "WT=1) ===\n");
    std::printf("%-18s", "workload");
    for (unsigned wt = 1; wt <= 10; ++wt)
        std::printf(" %7u", wt);
    std::printf("  best\n");

    // Fig. 18 reads the first workload's sweep.
    std::vector<WtMeans> first;
    for (scenes::WorkloadId id : workloads) {
        std::string wl = scenes::workloadName(id);
        std::vector<WtMeans> runs;
        for (unsigned wt = 1; wt <= 10; ++wt) {
            runs.push_back(meanCyclesAtWt(
                harness.builderFor(wl + ".wt" + std::to_string(wt)),
                id, wt, fbw, fbh, frames));
        }
        std::printf("%-18s", scenes::workloadName(id));
        unsigned best = 1;
        for (unsigned wt = 1; wt <= 10; ++wt) {
            double norm = runs[wt - 1].cycles / runs[0].cycles;
            harness.record(wl + ".wt" + std::to_string(wt) +
                               ".cycles_norm",
                           norm);
            std::printf(" %7.3f", norm);
            if (runs[wt - 1].cycles < runs[best - 1].cycles)
                best = wt;
        }
        harness.record(wl + ".best_wt", best);
        std::printf("  WT%u\n", best);
        std::fflush(stdout);
        if (first.empty())
            first = runs;
    }
    std::printf("\npaper shape: 25-88%% swing across WT sizes; "
                "optimum differs per workload\n\n");

    std::string wl = scenes::workloadName(workloads[0]);
    std::printf("=== Fig. 18: %s execution time and L1 misses vs WT "
                "(normalized to WT=1) ===\n",
                wl.c_str());
    std::printf("%4s %10s %10s %10s %10s\n", "WT", "time", "color",
                "texture", "depth");
    std::vector<double> time, color, texture, depth;
    for (const WtMeans &run : first) {
        time.push_back(run.cycles);
        color.push_back(run.color);
        texture.push_back(run.texture);
        depth.push_back(run.depth);
        std::printf("%4zu %10.3f %10.3f %10.3f %10.3f\n", time.size(),
                    time.back() / time[0], color.back() / color[0],
                    texture.back() / texture[0],
                    depth.back() / depth[0]);
    }
    double corr_color = correlation(time, color);
    double corr_texture = correlation(time, texture);
    double corr_depth = correlation(time, depth);
    harness.record(wl + ".corr_time_color", corr_color);
    harness.record(wl + ".corr_time_texture", corr_texture);
    harness.record(wl + ".corr_time_depth", corr_depth);
    std::printf("\ncorrelation(time, color misses)   = %.2f\n",
                corr_color);
    std::printf("correlation(time, texture misses) = %.2f\n",
                corr_texture);
    std::printf("correlation(time, depth misses)   = %.2f\n",
                corr_depth);
    std::printf("\npaper shape: execution time correlates ~0.78-0.82 "
                "with L1 miss counts\n");
    return 0;
}

const RegisterScenario reg{{
    .name = "fig17_wt_sweep",
    .desc = "Figs. 17 and 18: frame time vs WT size, normalized to WT=1, "
            "and the first workload's L1 misses vs WT",
    .run = runScenario,
    .kind = ScenarioKind::Figure,
    .quick = true,
}};

} // namespace
