/**
 * @file
 * Paper Fig. 17: frame execution time for WT sizes 1-10, normalized
 * to WT=1, across W1-W6 (Table 7 GPU configuration).
 * Expected shape: execution time varies by tens of percent across WT
 * sizes; the best WT differs per workload (paper: WT=1 best for the
 * translucent W5, mid WTs best for W2/W4).
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
    unsigned frames = static_cast<unsigned>(cfg.getU64("frames", 3));
    unsigned fbw = static_cast<unsigned>(cfg.getU64("width", 256));
    unsigned fbh = static_cast<unsigned>(cfg.getU64("height", 192));
    bool quick = harness.quick;
    BenchResults &results = *harness.results;

    auto workloads = caseStudy2Workloads();
    if (quick)
        workloads = {scenes::WorkloadId::W3_Cube};

    std::printf("=== Fig. 17: frame time vs WT size (normalized to "
                "WT=1) ===\n");
    std::printf("%-18s", "workload");
    for (unsigned wt = 1; wt <= 10; ++wt)
        std::printf(" %7u", wt);
    std::printf("  best\n");

    for (scenes::WorkloadId id : workloads) {
        std::vector<double> cycles;
        for (unsigned wt = 1; wt <= 10; ++wt)
            cycles.push_back(meanCyclesAtWt(harness.builder(), id, wt,
                                            fbw, fbh, frames));
        std::printf("%-18s", scenes::workloadName(id));
        unsigned best = 1;
        for (unsigned wt = 1; wt <= 10; ++wt) {
            results.record(std::string(scenes::workloadName(id)) +
                               ".wt" + std::to_string(wt) +
                               ".cycles_norm",
                           cycles[wt - 1] / cycles[0]);
            std::printf(" %7.3f", cycles[wt - 1] / cycles[0]);
            if (cycles[wt - 1] < cycles[best - 1])
                best = wt;
        }
        results.record(std::string(scenes::workloadName(id)) +
                           ".best_wt",
                       best);
        std::printf("  WT%u\n", best);
        std::fflush(stdout);
    }
    std::printf("\npaper shape: 25-88%% swing across WT sizes; "
                "optimum differs per workload\n");
    return 0;
}

const RegisterScenario reg{{
    .name = "fig17_wt_sweep",
    .desc = "Fig. 17: frame time vs WT size, normalized to WT=1",
    .axes = {"quick", "frames", "width", "height"},
    .expectedShape = "25-88% swing across WT sizes; optimum differs per workload",
    .run = runScenario,
    .kind = ScenarioKind::Figure,
}};

} // namespace
