/**
 * @file
 * Paper Fig. 9: normalized GPU execution time per frame under the
 * regular-load scenario, for M1-M4 under BAS / DCB / DTB / HMC.
 * Expected shape: DASH (DCB/DTB) prolongs GPU frames vs. BAS; HMC
 * roughly doubles them. Also prints the DASH (Table 3) and DRAM
 * (Table 4) configurations used.
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
    BenchHarness harness(argc, argv, "fig09_memsched_regular");
    bool quick = harness.quick;

    std::printf("=== Fig. 9: GPU frame time under regular load "
                "(normalized to BAS; lower is better) ===\n");
    std::printf("Table 3 (DASH): switching 500 cyc, quantum 1M cyc, "
                "cluster factor 0.15, emergent 0.8 (GPU 0.9),\n"
                "                display period 16 ms (60 FPS), GPU "
                "period 33 ms (30 FPS)\n");
    std::printf("Table 4 (DRAM): BAS/DCB/DTB Ro:Ra:Ba:Co:Ch on 2 ch; "
                "HMC: CPU ch Ro:Ra:Ba:Co:Ch, IP ch Ro:Co:Ra:Ba:Ch\n\n");

    auto models = caseStudy1Models();
    if (quick)
        models = {scenes::WorkloadId::M2_Cube};
    auto configs = allMemConfigs();

    std::printf("%-14s %8s %8s %8s %8s\n", "model", "BAS", "DCB",
                "DTB", "HMC");

    std::vector<double> averages(configs.size(), 0.0);
    for (scenes::WorkloadId model : models) {
        std::vector<double> gpu_ms;
        for (soc::MemConfig config : configs) {
            soc::SocTop soc(caseStudy1Params(model, config, false),
                            harness.builderFor(caseLabel(model, config)));
            soc.run();
            gpu_ms.push_back(soc.meanGpuFrameMs());
        }
        std::printf("%-14s", scenes::workloadName(model));
        for (std::size_t i = 0; i < configs.size(); ++i) {
            double norm = gpu_ms[i] / gpu_ms[0];
            averages[i] += norm;
            harness.record(caseLabel(model, configs[i]) + ".gpu_ms_norm",
                           norm);
            std::printf(" %8.3f", norm);
        }
        std::printf("\n");
        std::fflush(stdout);
    }
    std::printf("%-14s", "AVG");
    for (double avg : averages)
        std::printf(" %8.3f", avg / static_cast<double>(models.size()));
    std::printf("\n\npaper shape: DCB/DTB ~1.19-1.20x, HMC ~2x\n");
    return 0;
}

const RegisterScenario reg{{
    .name = "fig09_memsched_regular",
    .desc = "Fig. 9: GPU frame time under regular load, normalized to BAS",
    .run = runScenario,
    .kind = ScenarioKind::Figure,
    .quick = true,
}};

} // namespace
