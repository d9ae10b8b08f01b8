/**
 * @file
 * Paper Fig. 13: display read requests serviced, relative to BAS,
 * under the high-load scenario.
 * Expected shape: HMC can exceed BAS on the small models (the IP
 * channel is free while the GPU is light); DASH services markedly
 * less display traffic on the large models (the display starts each
 * frame non-urgent and eventually aborts and retries).
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
    BenchHarness harness(argc, argv, "fig13_display_service");
    bool quick = harness.quick;

    std::printf("=== Fig. 13: display requests serviced relative to "
                "BAS (high load) ===\n");
    std::printf("%-14s %8s %8s %8s %8s %s\n", "model", "BAS", "DCB",
                "DTB", "HMC", "  (aborted frames per config)");

    auto models = caseStudy1Models();
    if (quick)
        models = {scenes::WorkloadId::M2_Cube};
    auto configs = allMemConfigs();

    for (scenes::WorkloadId model : models) {
        std::vector<double> serviced, aborted;
        for (soc::MemConfig config : configs) {
            soc::SocTop soc(caseStudy1Params(model, config, true),
                            harness.builderFor(caseLabel(model, config)));
            soc.run();
            serviced.push_back(
                soc.display().statRequests.value());
            aborted.push_back(
                soc.display().statFramesAborted.value());
        }
        std::printf("%-14s", scenes::workloadName(model));
        for (std::size_t i = 0; i < serviced.size(); ++i)
            harness.record(caseLabel(model, configs[i]) +
                               ".display_serviced_norm",
                           serviced[0] > 0 ? serviced[i] / serviced[0]
                                           : 0.0);
        for (double s : serviced)
            std::printf(" %8.3f", serviced[0] > 0 ? s / serviced[0]
                                                  : 0.0);
        std::printf("   [");
        for (double a : aborted)
            std::printf(" %.0f", a);
        std::printf(" ]\n");
        std::fflush(stdout);
    }
    std::printf("\npaper shape: DASH (DTB) services far less display "
                "traffic on M1/M3; HMC > BAS on M2/M4\n");
    return 0;
}

const RegisterScenario reg{{
    .name = "fig13_display_service",
    .desc = "Fig. 13: display requests serviced relative to BAS, high load",
    .run = runScenario,
    .kind = ScenarioKind::Figure,
    .quick = true,
}};

} // namespace
