/**
 * @file
 * Paper Fig. 11: DRAM row-buffer hit rate and bytes accessed per row
 * activation, HMC normalized to the baseline, for M1-M4.
 * Expected shape: HMC's line-striped IP channel sacrifices locality —
 * row-hit rate drops (paper: ~-15%) and bytes per activation drop
 * sharply (paper: ~-60%).
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
    BenchHarness harness(argc, argv, "fig11_rowbuffer");
    bool quick = harness.quick;

    std::printf("=== Fig. 11: HMC row-buffer behaviour normalized to "
                "BAS ===\n");
    std::printf("%-14s %16s %16s\n", "model", "rowbuf hit rate",
                "bytes/activation");

    auto models = caseStudy1Models();
    if (quick)
        models = {scenes::WorkloadId::M2_Cube};

    double sum_hits = 0.0, sum_bytes = 0.0;
    for (scenes::WorkloadId model : models) {
        std::string wl = scenes::workloadName(model);
        double base_hit, base_bpa, hmc_hit, hmc_bpa;
        {
            soc::SocTop soc(caseStudy1Params(model,
                                             soc::MemConfig::BAS,
                                             false),
                            harness.builderFor(
                                caseLabel(model, soc::MemConfig::BAS)));
            soc.run();
            base_hit = soc.memory().rowHitRate();
            base_bpa = soc.memory().meanBytesPerActivation();
        }
        {
            soc::SocTop soc(caseStudy1Params(model,
                                             soc::MemConfig::HMC,
                                             false),
                            harness.builderFor(
                                caseLabel(model, soc::MemConfig::HMC)));
            soc.run();
            hmc_hit = soc.memory().rowHitRate();
            hmc_bpa = soc.memory().meanBytesPerActivation();
        }
        double nh = base_hit > 0 ? hmc_hit / base_hit : 0;
        double nb = base_bpa > 0 ? hmc_bpa / base_bpa : 0;
        sum_hits += nh;
        sum_bytes += nb;
        harness.record(wl + ".rowhit_norm", nh);
        harness.record(wl + ".bytes_per_act_norm", nb);
        std::printf("%-14s %16.3f %16.3f\n",
                    scenes::workloadName(model), nh, nb);
        std::fflush(stdout);
    }
    std::printf("%-14s %16.3f %16.3f\n", "AVG",
                sum_hits / static_cast<double>(models.size()),
                sum_bytes / static_cast<double>(models.size()));
    std::printf("\npaper shape: hit rate ~0.85x, bytes/act ~0.4x "
                "under HMC\n");
    return 0;
}

const RegisterScenario reg{{
    .name = "fig11_rowbuffer",
    .desc = "Fig. 11: HMC row-buffer hit rate and bytes/activation vs BAS",
    .run = runScenario,
    .kind = ScenarioKind::Figure,
    .quick = true,
}};

} // namespace
