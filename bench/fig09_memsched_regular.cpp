/**
 * @file
 * Paper Figs. 9 and 11, from one set of regular-load runs of M1-M4
 * under BAS / DCB / DTB / HMC.
 * Fig. 9: normalized GPU execution time per frame. Expected shape:
 * DASH (DCB/DTB) prolongs GPU frames vs. BAS; HMC roughly doubles
 * them. Also prints the DASH (Table 3) and DRAM (Table 4)
 * configurations used.
 * Fig. 11: DRAM row-buffer hit rate and bytes accessed per row
 * activation, HMC normalized to BAS. Expected shape: HMC's
 * line-striped IP channel sacrifices locality — row-hit rate drops
 * (paper: ~-15%) and bytes per activation drop sharply (paper:
 * ~-60%).
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
    // Fig. 11 per model: HMC's row-hit rate and bytes/activation
    // over BAS's.
    std::vector<double> rowhit_norm, bpa_norm;
    for (scenes::WorkloadId model : models) {
        std::vector<double> gpu_ms, rowhit, bpa;
        for (soc::MemConfig config : configs) {
            soc::SocTop soc(caseStudy1Params(model, config, false),
                            harness.builderFor(caseLabel(model, config)));
            soc.run();
            gpu_ms.push_back(soc.meanGpuFrameMs());
            rowhit.push_back(soc.memory().rowHitRate());
            bpa.push_back(soc.memory().meanBytesPerActivation());
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

        std::string wl = scenes::workloadName(model);
        rowhit_norm.push_back(rowhit[0] > 0 ? rowhit.back() / rowhit[0]
                                            : 0);
        bpa_norm.push_back(bpa[0] > 0 ? bpa.back() / bpa[0] : 0);
        harness.record(wl + ".rowhit_norm", rowhit_norm.back());
        harness.record(wl + ".bytes_per_act_norm", bpa_norm.back());
    }
    std::printf("%-14s", "AVG");
    for (double avg : averages)
        std::printf(" %8.3f", avg / static_cast<double>(models.size()));
    std::printf("\n\npaper shape: DCB/DTB ~1.19-1.20x, HMC ~2x\n\n");

    std::printf("=== Fig. 11: HMC row-buffer behaviour normalized to "
                "BAS ===\n");
    std::printf("%-14s %16s %16s\n", "model", "rowbuf hit rate",
                "bytes/activation");
    double sum_hits = 0.0, sum_bytes = 0.0;
    for (std::size_t m = 0; m < models.size(); ++m) {
        sum_hits += rowhit_norm[m];
        sum_bytes += bpa_norm[m];
        std::printf("%-14s %16.3f %16.3f\n",
                    scenes::workloadName(models[m]), rowhit_norm[m],
                    bpa_norm[m]);
    }
    std::printf("%-14s %16.3f %16.3f\n", "AVG",
                sum_hits / static_cast<double>(models.size()),
                sum_bytes / static_cast<double>(models.size()));
    std::printf("\npaper shape: hit rate ~0.85x, bytes/act ~0.4x "
                "under HMC\n");
    return 0;
}

const RegisterScenario reg{{
    .name = "fig09_memsched_regular",
    .desc = "Figs. 9 and 11: regular-load GPU frame time, and HMC "
            "row-buffer hit rate and bytes/activation, normalized to BAS",
    .run = runScenario,
    .kind = ScenarioKind::Figure,
    .quick = true,
}};

} // namespace
