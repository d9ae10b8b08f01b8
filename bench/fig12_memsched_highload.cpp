/**
 * @file
 * Paper Figs. 12 and 13, from one set of high-load runs (133 Mb/s/pin
 * DRAM) of M1-M4 under BAS / DCB / DTB / HMC.
 * Fig. 12: total frame time and GPU rendering time, normalized to
 * BAS. Expected shape: HMC ~+45% GPU time; DASH +9-16%; larger models
 * (M1/M3) hurt most.
 * Fig. 13: display read requests serviced, relative to BAS. Expected
 * shape: HMC can exceed BAS on the small models (the IP channel is
 * free while the GPU is light); DASH services markedly less display
 * traffic on the large models (the display starts each frame
 * non-urgent and eventually aborts and retries).
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
    BenchHarness harness(argc, argv, "fig12_memsched_highload");
    bool quick = harness.quick;

    std::printf("=== Fig. 12: high-load scenario, normalized to BAS "
                "===\n");

    auto models = caseStudy1Models();
    if (quick)
        models = {scenes::WorkloadId::M2_Cube};
    auto configs = allMemConfigs();

    // Replay fast path (docs/scheduling.md): --capture-trace=<dir>
    // records each model's GPU traffic once, during its BAS run, into
    // <dir>/<model>; --replay-trace=<dir> re-drives all four memory
    // configs from that recording without executing shaders.
    // `tools/check_restore.py --replay` gates the replayed shape
    // against the execution-driven one.
    std::string capture_root =
        harness.cfg.getString("capture-trace", "");
    std::string replay_root = harness.cfg.getString("replay-trace", "");

    std::printf("%-14s | %-35s | %-35s\n", "",
                "total frame time", "GPU rendering time");
    std::printf("%-14s | %8s %8s %8s %8s | %8s %8s %8s %8s\n",
                "model", "BAS", "DCB", "DTB", "HMC", "BAS", "DCB",
                "DTB", "HMC");

    std::vector<double> avg_total(4, 0.0), avg_gpu(4, 0.0);
    // Fig. 13 per model and config: display requests serviced and
    // frames aborted.
    std::vector<std::vector<double>> serviced, aborted;
    for (scenes::WorkloadId model : models) {
        std::vector<double> total_ms, gpu_ms;
        serviced.emplace_back();
        aborted.emplace_back();
        for (soc::MemConfig config : configs) {
            // One label per simulation: a --checkpoint-at run
            // produces <dir>/<model>.<config>-<scope> and --restore
            // reads it back.
            SimulationBuilder builder =
                harness.builderFor(caseLabel(model, config));
            std::string model_dir = "/";
            model_dir += scenes::workloadName(model);
            if (!capture_root.empty()) {
                builder.captureTrace(config == soc::MemConfig::BAS
                                         ? capture_root + model_dir
                                         : "");
            }
            if (!replay_root.empty())
                builder.replayTrace(replay_root + model_dir);
            soc::SocTop soc(caseStudy1Params(model, config, true),
                            builder);
            soc.run();
            total_ms.push_back(soc.meanTotalFrameMs());
            gpu_ms.push_back(soc.meanGpuFrameMs());
            serviced.back().push_back(soc.display().statRequests.value());
            aborted.back().push_back(
                soc.display().statFramesAborted.value());
        }
        std::printf("%-14s |", scenes::workloadName(model));
        for (std::size_t i = 0; i < 4; ++i) {
            double n = total_ms[i] / total_ms[0];
            avg_total[i] += n;
            harness.record(caseLabel(model, configs[i]) + ".total_ms_norm",
                           n);
            std::printf(" %8.3f", n);
        }
        std::printf(" |");
        for (std::size_t i = 0; i < 4; ++i) {
            double n = gpu_ms[i] / gpu_ms[0];
            avg_gpu[i] += n;
            harness.record(caseLabel(model, configs[i]) + ".gpu_ms_norm",
                           n);
            std::printf(" %8.3f", n);
        }
        std::printf("\n");
        std::fflush(stdout);
    }
    std::printf("%-14s |", "AVG");
    for (double v : avg_total)
        std::printf(" %8.3f", v / static_cast<double>(models.size()));
    std::printf(" |");
    for (double v : avg_gpu)
        std::printf(" %8.3f", v / static_cast<double>(models.size()));
    std::printf("\n\npaper shape: HMC ~1.45x GPU time; DASH ~1.1-1.16x "
                "on the larger models\n\n");

    std::printf("=== Fig. 13: display requests serviced relative to "
                "BAS (high load) ===\n");
    std::printf("%-14s %8s %8s %8s %8s %s\n", "model", "BAS", "DCB",
                "DTB", "HMC", "  (aborted frames per config)");
    for (std::size_t m = 0; m < models.size(); ++m) {
        const std::vector<double> &reqs = serviced[m];
        std::printf("%-14s", scenes::workloadName(models[m]));
        for (std::size_t i = 0; i < reqs.size(); ++i) {
            double n = reqs[0] > 0 ? reqs[i] / reqs[0] : 0.0;
            harness.record(caseLabel(models[m], configs[i]) +
                               ".display_serviced_norm",
                           n);
            std::printf(" %8.3f", n);
        }
        std::printf("   [");
        for (double a : aborted[m])
            std::printf(" %.0f", a);
        std::printf(" ]\n");
    }
    std::printf("\npaper shape: DASH (DTB) services far less display "
                "traffic on M1/M3; HMC > BAS on M2/M4\n");
    return 0;
}

const RegisterScenario reg{{
    .name = "fig12_memsched_highload",
    .desc = "Figs. 12 and 13: high-load total/GPU frame time and "
            "display requests serviced, normalized to BAS",
    .run = runScenario,
    .kind = ScenarioKind::Figure,
    .quick = true,
}};

} // namespace
