/**
 * @file
 * Paper Fig. 12: performance under the high-load scenario
 * (133 Mb/s/pin DRAM): total frame time and GPU rendering time,
 * normalized to BAS.
 * Expected shape: HMC ~+45% GPU time; DASH +9-16%; larger models
 * (M1/M3) hurt most.
 */

#include <chrono>

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
    BenchResults &results = *harness.results;

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
    for (scenes::WorkloadId model : models) {
        std::vector<double> total_ms, gpu_ms;
        for (soc::MemConfig config : configs) {
            // Per-config checkpoint scope: a --checkpoint-at run
            // produces <dir>/<config> and --restore reads it back.
            SimulationBuilder builder =
                harness.builderFor(soc::memConfigName(config));
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
            auto wall_start = std::chrono::steady_clock::now();
            soc.run();
            double wall_ms =
                std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - wall_start)
                    .count();
            total_ms.push_back(soc.meanTotalFrameMs());
            gpu_ms.push_back(soc.meanGpuFrameMs());
            std::string key =
                std::string(scenes::workloadName(model)) + "." +
                soc::memConfigName(config);
            results.record(key + ".events",
                           static_cast<double>(
                               soc.sim().eventQueue().numProcessed()));
            results.record(key + ".wall_ms", wall_ms);
            // 53-bit fold of the event-stream hash (exact in JSON):
            // the restore-determinism gate compares cold vs warm.
            results.record(
                key + ".event_hash",
                static_cast<double>(soc.sim().determinismHash() &
                                    ((1ULL << 53) - 1)));
        }
        std::printf("%-14s |", scenes::workloadName(model));
        for (std::size_t i = 0; i < 4; ++i) {
            double n = total_ms[i] / total_ms[0];
            avg_total[i] += n;
            results.record(std::string(scenes::workloadName(model)) +
                               "." + soc::memConfigName(configs[i]) +
                               ".total_ms_norm",
                           n);
            std::printf(" %8.3f", n);
        }
        std::printf(" |");
        for (std::size_t i = 0; i < 4; ++i) {
            double n = gpu_ms[i] / gpu_ms[0];
            avg_gpu[i] += n;
            results.record(std::string(scenes::workloadName(model)) +
                               "." + soc::memConfigName(configs[i]) +
                               ".gpu_ms_norm",
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
                "on the larger models\n");
    return 0;
}

const RegisterScenario reg{{
    .name = "fig12_memsched_highload",
    .desc = "Fig. 12: high-load total/GPU frame time normalized to BAS",
    .axes = {"quick"},
    .expectedShape = "HMC ~1.45x GPU time; DASH ~1.1-1.16x on the larger models",
    .run = runScenario,
    .kind = ScenarioKind::Figure,
}};

} // namespace
