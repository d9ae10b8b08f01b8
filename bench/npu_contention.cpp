/**
 * @file
 * npu_contention: the NPU-in-the-mix extension of the case study I
 * contention experiments (Figs. 9/12/13). Each memory configuration
 * runs the high-load scenario twice — NPU off (the paper's original
 * three-client mix) and NPU on (camera inferences DMAing through the
 * same DRAM) — and reports what the fourth client does to GPU frame
 * time and display health, and what the scheduler does to NPU
 * inference deadlines. FR-FCFS (BAS) has no deadline awareness: the
 * NPU's bursty DMA competes head-on with CPU prep traffic and
 * inflates total frame time severely. DASH (DCB/DTB) tracks NPU
 * progress through the QoS seam and contains the interference —
 * total frame time barely moves — at the price of extra display
 * pressure when a late inference goes urgent.
 *
 * Extra axes: the shared --npu-* keys (soc/configs.hh) tune tile
 * size, model, camera rate and queue depth for sweeps.
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
    BenchHarness harness(argc, argv, "npu_contention");
    bool quick = harness.quick;

    std::printf("=== NPU contention: high-load scenario, NPU "
                "off/on per memory config ===\n");

    auto configs = allMemConfigs();
    if (quick)
        configs = {soc::MemConfig::BAS, soc::MemConfig::DCB};
    const scenes::WorkloadId model = scenes::WorkloadId::M2_Cube;

    std::printf("%-6s | %-17s | %-17s | %-23s | %-13s\n", "",
                "gpu ms (off/on)", "total ms (off/on)",
                "npu done/miss/drop", "underruns o/n");

    for (soc::MemConfig config : configs) {
        double gpu_ms[2] = {0.0, 0.0};
        double total_ms[2] = {0.0, 0.0};
        double underruns[2] = {0.0, 0.0};
        double npu_done = 0.0, npu_miss = 0.0, npu_drop = 0.0;
        double npu_inf_ms = 0.0;
        for (int npu_on = 0; npu_on < 2; ++npu_on) {
            soc::SocParams p = caseStudy1Params(model, config, true);
            if (quick)
                p.frames = 3;
            // Scenario defaults stress the deadline: the wider
            // "mobile" CNN at a 120 FPS camera leaves little slack
            // under the high-load DRAM, so scheduler deadline
            // awareness becomes visible. --npu-* keys override.
            p.npuModel = "mobile";
            p.npuFramePeriod = ticksFromMs(1000.0 / 70.0);
            soc::applyNpuConfig(p, harness.cfg);
            p.npuEnabled = npu_on != 0;

            std::string label =
                std::string(soc::memConfigName(config)) +
                (npu_on ? ".on" : ".off");
            soc::SocTop soc(p, harness.builderFor(label));
            soc.run();

            gpu_ms[npu_on] = soc.meanGpuFrameMs();
            total_ms[npu_on] = soc.meanTotalFrameMs();
            underruns[npu_on] =
                soc.display().statUnderruns.value();
            harness.record(label + ".gpu_ms", gpu_ms[npu_on]);
            harness.record(label + ".total_ms", total_ms[npu_on]);
            harness.record(label + ".display_underruns",
                           underruns[npu_on]);
            if (soc.npuCamera()) {
                npu_done = soc.npuCamera()->statCompleted.value();
                npu_miss =
                    soc.npuCamera()->statDeadlineMisses.value();
                npu_drop = soc.npuCamera()->statDropped.value();
                npu_inf_ms = msFromTicks(static_cast<Tick>(
                    soc.npuCamera()->statInfTicks.mean()));
                harness.record(label + ".npu_completed", npu_done);
                harness.record(label + ".npu_deadline_misses",
                               npu_miss);
                harness.record(label + ".npu_dropped", npu_drop);
                harness.record(label + ".npu_inf_ms", npu_inf_ms);
            }
        }
        std::printf("%-6s | %8.3f %8.3f | %8.3f %8.3f | "
                    "%7.0f %7.0f %7.0f | %6.0f %6.0f\n",
                    soc::memConfigName(config), gpu_ms[0], gpu_ms[1],
                    total_ms[0], total_ms[1], npu_done, npu_miss,
                    npu_drop, underruns[0], underruns[1]);
        harness.record(std::string(soc::memConfigName(config)) +
                           ".gpu_ms_ratio",
                       gpu_ms[0] > 0.0 ? gpu_ms[1] / gpu_ms[0] : 0.0);
        std::fflush(stdout);
    }
    std::printf("\nexpected shape: NPU-on inflates total frame time "
                "far more under FR-FCFS (BAS) than under DASH; "
                "deadline misses appear on every config at the "
                "default 70 FPS camera, with inference latency "
                "shifting measurably between schedulers\n");
    return 0;
}

const RegisterScenario reg{{
    .name = "npu_contention",
    .desc = "NPU-in-the-mix contention: figs 9/12/13 with a fourth "
            "memory client",
    .run = runScenario,
    .kind = ScenarioKind::Figure,
    .quick = true,
}};

} // namespace
