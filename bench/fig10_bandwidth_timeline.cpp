/**
 * @file
 * Paper Fig. 10: M3 under HMC — DRAM bandwidth per source over time.
 * Expected shape: CPU traffic peaks before each GPU frame ( 1 ),
 * drops while the GPU renders ( 2 ), and the pattern repeats at the
 * frame rate — the imbalance that leaves HMC's CPU channel idle
 * during rendering.
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
    BenchHarness harness(argc, argv, "fig10_bandwidth_timeline");
    const Config &cfg = harness.cfg;

    std::printf("=== Fig. 10: M3-HMC DRAM bandwidth over time ===\n");
    soc::SocParams p = caseStudy1Params(
        scenes::WorkloadId::M3_Mask, soc::MemConfig::HMC, false);
    p.frames = static_cast<unsigned>(cfg.getU64("frames", 4));
    soc::SocTop soc(p, harness.builderFor(""));
    soc.run();

    Tick bucket = p.statsBucket;
    std::size_t buckets = printBandwidthTimeline(soc.memory(), bucket);
    harness.record("buckets", static_cast<double>(buckets));
    harness.record("bucket_us", static_cast<double>(bucket) / 1e6);
    harness.record("total_bytes",
                   static_cast<double>(soc.memory().totalBytes()));
    harness.record("mean_gpu_frame_ms", soc.meanGpuFrameMs());

    std::printf("\npaper shape: CPU bursts between GPU frames; GPU "
                "dominates during rendering\n");
    return 0;
}

const RegisterScenario reg{{
    .name = "fig10_bandwidth_timeline",
    .desc = "Fig. 10: M3-HMC DRAM bandwidth per source over time",
    .run = runScenario,
    .kind = ScenarioKind::Figure,
}};

} // namespace
