/**
 * @file
 * Paper Fig. 14: M1 rendering bandwidth timelines under BAS (a) and
 * DASH-DTB (b), high load.
 * Expected shape: under DTB the CPU gets more bandwidth early in the
 * frame ( 4 vs 1 ), the GPU's share shrinks ( 5 vs 2 ), GPU read
 * latency rises, and the display is starved/aborts ( 6 ).
 */

#include "harness.hh"
#include "registry.hh"

using namespace emerald;
using namespace emerald::bench;

namespace
{

void
runAndPrint(soc::MemConfig config, BenchHarness &harness)
{
    soc::SocParams p = caseStudy1Params(scenes::WorkloadId::M1_Chair,
                                        config, true);
    std::string prefix = soc::memConfigName(config);
    soc::SocTop soc(p, harness.builderFor(prefix));
    soc.run();

    harness.record(prefix + ".display_serviced",
                   soc.display().statRequests.value());
    harness.record(prefix + ".display_aborted",
                   soc.display().statFramesAborted.value());

    std::printf("--- %s ---\n", soc::memConfigName(config));
    std::printf("GPU mean read latency: %.0f ns; display serviced "
                "%.0f reqs, %.0f aborted frames\n",
                (soc.memory().channel(0).statReadLatencyGpu.mean() +
                 soc.memory().channel(1).statReadLatencyGpu.mean()) /
                    2.0 / 1000.0,
                soc.display().statRequests.value(),
                soc.display().statFramesAborted.value());

    printBandwidthTimeline(soc.memory(), p.statsBucket, 600);
}

} // namespace

namespace
{

int
runScenario(int argc, char **argv)
{
    BenchHarness harness(argc, argv, "fig14_m1_timeline");
    std::printf("=== Fig. 14: M1 bandwidth timeline, BAS vs DTB "
                "(high load, GB/s) ===\n");
    runAndPrint(soc::MemConfig::BAS, harness);
    runAndPrint(soc::MemConfig::DTB, harness);
    std::printf("\npaper shape: DTB boosts CPU share and squeezes "
                "GPU bandwidth during frames; display starved\n");
    return 0;
}

const RegisterScenario reg{{
    .name = "fig14_m1_timeline",
    .desc = "Fig. 14: M1 bandwidth timeline, BAS vs DTB, high load",
    .run = runScenario,
    .kind = ScenarioKind::Figure,
}};

} // namespace
