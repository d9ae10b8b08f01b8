/**
 * @file
 * Energy ablation (extension): quantifies the paper's DFSL
 * motivation — "lower GPU energy consumption by reducing average
 * rendering time per frame assuming the GPU can be put into a low
 * power state between frames". Reports per-frame energy (dynamic +
 * static-over-render-window) across WT sizes and for DFSL.
 */

#include "core/dfsl.hh"
#include "core/energy.hh"
#include "harness.hh"
#include "registry.hh"

using namespace emerald;
using namespace emerald::bench;

namespace
{

struct EnergyRun
{
    double cycles = 0.0;
    double energy_uj = 0.0;
};

EnergyRun
measure(const SimulationBuilder &builder, scenes::WorkloadId id,
        unsigned wt, unsigned frames, bool use_dfsl = false)
{
    soc::StandaloneGpu rig(256, 192, soc::caseStudy2GpuParams(),
                           soc::caseStudy2MemParams(), builder);
    scenes::SceneRenderer scene(rig.pipeline(),
                                scenes::makeWorkload(id),
                                rig.functionalMemory());
    core::EnergyModel energy(rig.gpu(), rig.pipeline(), rig.memory());

    core::DfslParams dp;
    dp.runFrames = 8;
    core::DfslController dfsl(dp);

    rig.pipeline().setWtSize(wt);
    renderFrame(rig, scene, 0); // Warm-up.

    unsigned total_frames =
        use_dfsl ? (dp.maxWT - dp.minWT + 1) + dp.runFrames : frames;
    EnergyRun out;
    for (unsigned f = 1; f <= total_frames; ++f) {
        if (use_dfsl)
            rig.pipeline().setWtSize(dfsl.wtForNextFrame());
        energy.snapshot();
        core::FrameStats s = renderFrame(rig, scene, f);
        core::EnergyReport report =
            energy.report(s.endTick - s.startTick);
        if (use_dfsl)
            dfsl.frameCompleted(s.cycles);
        out.cycles += static_cast<double>(s.cycles);
        out.energy_uj += report.total_uj();
    }
    out.cycles /= total_frames;
    out.energy_uj /= total_frames;
    return out;
}

} // namespace

namespace
{

int
runScenario(int argc, char **argv)
{
    BenchHarness harness(argc, argv, "ablation_energy");
    const Config &cfg = harness.cfg;
    unsigned frames = static_cast<unsigned>(cfg.getU64("frames", 4));
    bool quick = harness.quick;
    BenchResults &results = *harness.results;

    auto workloads = caseStudy2Workloads();
    if (quick)
        workloads = {scenes::WorkloadId::W4_Suzanne};

    std::printf("=== Ablation: per-frame GPU energy vs work "
                "distribution ===\n");
    std::printf("(static power charged over the render window only — "
                "the GPU sleeps between frames)\n\n");
    std::printf("%-18s %12s %12s %12s %12s\n", "workload", "WT1 (uJ)",
                "WT10 (uJ)", "DFSL (uJ)", "DFSL saves");

    for (scenes::WorkloadId id : workloads) {
        EnergyRun wt1 = measure(harness.builder(), id, 1, frames);
        EnergyRun wt10 = measure(harness.builder(), id, 10, frames);
        EnergyRun dfsl = measure(harness.builder(), id, 1, frames, true);
        double worst = std::max(wt1.energy_uj, wt10.energy_uj);
        std::string wl = scenes::workloadName(id);
        results.record(wl + ".wt1_uj", wt1.energy_uj);
        results.record(wl + ".wt10_uj", wt10.energy_uj);
        results.record(wl + ".dfsl_uj", dfsl.energy_uj);
        results.record(wl + ".dfsl_saves_frac",
                       (worst - dfsl.energy_uj) / worst);
        std::printf("%-18s %12.1f %12.1f %12.1f %11.1f%%\n",
                    scenes::workloadName(id), wt1.energy_uj,
                    wt10.energy_uj, dfsl.energy_uj,
                    (worst - dfsl.energy_uj) / worst * 100.0);
        std::fflush(stdout);
    }
    std::printf("\nshape: shorter render windows cut the static "
                "component; DFSL tracks the best static choice\n");
    return 0;
}

const RegisterScenario reg{{
    .name = "ablation_energy",
    .desc = "Ablation: per-frame GPU energy vs work distribution",
    .axes = {"quick", "frames"},
    .expectedShape = "shorter render windows cut static energy; DFSL tracks best static",
    .run = runScenario,
    .kind = ScenarioKind::Figure,
}};

} // namespace
