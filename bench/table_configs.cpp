/**
 * @file
 * Prints the configuration tables the paper's experiments use
 * (Tables 1, 3, 4, 5, 7, and the workload Tables 6/8) as realized by
 * this implementation, so every run records its parameters.
 */

#include "harness.hh"
#include "registry.hh"
#include "mem/dash_scheduler.hh"

using namespace emerald;
using namespace emerald::bench;

namespace
{

int
runScenario(int argc, char **argv)
{
    BenchHarness harness(argc, argv, "table_configs");

    std::printf("=== Table 1: simulation platforms ===\n");
    std::printf("%-12s %-18s %-8s %-10s %-6s\n", "simulator", "model",
                "GPGPU", "graphics", "FS");
    std::printf("%-12s %-18s %-8s %-10s %-6s\n", "gem5",
                "execution driven", "no", "no", "yes");
    std::printf("%-12s %-18s %-8s %-10s %-6s\n", "GemDroid",
                "trace driven", "no", "yes", "no");
    std::printf("%-12s %-18s %-8s %-10s %-6s\n", "gem5-gpu",
                "execution driven", "yes", "no", "yes");
    std::printf("%-12s %-18s %-8s %-10s %-6s\n", "Emerald",
                "execution driven", "yes", "yes", "yes");

    std::printf("\n=== Table 3: DASH configuration ===\n");
    mem::DashParams dash;
    std::printf("switching unit      : 500 CPU cycles (%.0f ns)\n",
                static_cast<double>(dash.switchingUnit) / 1e3);
    std::printf("quantum length      : 1M CPU cycles (%.0f us)\n",
                static_cast<double>(dash.quantum) / 1e6);
    std::printf("clustering factor   : %.2f\n", dash.clusterThresh);
    std::printf("emergent threshold  : 0.80 (0.90 for the GPU)\n");
    std::printf("display frame period: 16 ms (60 FPS)\n");
    std::printf("GPU frame period    : 33 ms (30 FPS)\n");

    harness.record("dash.switching_unit_ns",
                   static_cast<double>(dash.switchingUnit) / 1e3);
    harness.record("dash.quantum_us",
                   static_cast<double>(dash.quantum) / 1e6);
    harness.record("dash.cluster_thresh", dash.clusterThresh);

    std::printf("\n=== Table 4: DRAM configurations ===\n");
    std::printf("baseline: 2 channels, map %s, FR-FCFS\n",
                mem::addrMapSchemeName(
                    mem::AddrMapScheme::RoRaBaCoCh));
    std::printf("HMC     : CPU channel map %s, IP channel map %s, "
                "FR-FCFS\n",
                mem::addrMapSchemeName(
                    mem::AddrMapScheme::RoRaBaCoCh),
                mem::addrMapSchemeName(
                    mem::AddrMapScheme::RoCoRaBaCh));

    std::printf("\n=== Table 5: case study I system ===\n");
    gpu::GpuTopParams g1 = soc::caseStudy1GpuParams();
    std::printf("CPU: 4 cores @ 2 GHz, 32 KB L1 + 1 MB L2 per core "
                "(closed-loop traffic models)\n");
    std::printf("GPU: %u SIMT cores @ 950 MHz, %u lanes/core\n",
                g1.numCores(), 32u);
    std::printf("     L1D %llu KB, L1T %llu KB, L1Z %llu KB, shared "
                "L2 %llu KB\n",
                (unsigned long long)g1.core.l1d.sizeBytes / 1024,
                (unsigned long long)g1.core.l1t.sizeBytes / 1024,
                (unsigned long long)g1.core.l1z.sizeBytes / 1024,
                (unsigned long long)g1.l2.sizeBytes / 1024);
    std::printf("DRAM: 2-channel 32-bit LPDDR3-1333 (high load: "
                "133)\n");

    std::printf("\n=== Table 7: case study II GPU ===\n");
    gpu::GpuTopParams g2 = soc::caseStudy2GpuParams();
    std::printf("%u SIMT clusters, %u max threads/core, %u regs\n",
                g2.numClusters, g2.core.maxThreads,
                g2.core.numRegisters);
    std::printf("L1D %llu KB/%u-way, L1T %llu KB/%u-way, L1Z %llu "
                "KB/%u-way, L2 %llu MB/%u-way\n",
                (unsigned long long)g2.core.l1d.sizeBytes / 1024,
                g2.core.l1d.assoc,
                (unsigned long long)g2.core.l1t.sizeBytes / 1024,
                g2.core.l1t.assoc,
                (unsigned long long)g2.core.l1z.sizeBytes / 1024,
                g2.core.l1z.assoc,
                (unsigned long long)g2.l2.sizeBytes / (1024 * 1024),
                g2.l2.assoc);
    std::printf("raster tile 4x4 px, TC tile 2x2 raster tiles, "
                "2 TC engines/cluster\n");
    std::printf("memory: 4-channel LPDDR3-1600\n");

    std::printf("\n=== Tables 6/8: workloads ===\n");
    std::printf("%-18s %10s %12s\n", "workload", "triangles",
                "material");
    for (auto list : {caseStudy2Workloads(), caseStudy1Models()}) {
        for (scenes::WorkloadId id : list) {
            scenes::Workload w = scenes::makeWorkload(id);
            std::printf("%-18s %10u %12s\n", w.name.c_str(),
                        w.mesh.triangleCount(),
                        w.translucent
                            ? "translucent"
                            : (w.heavyShader ? "heavy" : "textured"));
        }
    }
    return 0;
}

const RegisterScenario reg{{
    .name = "table_configs",
    .desc = "Paper Tables 1/3/4/5/7 and workload Tables 6/8 as realized",
    .run = runScenario,
    .kind = ScenarioKind::Figure,
}};

} // namespace
