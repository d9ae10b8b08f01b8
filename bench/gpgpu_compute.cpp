/**
 * @file
 * gpgpu_compute: the unified-shader story, GPGPU kernels on the same
 * SIMT cores graphics uses (the paper's core claim for Emerald +
 * GPGPU-Sim). Runs vector add, a divergent SAXPY and a shared-memory
 * reduction through the full timing model and verifies every result;
 * exits 1 on a wrong one.
 *
 *   emerald_bench --run=gpgpu_compute [--n=16384]
 */

#include <cmath>

#include "core/shader_builder.hh"
#include "harness.hh"
#include "registry.hh"
#include "scenes/shaders.hh"

using namespace emerald;
using namespace emerald::bench;

namespace
{

int
runScenario(int argc, char **argv)
{
    BenchHarness harness(argc, argv, "gpgpu_compute");
    unsigned n = static_cast<unsigned>(harness.cfg.getU64("n", 16384));
    unsigned ctas = (n + 127) / 128;

    soc::StandaloneGpu rig(64, 64, soc::caseStudy2GpuParams(),
                           soc::caseStudy2MemParams(),
                           harness.builderFor(""));
    mem::FunctionalMemory &fmem = rig.functionalMemory();
    core::ShaderBuilder builder;
    // Run one kernel of `ctas` 128-thread CTAs to completion; returns
    // the GPU cycles it took.
    auto run = [&](const char *name, const std::string &source,
                   std::vector<float> constants, unsigned shared = 0) {
        gpu::KernelLaunch launch;
        launch.program = builder.buildKernel(name, source);
        launch.blockX = 128;
        launch.gridX = ctas;
        launch.memory = &fmem;
        launch.sharedBytesPerCta = shared;
        launch.constants = std::move(constants);
        bool done = false;
        launch.onDone = [&] { done = true; };
        Tick start = rig.sim().curTick();
        rig.kernels().launch(std::move(launch));
        fatal_if(!rig.runUntil([&] { return done; }),
                 "kernel %s did not finish", name);
        Tick cycles = (rig.sim().curTick() - start) / 1000; // 1 GHz.
        return static_cast<unsigned long long>(cycles);
    };

    Addr a = fmem.allocate(n * 4);
    Addr b = fmem.allocate(n * 4);
    Addr c = fmem.allocate(n * 4);
    for (unsigned i = 0; i < n; ++i) {
        fmem.writeF32(a + i * 4, static_cast<float>(i));
        fmem.writeF32(b + i * 4, 2.0f * static_cast<float>(i));
    }
    // Kernel constants are floats, addresses included.
    auto arg = [](Addr addr) { return static_cast<float>(addr); };

    // 1. Vector add.
    unsigned long long cycles =
        run("vecadd", scenes::kernelVecAddSource(),
            {arg(a), arg(b), arg(c), arg(n)});
    unsigned errors = 0;
    for (unsigned i = 0; i < n; ++i)
        errors += fmem.readF32(c + i * 4) != 3.0f * static_cast<float>(i);
    std::printf("vecadd:  n=%u  %llu cycles  errors=%u\n", n, cycles,
                errors);
    if (errors)
        return 1;

    // 2. Divergent SAXPY (odd lanes x*s, even lanes x*2s).
    cycles = run("saxpy", scenes::kernelSaxpyBranchySource(),
                 {arg(a), arg(c), 0.5f, arg(n)});
    for (unsigned i = 0; i < n; ++i) {
        float x = static_cast<float>(i);
        float expect = 3.0f * x + x * (i % 2 == 0 ? 1.0f : 0.5f);
        errors += std::fabs(fmem.readF32(c + i * 4) - expect) > 1e-3f;
    }
    std::printf("saxpy:   n=%u  %llu cycles  errors=%u\n", n, cycles,
                errors);
    if (errors)
        return 1;

    // 3. Shared-memory reduction: one partial sum per 128-thread CTA.
    Addr partial = fmem.allocate(ctas * 4);
    cycles = run("reduce", scenes::kernelReduceSource(),
                 {arg(a), arg(partial)}, 128 * 4);
    double sum = 0.0;
    for (unsigned i = 0; i < ctas; ++i)
        sum += fmem.readF32(partial + i * 4);
    double expect = static_cast<double>(n) * (n - 1) / 2.0;
    std::printf("reduce:  n=%u  %llu cycles  sum=%.0f (expect %.0f)\n",
                n, cycles, sum, expect);
    if (std::fabs(sum - expect) > 1.0)
        return 1;

    std::printf("all kernels passed on the unified SIMT model\n");
    return 0;
}

const RegisterScenario reg{{
    .name = "gpgpu_compute",
    .desc = "verified GPGPU kernels on the graphics SIMT cores",
    .run = runScenario,
    .kind = ScenarioKind::Aux,
}};

} // namespace
