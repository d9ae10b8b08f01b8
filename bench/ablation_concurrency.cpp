/**
 * @file
 * Unified-model concurrency (extension): the paper's core claim is
 * one microarchitecture for graphics *and* GPGPU. This bench
 * quantifies their interaction when run concurrently on the same
 * SIMT cores: kernel latency alone vs. during a frame, and frame
 * time alone vs. with the kernel streaming in the background.
 */

#include "harness.hh"
#include "registry.hh"
#include "scenes/shaders.hh"

using namespace emerald;
using namespace emerald::bench;

namespace
{

struct Result
{
    double frame_cycles = 0.0;
    double kernel_cycles = 0.0;
    std::uint64_t event_hash = 0;
};

Result
run(const SimulationBuilder &sim_builder, bool with_frame,
    bool with_kernel, unsigned n)
{
    soc::StandaloneGpu rig(256, 192, soc::caseStudy2GpuParams(),
                           soc::caseStudy2MemParams(), sim_builder);
    core::ShaderBuilder builder;
    mem::FunctionalMemory &fmem = rig.functionalMemory();

    scenes::SceneRenderer scene(
        rig.pipeline(),
        scenes::makeWorkload(scenes::WorkloadId::W4_Suzanne), fmem);

    Addr a = fmem.allocate(n * 4), b = fmem.allocate(n * 4),
         c = fmem.allocate(n * 4);
    for (unsigned i = 0; i < n; ++i) {
        fmem.writeF32(a + i * 4, 1.0f);
        fmem.writeF32(b + i * 4, 2.0f);
    }

    Result out;
    bool frame_done = !with_frame;
    bool kernel_done = !with_kernel;
    Tick start = rig.sim().curTick();

    if (with_frame) {
        scene.renderFrame(0, [&](const core::FrameStats &s) {
            out.frame_cycles = static_cast<double>(s.cycles);
            frame_done = true;
        });
    }
    if (with_kernel) {
        gpu::KernelLaunch launch;
        launch.program = builder.buildKernel(
            "vecadd", scenes::kernelVecAddSource());
        launch.blockX = 128;
        launch.gridX = n / 128;
        launch.memory = &fmem;
        launch.constants = {static_cast<float>(a),
                            static_cast<float>(b),
                            static_cast<float>(c),
                            static_cast<float>(n)};
        launch.onDone = [&] {
            out.kernel_cycles = static_cast<double>(
                (rig.sim().curTick() - start) / 1000);
            kernel_done = true;
        };
        rig.kernels().launch(std::move(launch));
    }
    if (!rig.runUntil([&] { return frame_done && kernel_done; }))
        fatal("concurrency run stalled");
    out.event_hash = rig.sim().determinismHash();
    return out;
}

} // namespace

namespace
{

int
runScenario(int argc, char **argv)
{
    BenchHarness harness(argc, argv, "ablation_concurrency");
    const Config &cfg = harness.cfg;
    unsigned n = static_cast<unsigned>(cfg.getU64("n", 65536));
    BenchResults &results = *harness.results;

    std::printf("=== Ablation: graphics + compute sharing the SIMT "
                "cores ===\n");

    Result frame_only = run(harness.builder(), true, false, n);
    Result kernel_only = run(harness.builder(), false, true, n);
    Result both = run(harness.builder(), true, true, n);

    std::printf("frame alone : %10.0f cycles\n",
                frame_only.frame_cycles);
    std::printf("frame+kernel: %10.0f cycles (%.2fx)\n",
                both.frame_cycles,
                both.frame_cycles / frame_only.frame_cycles);
    std::printf("kernel alone: %10.0f cycles\n",
                kernel_only.kernel_cycles);
    std::printf("kernel+frame: %10.0f cycles (%.2fx)\n",
                both.kernel_cycles,
                both.kernel_cycles / kernel_only.kernel_cycles);
    results.record("frame_alone_cycles", frame_only.frame_cycles);
    results.record("frame_shared_cycles", both.frame_cycles);
    results.record("frame_slowdown",
                   both.frame_cycles / frame_only.frame_cycles);
    results.record("kernel_alone_cycles", kernel_only.kernel_cycles);
    results.record("kernel_shared_cycles", both.kernel_cycles);
    results.record("kernel_slowdown",
                   both.kernel_cycles / kernel_only.kernel_cycles);
    // 53-bit folds of the event-stream hashes (exact in JSON), pinned
    // by tests/golden/ablation_concurrency_quick.json.
    const std::pair<const char *, const Result *> runs[] = {
        {"frame_alone", &frame_only},
        {"kernel_alone", &kernel_only},
        {"shared", &both},
    };
    for (const auto &[key, result] : runs) {
        results.record(std::string(key) + ".event_hash",
                       static_cast<double>(result->event_hash &
                                           ((1ULL << 53) - 1)));
    }
    std::printf("\nshape: both directions slow down (shared cores, "
                "caches and DRAM) - the contention a unified model "
                "exposes and split simulators cannot\n");
    return 0;
}

const RegisterScenario reg{{
    .name = "ablation_concurrency",
    .desc = "Ablation: graphics + compute sharing the SIMT cores",
    .axes = {"n"},
    .expectedShape = "both directions slow down on shared cores/caches/DRAM",
    .run = runScenario,
    .kind = ScenarioKind::Figure,
}};

} // namespace
