/**
 * @file
 * Canned configurations matching the paper's tables, plus the
 * standalone-GPU rig case study II runs on.
 */

#ifndef EMERALD_SOC_CONFIGS_HH
#define EMERALD_SOC_CONFIGS_HH

#include <memory>

#include "core/graphics_pipeline.hh"
#include "gpu/gpu_top.hh"
#include "gpu/kernel.hh"
#include "mem/dash_scheduler.hh"
#include "mem/memory_system.hh"
#include "sim/config.hh"
#include "sim/simulation.hh"
#include "sim/simulation_builder.hh"
#include "soc/soc_top.hh"

namespace emerald::soc
{

/**
 * Apply the shared --npu-* command-line axes to @p p:
 * --npu (enable), --npu-tile (PE grid rows=cols), --npu-model,
 * --npu-fps (camera rate), --npu-frames, --npu-queue-depth,
 * --npu-dma-outstanding, --npu-scratch-kb. Benches and soc_point
 * call this so every front end spells the axes identically.
 */
void applyNpuConfig(SocParams &p, const Config &cfg);

/** Case study I GPU (paper Table 5): 4 SCs, small caches. */
gpu::GpuTopParams caseStudy1GpuParams();

/** Case study II GPU (paper Table 7): 6 clusters, 2 MB L2. */
gpu::GpuTopParams caseStudy2GpuParams();

/** Case study II memory: 4-channel LPDDR3-1600. */
mem::MemorySystemParams caseStudy2MemParams();

/**
 * Standalone GPU mode (paper Section 4.1): GPU + private DRAM, no
 * CPU/OS. This is the rig the WT-sweep and DFSL experiments use.
 */
class StandaloneGpu
{
  public:
    /**
     * @p builder is applied to the rig's Simulation, and its
     * RigOptions pick the warp and memory scheduler policies. Trace
     * capture/replay, --restore, --checkpoint-at and
     * --checkpoint-every need SocTop and are fatal here.
     */
    StandaloneGpu(unsigned fb_width, unsigned fb_height,
                  const gpu::GpuTopParams &gpu_params,
                  const mem::MemorySystemParams &mem_params,
                  const SimulationBuilder &builder);
    ~StandaloneGpu();

    Simulation &sim() { return _sim; }
    gpu::GpuTop &gpu() { return *_gpu; }
    core::GraphicsPipeline &pipeline() { return *_pipeline; }
    gpu::KernelDispatcher &kernels() { return *_kernels; }
    mem::MemorySystem &memory() { return *_memory; }
    mem::FunctionalMemory &functionalMemory() { return _functionalMem; }

    /**
     * Run the event loop until @p done returns true.
     * @return false when the limit was hit first.
     */
    bool runUntil(const std::function<bool()> &done,
                  Tick limit = ticksFromMs(2000.0));

  private:
    Simulation _sim;
    ClockDomain *_gpuClock = nullptr;
    /** --mem-sched bundle (mem/sched_factory.hh); FR-FCFS default. */
    std::unique_ptr<mem::DashCoordinator> _dashCoordinator;
    std::unique_ptr<mem::DramScheduler> _scheduler;
    std::unique_ptr<mem::MemorySystem> _memory;
    std::unique_ptr<gpu::GpuTop> _gpu;
    std::unique_ptr<core::GraphicsPipeline> _pipeline;
    std::unique_ptr<gpu::KernelDispatcher> _kernels;
    mem::FunctionalMemory _functionalMem;
};

} // namespace emerald::soc

#endif // EMERALD_SOC_CONFIGS_HH
