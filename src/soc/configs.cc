#include "soc/configs.hh"

#include "mem/sched_factory.hh"
#include "sim/logging.hh"

namespace emerald::soc
{

void
applyNpuConfig(SocParams &p, const Config &cfg)
{
    p.npuEnabled = cfg.getBool("npu", p.npuEnabled);
    unsigned tile = static_cast<unsigned>(
        cfg.getU64("npu-tile", p.npuRows));
    p.npuRows = tile;
    p.npuCols = tile;
    p.npuModel = cfg.getString("npu-model", p.npuModel);
    double fps = cfg.getDouble("npu-fps", 0.0);
    if (fps > 0.0)
        p.npuFramePeriod = ticksFromMs(1000.0 / fps);
    p.npuFrames = static_cast<unsigned>(
        cfg.getU64("npu-frames", p.npuFrames));
    p.npuQueueDepth = static_cast<unsigned>(
        cfg.getU64("npu-queue-depth", p.npuQueueDepth));
    p.npuDmaOutstanding = static_cast<unsigned>(
        cfg.getU64("npu-dma-outstanding", p.npuDmaOutstanding));
    p.npuScratchKB = static_cast<unsigned>(
        cfg.getU64("npu-scratch-kb", p.npuScratchKB));
    fatal_if(p.npuEnabled && (p.npuRows == 0 || p.npuCols == 0),
             "--npu-tile must be >= 1");
}

gpu::GpuTopParams
caseStudy1GpuParams()
{
    gpu::GpuTopParams p = gpu::defaultGpuParams();
    // Paper Table 5: 4 SIMT cores (128 CUDA cores), 950 MHz, L1D
    // 16 KB / L1T 64 KB / L1Z 32 KB (4-way, 128 B), shared 128 KB L2.
    p.numClusters = 4;
    p.coresPerCluster = 1;
    p.core.l1d = {16 * 1024, 4, 128, 12, 16, 8, 16};
    p.core.l1t = {64 * 1024, 4, 128, 16, 16, 8, 16};
    p.core.l1z = {32 * 1024, 4, 128, 12, 16, 8, 16};
    p.core.l1c = {16 * 1024, 4, 128, 8, 16, 8, 16};
    p.core.l1i = {4 * 1024, 4, 128, 4, 8, 4, 8};
    p.l2 = {128 * 1024, 8, 128, 24, 48, 8, 32};
    return p;
}

gpu::GpuTopParams
caseStudy2GpuParams()
{
    // Paper Table 7 is the default parameter set.
    return gpu::defaultGpuParams();
}

mem::MemorySystemParams
caseStudy2MemParams()
{
    mem::MemorySystemParams mp;
    mp.geom.channels = 4;
    mp.geom.banks = 8;
    mp.geom.rowBytes = 4096;
    mp.geom.lineSize = 128;
    mp.timing = mem::lpddr3Timing(1600.0, 32, 128);
    mp.queueCapacity = 64;
    mp.statsBucket = ticksFromUs(100.0);
    return mp;
}

StandaloneGpu::StandaloneGpu(unsigned fb_width, unsigned fb_height,
                             const gpu::GpuTopParams &gpu_params,
                             const mem::MemorySystemParams &mem_params,
                             const SimulationBuilder &builder)
{
    builder.applyTo(_sim);
    const RigOptions &opts = builder.rigOptions();
    fatal_if(!opts.captureTraceDir.empty() ||
                 !opts.replayTraceDir.empty(),
             "--capture-trace/--replay-trace need the full-SoC frame "
             "loop; the standalone GPU rig does not support them");
    fatal_if(!opts.restoreDir.empty(),
             "--restore needs the full-SoC rig; the standalone GPU rig "
             "cannot restore checkpoint '%s'", opts.restoreDir.c_str());
    _gpuClock = &_sim.createClockDomain(1000.0, "gpu_clk");

    mem::MemSchedContext sctx{_sim};
    mem::MemSchedBundle sched =
        mem::createMemScheduler(opts.memSched, sctx);
    _dashCoordinator = std::move(sched.coordinator);
    _scheduler = std::move(sched.scheduler);

    _memory = std::make_unique<mem::MemorySystem>(_sim, "dram",
                                                  mem_params,
                                                  *_scheduler);
    gpu::GpuTopParams gp = gpu_params;
    if (!opts.warpSched.empty())
        gp.core.warpSched = opts.warpSched;
    _gpu = std::make_unique<gpu::GpuTop>(_sim, "gpu", *_gpuClock,
                                         gp, *_memory);
    core::GfxParams gfx;
    _pipeline = std::make_unique<core::GraphicsPipeline>(
        _sim, "gfx", *_gpu, fb_width, fb_height, gfx);
    _kernels = std::make_unique<gpu::KernelDispatcher>(_sim, "kernels",
                                                       *_gpu);
}

StandaloneGpu::~StandaloneGpu()
{
    // The exit dump must see the components' stats, which die with
    // the members below.
    _sim.flushStatsSink();
}

bool
StandaloneGpu::runUntil(const std::function<bool()> &done, Tick limit)
{
    while (!done() && _sim.curTick() < limit) {
        if (!_sim.eventQueue().runOne())
            return done();
    }
    return done();
}

} // namespace emerald::soc
