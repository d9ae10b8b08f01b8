#include "soc/soc_top.hh"

#include "cache/cache.hh"
#include "gpu/warp_sched.hh"
#include "mem/sched_factory.hh"
#include "mem/traffic_trace.hh"
#include "sim/logging.hh"
#include "soc/configs.hh"
#include "soc/replay.hh"

namespace emerald::soc
{

const char *
memConfigName(MemConfig config)
{
    switch (config) {
      case MemConfig::BAS: return "BAS";
      case MemConfig::DCB: return "DCB";
      case MemConfig::DTB: return "DTB";
      case MemConfig::HMC: return "HMC";
      default: return "unknown";
    }
}

/** One CPU core with its private L1/L2 chain into the memory. */
struct SocTop::CpuNode
{
    std::unique_ptr<cache::Cache> l1;
    std::unique_ptr<cache::Cache> l2;
    std::unique_ptr<noc::Link> link;
    std::unique_ptr<CpuCoreModel> core;
};

namespace
{

/**
 * FNV-1a over every SocParams field that shapes simulated state. Two
 * runs with equal fingerprints build identical topologies, so a
 * checkpoint from one is valid in the other; anything else is refused
 * at restore (unless --restore-force).
 */
std::uint64_t
fingerprintOf(const SocParams &p, const std::string &warp_policy,
              const std::string &mem_policy)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    auto mix = [&h](std::uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (i * 8)) & 0xff;
            h *= 0x00000100000001b3ULL;
        }
    };
    // Scheduling policies shape simulated state just like topology
    // parameters do; a checkpoint is only valid under the same pair.
    for (char c : warp_policy)
        mix(static_cast<unsigned char>(c));
    for (char c : mem_policy)
        mix(static_cast<unsigned char>(c));
    mix(static_cast<std::uint64_t>(p.memConfig));
    mix(p.highLoad);
    mix(p.numCpuCores);
    mix(p.dramChannels);
    mix(static_cast<std::uint64_t>(p.cpuClockMHz * 1000.0));
    mix(static_cast<std::uint64_t>(p.gpuClockMHz * 1000.0));
    mix(p.fbWidth);
    mix(p.fbHeight);
    mix(static_cast<std::uint64_t>(p.model));
    mix(p.frames);
    mix(p.cpuPrepRequests);
    mix(p.statsBucket);
    mix(p.refreshPeriod);
    mix(p.gpuFramePeriod);
    // NPU parameters shape state only when the NPU exists; mixing
    // them unconditionally would shift every disabled fingerprint.
    if (p.npuEnabled) {
        mix(1);
        mix(p.npuRows);
        mix(p.npuCols);
        mix(static_cast<std::uint64_t>(p.npuClockMHz * 1000.0));
        for (char c : p.npuModel)
            mix(static_cast<unsigned char>(c));
        mix(p.npuFramePeriod);
        mix(p.npuFrames);
        mix(p.npuQueueDepth);
        mix(p.npuDmaOutstanding);
        mix(p.npuScratchKB);
    }
    return h;
}

} // namespace

SocTop::SocTop(const SocParams &params,
               const SimulationBuilder &builder)
    : _params(params)
{
    builder.applyTo(_sim);
    const RigOptions &opts = builder.rigOptions();

    // Resolve the scheduling policies up front: an explicit
    // --warp-sched/--mem-sched wins, else the MemConfig's native pair
    // (Table 6: DCB/DTB run DASH, BAS/HMC run FR-FCFS).
    const bool replay_mode = !opts.replayTraceDir.empty();
    std::string warp_policy = opts.warpSched;
    if (warp_policy.empty())
        warp_policy = gpu::defaultWarpSchedPolicy;
    std::string mem_policy = opts.memSched;
    if (mem_policy.empty()) {
        mem_policy = (params.memConfig == MemConfig::DCB ||
                      params.memConfig == MemConfig::DTB)
                         ? "dash"
                         : mem::defaultMemSchedPolicy;
    }

    _sim.setConfigFingerprint(
        fingerprintOf(params, warp_policy, mem_policy));
    _cpuClock = &_sim.createClockDomain(params.cpuClockMHz, "cpu_clk");
    _gpuClock = &_sim.createClockDomain(params.gpuClockMHz, "gpu_clk");

    // Profile buckets for the SoC-level components that are not
    // SimObjects themselves (the SimObject ones register in their
    // own constructors).
    _sim.profiler().registerComponent("gfx");
    _sim.profiler().registerComponent("app");
    _sim.profiler().registerComponent("dash");
    for (unsigned i = 0; i < params.numCpuCores; ++i)
        _sim.profiler().registerComponent("cpu" + std::to_string(i));

    // Memory system (paper Tables 4 and 5): 2-channel 32-bit LPDDR3.
    mem::MemorySystemParams mp;
    mp.geom.channels = params.dramChannels;
    mp.geom.banks = 8;
    mp.geom.rowBytes = 4096;
    mp.geom.lineSize = 128;
    mp.timing = mem::lpddr3Timing(params.highLoad ? 133.0 : 1333.0, 32,
                                  128);
    mp.statsBucket = params.statsBucket;
    mp.queueCapacity = 64;

    if (params.memConfig == MemConfig::HMC) {
        mp.hmc = true;
        mp.hmcCpuChannels = 1;
        mp.hmcCpuScheme = mem::AddrMapScheme::RoRaBaCoCh;
        mp.hmcIpScheme = mem::AddrMapScheme::RoCoRaBaCh;
    } else {
        mp.unifiedScheme = mem::AddrMapScheme::RoRaBaCoCh;
    }

    mem::MemSchedContext sctx{_sim};
    // Table 3 values at 2 GHz CPU clock; policies that need no
    // coordinator ignore these.
    sctx.dashParams.switchingUnit = _cpuClock->cyclesToTicks(500);
    sctx.dashParams.quantum = _cpuClock->cyclesToTicks(1000000);
    sctx.dashParams.clusterThresh = 0.15;
    sctx.dashParams.useTotalBandwidth =
        params.memConfig == MemConfig::DTB;
    sctx.dashParams.numCpuCores = params.numCpuCores;
    mem::MemSchedBundle sched = mem::createMemScheduler(mem_policy,
                                                        sctx);
    _dashCoordinator = std::move(sched.coordinator);
    _scheduler = std::move(sched.scheduler);

    _memory = std::make_unique<mem::MemorySystem>(_sim, "dram", mp,
                                                  *_scheduler);

    // GPU (paper Table 5: 4 SIMT cores @ 950 MHz, shared 128 KB L2).
    gpu::GpuTopParams gp = caseStudy1GpuParams();
    gp.core.warpSched = warp_policy;
    _gpu = std::make_unique<gpu::GpuTop>(_sim, "gpu", *_gpuClock, gp,
                                         *_memory);

    if (replay_mode) {
        // Trace replay: the GPU's traffic comes from the recorded
        // stream, so no pipeline, scene, or app model is built.
        _replayTrace = std::make_unique<mem::TrafficTraceReader>(
            opts.replayTraceDir);
    } else {
        core::GfxParams gfx;
        _pipeline = std::make_unique<core::GraphicsPipeline>(
            _sim, "gfx", *_gpu, params.fbWidth, params.fbHeight, gfx);

        _scene = std::make_unique<scenes::SceneRenderer>(
            *_pipeline, scenes::makeWorkload(params.model),
            _functionalMem);
    }

    // CPU cores with private L1 (32 KB) and L2 (1 MB).
    std::vector<CpuCoreModel *> core_ptrs;
    for (unsigned i = 0; i < params.numCpuCores; ++i) {
        auto node = std::make_unique<CpuNode>();
        std::string base = "cpu" + std::to_string(i);

        cache::CacheParams l2p;
        l2p.sizeBytes = 1024 * 1024;
        l2p.assoc = 16;
        l2p.lineSize = 128;
        l2p.hitLatency = 12;
        l2p.mshrs = 16;
        l2p.trafficClass = TrafficClass::Cpu;
        l2p.requestorId = static_cast<int>(i);
        node->l2 = std::make_unique<cache::Cache>(_sim, base + ".l2",
                                                  *_cpuClock, l2p);

        cache::CacheParams l1p;
        l1p.sizeBytes = 32 * 1024;
        l1p.assoc = 4;
        l1p.lineSize = 128;
        l1p.hitLatency = 2;
        l1p.mshrs = 8;
        l1p.trafficClass = TrafficClass::Cpu;
        l1p.requestorId = static_cast<int>(i);
        node->l1 = std::make_unique<cache::Cache>(_sim, base + ".l1",
                                                  *_cpuClock, l1p);
        node->l1->setDownstream(*node->l2);

        noc::LinkParams lp;
        lp.latency = ticksFromNs(20.0);
        lp.bytesPerSec = 0.0;
        lp.queueDepth = 32;
        node->link = std::make_unique<noc::Link>(
            _sim, base + ".link", lp);
        node->link->setTarget(*_memory);
        node->l2->setDownstream(*node->link);

        CpuCoreParams cp;
        cp.coreId = i;
        cp.maxOutstanding = 4;
        cp.thinkCycles = 30;
        cp.locality = 0.85;
        cp.regionBase = 0x20000000ULL + Addr(i) * 0x4000000ULL;
        cp.regionBytes = 8 * 1024 * 1024;
        // App threads stay busy while the frame renders (the paper's
        // Fig. 10 shows sustained CPU traffic during GPU frames).
        cp.backgroundInterval = 900;
        cp.backgroundOutstanding = 2;
        cp.seed = 1000 + i;
        node->core = std::make_unique<CpuCoreModel>(
            _sim, base, *_cpuClock, cp, *node->l1);
        core_ptrs.push_back(node->core.get());
        _cpus.push_back(std::move(node));
    }

    // Display controller reads the framebuffer over its own link.
    noc::LinkParams dlp;
    dlp.latency = ticksFromNs(30.0);
    dlp.bytesPerSec = 0.0;
    dlp.queueDepth = 16;
    _displayLink = std::make_unique<noc::Link>(_sim, "display.link",
                                               dlp);
    _displayLink->setTarget(*_memory);

    DisplayParams dp;
    dp.fbBase = replay_mode ? _replayTrace->fbBase()
                            : _scene->framebuffer().colorBase();
    dp.width = params.fbWidth;
    dp.height = params.fbHeight;
    dp.refreshPeriod = params.refreshPeriod;
    _display = std::make_unique<DisplayController>(
        _sim, "display", dp, *_displayLink, _dashCoordinator.get());

    // NPU: systolic-array accelerator as a fourth memory client, fed
    // by the camera-inference loop. Entirely absent when disabled so
    // the event stream (and hashes) of existing configs never move.
    if (params.npuEnabled) {
        _npuClock = &_sim.createClockDomain(params.npuClockMHz,
                                            "npu_clk");

        noc::LinkParams nlp;
        nlp.latency = ticksFromNs(30.0);
        nlp.bytesPerSec = 0.0;
        nlp.queueDepth = 16;
        _npuLink = std::make_unique<noc::Link>(_sim, "npu.link", nlp);
        _npuLink->setTarget(*_memory);

        npu::NpuParams np;
        np.systolic.rows = params.npuRows;
        np.systolic.cols = params.npuCols;
        np.systolic.spInputKB = params.npuScratchKB;
        np.systolic.spWeightKB = params.npuScratchKB;
        np.systolic.spOutputKB = params.npuScratchKB;
        np.model = params.npuModel;
        np.queueDepth = params.npuQueueDepth;
        np.dma.maxOutstanding = params.npuDmaOutstanding;
        np.dma.burstBytes = mp.geom.lineSize;
        _npu = std::make_unique<npu::NpuTop>(_sim, "npu", np,
                                             *_npuClock, *_npuLink);

        npu::CameraParams camp;
        camp.framePeriod = params.npuFramePeriod;
        camp.frames = params.npuFrames;
        _npuCam = std::make_unique<npu::CameraInferenceModel>(
            _sim, "npu.cam", camp, *_npu, _dashCoordinator.get());
        _npu->setInterruptClient(_npuCam.get());
    }

    AppParams ap;
    ap.gpuFramePeriod = params.gpuFramePeriod;
    ap.cpuPrepRequests = params.cpuPrepRequests;
    ap.frames = params.frames;
    if (replay_mode) {
        auto replay = std::make_unique<TraceReplayDriver>(
            _sim, "replay", ap, *_replayTrace, *_gpu, core_ptrs,
            _dashCoordinator.get(), [this] { _done = true; });
        _replay = replay.get();
        _app = std::move(replay);
    } else {
        _app = std::make_unique<SceneApp>(_sim, "app", ap, *_scene,
                                          core_ptrs,
                                          _dashCoordinator.get(),
                                          [this] { _done = true; });

        // The framebuffer is functional state (not a SimObject) that
        // the display controller scans and golden-image tests hash;
        // it rides along as an extra section.
        _sim.registerSerializable("gfx.fb", _scene->framebuffer());
    }

    if (!opts.captureTraceDir.empty()) {
        std::string label = replay_mode
                                ? _replayTrace->label()
                                : scenes::workloadName(params.model);
        Addr fb_base = replay_mode
                           ? _replayTrace->fbBase()
                           : _scene->framebuffer().colorBase();
        _traceWriter = std::make_unique<mem::TrafficTraceWriter>(
            opts.captureTraceDir, label, fb_base);
        // Under replay, the driver re-captures the replayed stream
        // through the same writer path (round-trip verification).
        if (!replay_mode)
            _gpu->setTrafficCapture(_traceWriter.get());
        _app->setTraceCapture(_traceWriter.get());
        // NPU DMA boundary rides along as an extra client stream
        // after the GPU cores; observation only (replay matches
        // clients by name and skips it).
        if (_npu) {
            unsigned client =
                _traceWriter->addClient(_npu->dma().name());
            _npu->dma().setTraceCapture(_traceWriter.get(), client);
        }
    }

    // Warm-start: with the whole topology (and its registries) built,
    // pull the checkpoint state in before any event runs.
    if (!opts.restoreDir.empty()) {
        _sim.restoreCheckpoint(opts.restoreDir, opts.restoreForce,
                               opts.restoreLenient);
    }
}

SocTop::~SocTop()
{
    // The exit dump must see the components' stats, which die with
    // the members below.
    _sim.flushStatsSink();
}

void
SocTop::run(Tick limit)
{
    // A restored run resumes with the checkpoint's pending events
    // (vsync, scan, prep, poll) already re-scheduled; starting the
    // display or app again would double-schedule them.
    if (!_sim.restored()) {
        _display->start();
        if (_npuCam)
            _npuCam->start();
        _app->start();
    }
    while (!_done && _sim.curTick() < limit) {
        if (!_sim.eventQueue().runOne())
            break;
    }
    fatal_if(!_done, "SoC simulation hit the safety limit at %.1f ms",
             msFromTicks(_sim.curTick()));
    _display->stop();
    if (_npuCam)
        _npuCam->stop();
    if (_traceWriter)
        _traceWriter->finalize();
    if (_dashCoordinator)
        _dashCoordinator->shutdown();
}

namespace
{

/** Mean of @p time over the profiled (non-warm-up) frames. */
double
meanFrameMs(const std::vector<AppModel::FrameRecord> &frames,
            Tick (AppModel::FrameRecord::*time)() const)
{
    if (frames.size() <= 1)
        return 0.0;
    double sum = 0.0;
    for (std::size_t i = 1; i < frames.size(); ++i)
        sum += msFromTicks((frames[i].*time)());
    return sum / static_cast<double>(frames.size() - 1);
}

} // namespace

double
SocTop::meanGpuFrameMs() const
{
    return meanFrameMs(_app->frames(), &AppModel::FrameRecord::gpuTime);
}

double
SocTop::meanTotalFrameMs() const
{
    return meanFrameMs(_app->frames(),
                       &AppModel::FrameRecord::totalTime);
}

} // namespace emerald::soc
