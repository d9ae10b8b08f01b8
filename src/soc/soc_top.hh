/**
 * @file
 * Full-system SoC assembly (paper Fig. 1): CPU cluster with private
 * cache hierarchies, the Emerald GPU, the display controller, the
 * system interconnect and the shared DRAM — with the memory
 * organization/scheduling configurations case study I compares
 * (Table 6): BAS (FR-FCFS), DCB/DTB (DASH with CPU-only /
 * whole-system clustering bandwidth) and HMC (split channels).
 */

#ifndef EMERALD_SOC_SOC_TOP_HH
#define EMERALD_SOC_SOC_TOP_HH

#include <memory>
#include <string>
#include <vector>

#include "core/graphics_pipeline.hh"
#include "mem/dash_scheduler.hh"
#include "mem/memory_system.hh"
#include "noc/link.hh"
#include "scenes/workloads.hh"
#include "sim/simulation.hh"
#include "sim/simulation_builder.hh"
#include "npu/camera_model.hh"
#include "npu/npu_top.hh"
#include "soc/app_model.hh"
#include "soc/cpu_traffic.hh"
#include "soc/display_controller.hh"

namespace emerald::mem
{
class TrafficTraceReader;
class TrafficTraceWriter;
} // namespace emerald::mem

namespace emerald::soc
{

class TraceReplayDriver;

/** Case study I memory configurations (paper Table 6). */
enum class MemConfig { BAS, DCB, DTB, HMC };

const char *memConfigName(MemConfig config);

struct SocParams
{
    MemConfig memConfig = MemConfig::BAS;
    /** High-load scenario: 133 Mb/s/pin instead of 1333. */
    bool highLoad = false;

    unsigned numCpuCores = 4;
    double cpuClockMHz = 2000.0;
    double gpuClockMHz = 950.0;

    /** DRAM channel count (HMC reserves one CPU channel of these). */
    unsigned dramChannels = 2;

    unsigned fbWidth = 256;
    unsigned fbHeight = 192;

    scenes::WorkloadId model = scenes::WorkloadId::M2_Cube;
    unsigned frames = 5;
    std::uint64_t cpuPrepRequests = 1500;

    Tick statsBucket = ticksFromUs(100.0);
    Tick refreshPeriod = ticksFromMs(16.6);
    Tick gpuFramePeriod = ticksFromMs(33.0);

    /**
     * @{ NPU accelerator (fourth memory client). Off by default:
     * disabled runs build no NPU objects and schedule no NPU events,
     * so their event streams are bit-identical to pre-NPU builds.
     */
    bool npuEnabled = false;
    unsigned npuRows = 16;
    unsigned npuCols = 16;
    double npuClockMHz = 800.0;
    std::string npuModel = "tiny-cnn";
    Tick npuFramePeriod = ticksFromMs(33.0);
    /** Camera frames to capture; 0 = free-run until the app ends. */
    unsigned npuFrames = 0;
    unsigned npuQueueDepth = 4;
    unsigned npuDmaOutstanding = 8;
    /** Per-scratchpad capacity (input/weight/output each). */
    unsigned npuScratchKB = 32;
    /** @} */
};

/**
 * Owns one complete SoC simulation. Construct, run(), then read the
 * results through the component accessors.
 */
class SocTop
{
  public:
    /**
     * @param builder optional recipe applied to the SoC's Simulation
     *        before construction (observability, extra clock domains,
     *        stats sinks); its RigOptions pick the scheduler policies,
     *        trace capture/replay and the checkpoint to restore.
     */
    explicit SocTop(const SocParams &params,
                    const SimulationBuilder &builder = {});
    ~SocTop();

    /** Run until the app completes its frames (with a safety cap). */
    void run(Tick limit = ticksFromMs(4000.0));

    Simulation &sim() { return _sim; }
    mem::MemorySystem &memory() { return *_memory; }
    /**
     * The frame loop: a SceneApp, or under --replay-trace the
     * TraceReplayDriver (also replayDriver()).
     */
    AppModel &app() { return *_app; }
    DisplayController &display() { return *_display; }
    gpu::GpuTop &gpu() { return *_gpu; }
    const SocParams &params() const { return _params; }

    /** The NPU device, or null when npuEnabled is false. */
    npu::NpuTop *npu() { return _npu.get(); }
    /** The camera-inference model, or null when npuEnabled is false. */
    npu::CameraInferenceModel *npuCamera() { return _npuCam.get(); }

    /** True when this run replays a trace instead of rendering. */
    bool replayMode() const { return _replay != nullptr; }
    /** The replay driver, or null in execution-driven runs. */
    TraceReplayDriver *replayDriver() { return _replay; }
    /** The capture writer, or null without --capture-trace. */
    mem::TrafficTraceWriter *traceWriter() { return _traceWriter.get(); }

    /** Mean GPU render time over profiled (non-warm-up) frames. */
    double meanGpuFrameMs() const;
    /** Mean total (prep+render) frame time over profiled frames. */
    double meanTotalFrameMs() const;

  private:
    SocParams _params;
    Simulation _sim;
    ClockDomain *_cpuClock = nullptr;
    ClockDomain *_gpuClock = nullptr;

    std::unique_ptr<mem::DashCoordinator> _dashCoordinator;
    std::unique_ptr<mem::DramScheduler> _scheduler;
    std::unique_ptr<mem::MemorySystem> _memory;

    mem::FunctionalMemory _functionalMem;

    std::unique_ptr<gpu::GpuTop> _gpu;
    std::unique_ptr<core::GraphicsPipeline> _pipeline;
    std::unique_ptr<scenes::SceneRenderer> _scene;
    /**
     * The --replay-trace recording (null when executing shaders).
     * Declared before _app, whose replay ports reference its records.
     */
    std::unique_ptr<mem::TrafficTraceReader> _replayTrace;

    struct CpuNode;
    std::vector<std::unique_ptr<CpuNode>> _cpus;

    std::unique_ptr<noc::Link> _displayLink;
    std::unique_ptr<DisplayController> _display;
    std::unique_ptr<AppModel> _app;

    /** NPU subsystem (all null when npuEnabled is false). */
    ClockDomain *_npuClock = nullptr;
    std::unique_ptr<noc::Link> _npuLink;
    std::unique_ptr<npu::NpuTop> _npu;
    std::unique_ptr<npu::CameraInferenceModel> _npuCam;

    /** The --capture-trace writer (null when unused). */
    std::unique_ptr<mem::TrafficTraceWriter> _traceWriter;
    /** _app under --replay-trace, else null. */
    TraceReplayDriver *_replay = nullptr;

    bool _done = false;
};

} // namespace emerald::soc

#endif // EMERALD_SOC_SOC_TOP_HH
