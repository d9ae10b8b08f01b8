/**
 * @file
 * The application frame loop: the stand-in for the paper's Android
 * app that "loads and displays a set of 3D models" (case study I).
 *
 * Each frame runs three phases, reproducing the inter-IP
 * dependencies the paper highlights (Fig. 10/14):
 *   1. CPU prep: every core executes a latency-bound memory quota
 *      (app + driver work). CPU traffic peaks here.
 *   2. GPU render: the frame is submitted; CPU cores drop to
 *      background traffic and block on the GPU fence.
 *   3. Vsync pacing: the next frame starts at the 30 FPS boundary
 *      (or immediately when the deadline was missed).
 *
 * AppModel owns that loop; the render phase is a two-method seam.
 * SceneApp renders the scene through the graphics pipeline
 * (execution-driven), and TraceReplayDriver (soc/replay.hh) re-injects
 * a captured memory-traffic trace (--replay-trace). While a frame
 * renders, its progress (work done vs. the previous frame's total) is
 * reported to the DASH coordinator so deadline urgency tracks reality.
 */

#ifndef EMERALD_SOC_APP_MODEL_HH
#define EMERALD_SOC_APP_MODEL_HH

#include <functional>
#include <vector>

#include "core/graphics_pipeline.hh"
#include "mem/dash_scheduler.hh"
#include "scenes/workloads.hh"
#include "soc/cpu_traffic.hh"

namespace emerald::mem
{
class TrafficTraceWriter;
} // namespace emerald::mem

namespace emerald::soc
{

struct AppParams
{
    /** GPU frame period (paper Table 3: 33 ms, 30 FPS). */
    Tick gpuFramePeriod = ticksFromMs(33.0);
    /** Prep-quota memory requests per core per frame. */
    std::uint64_t cpuPrepRequests = 2000;
    /** Frames to run (paper Table 6: 1 warm-up + 4 profiled). */
    unsigned frames = 5;
    /** DASH progress polling interval during rendering. */
    Tick progressPollPeriod = ticksFromUs(100.0);
};

class AppModel : public SimObject
{
  public:
    struct FrameRecord
    {
        Tick prepStart = 0;
        Tick renderStart = 0;
        Tick renderEnd = 0;
        /** Pipeline stats; empty when the frame was replayed. */
        core::FrameStats gpu;

        Tick gpuTime() const { return renderEnd - renderStart; }
        Tick totalTime() const { return renderEnd - prepStart; }

        /** Checkpoint the record under "<prefix>." keys. */
        void serialize(CheckpointIo &io, const std::string &prefix);
    };

    AppModel(Simulation &sim, const std::string &name,
             const AppParams &params, std::vector<CpuCoreModel *> cores,
             mem::DashCoordinator *dash,
             std::function<void()> on_all_frames_done);

    void start();

    const std::vector<FrameRecord> &frames() const { return _records; }

    /**
     * Bracket every frame's render phase in @p writer
     * (beginFrame/endFrame with the frame's work total), so captured
     * traffic carries the frame structure replay needs. Null
     * detaches.
     */
    virtual void
    setTraceCapture(mem::TrafficTraceWriter *writer)
    {
        _traceWriter = writer;
    }

    void serialize(CheckpointIo &io) override;
    /**
     * The render phase holds lambdas (frame-done fence, progress
     * listener) that cannot round-trip; prep and vsync pacing can.
     */
    bool checkpointSafe() const override { return !_rendering; }

    /** @{ Statistics. */
    Scalar statFrames;
    Distribution statGpuFrameTicks;
    Distribution statTotalFrameTicks;
    /** @} */

  protected:
    /**
     * Start frame @p idx's GPU work; call renderDone() once it has
     * drained.
     */
    virtual void renderFrame(unsigned idx) = 0;

    /** Work the open frame has done so far, in renderDone()'s units. */
    virtual double renderProgress() const = 0;

    /**
     * Close the open frame: @p work is its total (the next frame's
     * DASH estimate), @p stats the pipeline's record of it.
     */
    void renderDone(double work, const core::FrameStats &stats = {});

    /** True when DASH tracks the render phase's progress. */
    bool dashTracked() const { return _dash && _dashIp >= 0; }

    /** Report @p work done so far to DASH, if it grew. */
    void reportProgress(double work);

  private:
    void beginPrep();
    void corePrepDone();
    void beginRender();
    void pollProgress();

    AppParams _params;
    std::vector<CpuCoreModel *> _cores;
    mem::DashCoordinator *_dash;
    mem::TrafficTraceWriter *_traceWriter = nullptr;
    int _dashIp = -1;
    std::function<void()> _onDone;

    unsigned _framesDone = 0;
    unsigned _coresPending = 0;
    /** True from beginRender() until renderDone(). */
    bool _rendering = false;
    Tick _frameSlotStart = 0;
    /** The previous frame's work, or 0 before the first one. */
    double _workEstimate = 0.0;
    /** Work already reported to DASH for the open frame. */
    double _progressReported = 0.0;
    FrameRecord _current;
    std::vector<FrameRecord> _records;

    EventFunction _startPrepEvent;
    EventFunction _pollEvent;
};

/**
 * The execution-driven app: renders the scene's frames through the
 * graphics pipeline, reporting shaded fragments as the frame's work.
 */
class SceneApp : public AppModel
{
  public:
    SceneApp(Simulation &sim, const std::string &name,
             const AppParams &params, scenes::SceneRenderer &scene,
             std::vector<CpuCoreModel *> cores,
             mem::DashCoordinator *dash,
             std::function<void()> on_all_frames_done);

  private:
    void renderFrame(unsigned idx) override;
    double renderProgress() const override;

    scenes::SceneRenderer &_scene;
};

} // namespace emerald::soc

#endif // EMERALD_SOC_APP_MODEL_HH
