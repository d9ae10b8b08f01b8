/**
 * @file
 * Camera-inference workload model: the NPU's analogue of the app
 * render loop (soc/app_model.hh). A camera delivers a frame every
 * framePeriod; each frame submits one inference command with a
 * completion deadline of the next frame's arrival. Frames that find
 * the command queue full are dropped (the vision pipeline skips
 * them), completed inferences are checked against their deadline,
 * and per-inference progress feeds the DASH coordinator through the
 * QosProgressPort seam so NPU deadline urgency participates in
 * memory scheduling like GPU and display deadlines do.
 */

#ifndef EMERALD_NPU_CAMERA_MODEL_HH
#define EMERALD_NPU_CAMERA_MODEL_HH

#include "mem/dash_scheduler.hh"
#include "npu/command_queue.hh"
#include "sim/sim_object.hh"

namespace emerald::npu
{

struct CameraParams
{
    /** Camera frame period (30 FPS capture). */
    Tick framePeriod = ticksFromMs(33.0);
    /** Frames to capture; 0 runs until stop(). */
    unsigned frames = 0;
    /** DASH urgency threshold (Table 3 style; 0.8 like display). */
    double emergentThreshold = 0.8;
};

class CameraInferenceModel : public SimObject, public NpuIntClient
{
  public:
    /** @param qos optional DASH seam; null = no QoS participation. */
    CameraInferenceModel(Simulation &sim, const std::string &name,
                         const CameraParams &params,
                         NpuCommandSink &npu,
                         mem::QosProgressPort *qos);

    /** Begin capturing frames (first frame fires immediately). */
    void start();

    /** Stop capturing; in-flight inferences still complete. */
    void stop();

    void npuCommandDone(const NpuCommand &cmd, Tick finished,
                        bool aborted) override;
    void npuCommandProgress(const NpuCommand &cmd,
                            double work) override;

    void serialize(CheckpointIo &io) override;

    /** @{ Statistics. */
    Scalar statFrames;
    Scalar statDropped;
    Scalar statCompleted;
    Scalar statAborted;
    Scalar statDeadlineMisses;
    Distribution statInfTicks;
    /** @} */

  private:
    void captureFrame();

    CameraParams _params;
    NpuCommandSink &_npu;
    mem::QosProgressPort *_qos;
    int _qosIp = -1;

    bool _running = false;
    std::uint32_t _frame = 0;
    std::uint64_t _nextCmdId = 1;
    /** Command whose period is currently tracked by DASH (0=none);
     *  queued overlap keeps the earliest period, like a real QoS
     *  monitor tracking the oldest outstanding deadline. */
    std::uint64_t _qosCmdId = 0;

    EventFunction _frameEvent;
};

} // namespace emerald::npu

#endif // EMERALD_NPU_CAMERA_MODEL_HH
