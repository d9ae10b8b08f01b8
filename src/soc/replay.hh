/**
 * @file
 * Trace-replay render phase (--replay-trace): the fast path for memory
 * scheduler policy sweeps.
 *
 * TraceReplayDriver is the AppModel frame loop (soc/app_model.hh) with
 * a different render phase: instead of shader execution, one replay
 * port per SIMT core re-injects a captured memory-traffic trace
 * (mem/traffic_trace.hh) into the core's L1s at the recorded
 * per-transaction offsets, in recorded order. CPU prep, DASH progress
 * reporting and vsync pacing are the app model's own. Everything below
 * the LSU boundary (L1s, GPU NoC, L2, system NoC, DRAM scheduling,
 * DASH) runs the real timing model, so policy comparisons keep their
 * shape at a fraction of the cost.
 */

#ifndef EMERALD_SOC_REPLAY_HH
#define EMERALD_SOC_REPLAY_HH

#include <memory>

#include "gpu/gpu_top.hh"
#include "soc/app_model.hh"

namespace emerald::mem
{
class TrafficTraceReader;
} // namespace emerald::mem

namespace emerald::soc
{

class ReplayPort;

/**
 * The replay app: owns one ReplayPort per SIMT core and renders frame
 * k by having every port inject the trace's frame-k transactions. A
 * frame's render phase closes when every port has injected all of
 * them and every read response has returned; its work is the trace's
 * recorded frame work, and its progress that work scaled by the share
 * of transactions issued so far.
 */
class TraceReplayDriver : public AppModel
{
  public:
    /**
     * @param trace must expose exactly one client per GPU core and at
     *        least @p params.frames frames (fatal otherwise); it must
     *        outlive the driver.
     */
    TraceReplayDriver(Simulation &sim, const std::string &name,
                      const AppParams &params,
                      const mem::TrafficTraceReader &trace,
                      gpu::GpuTop &gpu,
                      std::vector<CpuCoreModel *> cores,
                      mem::DashCoordinator *dash,
                      std::function<void()> on_all_frames_done);
    ~TraceReplayDriver() override;

    /**
     * Also re-capture the replayed traffic into @p writer (round-trip
     * verification): registers one client per port, in port = core
     * index order. Null detaches.
     */
    void setTraceCapture(mem::TrafficTraceWriter *writer) override;

    /**
     * Replay state (port cursors, in-flight reads) deliberately does
     * not round-trip; SimulationBuilder refuses --replay-trace with
     * checkpoint/restore, so reaching this is a logic error.
     */
    void serialize(CheckpointIo &io) override;

    /** @{ Statistics. */
    Scalar statReplayedTxns;
    /** @} */

  private:
    friend class ReplayPort;

    void renderFrame(unsigned idx) override;
    double renderProgress() const override;
    /** A port finished its share of the current frame. */
    void portFrameDone();

    const mem::TrafficTraceReader &_trace;
    std::vector<std::unique_ptr<ReplayPort>> _ports;
    /** The frame being rendered. */
    unsigned _frame = 0;
    unsigned _portsPending = 0;
};

} // namespace emerald::soc

#endif // EMERALD_SOC_REPLAY_HH
