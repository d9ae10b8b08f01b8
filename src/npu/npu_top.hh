/**
 * @file
 * The NPU device: command queue in front, systolic PE grid in the
 * middle, double-buffered scratchpads fed by the DMA engine at the
 * memory side.
 *
 * Execution walks the precomputed tile table (npu/systolic.hh) one
 * inference at a time:
 *
 *   load(t):    DMA in tile t's input + weight slices (one bursty
 *               transfer into the prefetch halves of the input and
 *               weight scratchpads),
 *   compute(t): run the PE grid for the tile's cycle count on the
 *               NPU clock,
 *   store(t):   on the final K-chunk of an output tile, DMA the
 *               accumulated outputs back.
 *
 * Double buffering overlaps load(t+1) with compute(t): at most two
 * tiles are scratchpad-resident, so the load cursor runs at most one
 * tile ahead of the compute cursor. Completions are delivered to the
 * host interface as interrupts after a modeled IRQ latency.
 */

#ifndef EMERALD_NPU_NPU_TOP_HH
#define EMERALD_NPU_NPU_TOP_HH

#include <deque>
#include <vector>

#include "npu/command_queue.hh"
#include "npu/dma.hh"
#include "npu/systolic.hh"
#include "sim/clocked.hh"
#include "sim/sim_object.hh"

namespace emerald::npu
{

struct NpuParams
{
    SystolicParams systolic;
    NpuDmaParams dma;
    /** Inference workload (npuModelLayers name). */
    std::string model = "tiny-cnn";
    /** Command queue capacity. */
    unsigned queueDepth = 4;
    /** Base of the NPU's tensor arena in physical memory. */
    Addr memBase = 0xC0000000ULL;
    /** Completion-interrupt delivery latency. */
    Tick irqLatency = ticksFromNs(200.0);
};

class NpuTop : public SimObject,
               public NpuCommandSink,
               public NpuDmaClient
{
  public:
    NpuTop(Simulation &sim, const std::string &name,
           const NpuParams &params, ClockDomain &clock,
           MemSink &downstream);

    /** Interrupt sink; wired by the owner before any submit. */
    void setInterruptClient(NpuIntClient *client)
    {
        _intClient = client;
    }

    NpuDmaEngine &dma() { return _dma; }
    const SystolicTiming &timing() const { return _timing; }

    bool submit(const NpuCommand &cmd) override;
    std::size_t queueDepth() const override { return _queue.size(); }
    unsigned queueCapacity() const override
    {
        return _queue.capacity();
    }
    double inferenceWork() const override
    {
        return static_cast<double>(_tiles.size());
    }

    void dmaTransferDone(std::uint64_t token) override;
    void dmaTransferAborted(std::uint64_t token) override;

    void hangDiagnostics(std::ostream &os) const override;

    void serialize(CheckpointIo &io) override;

    /** @{ Statistics. */
    Scalar statCmdsCompleted;
    Scalar statCmdsAborted;
    Scalar statCmdsRejected;
    Scalar statTiles;
    Scalar statComputeTicks;
    Distribution statCmdTicks;
    Distribution statQueueWaitTicks;
    /** @} */

  private:
    /**
     * DMA tokens: high half is the command generation, low half is
     * tile*3 + kind (0 = input load, 1 = weight load, 2 = store).
     * The generation tag keeps stale notifications from an aborted
     * command's transfers out of the next command's accounting.
     */
    enum TokenKind { TokInput = 0, TokWeight = 1, TokStore = 2 };
    std::uint64_t token(std::uint64_t tile, TokenKind kind) const
    {
        return (_execSeq << 32) | (tile * 3 + kind);
    }

    void startNextCommand();
    void pumpLoads();
    void maybeStartCompute();
    void computeDone();
    void checkCommandDone();
    void finishCommand(bool aborted);
    void deliverIrq();

    NpuParams _params;
    ClockDomain &_clock;
    SystolicTiming _timing;
    /** Tile walk of one inference; derived from params alone. */
    std::vector<TileWork> _tiles;
    NpuDmaEngine _dma;
    NpuCommandQueue _queue;
    NpuIntClient *_intClient = nullptr;

    /** @{ Active-command execution state. */
    bool _active = false;
    NpuCommand _cmd;
    Tick _execStart = 0;
    std::uint64_t _execSeq = 0;
    std::uint64_t _loadsIssued = 0;
    std::uint64_t _loadsDone = 0;
    std::uint64_t _tilesComputed = 0;
    std::uint64_t _storesIssued = 0;
    std::uint64_t _storesDone = 0;
    bool _computing = false;
    /** @} */

    /** Completions awaiting interrupt delivery. */
    struct IrqRecord
    {
        NpuCommand cmd;
        Tick finished = 0;
        bool aborted = false;
    };
    std::deque<IrqRecord> _pendingIrqs;

    EventFunction _computeEvent;
    EventFunction _irqEvent;
};

} // namespace emerald::npu

#endif // EMERALD_NPU_NPU_TOP_HH
