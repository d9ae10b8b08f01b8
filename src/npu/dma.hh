/**
 * @file
 * NPU DMA engine: moves scratchpad tiles to and from system memory
 * as bursts of line-sized packets through the backpressure-aware
 * offer()/retry port protocol (docs/memory_protocol.md).
 *
 * Transfers queue FIFO and issue in order, with per-transfer
 * completion tracked by packet token so out-of-order DRAM responses
 * across adjacent transfers credit the right one. A rejected packet
 * is held — its outstanding slot stays reserved — until the sink's
 * retryRequest() wakes the engine; the engine never polls, so every
 * fault seam and protocol checker on the request path sees it like
 * any other client.
 */

#ifndef EMERALD_NPU_DMA_HH
#define EMERALD_NPU_DMA_HH

#include <deque>

#include "sim/packet.hh"
#include "sim/sim_object.hh"

namespace emerald::mem
{
class TrafficTraceWriter;
} // namespace emerald::mem

namespace emerald::npu
{

/** Requestor id for the NPU DMA engine (CPU cores use their index,
 *  the display controller 101). */
constexpr int npuRequestorId = 102;

/** Completion interface the DMA engine reports into (NpuTop). */
class NpuDmaClient
{
  public:
    virtual ~NpuDmaClient() = default;

    /** Transfer @p token moved all its bytes. */
    virtual void dmaTransferDone(std::uint64_t token) = 0;

    /** Transfer @p token was abandoned by degrade recovery. */
    virtual void dmaTransferAborted(std::uint64_t token) = 0;
};

struct NpuDmaParams
{
    /** Packets in flight at once (burst width). */
    unsigned maxOutstanding = 8;
    /** Bytes per packet (the memory line size). */
    unsigned burstBytes = 128;
};

class NpuDmaEngine : public SimObject,
                     public MemClient,
                     public MemRequestor
{
  public:
    NpuDmaEngine(Simulation &sim, const std::string &name,
                 const NpuDmaParams &params, MemSink &downstream);

    /** Completion sink; wired by the owner before any transfer. */
    void setClient(NpuDmaClient *client) { _client = client; }

    /**
     * Record accepted transactions into @p writer as capture client
     * @p client_id (--capture-trace at the NPU DMA boundary).
     * Observation only: recording never changes timing or the event
     * stream. Null detaches.
     */
    void
    setTraceCapture(mem::TrafficTraceWriter *writer,
                    unsigned client_id)
    {
        _traceWriter = writer;
        _traceClient = client_id;
    }

    /**
     * Queue one contiguous transfer of @p bytes from/to @p base;
     * completion is reported via NpuDmaClient with @p token.
     * Transfers issue strictly in submission order.
     */
    void startTransfer(Addr base, std::uint64_t bytes, bool write,
                       std::uint64_t token);

    bool idle() const
    {
        return _transfers.empty() && _outstanding == 0 && !_retryPkt;
    }
    std::size_t pendingTransfers() const { return _transfers.size(); }

    void memResponse(MemPacket *pkt) override;
    void retryRequest() override;

    /**
     * Watchdog degrade recovery: a stuck burst (held rejected packet
     * or responses that never arrived) abandons every queued
     * transfer so the NPU can shed the inference and resume clean.
     */
    void onWatchdogDegrade() override;

    void hangDiagnostics(std::ostream &os) const override;

    void serialize(CheckpointIo &io) override;

    /** @{ Statistics. */
    Scalar statBytesRead;
    Scalar statBytesWritten;
    Scalar statRequests;
    Scalar statTransfers;
    Scalar statAborts;
    Distribution statTransferTicks;
    /** @} */

  private:
    struct Transfer
    {
        Addr base = 0;
        std::uint64_t bytes = 0;
        bool write = false;
        std::uint64_t token = 0;
        /** Bytes whose packets were accepted downstream. */
        std::uint64_t issued = 0;
        /** Bytes whose responses came back. */
        std::uint64_t acked = 0;
        Tick start = 0;
        /** Engine-local id; packets carry it in their token field. */
        std::uint64_t id = 0;
    };

    void pump();
    void dropRetryPkt();
    /** Retire fully-acked transfers at the queue head, in order. */
    void completeFinished();
    Transfer *findById(std::uint64_t id);

    NpuDmaParams _params;
    MemSink &_downstream;
    NpuDmaClient *_client = nullptr;
    mem::TrafficTraceWriter *_traceWriter = nullptr;
    unsigned _traceClient = 0;

    std::deque<Transfer> _transfers;
    std::uint64_t _nextId = 1;
    unsigned _outstanding = 0;
    /** Guards against re-entrant pump() on synchronous responses. */
    bool _pumping = false;
    /**
     * Packet rejected downstream, held (slot still reserved) until
     * retryRequest(); never re-offered by polling.
     */
    MemPacket *_retryPkt = nullptr;
};

} // namespace emerald::npu

#endif // EMERALD_NPU_DMA_HH
