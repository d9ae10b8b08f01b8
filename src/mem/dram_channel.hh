/**
 * @file
 * One DRAM channel: request queue, bank state machines, data bus, and
 * a pluggable scheduling policy.
 */

#ifndef EMERALD_MEM_DRAM_CHANNEL_HH
#define EMERALD_MEM_DRAM_CHANNEL_HH

#include <cstddef>
#include <deque>
#include <vector>

#include "mem/dram.hh"
#include "sim/packet.hh"
#include "sim/sim_object.hh"

namespace emerald::mem
{

class DramChannel;

/**
 * Scheduling policy interface. The controller calls pick() whenever
 * it is ready to issue the next request; the policy returns an index
 * into the queue.
 */
class DramScheduler
{
  public:
    virtual ~DramScheduler() = default;

    /** Queue entry view exposed to policies. */
    struct QueueEntry
    {
        MemPacket *pkt;
        DecodedAddr coord;
        Tick enqueued;
    };

    /**
     * Choose the next request to service.
     * @return index into @p queue.
     * @pre queue is non-empty.
     */
    virtual std::size_t pick(const DramChannel &channel,
                             const std::vector<QueueEntry> &queue,
                             Tick now) = 0;

    /** Accounting hook invoked after each serviced request. */
    virtual void serviced(const MemPacket &pkt, Tick now);

    virtual const char *policyName() const = 0;
};

/**
 * An event-driven DRAM channel controller.
 *
 * Requests are enqueued with their pre-decoded coordinates (the
 * memory system owns address mapping so HMC can use per-channel
 * maps). The controller issues one request at a time, modelling
 * activate/precharge/CAS latency and data bus occupancy, and collects
 * the row-buffer and per-source bandwidth statistics used by the
 * paper's Figs. 10, 11 and 14.
 */
class DramChannel : public SimObject
{
  public:
    DramChannel(Simulation &sim, const std::string &name,
                const DramGeometry &geom, const DramTiming &timing,
                DramScheduler &scheduler, unsigned queue_capacity,
                Tick stats_bucket);

    /**
     * Offer a request. @return false when the queue is full; @p req
     * (when given) is then queued and woken via retryRequest() as the
     * channel drains, FIFO among waiters.
     */
    bool enqueue(MemPacket *pkt, const DecodedAddr &coord,
                 MemRequestor *req = nullptr);

    /** True when a new request would be rejected. */
    bool full() const { return _queue.size() >= _queueCapacity; }

    std::size_t queueDepth() const { return _queue.size(); }

    /** Open row of a flat bank, for scheduler row-hit tests. */
    bool bankOpen(unsigned flat_bank) const { return _banks[flat_bank].open; }

    std::uint64_t
    bankOpenRow(unsigned flat_bank) const
    {
        return _banks[flat_bank].openRow;
    }

    const DramGeometry &geometry() const { return _geom; }
    const DramTiming &timing() const { return _timing; }

    /** @{ Statistics, public so harnesses can read them directly. */
    Scalar statRowHits;
    Scalar statRowClosedMisses;
    Scalar statRowConflicts;
    Scalar statBytesRead;
    Scalar statBytesWritten;
    Scalar statRequests;
    Distribution statBytesPerActivation;
    Distribution statReadLatencyCpu;
    Distribution statReadLatencyGpu;
    Distribution statReadLatencyDisplay;
    Distribution statReadLatencyNpu;
    TimeSeries statBwCpu;
    TimeSeries statBwGpu;
    TimeSeries statBwDisplay;
    TimeSeries statBwNpu;
    /** @} */

    void hangDiagnostics(std::ostream &os) const override;

    void serialize(CheckpointIo &io) override;

  private:
    void tryIssue();
    void completeHead();
    void scheduleIssue(Tick when);
    void scheduleCompletion();

    /** Append an issued request; panics if @p done precedes the
     *  newest in-flight completion. */
    void addInflight(MemPacket *pkt, Tick done);

    /** Compute service timing and update bank/bus state. */
    Tick service(const DramScheduler::QueueEntry &entry, Tick now,
                 RowBufferOutcome &outcome);

    DramGeometry _geom;
    DramTiming _timing;
    DramScheduler &_scheduler;
    std::size_t _queueCapacity;

    std::vector<DramScheduler::QueueEntry> _queue;
    std::vector<BankState> _banks;
    /** Requestors rejected while the queue was full. */
    RetryList _retries;
    Tick _busFreeTick = 0;

    struct InFlight
    {
        MemPacket *pkt;
        Tick done;
    };

    /**
     * Issued requests waiting for their completion tick, in issue
     * order. Completion ticks never decrease: each service starts at
     * or after the previous one's bus-free tick.
     */
    std::deque<InFlight> _inflight;

    EventFunction _issueEvent;
    EventFunction _completeEvent;
};

} // namespace emerald::mem

#endif // EMERALD_MEM_DRAM_CHANNEL_HH
