/**
 * @file
 * The SIMT core timing model (paper Table 2, Fig. 5 element 1).
 *
 * Per cycle, each warp scheduler issues at most one instruction from
 * a ready warp. Instructions execute functionally at issue; the
 * timing model then tracks result latency through a scoreboard (ALU /
 * SFU / shared memory) or through the memory system (coalesced
 * transactions into the per-core L1 caches: L1I instruction, L1D
 * global+pixel, L1T texture, L1Z depth, L1C constant+vertex).
 */

#ifndef EMERALD_GPU_SIMT_CORE_HH
#define EMERALD_GPU_SIMT_CORE_HH

#include <deque>
#include <memory>
#include <queue>
#include <vector>

#include "cache/cache.hh"
#include "gpu/coalescer.hh"
#include "gpu/scoreboard.hh"
#include "gpu/warp.hh"
#include "gpu/warp_sched.hh"
#include "sim/clocked.hh"
#include "sim/sim_object.hh"

namespace emerald::mem
{
class TrafficTraceWriter;
} // namespace emerald::mem

namespace emerald::gpu
{

/** Requestor id used for all GPU-originated memory traffic. */
constexpr int gpuRequestorId = 100;

/** Static configuration of one SIMT core. */
struct SimtCoreParams
{
    unsigned maxWarps = 48;
    unsigned maxThreads = 2048;
    unsigned numRegisters = 65536;
    unsigned schedulers = 2;
    /** Queued tasks awaiting a free warp slot. */
    unsigned taskQueueDepth = 8;

    Cycle aluLatency = 4;
    Cycle sfuLatency = 16;
    Cycle sharedMemLatency = 24;
    unsigned lsuIssuePerCycle = 2;
    unsigned maxPendingMemInstrsPerWarp = 6;
    /** Instructions per I-cache line (synthetic 8 B encoding). */
    unsigned instrsPerFetchLine = 16;

    /**
     * Warp scheduling policy (--warp-sched), resolved through the
     * warp_sched.hh registry; "" selects the default (lrr).
     */
    std::string warpSched;

    cache::CacheParams l1i;
    cache::CacheParams l1d;
    cache::CacheParams l1t;
    cache::CacheParams l1z;
    cache::CacheParams l1c;
};

/**
 * One SIMT core with its private L1 caches. All L1s miss into the
 * downstream sink provided at construction (the cluster's port into
 * the GPU interconnect).
 */
class SimtCore : public SimObject,
                 public Clocked,
                 public MemClient,
                 public MemRequestor
{
  public:
    SimtCore(Simulation &sim, const std::string &name,
             ClockDomain &domain, const SimtCoreParams &params,
             MemSink &downstream);

    /**
     * Offer a warp task, which must carry its state. The task is moved
     * from only when accepted.
     * @return false when the core's task queue is full.
     */
    bool tryAddTask(WarpTask &&task);

    /** True when no work is queued, resident, or in flight. */
    bool idle() const;

    unsigned queuedTasks() const
    {
        return static_cast<unsigned>(_taskQueue.size());
    }

    /**
     * Tasks launched from the queue so far. Only a launch shrinks the
     * queue, so a producer waiting for queue space can watch this
     * count instead of polling queuedTasks().
     */
    std::uint64_t tasksLaunched() const { return _launchSeq; }

    /** Warps launched and not yet retired. */
    unsigned residentWarps() const { return _residentWarps; }

    const SimtCoreParams &params() const { return _params; }

    /** The L1 cache that services @p kind. */
    cache::Cache &l1ForKind(AccessKind kind);

    cache::Cache &l1i() { return *_l1i; }
    cache::Cache &l1d() { return *_l1d; }
    cache::Cache &l1t() { return *_l1t; }
    cache::Cache &l1z() { return *_l1z; }
    cache::Cache &l1c() { return *_l1c; }

    void memResponse(MemPacket *pkt) override;
    void retryRequest() override;

    /**
     * Mirror every transaction the LSU successfully hands to an L1
     * into @p writer as client @p client (--capture-trace). Null
     * detaches. The writer must outlive the core or be detached.
     */
    void
    setTrafficCapture(mem::TrafficTraceWriter *writer, unsigned client)
    {
        _traceWriter = writer;
        _traceClient = client;
    }

    void serialize(CheckpointIo &io) override;
    /** A busy core's in-flight state does not round-trip. */
    bool checkpointSafe() const override;

    /** @{ Statistics. */
    Scalar statCyclesActive;
    Scalar statCyclesMemWait;
    Scalar statWarpInstrs;
    Scalar statThreadInstrs;
    Scalar statTasksVertex;
    Scalar statTasksFragment;
    Scalar statTasksCompute;
    Scalar statStallNoReadyWarp;
    Scalar statLsuStalls;
    Scalar statQuietTicks;
    /** @} */

  protected:
    bool tick() override;

  private:
    /** A memory instruction with outstanding read transactions. */
    struct MemInstrState
    {
        bool inUse = false;
        unsigned slot = 0;
        SlotList regSlots;
        unsigned outstanding = 0;
        bool initFetch = false;
    };

    /** One coalesced transaction queued for the LSU. */
    struct LsuTxn
    {
        Addr lineAddr;
        bool write;
        AccessKind kind;
        /** Index into _memInstrs, or -1 for posted traffic. */
        int memInstrId;
    };

    /** A fixed-latency result: release @p regs of @p slot at @p at. */
    struct Writeback
    {
        Tick at;
        unsigned slot;
        SlotList regs;

        /** Heap order: the earliest writeback on top. */
        bool operator<(const Writeback &other) const
        {
            return at > other.at;
        }
    };

    /**
     * @{ The steps of tick(). Each returns whether it did anything:
     * launched a task, executed an instruction, finished a warp,
     * offered an LSU packet, retired a writeback.
     */
    bool launchQueuedTasks();
    bool issueFrom(unsigned scheduler);
    bool finishWarpIfDrained(unsigned slot);
    bool drainLsu();
    bool processWritebacks();
    /** @} */
    void executeWarp(unsigned slot);
    void chargeInstructionFetch(Warp &warp, unsigned slot);
    void barrierArrive(unsigned slot);

    /** Something @p slot's issue checks read changed: re-check it. */
    void
    unblock(unsigned slot)
    {
        _issueBlocked &= ~(std::uint64_t{1} << slot);
    }

    unsigned allocMemInstr(unsigned slot, const SlotList &regs,
                           bool init_fetch);

    SimtCoreParams _params;
    MemSink &_downstream;

    std::unique_ptr<cache::Cache> _l1i;
    std::unique_ptr<cache::Cache> _l1d;
    std::unique_ptr<cache::Cache> _l1t;
    std::unique_ptr<cache::Cache> _l1z;
    std::unique_ptr<cache::Cache> _l1c;

    std::vector<Warp> _warps;
    /** Valid warps, and those among them set draining. */
    unsigned _residentWarps = 0;
    unsigned _drainingWarps = 0;
    /**
     * Bit per slot: the warp failed issueFrom's eligibility or
     * scoreboard check, and nothing those checks read has changed
     * since. Cleared on a launch into the slot, a writeback release, a
     * completed memory instruction of the warp, and a barrier release
     * (docs/scheduling.md, "Warp schedulers").
     */
    std::uint64_t _issueBlocked = 0;
    /** Per scheduler lane: the bits of the slots it owns. */
    std::vector<std::uint64_t> _ownedSlots;
    Scoreboard _scoreboard;
    std::deque<WarpTask> _taskQueue;

    /** Registers and threads currently allocated to resident warps. */
    unsigned _regsInUse = 0;
    unsigned _threadsInUse = 0;

    std::vector<MemInstrState> _memInstrs;
    std::vector<unsigned> _memInstrFreeList;

    std::deque<LsuTxn> _lsuQueue;
    /**
     * Packet for the head LSU transaction, rejected by its L1 and
     * held until the cache's retryRequest() wakes us. The core sleeps
     * instead of re-offering every cycle.
     */
    MemPacket *_lsuRetryPkt = nullptr;

    /** Pending scoreboard releases, earliest first. */
    std::priority_queue<Writeback> _writebacks;

    /** The tick of the last cycle counted in cycles_active. */
    Tick _activeTick = maxTick;
    /**
     * The latest tick put the core to sleep with warps resident; the
     * next tick credits the cycles slept since _activeTick as active.
     */
    bool _asleepWithWarps = false;

    /** One scheduling policy per scheduler lane (warp_sched.hh). */
    std::vector<std::unique_ptr<WarpScheduler>> _warpScheds;
    /** Ranking scratch buffer, reused each cycle to avoid churn. */
    std::vector<unsigned> _orderBuf;
    /**
     * Monotonic warp-launch counter feeding Warp::launchSeq and
     * tasksLaunched().
     */
    std::uint64_t _launchSeq = 0;

    /** Traffic-trace capture sink, or null (setTrafficCapture). */
    mem::TrafficTraceWriter *_traceWriter = nullptr;
    unsigned _traceClient = 0;

    isa::StepEffects _effects; // Reused each issue to avoid churn.
    std::vector<CoalescedAccess> _lines; // Likewise, coalesce() output.
};

} // namespace emerald::gpu

#endif // EMERALD_GPU_SIMT_CORE_HH
