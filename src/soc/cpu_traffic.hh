/**
 * @file
 * Closed-loop CPU core traffic model.
 *
 * Full Android cores cannot be booted here (see DESIGN.md), so each
 * CPU core is modelled as a closed-loop memory requestor driving a
 * private L1/L2 cache chain. Crucially, progress is *latency-bound*:
 * a core completes a work quota only as fast as the memory system
 * returns its requests, reproducing the CPU-side feedback the
 * paper's case study I shows trace-driven simulation misses (Fig. 14:
 * CPU threads idle at frame end waiting on the GPU; DASH prioritizing
 * CPU shortens prep but starves the GPU).
 */

#ifndef EMERALD_SOC_CPU_TRAFFIC_HH
#define EMERALD_SOC_CPU_TRAFFIC_HH

#include <functional>

#include "sim/clocked.hh"
#include "sim/logging.hh"
#include "sim/packet.hh"
#include "sim/random.hh"
#include "sim/sim_object.hh"

namespace emerald::soc
{

struct CpuCoreParams
{
    unsigned coreId = 0;
    unsigned maxOutstanding = 4;
    /** Compute cycles between a response and the next request. */
    Cycle thinkCycles = 30;
    /** Probability the next access continues the current stream. */
    double locality = 0.8;
    Addr regionBase = 0;
    std::uint64_t regionBytes = 8 * 1024 * 1024;
    double writeFraction = 0.3;
    /** Background (non-quota) issue interval, cycles; 0 disables. */
    Cycle backgroundInterval = 2000;
    /** Outstanding-request window while in background mode. */
    unsigned backgroundOutstanding = 2;
    std::uint64_t seed = 1;
};

class CpuCoreModel : public SimObject,
                     public MemClient,
                     public MemRequestor
{
  public:
    CpuCoreModel(Simulation &sim, const std::string &name,
                 ClockDomain &cpu_clock, const CpuCoreParams &params,
                 MemSink &downstream);

    /**
     * Execute a burst of @p requests memory operations as fast as
     * the memory system allows, then invoke @p on_done.
     */
    void runQuota(std::uint64_t requests, std::function<void()> on_done);

    /** Enable sparse background traffic while no quota is active. */
    void setBackground(bool enabled);

    void memResponse(MemPacket *pkt) override;
    void retryRequest() override;

    void serialize(CheckpointIo &io) override;

    /**
     * True after a restore when the checkpoint was taken mid-quota:
     * the quota-done callback (a lambda) cannot travel through a
     * checkpoint, so the owner must re-install it.
     */
    bool
    needsQuotaCallbackRebind() const
    {
        return _quotaDonePending;
    }

    /** Re-install the quota-done callback after a restore. */
    void
    rebindQuotaCallback(std::function<void()> cb)
    {
        panic_if(!_quotaDonePending,
                 "%s: no quota callback to rebind", name().c_str());
        _quotaDone = std::move(cb);
        _quotaDonePending = false;
    }

    /** @{ Statistics. */
    Scalar statRequests;
    Scalar statQuotas;
    Distribution statLatency;
    /** @} */

  private:
    void issueOne();
    void trySchedule();
    void maybeCompleteQuota();
    /** Post-acceptance bookkeeping for one issued request. */
    void requestAccepted(bool quota);
    Addr nextAddr();

    CpuCoreParams _params;
    ClockDomain &_clock;
    MemSink &_downstream;

    std::uint64_t _quotaRemaining = 0;
    std::function<void()> _quotaDone;
    bool _background = false;
    unsigned _outstanding = 0;
    /**
     * Request rejected by the cache, held (with its window slot still
     * reserved) until retryRequest(); replaces the old fixed 2-cycle
     * re-offer loop.
     */
    MemPacket *_retryPkt = nullptr;
    /** Whether _retryPkt counts against the active quota. */
    bool _retryQuota = false;
    /** Restored with a quota callback outstanding (see rebind). */
    bool _quotaDonePending = false;
    Addr _cursor;
    Random _rng;
    EventFunction _issueEvent;
};

} // namespace emerald::soc

#endif // EMERALD_SOC_CPU_TRAFFIC_HH
