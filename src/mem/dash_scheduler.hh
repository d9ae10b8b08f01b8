/**
 * @file
 * The DASH deadline-aware memory scheduler (Usui et al., TACO 2016),
 * as re-evaluated by the Emerald paper's case study I.
 *
 * DASH classifies traffic into priority levels:
 *   0. urgent IPs (behind their deadline-derived expected progress),
 *   1. memory non-intensive CPU cores,
 *   2. non-urgent IPs,
 *   3. memory intensive CPU cores,
 * with probabilistic switching between levels 2 and 3 to balance
 * service. CPU cores are (re)clustered each quantum using TCM-style
 * bandwidth clustering. The paper evaluates two ways of computing the
 * clustering bandwidth total: CPU-only (DCB) and whole-system (DTB);
 * DashParams::useTotalBandwidth selects between them.
 */

#ifndef EMERALD_MEM_DASH_SCHEDULER_HH
#define EMERALD_MEM_DASH_SCHEDULER_HH

#include <string>
#include <vector>

#include "mem/dram_channel.hh"
#include "sim/random.hh"
#include "sim/sim_object.hh"

namespace emerald::mem
{

/** Tunables; defaults follow the paper's Table 3 at 2 GHz CPU. */
struct DashParams
{
    /** Probabilistic switching re-evaluation period (500 CPU cyc). */
    Tick switchingUnit = ticksFromNs(250.0);
    /** CPU clustering quantum (1M CPU cycles). */
    Tick quantum = ticksFromUs(500.0);
    /** TCM clustering factor. */
    double clusterThresh = 0.15;
    /** DTB (true): include IP bandwidth in the clustering total. */
    bool useTotalBandwidth = false;
    /** Initial probability of favouring intensive CPU over IPs. */
    double initialP = 0.5;
    /** Per-switching-unit adjustment step for P. */
    double pStep = 0.05;
    unsigned numCpuCores = 4;
    std::uint64_t seed = 7;
};

/**
 * Deadline-progress reporting seam between IP models and a QoS
 * coordinator. IP-side components (display, app, NPU camera) hold
 * this interface rather than the concrete coordinator, so the shard
 * partitioner can cut the seam and a scheduler policy without a
 * coordinator can be swapped in without touching the IP models.
 */
class QosProgressPort
{
  public:
    virtual ~QosProgressPort() = default;

    /**
     * Register an IP block (GPU, display controller, NPU).
     * @param emergent_threshold progress fraction below which the IP
     *        becomes urgent (Table 3: 0.8; 0.9 for the GPU).
     */
    virtual int registerIp(const std::string &ip_name,
                           TrafficClass tclass,
                           double emergent_threshold) = 0;

    /** An IP starts a work period (e.g. one frame). */
    virtual void beginIpPeriod(int ip, Tick period,
                               double total_work) = 0;

    /** An IP completed @p work_done more units of its period. */
    virtual void addIpProgress(int ip, double work_done) = 0;

    /** The IP finished its period early (deactivates urgency). */
    virtual void endIpPeriod(int ip) = 0;
};

/**
 * Shared DASH state across all channels: CPU clustering, IP deadline
 * tracking and the probabilistic switch. One coordinator feeds every
 * DashScheduler instance.
 */
class DashCoordinator : public SimObject, public QosProgressPort
{
  public:
    DashCoordinator(Simulation &sim, const std::string &name,
                    const DashParams &params);

    int registerIp(const std::string &ip_name, TrafficClass tclass,
                   double emergent_threshold) override;

    void beginIpPeriod(int ip, Tick period,
                       double total_work) override;

    void addIpProgress(int ip, double work_done) override;

    void endIpPeriod(int ip) override;

    /**
     * Every packet's priority level at one tick, with each IP's
     * urgency evaluated once. Lower is better.
     */
    struct Levels
    {
        const DashCoordinator *dash;
        /** Level of each non-CPU traffic class. */
        int ofClass[4];
        /** Level of a memory-intensive CPU core. */
        int intensiveCpu;

        int
        of(const MemPacket &pkt) const
        {
            if (pkt.tclass != TrafficClass::Cpu)
                return ofClass[static_cast<int>(pkt.tclass)];
            return dash->cpuIntensive(
                       static_cast<unsigned>(pkt.requestorId))
                       ? intensiveCpu
                       : 1;
        }
    };

    /** The level table at @p now; valid until DASH state changes. */
    Levels levelsAt(Tick now) const;

    /** Priority level of @p pkt right now; lower is better. */
    int priorityOf(const MemPacket &pkt, Tick now) const
    {
        return levelsAt(now).of(pkt);
    }

    /** Service accounting callback from the channels. */
    void serviced(const MemPacket &pkt, Tick now);

    bool
    cpuIntensive(unsigned core) const
    {
        return core < _cpuIsIntensive.size() && _cpuIsIntensive[core];
    }

    bool ipUrgent(int ip, Tick now) const;
    double currentP() const { return _p; }

    /** Stop the recurring bookkeeping events. */
    void shutdown();

    /** Force a clustering pass now (used by unit tests). */
    void recluster();

    void serialize(CheckpointIo &io) override;

  private:
    void switchingTick();
    void quantumTick();

    struct IpState
    {
        std::string name;
        TrafficClass tclass;
        double emergentThreshold;
        bool active = false;
        Tick periodStart = 0;
        Tick period = 0;
        double workTotal = 0.0;
        double workDone = 0.0;
        std::uint64_t bytesThisQuantum = 0;
    };

    DashParams _params;
    std::vector<IpState> _ips;
    int _ipOfClass[numTrafficClasses] = {-1, -1, -1, -1};

    std::vector<std::uint64_t> _cpuBytesThisQuantum;
    std::vector<bool> _cpuIsIntensive;

    bool _favourIntensiveCpu = false;
    double _p;
    std::uint64_t _servedIntensiveCpu = 0;
    std::uint64_t _servedNonUrgentIp = 0;

    Random _rng;
    EventFunction _switchEvent;
    EventFunction _quantumEvent;
};

/** Per-channel DASH policy; thin wrapper over the coordinator. */
class DashScheduler : public DramScheduler
{
  public:
    explicit DashScheduler(DashCoordinator &coordinator)
        : _coordinator(coordinator)
    {}

    std::size_t pick(const DramChannel &channel,
                     const std::vector<QueueEntry> &queue,
                     Tick now) override;

    void serviced(const MemPacket &pkt, Tick now) override;

    const char *policyName() const override { return "DASH"; }

  private:
    DashCoordinator &_coordinator;
    /** Scratch: the level of each queue entry during pick(). */
    std::vector<int> _levels;
};

} // namespace emerald::mem

#endif // EMERALD_MEM_DASH_SCHEDULER_HH
