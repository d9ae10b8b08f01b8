/**
 * @file
 * The GPU top level (paper Fig. 4): SIMT core clusters, the GPU
 * interconnect, and the shared L2 cache, with one port down into
 * whatever memory lies below (a private DRAM in standalone mode, the
 * SoC system network in full-system mode).
 */

#ifndef EMERALD_GPU_GPU_TOP_HH
#define EMERALD_GPU_GPU_TOP_HH

#include <memory>
#include <vector>

#include "cache/cache.hh"
#include "gpu/simt_core.hh"
#include "noc/link.hh"
#include "sim/sim_object.hh"

namespace emerald::gpu
{

/** GPU organization. */
struct GpuTopParams
{
    unsigned numClusters = 6;
    unsigned coresPerCluster = 1;
    SimtCoreParams core;
    cache::CacheParams l2;
    /** Core-to-L2 interconnect links. */
    noc::LinkParams clusterLink;
    /** L2-to-memory link. */
    noc::LinkParams memLink;

    unsigned numCores() const { return numClusters * coresPerCluster; }
};

/** Reasonable defaults approximating the paper's Table 7 GPU. */
GpuTopParams defaultGpuParams();

class GpuTop : public SimObject
{
  public:
    GpuTop(Simulation &sim, const std::string &name,
           ClockDomain &core_clock, const GpuTopParams &params,
           MemSink &memory_below);

    unsigned numCores() const { return _params.numCores(); }
    unsigned numClusters() const { return _params.numClusters; }
    unsigned coresPerCluster() const { return _params.coresPerCluster; }

    SimtCore &core(unsigned idx) { return *_cores[idx]; }
    cache::Cache &l2() { return *_l2; }
    ClockDomain &coreClock() { return _coreClock; }
    const GpuTopParams &params() const { return _params; }

    /** Aggregate L1 misses of one kind across all cores. */
    std::uint64_t l1Misses(AccessKind kind);

    /**
     * Attach @p writer as the traffic-capture sink of every core:
     * registers one trace client per core, in core-index order (the
     * replay driver relies on client i == core i). Null detaches.
     */
    void setTrafficCapture(mem::TrafficTraceWriter *writer);

  private:
    GpuTopParams _params;
    ClockDomain &_coreClock;
    std::vector<std::unique_ptr<noc::Link>> _coreLinks;
    std::vector<std::unique_ptr<SimtCore>> _cores;
    std::unique_ptr<cache::Cache> _l2;
    std::unique_ptr<noc::Link> _memLink;
};

} // namespace emerald::gpu

#endif // EMERALD_GPU_GPU_TOP_HH
