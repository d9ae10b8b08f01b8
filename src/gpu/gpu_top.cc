#include "gpu/gpu_top.hh"

#include "mem/traffic_trace.hh"
#include "sim/logging.hh"
#include "sim/simulation.hh"

namespace emerald::gpu
{

GpuTopParams
defaultGpuParams()
{
    GpuTopParams p;
    p.numClusters = 6;
    p.coresPerCluster = 1;

    // Per-core L1 caches (paper Table 7).
    p.core.l1i = {4 * 1024, 4, 128, 4, 8, 4, 8};
    p.core.l1d = {32 * 1024, 8, 128, 12, 32, 8, 16};
    p.core.l1t = {48 * 1024, 24, 128, 16, 32, 8, 16};
    p.core.l1z = {32 * 1024, 8, 128, 12, 32, 8, 16};
    p.core.l1c = {16 * 1024, 8, 128, 8, 16, 8, 16};

    // Shared L2 (paper Table 7: 2 MB, 32-way, 128 B lines).
    p.l2 = {2 * 1024 * 1024, 32, 128, 24, 64, 8, 32};

    p.clusterLink.latency = ticksFromNs(4.0);
    p.clusterLink.bytesPerSec = 32e9;
    p.clusterLink.queueDepth = 32;
    p.memLink.latency = ticksFromNs(10.0);
    p.memLink.bytesPerSec = 0.0; // Memory bandwidth limits apply below.
    p.memLink.queueDepth = 64;
    return p;
}

GpuTop::GpuTop(Simulation &sim, const std::string &name,
               ClockDomain &core_clock, const GpuTopParams &params,
               MemSink &memory_below)
    : SimObject(sim, name), _params(params), _coreClock(core_clock)
{
    registerProfileCounters();
    cache::CacheParams l2p = params.l2;
    l2p.trafficClass = TrafficClass::Gpu;
    l2p.requestorId = gpuRequestorId;
    _l2 = std::make_unique<cache::Cache>(sim, name + ".l2", core_clock,
                                         l2p);

    _memLink = std::make_unique<noc::Link>(sim, name + ".memlink",
                                           params.memLink);
    _memLink->setTarget(memory_below);
    _l2->setDownstream(*_memLink);

    for (unsigned i = 0; i < params.numCores(); ++i) {
        _coreLinks.push_back(std::make_unique<noc::Link>(
            sim, name + ".xbar" + std::to_string(i),
            params.clusterLink));
        _coreLinks.back()->setTarget(*_l2);
        _cores.push_back(std::make_unique<SimtCore>(
            sim, name + ".sc" + std::to_string(i), core_clock,
            params.core, *_coreLinks.back()));
    }
}

void
GpuTop::setTrafficCapture(mem::TrafficTraceWriter *writer)
{
    for (auto &core : _cores) {
        unsigned client = writer ? writer->addClient(core->name()) : 0;
        core->setTrafficCapture(writer, client);
    }
}

std::uint64_t
GpuTop::l1Misses(AccessKind kind)
{
    std::uint64_t total = 0;
    for (auto &core : _cores) {
        total += static_cast<std::uint64_t>(
            core->l1ForKind(kind).statMisses.value());
    }
    return total;
}

} // namespace emerald::gpu
