#include "sim/packet.hh"

#include <algorithm>

#include "sim/logging.hh"
#include "sim/packet_pool.hh"
#include "sim/serialize/checkpoint_io.hh"
#include "sim/simulation.hh"

namespace emerald
{

RetryList::RetryList(fault::FaultDomain *domain) : _domain(domain)
{
    if (_domain)
        _domain->registerList(this);
}

MemSink::MemSink(Simulation &sim) : _retries(&sim.faultDomain()) {}

RetryList::~RetryList()
{
    if (_domain)
        _domain->unregisterList(this);
}

void
RetryList::add(MemRequestor &req)
{
    bool duplicate = std::find(_waiters.begin(), _waiters.end(), &req) !=
                     _waiters.end();
    if (!duplicate)
        _waiters.push_back(&req);
    EMERALD_CHECK_HOOK(retryRegistered(this, &req, duplicate));
}

bool
RetryList::wakeOne(bool force)
{
    if (_waiters.empty())
        return false;
    MemRequestor *req = _waiters.front();

    auto *inj = injector();
    if (!force && inj && inj->suppressWake(*this, req)) {
        // Lost wakeup: the victim stays parked and (deliberately)
        // loses its FIFO slot — exactly the bug class the watchdog
        // exists to catch. No retryWoken hook fires: from the
        // protocol's point of view this wake never happened.
        _waiters.pop_front();
        _waiters.push_back(req);
        return false;
    }

    _waiters.pop_front();
    EMERALD_CHECK_HOOK(retryWoken(this, req));
    req->retryRequest();

    if (!force && inj && inj->duplicateWake(*this, req)) {
        // Spurious duplicate: legal per the MemRequestor contract
        // ("wakeups can be spurious"), so a correct requestor must
        // tolerate it; no hook, the mirror checker never sees it.
        req->retryRequest();
    }
    return true;
}

void
RetryList::serialize(CheckpointIo &io, const std::string &prefix)
{
    io.sequence(
        prefix + ".num_waiters", prefix + ".waiter", _waiters,
        [&io](const std::string &key, MemRequestor *&req) {
            io.reference(key, req);
        },
        [this](MemRequestor *req) {
            _waiters.push_back(req);
            // Keep the retry-protocol mirror in sync: a restored parked
            // waiter must look registered or its eventual wake aborts.
            EMERALD_CHECK_HOOK(retryRegistered(this, req, false));
        });
}

void
freePacket(MemPacket *pkt)
{
    EMERALD_CHECK_HOOK(packetFreeing(pkt));
    if (pkt->pool)
        pkt->pool->free(pkt);
    else
        // Heap fallback; pooled packets go through free().
        delete pkt; // NOLINT(cppcoreguidelines-owning-memory)
}

const char *
accessKindName(AccessKind kind)
{
    switch (kind) {
      case AccessKind::CpuData: return "cpu_data";
      case AccessKind::Inst: return "inst";
      case AccessKind::GlobalData: return "global";
      case AccessKind::Texture: return "texture";
      case AccessKind::Depth: return "depth";
      case AccessKind::Color: return "color";
      case AccessKind::Constant: return "constant";
      case AccessKind::Vertex: return "vertex";
      case AccessKind::Display: return "display";
      case AccessKind::Writeback: return "writeback";
      case AccessKind::NpuData: return "npu_data";
      default: return "unknown";
    }
}

const char *
trafficClassName(TrafficClass tclass)
{
    switch (tclass) {
      case TrafficClass::Cpu: return "cpu";
      case TrafficClass::Gpu: return "gpu";
      case TrafficClass::Display: return "display";
      case TrafficClass::Npu: return "npu";
      default: return "unknown";
    }
}

std::string
MemPacket::toString() const
{
    return strprintf("%s %s %s addr=0x%llx size=%u req=%d",
                     trafficClassName(tclass), accessKindName(kind),
                     write ? "WR" : "RD", (unsigned long long)addr, size,
                     requestorId);
}

} // namespace emerald
