#include "cache/cache.hh"

#include <bit>

#include "sim/logging.hh"
#include "sim/serialize/checkpoint_io.hh"
#include "sim/simulation.hh"

namespace emerald::cache
{

Cache::Cache(Simulation &sim, const std::string &name,
             ClockDomain &domain, const CacheParams &params)
    : SimObject(sim, name), MemSink(sim),
      statHits(*this, "hits", "demand hits"),
      statMisses(*this, "misses", "demand misses"),
      statMshrMerges(*this, "mshr_merges",
                     "misses merged into an existing MSHR"),
      statWritebacks(*this, "writebacks", "dirty lines written back"),
      statRejects(*this, "rejects",
                  "requests rejected (MSHR/queue full)"),
      _params(params), _domain(domain),
      _mshrs(params.mshrs, params.targetsPerMshr),
      _sendEvent([this] { drainSendQueue(); }, name + ".send"),
      _respEvent([this] { deliverResponses(); }, name + ".resp")
{
    setSinkName(name);
    panic_if(!isPowerOf2(params.lineSize) || params.lineSize < 2,
             "line size must be 2^n, n >= 1");
    _lineShift = static_cast<unsigned>(std::countr_zero(params.lineSize));
    std::uint64_t lines = params.sizeBytes / params.lineSize;
    panic_if(lines == 0 || lines % params.assoc != 0,
             "cache %s geometry invalid", name.c_str());
    _numSets = lines / params.assoc;
    panic_if(!isPowerOf2(_numSets), "set count must be 2^n");
    _tags.assign(lines, invalidTag);
    _lastUse.assign(lines, 0);
    _dirty.assign(lines, 0);

    registerCheckpointEvent(_sendEvent);
    registerCheckpointEvent(_respEvent);
    registerCheckpointClient(*this);
    registerCheckpointRequestor(*this);
}

std::ptrdiff_t
Cache::findWay(std::size_t set, Addr line_addr) const
{
    const std::size_t first = set * _params.assoc;
    const Addr *tags = _tags.data() + first;
    for (unsigned w = 0; w < _params.assoc; ++w) {
        if (tags[w] == line_addr)
            return static_cast<std::ptrdiff_t>(first + w);
    }
    return -1;
}

bool
Cache::isCached(Addr addr) const
{
    Addr line = lineAddrOf(addr);
    return findWay(setIndex(line), line) >= 0;
}

bool
Cache::tryAccept(MemPacket *pkt)
{
    Addr line_addr = lineAddrOf(pkt->addr);
    std::ptrdiff_t way = findWay(setIndex(line_addr), line_addr);

    if (way >= 0) {
        _lastUse[static_cast<std::size_t>(way)] = ++_useCounter;
        if (pkt->write)
            _dirty[static_cast<std::size_t>(way)] = 1;
        ++statHits;
        respondLater(pkt);
        return true;
    }

    // Miss: merge into an existing MSHR when possible.
    if (Mshr *mshr = _mshrs.find(line_addr)) {
        if (!_mshrs.canAddTarget(*mshr)) {
            ++statRejects;
            return false;
        }
        mshr->targets.push_back(pkt);
        ++statMisses;
        ++statMshrMerges;
        return true;
    }

    if (!_mshrs.available() ||
        _sendQueue.size() >= _params.sendQueueDepth) {
        ++statRejects;
        return false;
    }

    Mshr &mshr = _mshrs.allocate(line_addr);
    mshr.targets.push_back(pkt);
    ++statMisses;

    auto *fill = sim().packetPool().alloc(
        line_addr, _params.lineSize, false, pkt->tclass, pkt->kind,
        pkt->requestorId, this, line_addr);
    mshr.fillSent = true;
    pushDownstream(fill);
    return true;
}

void
Cache::memResponse(MemPacket *fill)
{
    Addr line_addr = fill->token;
    Mshr *mshr = _mshrs.find(line_addr);
    panic_if(!mshr, "%s: fill for unknown line 0x%llx", name().c_str(),
             (unsigned long long)line_addr);

    bool dirty = false;
    for (const MemPacket *target : mshr->targets)
        dirty |= target->write;

    installLine(line_addr, dirty);

    for (MemPacket *target : mshr->targets)
        respondLater(target);
    _mshrs.release(line_addr);
    freePacket(fill);

    // The released MSHR is capacity a rejected upstream requestor may
    // have been waiting for.
    wakeUpstream();
}

void
Cache::installLine(Addr line_addr, bool dirty)
{
    // The first invalid way, else the least recently used; the first
    // way wins ties.
    const std::size_t first = setIndex(line_addr) * _params.assoc;
    std::size_t victim = first;
    for (std::size_t w = first; w < first + _params.assoc; ++w) {
        if (_tags[w] == invalidTag) {
            victim = w;
            break;
        }
        if (_lastUse[w] < _lastUse[victim])
            victim = w;
    }

    if (_tags[victim] != invalidTag && _dirty[victim]) {
        ++statWritebacks;
        auto *wb = sim().packetPool().alloc(
            _tags[victim], _params.lineSize, true, _params.trafficClass,
            AccessKind::Writeback, _params.requestorId, nullptr);
        pushDownstream(wb);
    }

    _tags[victim] = line_addr;
    _dirty[victim] = dirty;
    _lastUse[victim] = ++_useCounter;
}

void
Cache::pushDownstream(MemPacket *pkt)
{
    panic_if(!_downstream, "%s has no downstream sink", name().c_str());
    _sendQueue.push_back(pkt);
    if (!_downstreamBlocked && !_sendEvent.scheduled())
        schedule(_sendEvent, curTick());
}

void
Cache::drainSendQueue()
{
    if (_downstreamBlocked)
        return;
    bool drained = false;
    while (!_sendQueue.empty()) {
        if (!_downstream->offer(_sendQueue.front(), *this)) {
            // Downstream queued us; it calls retryRequest() when a
            // slot frees. No polling in the meantime.
            _downstreamBlocked = true;
            break;
        }
        _sendQueue.pop_front();
        drained = true;
    }
    if (drained)
        wakeUpstream();
}

void
Cache::retryRequest()
{
    _downstreamBlocked = false;
    drainSendQueue();
}

void
Cache::wakeUpstream()
{
    // Checked wake: a waiter can be re-rejected for a resource this
    // capacity test does not cover (a full MSHR target list), so an
    // unchecked loop would wake it forever.
    while (_mshrs.available() &&
           _sendQueue.size() < _params.sendQueueDepth &&
           wakeOneRetryChecked()) {
    }
}

void
Cache::hangDiagnostics(std::ostream &os) const
{
    if (!_downstreamBlocked && _sendQueue.empty() &&
        _mshrs.available() && !hasRetryWaiters())
        return;
    os << "mshrs_free=" << (_mshrs.available() ? "yes" : "no")
       << " send_queue=" << _sendQueue.size() << "/"
       << _params.sendQueueDepth
       << (_downstreamBlocked ? " BLOCKED on downstream" : "");
}

void
Cache::respondLater(MemPacket *pkt)
{
    Tick when = curTick() + _domain.cyclesToTicks(_params.hitLatency);
    queueResponse(pkt, when);
    // Queued responses are due no later than this one, so a pending
    // delivery event already fires first.
    if (!_respEvent.scheduled())
        schedule(_respEvent, when);
}

void
Cache::queueResponse(MemPacket *pkt, Tick when)
{
    panic_if(!_respQueue.empty() && when < _respQueue.back().when,
             "%s: response due at %llu precedes the queued one at %llu",
             name().c_str(), (unsigned long long)when,
             (unsigned long long)_respQueue.back().when);
    _respQueue.push_back({pkt, when});
}

void
Cache::deliverResponses()
{
    Tick now = curTick();
    while (!_respQueue.empty() && _respQueue.front().when <= now) {
        MemPacket *pkt = _respQueue.front().pkt;
        _respQueue.pop_front();
        completePacket(pkt);
    }
    if (!_respQueue.empty())
        schedule(_respEvent, _respQueue.front().when);
}

void
Cache::serialize(CheckpointIo &io)
{
    // An invalid way is written as tag 0, as it was stored before
    // the tag store carried an invalid sentinel. Saving decodes what
    // it encoded, which leaves the tag store as it was.
    const std::size_t ways = _tags.size();
    std::vector<std::uint64_t> valid(ways), tag(ways);
    for (std::size_t w = 0; w < ways; ++w) {
        valid[w] = _tags[w] != invalidTag;
        tag[w] = valid[w] ? _tags[w] : 0;
    }
    io.column("line.valid", valid);
    io.column("line.dirty", _dirty);
    io.column("line.tag", tag);
    io.column("line.last_use", _lastUse);
    for (std::size_t w = 0; w < ways; ++w) {
        fatal_if(valid[w] != 0 && tag[w] != lineAddrOf(tag[w]),
                 "%s: checkpointed line tag 0x%llx is not line-aligned",
                 name().c_str(), (unsigned long long)tag[w]);
        _tags[w] = valid[w] != 0 ? tag[w] : invalidTag;
    }
    io.scalar("use_counter", _useCounter);

    // Sorted by line address, so the same cache state always produces
    // byte-identical sections whichever slots the entries occupy.
    std::vector<Mshr *> mshrs = _mshrs.entries();
    io.sequence("num_mshrs", "mshr", mshrs,
                [&](const std::string &key, Mshr *&mshr) {
                    Addr line = mshr ? mshr->lineAddr : 0;
                    io.scalar(key + ".line_addr", line);
                    if (io.loading())
                        mshr = &_mshrs.allocate(line);
                    io.scalar(key + ".fill_sent", mshr->fillSent);
                    io.sequence(key + ".num_targets", key + ".t",
                                mshr->targets,
                                [&](const std::string &target,
                                    MemPacket *&pkt) {
                                    io.packet(target, pkt);
                                });
                });

    io.sequence("num_sends", "send", _sendQueue,
                [&](const std::string &key, MemPacket *&pkt) {
                    io.packet(key, pkt);
                });

    io.sequence(
        "num_resps", "resp", _respQueue,
        [&](const std::string &key, Response &entry) {
            io.scalar(key + ".when", entry.when);
            io.packet(key, entry.pkt);
        },
        [this](Response entry) { queueResponse(entry.pkt, entry.when); });

    io.scalar("downstream_blocked", _downstreamBlocked);
    retryList().serialize(io, "retry");
}

} // namespace emerald::cache
