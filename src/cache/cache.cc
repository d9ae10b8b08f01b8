#include "cache/cache.hh"

#include <bit>

#include "sim/logging.hh"
#include "sim/serialize/packet_serialize.hh"
#include "sim/serialize/registry.hh"
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
Cache::serialize(CheckpointOut &out) const
{
    const CheckpointRegistry &reg = sim().checkpointRegistry();

    // An invalid way is written as tag 0, as it was stored before
    // the tag store carried an invalid sentinel.
    std::vector<std::uint64_t> valid, dirty, tag, last_use;
    valid.reserve(_tags.size());
    for (std::size_t w = 0; w < _tags.size(); ++w) {
        const bool is_valid = _tags[w] != invalidTag;
        valid.push_back(is_valid);
        dirty.push_back(_dirty[w]);
        tag.push_back(is_valid ? _tags[w] : 0);
        last_use.push_back(_lastUse[w]);
    }
    out.putU64Vec("line.valid", valid);
    out.putU64Vec("line.dirty", dirty);
    out.putU64Vec("line.tag", tag);
    out.putU64Vec("line.last_use", last_use);
    out.putU64("use_counter", _useCounter);

    // Sorted by line address, so the same cache state always produces
    // byte-identical sections whichever slots the entries occupy.
    std::vector<const Mshr *> mshrs = _mshrs.entries();
    out.putU64("num_mshrs", mshrs.size());
    for (std::size_t i = 0; i < mshrs.size(); ++i) {
        const Mshr &mshr = *mshrs[i];
        std::string prefix = strprintf("mshr%zu", i);
        out.putU64(prefix + ".line_addr", mshr.lineAddr);
        out.putBool(prefix + ".fill_sent", mshr.fillSent);
        out.putU64(prefix + ".num_targets", mshr.targets.size());
        for (std::size_t j = 0; j < mshr.targets.size(); ++j) {
            putPacket(out, prefix + strprintf(".t%zu", j),
                      *mshr.targets[j], reg);
        }
    }

    out.putU64("num_sends", _sendQueue.size());
    for (std::size_t i = 0; i < _sendQueue.size(); ++i)
        putPacket(out, strprintf("send%zu", i), *_sendQueue[i], reg);

    out.putU64("num_resps", _respQueue.size());
    std::size_t i = 0;
    for (const Response &entry : _respQueue) {
        std::string prefix = strprintf("resp%zu", i++);
        out.putTick(prefix + ".when", entry.when);
        putPacket(out, prefix, *entry.pkt, reg);
    }

    out.putBool("downstream_blocked", _downstreamBlocked);
    retryList().serialize(out, "retry", reg);
}

void
Cache::unserialize(CheckpointIn &in)
{
    panic_if(_mshrs.inUse() || !_sendQueue.empty() ||
             !_respQueue.empty(),
             "%s: unserialize into a non-empty cache", name().c_str());
    const CheckpointRegistry &reg = sim().checkpointRegistry();
    PacketPool &pool = sim().packetPool();

    auto valid = in.getU64Vec("line.valid");
    auto dirty = in.getU64Vec("line.dirty");
    auto tag = in.getU64Vec("line.tag");
    auto last_use = in.getU64Vec("line.last_use");
    fatal_if(valid.size() != _tags.size() ||
                 dirty.size() != _tags.size() ||
                 tag.size() != _tags.size() ||
                 last_use.size() != _tags.size(),
             "%s: checkpoint holds %zu cache lines but this "
             "configuration has %zu",
             name().c_str(), valid.size(), _tags.size());
    for (std::size_t w = 0; w < _tags.size(); ++w) {
        fatal_if(valid[w] != 0 && tag[w] != lineAddrOf(tag[w]),
                 "%s: checkpointed line tag 0x%llx is not line-aligned",
                 name().c_str(), (unsigned long long)tag[w]);
        _tags[w] = valid[w] != 0 ? tag[w] : invalidTag;
        _dirty[w] = dirty[w] != 0;
        _lastUse[w] = last_use[w];
    }
    _useCounter = in.getU64("use_counter");

    std::uint64_t num_mshrs = in.getU64("num_mshrs");
    for (std::uint64_t i = 0; i < num_mshrs; ++i) {
        std::string prefix = strprintf("mshr%llu",
                                       (unsigned long long)i);
        Mshr &mshr = _mshrs.allocate(in.getU64(prefix + ".line_addr"));
        mshr.fillSent = in.getBool(prefix + ".fill_sent");
        std::uint64_t targets = in.getU64(prefix + ".num_targets");
        for (std::uint64_t j = 0; j < targets; ++j) {
            mshr.targets.push_back(
                getPacket(in, prefix + strprintf(".t%llu",
                                                 (unsigned long long)j),
                          pool, reg));
        }
    }

    std::uint64_t num_sends = in.getU64("num_sends");
    for (std::uint64_t i = 0; i < num_sends; ++i) {
        _sendQueue.push_back(
            getPacket(in, strprintf("send%llu", (unsigned long long)i),
                      pool, reg));
    }

    std::uint64_t num_resps = in.getU64("num_resps");
    for (std::uint64_t i = 0; i < num_resps; ++i) {
        std::string prefix = strprintf("resp%llu",
                                       (unsigned long long)i);
        Tick when = in.getTick(prefix + ".when");
        queueResponse(getPacket(in, prefix, pool, reg), when);
    }

    _downstreamBlocked = in.getBool("downstream_blocked");
    retryList().unserialize(in, "retry", reg);
}

} // namespace emerald::cache
