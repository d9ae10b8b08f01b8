#include "mem/dram_channel.hh"

#include <algorithm>

#include "sim/logging.hh"
#include "sim/serialize/packet_serialize.hh"
#include "sim/serialize/registry.hh"
#include "sim/simulation.hh"

namespace emerald::mem
{

void
DramScheduler::serviced(const MemPacket &, Tick)
{
}

DramChannel::DramChannel(Simulation &sim, const std::string &name,
                         const DramGeometry &geom,
                         const DramTiming &timing,
                         DramScheduler &scheduler,
                         unsigned queue_capacity, Tick stats_bucket)
    : SimObject(sim, name),
      statRowHits(*this, "row_hits", "row buffer hits"),
      statRowClosedMisses(*this, "row_closed_misses",
                          "accesses to precharged banks"),
      statRowConflicts(*this, "row_conflicts",
                       "row buffer conflicts (precharge + activate)"),
      statBytesRead(*this, "bytes_read", "bytes read"),
      statBytesWritten(*this, "bytes_written", "bytes written"),
      statRequests(*this, "requests", "requests serviced"),
      statBytesPerActivation(*this, "bytes_per_act",
                             "bytes transferred per row activation"),
      statReadLatencyCpu(*this, "read_lat_cpu",
                         "CPU read latency (ticks)"),
      statReadLatencyGpu(*this, "read_lat_gpu",
                         "GPU read latency (ticks)"),
      statReadLatencyDisplay(*this, "read_lat_display",
                             "display read latency (ticks)"),
      statReadLatencyNpu(*this, "read_lat_npu",
                         "NPU read latency (ticks)"),
      statBwCpu(*this, "bw_cpu", "CPU bytes per bucket", stats_bucket),
      statBwGpu(*this, "bw_gpu", "GPU bytes per bucket", stats_bucket),
      statBwDisplay(*this, "bw_display", "display bytes per bucket",
                    stats_bucket),
      statBwNpu(*this, "bw_npu", "NPU bytes per bucket", stats_bucket),
      _geom(geom), _timing(timing), _scheduler(scheduler),
      _queueCapacity(queue_capacity),
      _banks(geom.banksPerChannel()),
      _retries(&sim.faultDomain()),
      _issueEvent([this] { tryIssue(); }, name + ".issue"),
      _completeEvent([this] { completeHead(); }, name + ".complete")
{
    _retries.setOwner(name);
    registerCheckpointEvent(_issueEvent);
    registerCheckpointEvent(_completeEvent);
}

bool
DramChannel::enqueue(MemPacket *pkt, const DecodedAddr &coord,
                     MemRequestor *req)
{
    EMERALD_CHECK_HOOK(offerStarted(&_retries, pkt));
    // This path bypasses MemSink::offer(), so it carries its own
    // offer-burst fault seam (only meaningful with a requestor to
    // park — probes passing req == nullptr just see the real queue).
    auto *inj = _retries.injector();
    bool force_reject =
        !full() && inj && req && inj->injectOfferReject(_retries, *req);
    if (full() || force_reject) {
        if (req) {
            EMERALD_CHECK_HOOK(offerRejected(&_retries, pkt, req));
            _retries.add(*req);
        }
        return false;
    }
    _queue.push_back({pkt, coord, curTick()});
    scheduleIssue(curTick());
    EMERALD_CHECK_HOOK(offerAccepted(&_retries, pkt));
    return true;
}

double
DramChannel::rowHitRate() const
{
    double total = statRowHits.value() + statRowClosedMisses.value() +
                   statRowConflicts.value();
    return total > 0.0 ? statRowHits.value() / total : 0.0;
}

void
DramChannel::scheduleIssue(Tick when)
{
    if (_issueEvent.scheduled()) {
        if (_issueEvent.when() > when)
            reschedule(_issueEvent, std::max(when, curTick()));
        return;
    }
    schedule(_issueEvent, std::max(when, curTick()));
}

void
DramChannel::scheduleCompletion()
{
    // A pending completion event serves the oldest in-flight request,
    // which completes no later than any other.
    if (!_inflight.empty() && !_completeEvent.scheduled())
        schedule(_completeEvent, _inflight.front().done);
}

Tick
DramChannel::service(const DramScheduler::QueueEntry &entry, Tick now,
                     RowBufferOutcome &outcome)
{
    BankState &bank = _banks[entry.coord.flatBank(_geom)];
    Tick cmd_ready = std::max(now, bank.readyTick);

    if (bank.open && bank.openRow == entry.coord.row) {
        outcome = RowBufferOutcome::Hit;
    } else {
        if (bank.open) {
            outcome = RowBufferOutcome::Conflict;
            // Respect tRAS before precharging, then precharge.
            Tick pre_start =
                std::max(cmd_ready, bank.activateTick + _timing.tRAS);
            cmd_ready = pre_start + _timing.tRP;
            statBytesPerActivation.sample(
                static_cast<double>(bank.bytesSinceActivate));
        } else {
            outcome = RowBufferOutcome::ClosedMiss;
        }
        // Activate the target row.
        bank.activateTick = cmd_ready;
        cmd_ready += _timing.tRCD;
        bank.open = true;
        bank.openRow = entry.coord.row;
        bank.bytesSinceActivate = 0;
    }

    // Column command: data appears after CAS latency, transfers on
    // the shared bus for tBURST.
    Tick data_start = std::max(cmd_ready + _timing.tCL, _busFreeTick);
    Tick done = data_start + _timing.tBURST;
    _busFreeTick = done;
    bank.readyTick = data_start;
    if (entry.pkt->write)
        bank.readyTick += _timing.tWR;
    bank.bytesSinceActivate += entry.pkt->size;
    return done;
}

void
DramChannel::tryIssue()
{
    if (_queue.empty())
        return;

    Tick now = curTick();
    if (_busFreeTick > now) {
        scheduleIssue(_busFreeTick);
        return;
    }

    // Fault seam: a dram-stall window freezes the issue path (refresh
    // storm / thermal throttle); re-arm at the window's end.
    if (auto *inj = sim().faultInjector()) {
        Tick until = inj->issueStallEnd(name(), now);
        if (until > now) {
            scheduleIssue(until);
            return;
        }
    }

    std::size_t idx = _scheduler.pick(*this, _queue, now);
    panic_if(idx >= _queue.size(), "scheduler picked out of range");
    DramScheduler::QueueEntry entry = _queue[idx];
    _queue.erase(_queue.begin() + static_cast<std::ptrdiff_t>(idx));

    RowBufferOutcome outcome = RowBufferOutcome::Hit;
    Tick done = service(entry, now, outcome);

    switch (outcome) {
      case RowBufferOutcome::Hit: ++statRowHits; break;
      case RowBufferOutcome::ClosedMiss: ++statRowClosedMisses; break;
      case RowBufferOutcome::Conflict: ++statRowConflicts; break;
    }

    MemPacket *pkt = entry.pkt;
    ++statRequests;
    if (pkt->write)
        statBytesWritten += pkt->size;
    else
        statBytesRead += pkt->size;

    switch (pkt->tclass) {
      case TrafficClass::Cpu:
        statBwCpu.add(done, pkt->size);
        if (!pkt->write)
            statReadLatencyCpu.sample(
                static_cast<double>(done - pkt->issued));
        break;
      case TrafficClass::Gpu:
        statBwGpu.add(done, pkt->size);
        if (!pkt->write)
            statReadLatencyGpu.sample(
                static_cast<double>(done - pkt->issued));
        break;
      case TrafficClass::Display:
        statBwDisplay.add(done, pkt->size);
        if (!pkt->write)
            statReadLatencyDisplay.sample(
                static_cast<double>(done - pkt->issued));
        break;
      case TrafficClass::Npu:
        statBwNpu.add(done, pkt->size);
        if (!pkt->write)
            statReadLatencyNpu.sample(
                static_cast<double>(done - pkt->issued));
        break;
    }

    _scheduler.serviced(*pkt, now);
    addInflight(pkt, done);
    scheduleCompletion();

    // The dequeued slot is capacity a rejected requestor was waiting
    // for; wake in FIFO order until the queue refills. Stop if a
    // woken requestor made no progress (re-registered itself), so the
    // loop terminates even under pathological retry behaviour.
    while (!full()) {
        std::size_t before = _retries.size();
        if (!_retries.wakeOne())
            break;
        if (_retries.size() >= before)
            break;
    }

    if (!_queue.empty())
        scheduleIssue(_busFreeTick);
}

void
DramChannel::hangDiagnostics(std::ostream &os) const
{
    if (_queue.empty() && _inflight.empty() && _retries.empty())
        return;
    os << "queue=" << _queue.size() << "/" << _queueCapacity
       << " inflight=" << _inflight.size()
       << " waiters=" << _retries.size()
       << " bus_free=" << _busFreeTick;
}

void
DramChannel::serialize(CheckpointOut &out) const
{
    const CheckpointRegistry &reg = sim().checkpointRegistry();

    out.putU64("num_queue", _queue.size());
    for (std::size_t i = 0; i < _queue.size(); ++i) {
        const DramScheduler::QueueEntry &entry = _queue[i];
        std::string prefix = strprintf("q%zu", i);
        putPacket(out, prefix, *entry.pkt, reg);
        out.putU64(prefix + ".coord.channel", entry.coord.channel);
        out.putU64(prefix + ".coord.rank", entry.coord.rank);
        out.putU64(prefix + ".coord.bank", entry.coord.bank);
        out.putU64(prefix + ".coord.row", entry.coord.row);
        out.putU64(prefix + ".coord.column", entry.coord.column);
        out.putTick(prefix + ".enqueued", entry.enqueued);
    }

    std::vector<std::uint64_t> open, open_row, ready, activate, bytes;
    open.reserve(_banks.size());
    for (const BankState &bank : _banks) {
        open.push_back(bank.open);
        open_row.push_back(bank.openRow);
        ready.push_back(bank.readyTick);
        activate.push_back(bank.activateTick);
        bytes.push_back(bank.bytesSinceActivate);
    }
    out.putU64Vec("bank.open", open);
    out.putU64Vec("bank.open_row", open_row);
    out.putU64Vec("bank.ready_tick", ready);
    out.putU64Vec("bank.activate_tick", activate);
    out.putU64Vec("bank.bytes_since_activate", bytes);
    out.putTick("bus_free_tick", _busFreeTick);

    out.putU64("num_inflight", _inflight.size());
    std::size_t i = 0;
    for (const InFlight &entry : _inflight) {
        std::string prefix = strprintf("in%zu", i++);
        out.putTick(prefix + ".when", entry.done);
        putPacket(out, prefix, *entry.pkt, reg);
    }

    _retries.serialize(out, "retry", reg);
}

void
DramChannel::unserialize(CheckpointIn &in)
{
    panic_if(!_queue.empty() || !_inflight.empty(),
             "%s: unserialize into a busy channel", name().c_str());
    const CheckpointRegistry &reg = sim().checkpointRegistry();
    PacketPool &pool = sim().packetPool();

    std::uint64_t num_queue = in.getU64("num_queue");
    for (std::uint64_t i = 0; i < num_queue; ++i) {
        std::string prefix = strprintf("q%llu", (unsigned long long)i);
        DramScheduler::QueueEntry entry;
        entry.pkt = getPacket(in, prefix, pool, reg);
        entry.coord.channel = static_cast<unsigned>(
            in.getU64(prefix + ".coord.channel"));
        entry.coord.rank = static_cast<unsigned>(
            in.getU64(prefix + ".coord.rank"));
        entry.coord.bank = static_cast<unsigned>(
            in.getU64(prefix + ".coord.bank"));
        entry.coord.row = in.getU64(prefix + ".coord.row");
        entry.coord.column = in.getU64(prefix + ".coord.column");
        entry.enqueued = in.getTick(prefix + ".enqueued");
        _queue.push_back(entry);
    }

    auto open = in.getU64Vec("bank.open");
    auto open_row = in.getU64Vec("bank.open_row");
    auto ready = in.getU64Vec("bank.ready_tick");
    auto activate = in.getU64Vec("bank.activate_tick");
    auto bytes = in.getU64Vec("bank.bytes_since_activate");
    fatal_if(open.size() != _banks.size(),
             "%s: checkpoint holds %zu banks but this configuration "
             "has %zu", name().c_str(), open.size(), _banks.size());
    for (std::size_t b = 0; b < _banks.size(); ++b) {
        _banks[b].open = open[b] != 0;
        _banks[b].openRow = open_row[b];
        _banks[b].readyTick = ready[b];
        _banks[b].activateTick = activate[b];
        _banks[b].bytesSinceActivate = bytes[b];
    }
    _busFreeTick = in.getTick("bus_free_tick");

    std::uint64_t num_inflight = in.getU64("num_inflight");
    for (std::uint64_t i = 0; i < num_inflight; ++i) {
        std::string prefix = strprintf("in%llu", (unsigned long long)i);
        Tick when = in.getTick(prefix + ".when");
        addInflight(getPacket(in, prefix, pool, reg), when);
    }

    _retries.unserialize(in, "retry", reg);
}

void
DramChannel::addInflight(MemPacket *pkt, Tick done)
{
    panic_if(!_inflight.empty() && done < _inflight.back().done,
             "%s: completion at %llu precedes the in-flight one at %llu",
             name().c_str(), (unsigned long long)done,
             (unsigned long long)_inflight.back().done);
    _inflight.push_back({pkt, done});
}

void
DramChannel::completeHead()
{
    Tick now = curTick();
    while (!_inflight.empty() && _inflight.front().done <= now) {
        MemPacket *pkt = _inflight.front().pkt;
        _inflight.pop_front();
        completePacket(pkt);
    }
    scheduleCompletion();
}

} // namespace emerald::mem
