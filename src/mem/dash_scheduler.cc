#include "mem/dash_scheduler.hh"

#include <algorithm>
#include <numeric>

#include "mem/frfcfs_scheduler.hh"
#include "sim/logging.hh"
#include "sim/simulation.hh"

namespace emerald::mem
{

DashCoordinator::DashCoordinator(Simulation &sim, const std::string &name,
                                 const DashParams &params)
    : SimObject(sim, name), _params(params),
      _cpuBytesThisQuantum(params.numCpuCores, 0),
      _cpuIsIntensive(params.numCpuCores, false),
      _p(params.initialP), _rng(params.seed),
      _switchEvent([this] { switchingTick(); }, name + ".switch"),
      _quantumEvent([this] { quantumTick(); }, name + ".quantum")
{
    registerCheckpointEvent(_switchEvent);
    registerCheckpointEvent(_quantumEvent);
    scheduleIn(_switchEvent, _params.switchingUnit);
    scheduleIn(_quantumEvent, _params.quantum);
}

int
DashCoordinator::registerIp(const std::string &ip_name,
                            TrafficClass tclass,
                            double emergent_threshold)
{
    panic_if(tclass == TrafficClass::Cpu, "CPUs are not DASH IPs");
    IpState state;
    state.name = ip_name;
    state.tclass = tclass;
    state.emergentThreshold = emergent_threshold;
    _ips.push_back(state);
    int id = static_cast<int>(_ips.size()) - 1;
    _ipOfClass[static_cast<int>(tclass)] = id;
    return id;
}

void
DashCoordinator::beginIpPeriod(int ip, Tick period, double total_work)
{
    IpState &state = _ips.at(static_cast<std::size_t>(ip));
    state.active = true;
    state.periodStart = curTick();
    state.period = period;
    state.workTotal = total_work;
    state.workDone = 0.0;
}

void
DashCoordinator::addIpProgress(int ip, double work_done)
{
    _ips.at(static_cast<std::size_t>(ip)).workDone += work_done;
}

void
DashCoordinator::endIpPeriod(int ip)
{
    _ips.at(static_cast<std::size_t>(ip)).active = false;
}

bool
DashCoordinator::ipUrgent(int ip, Tick now) const
{
    const IpState &state = _ips.at(static_cast<std::size_t>(ip));
    if (!state.active || state.period == 0 || state.workTotal <= 0.0)
        return false;
    double expected =
        std::min(1.0, static_cast<double>(now - state.periodStart) /
                          static_cast<double>(state.period));
    // Grace window: an IP that has barely entered its period is not
    // behind yet (avoids flagging every frame urgent at t=0+).
    if (expected < 0.02)
        return false;
    double actual = state.workDone / state.workTotal;
    return actual < state.emergentThreshold * expected;
}

DashCoordinator::Levels
DashCoordinator::levelsAt(Tick now) const
{
    // Urgent IPs 0, non-intensive CPU cores 1; the switch decides
    // whether intensive CPU cores or non-urgent IPs take level 2.
    Levels levels;
    levels.dash = this;
    levels.intensiveCpu = _favourIntensiveCpu ? 2 : 3;
    for (int c = 0; c < 4; ++c) {
        int ip = _ipOfClass[c];
        levels.ofClass[c] = ip >= 0 && ipUrgent(ip, now)
                                ? 0
                                : (_favourIntensiveCpu ? 3 : 2);
    }
    return levels;
}

void
DashCoordinator::serviced(const MemPacket &pkt, Tick now)
{
    if (pkt.tclass == TrafficClass::Cpu) {
        auto core = static_cast<unsigned>(pkt.requestorId);
        if (core < _cpuBytesThisQuantum.size())
            _cpuBytesThisQuantum[core] += pkt.size;
        if (cpuIntensive(core))
            ++_servedIntensiveCpu;
    } else {
        int ip = _ipOfClass[static_cast<int>(pkt.tclass)];
        if (ip >= 0) {
            _ips[static_cast<std::size_t>(ip)].bytesThisQuantum +=
                pkt.size;
            if (!ipUrgent(ip, now))
                ++_servedNonUrgentIp;
        }
    }
}

void
DashCoordinator::switchingTick()
{
    // Balance service between intensive CPU cores and non-urgent IPs
    // by steering the switch probability toward the starved side.
    if (_servedIntensiveCpu < _servedNonUrgentIp)
        _p = std::min(0.95, _p + _params.pStep);
    else if (_servedIntensiveCpu > _servedNonUrgentIp)
        _p = std::max(0.05, _p - _params.pStep);
    _servedIntensiveCpu = 0;
    _servedNonUrgentIp = 0;
    _favourIntensiveCpu = _rng.chance(_p);
    scheduleIn(_switchEvent, _params.switchingUnit);
}

void
DashCoordinator::recluster()
{
    std::uint64_t cpu_total = std::accumulate(
        _cpuBytesThisQuantum.begin(), _cpuBytesThisQuantum.end(),
        std::uint64_t(0));
    std::uint64_t total = cpu_total;
    if (_params.useTotalBandwidth) {
        for (const IpState &ip : _ips)
            total += ip.bytesThisQuantum;
    }

    // TCM-style clustering: walk cores from lightest to heaviest;
    // cores within the first clusterThresh fraction of the total
    // bandwidth form the latency-sensitive (non-intensive) cluster.
    std::vector<unsigned> order(_cpuBytesThisQuantum.size());
    std::iota(order.begin(), order.end(), 0u);
    std::stable_sort(order.begin(), order.end(),
                     [this](unsigned a, unsigned b) {
                         return _cpuBytesThisQuantum[a] <
                                _cpuBytesThisQuantum[b];
                     });

    double budget = _params.clusterThresh * static_cast<double>(total);
    double used = 0.0;
    for (unsigned core : order) {
        used += static_cast<double>(_cpuBytesThisQuantum[core]);
        _cpuIsIntensive[core] = used > budget;
    }

    for (auto &bytes : _cpuBytesThisQuantum)
        bytes = 0;
    for (IpState &ip : _ips)
        ip.bytesThisQuantum = 0;
}

void
DashCoordinator::quantumTick()
{
    recluster();
    scheduleIn(_quantumEvent, _params.quantum);
}

void
DashCoordinator::shutdown()
{
    descheduleIfPending(_switchEvent);
    descheduleIfPending(_quantumEvent);
}

void
DashCoordinator::serialize(CheckpointOut &out) const
{
    out.putU64("num_ips", _ips.size());
    for (std::size_t i = 0; i < _ips.size(); ++i) {
        const IpState &ip = _ips[i];
        std::string prefix = strprintf("ip%zu", i);
        out.putStr(prefix + ".name", ip.name);
        out.putBool(prefix + ".active", ip.active);
        out.putTick(prefix + ".period_start", ip.periodStart);
        out.putTick(prefix + ".period", ip.period);
        out.putF64(prefix + ".work_total", ip.workTotal);
        out.putF64(prefix + ".work_done", ip.workDone);
        out.putU64(prefix + ".bytes_this_quantum",
                   ip.bytesThisQuantum);
    }

    out.putU64Vec("cpu_bytes_this_quantum", _cpuBytesThisQuantum);
    std::vector<std::uint64_t> intensive(_cpuIsIntensive.begin(),
                                         _cpuIsIntensive.end());
    out.putU64Vec("cpu_is_intensive", intensive);

    out.putBool("favour_intensive_cpu", _favourIntensiveCpu);
    out.putF64("p", _p);
    out.putU64("served_intensive_cpu", _servedIntensiveCpu);
    out.putU64("served_non_urgent_ip", _servedNonUrgentIp);

    auto rng = _rng.state();
    out.putU64Vec("rng", {rng[0], rng[1], rng[2], rng[3]});
}

void
DashCoordinator::unserialize(CheckpointIn &in)
{
    // IPs are registered during topology construction; the checkpoint
    // only carries their dynamic progress.
    std::uint64_t num_ips = in.getU64("num_ips");
    fatal_if(num_ips != _ips.size(),
             "%s: checkpoint holds %llu DASH IPs but this "
             "configuration registered %zu",
             name().c_str(), (unsigned long long)num_ips, _ips.size());
    for (std::size_t i = 0; i < _ips.size(); ++i) {
        IpState &ip = _ips[i];
        std::string prefix = strprintf("ip%zu", i);
        std::string saved_name = in.getStr(prefix + ".name");
        fatal_if(saved_name != ip.name,
                 "%s: checkpoint IP %zu is '%s' but this run "
                 "registered '%s'", name().c_str(), i,
                 saved_name.c_str(), ip.name.c_str());
        ip.active = in.getBool(prefix + ".active");
        ip.periodStart = in.getTick(prefix + ".period_start");
        ip.period = in.getTick(prefix + ".period");
        ip.workTotal = in.getF64(prefix + ".work_total");
        ip.workDone = in.getF64(prefix + ".work_done");
        ip.bytesThisQuantum = in.getU64(prefix + ".bytes_this_quantum");
    }

    _cpuBytesThisQuantum = in.getU64Vec("cpu_bytes_this_quantum");
    auto intensive = in.getU64Vec("cpu_is_intensive");
    fatal_if(_cpuBytesThisQuantum.size() != _cpuIsIntensive.size() ||
             intensive.size() != _cpuIsIntensive.size(),
             "%s: checkpoint CPU core count mismatch", name().c_str());
    for (std::size_t c = 0; c < intensive.size(); ++c)
        _cpuIsIntensive[c] = intensive[c] != 0;

    _favourIntensiveCpu = in.getBool("favour_intensive_cpu");
    _p = in.getF64("p");
    _servedIntensiveCpu = in.getU64("served_intensive_cpu");
    _servedNonUrgentIp = in.getU64("served_non_urgent_ip");

    auto rng = in.getU64Vec("rng");
    fatal_if(rng.size() != 4, "%s: bad rng state", name().c_str());
    _rng.setState({rng[0], rng[1], rng[2], rng[3]});
}

std::size_t
DashScheduler::pick(const DramChannel &channel,
                    const std::vector<QueueEntry> &queue, Tick now)
{
    const DashCoordinator::Levels levels = _coordinator.levelsAt(now);
    _levels.clear();
    int best = 4;
    for (const QueueEntry &entry : queue) {
        _levels.push_back(levels.of(*entry.pkt));
        best = std::min(best, _levels.back());
    }

    std::size_t choice = FrfcfsScheduler::pickAmong(
        channel, queue, [&](std::size_t i) { return _levels[i] == best; });
    panic_if(choice >= queue.size(), "DASH found no eligible request");
    return choice;
}

void
DashScheduler::serviced(const MemPacket &pkt, Tick now)
{
    _coordinator.serviced(pkt, now);
}

} // namespace emerald::mem
