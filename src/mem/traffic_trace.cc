#include "mem/traffic_trace.hh"

#include "sim/logging.hh"
#include "sim/serialize/checkpoint_io.hh"

namespace emerald::mem
{

namespace
{

/**
 * The trace, listed once: "meta" (format version, label, framebuffer
 * base, frame table, client count, records dropped before the first
 * frame), then a "client<i>" section per client holding its name and
 * one column per TraceTxn field, the frame, kind and write flag
 * packed as (frame << 32) | (kind << 8) | write.
 */
void
listTrace(const std::string &dir, TrafficTraceData &trace,
          const OpenSection &open)
{
    CheckpointIo meta = open("meta");
    std::uint64_t version = trafficTraceFormatVersion;
    meta.scalar("trace_version", version);
    fatal_if(version != trafficTraceFormatVersion,
             "traffic trace '%s': format version %llu, this build "
             "reads %llu",
             dir.c_str(), (unsigned long long)version,
             (unsigned long long)trafficTraceFormatVersion);
    meta.scalar("label", trace.label);
    meta.scalar("fb_base", trace.fbBase);
    meta.vector("frame_start", trace.frameStart);
    meta.vector("frame_end", trace.frameEnd);
    meta.vector("frame_work", trace.frameWork);
    const std::size_t frames = trace.frameWork.size();
    fatal_if(trace.frameStart.size() != frames ||
                 trace.frameEnd.size() != frames,
             "traffic trace '%s': inconsistent frame table",
             dir.c_str());
    std::uint64_t num_clients = trace.clients.size();
    meta.scalar("num_clients", num_clients);
    meta.scalar("dropped", trace.dropped);

    for (unsigned c = 0; c < num_clients; ++c) {
        CheckpointIo sec = open(strprintf("client%u", c));
        if (sec.loading())
            trace.clients.emplace_back();
        std::vector<TraceTxn> &txns = trace.clients[c].txns;
        sec.scalar("name", trace.clients[c].name);
        sec.vector("offsets", txns, &TraceTxn::offset);
        sec.column("addrs", txns, &TraceTxn::addr);
        sec.column(
            "meta", txns.size(),
            [&txns](std::size_t i) {
                return (static_cast<std::uint64_t>(txns[i].frame) << 32) |
                       (static_cast<std::uint64_t>(txns[i].kind) << 8) |
                       (txns[i].write ? 1 : 0);
            },
            [&](std::size_t i, std::uint64_t packed) {
                TraceTxn &txn = txns[i];
                txn.frame = static_cast<std::uint32_t>(packed >> 32);
                txn.kind = static_cast<AccessKind>((packed >> 8) & 0xff);
                txn.write = (packed & 1) != 0;
                fatal_if(txn.frame >= frames,
                         "traffic trace '%s': client %u record %zu "
                         "names frame %u of %zu",
                         dir.c_str(), c, i, txn.frame, frames);
            });
    }
}

} // namespace

TrafficTraceWriter::TrafficTraceWriter(std::string dir,
                                       std::string label, Addr fb_base)
    : _dir(std::move(dir))
{
    fatal_if(_dir.empty(), "traffic trace: empty capture directory");
    _trace.label = std::move(label);
    _trace.fbBase = fb_base;
}

TrafficTraceWriter::~TrafficTraceWriter()
{
    finalize();
}

unsigned
TrafficTraceWriter::addClient(const std::string &name)
{
    panic_if(_finalized, "traffic trace: addClient after finalize");
    _trace.clients.push_back({name, {}});
    return static_cast<unsigned>(_trace.clients.size() - 1);
}

void
TrafficTraceWriter::beginFrame(Tick now)
{
    panic_if(_finalized, "traffic trace: beginFrame after finalize");
    _trace.frameStart.push_back(now);
    _lastTick = now;
}

void
TrafficTraceWriter::endFrame(Tick now, double work)
{
    panic_if(_trace.frameEnd.size() >= _trace.frameStart.size(),
             "traffic trace: endFrame without beginFrame");
    _trace.frameEnd.push_back(now);
    _trace.frameWork.push_back(work);
    _lastTick = now;
}

void
TrafficTraceWriter::record(unsigned client, Tick now, Addr addr,
                           AccessKind kind, bool write)
{
    panic_if(client >= _trace.clients.size(),
             "traffic trace: record for unregistered client %u",
             client);
    if (_trace.frameStart.empty()) {
        ++_trace.dropped; // Traffic before the first frame opened.
        return;
    }
    auto frame = static_cast<std::uint32_t>(_trace.frameStart.size() - 1);
    Tick start = _trace.frameStart[frame];
    _trace.clients[client].txns.push_back(
        {now >= start ? now - start : 0, addr, frame, kind, write});
    ++_numRecords;
    if (now > _lastTick)
        _lastTick = now;
}

void
TrafficTraceWriter::finalize()
{
    if (_finalized)
        return;
    _finalized = true;
    fatal_if(_trace.frameEnd.size() != _trace.frameStart.size(),
             "traffic trace: %zu frame(s) never ended — capture "
             "stopped mid-frame?",
             _trace.frameStart.size() - _trace.frameEnd.size());

    // The trace rides the checkpoint container with fingerprint 0:
    // a trace is meant to replay under configurations (scheduler
    // policies) whose fingerprints differ from the capture run's.
    CheckpointWriter writer(_dir, 0, _lastTick, _numRecords);
    listTrace(_dir, _trace, [&writer](const std::string &name) {
        return CheckpointIo(writer.section(name));
    });
    writer.finalize();
}

TrafficTraceReader::TrafficTraceReader(const std::string &dir)
    : _dir(dir)
{
    CheckpointReader reader(dir);
    listTrace(dir, _trace, [&reader](const std::string &name) {
        return CheckpointIo(reader.section(name));
    });
}

std::uint64_t
TrafficTraceReader::numRecords() const
{
    std::uint64_t n = 0;
    for (const TrafficTraceData::Client &client : _trace.clients)
        n += client.txns.size();
    return n;
}

} // namespace emerald::mem
