#include "sim/serialize/checkpoint_io.hh"

#include <bit>

#include "sim/packet.hh"
#include "sim/packet_pool.hh"
#include "sim/sim_object.hh"
#include "sim/simulation.hh"

namespace emerald
{

namespace
{

/** The record type a value of type @p S is stored as. */
template <class S>
constexpr RecordType recordType =
    std::is_same_v<S, bool> ? RecordType::Bool
    : std::is_same_v<S, std::int64_t> ? RecordType::I64
    : std::is_same_v<S, double> ? RecordType::F64
    : std::is_same_v<S, std::string> ? RecordType::Str
    : std::is_same_v<S, std::vector<std::uint64_t>> ? RecordType::U64Vec
    : std::is_same_v<S, std::vector<double>> ? RecordType::F64Vec
    : RecordType::U64;

/** A number's eight on-disk bytes, as one little-endian word. */
template <class T>
std::uint64_t
toWord(T v)
{
    if constexpr (std::is_same_v<T, double>)
        return std::bit_cast<std::uint64_t>(v);
    else
        return static_cast<std::uint64_t>(v);
}

template <class T>
T
fromWord(std::uint64_t word)
{
    if constexpr (std::is_same_v<T, double>)
        return std::bit_cast<double>(word);
    else
        return static_cast<T>(word);
}

} // namespace

CheckpointIo::CheckpointIo(CheckpointOut &out, Simulation *sim)
    : _out(&out), _sim(sim)
{
}

CheckpointIo::CheckpointIo(CheckpointIn in, Simulation *sim)
    : _in(std::move(in)), _sim(sim)
{
}

template <class S>
void
CheckpointIo::record(const std::string &key, S &v)
{
    // Bool: one byte. Str and the lists: a u32 length, then the bytes
    // or eight-byte words. Every other type: one eight-byte word.
    constexpr RecordType type = recordType<S>;
    if (!loading()) {
        std::string &buf = _out->record(key, type);
        if constexpr (type == RecordType::Bool) {
            buf.push_back(v ? 1 : 0);
        } else if constexpr (type == RecordType::Str) {
            appendLE(buf, v.size(), 4);
            buf.append(v);
        } else if constexpr (type == RecordType::U64Vec ||
                             type == RecordType::F64Vec) {
            appendLE(buf, v.size(), 4);
            for (auto x : v)
                appendLE(buf, toWord(x), 8);
        } else {
            appendLE(buf, toWord(v), 8);
        }
        return;
    }
    const std::string &p = _in->record(key, type);
    if constexpr (type == RecordType::Bool) {
        v = p[0] != 0;
    } else if constexpr (type == RecordType::Str) {
        v = p;
    } else if constexpr (type == RecordType::U64Vec ||
                         type == RecordType::F64Vec) {
        v.resize(p.size() / 8);
        for (std::size_t i = 0; i < v.size(); ++i)
            v[i] = fromWord<typename S::value_type>(readLE(&p[i * 8], 8));
    } else {
        v = fromWord<S>(readLE(p.data(), 8));
    }
}

template void CheckpointIo::record(const std::string &, std::uint64_t &);
template void CheckpointIo::record(const std::string &, std::int64_t &);
template void CheckpointIo::record(const std::string &, double &);
template void CheckpointIo::record(const std::string &, bool &);
template void CheckpointIo::record(const std::string &, std::string &);
template void CheckpointIo::record(const std::string &,
                                   std::vector<std::uint64_t> &);
template void CheckpointIo::record(const std::string &,
                                   std::vector<double> &);

void
CheckpointIo::bytes(const std::string &key, const void *data,
                    std::size_t n)
{
    std::string &buf = _out->record(key, RecordType::Blob);
    appendLE(buf, n, 4);
    buf.append(static_cast<const char *>(data), n);
}

const std::string &
CheckpointIo::bytes(const std::string &key) const
{
    return _in->record(key, RecordType::Blob);
}

Simulation &
CheckpointIo::sim() const
{
    panic_if(!_sim,
             "checkpoint section '%s' holds a packet or names an object "
             "but its io has no simulation", sectionName().c_str());
    return *_sim;
}

void
CheckpointIo::packet(const std::string &prefix, MemPacket *&pkt)
{
    // Loading allocates the packet first and fills it in place.
    if (loading()) {
        pkt = sim().packetPool().alloc(Addr(0), 0u, false,
                                       TrafficClass::Cpu,
                                       AccessKind::CpuData, 0);
    }
    scalar(prefix + ".addr", pkt->addr);
    scalar(prefix + ".size", pkt->size);
    scalar(prefix + ".write", pkt->write);
    enumeration(prefix + ".tclass", pkt->tclass, numTrafficClasses);
    enumeration(prefix + ".kind", pkt->kind,
                static_cast<std::uint64_t>(AccessKind::NumKinds));
    scalar(prefix + ".requestor_id", pkt->requestorId);
    reference(prefix + ".client", pkt->client);
    scalar(prefix + ".token", pkt->token);
    scalar(prefix + ".issued", pkt->issued);
}

void
CheckpointIo::reference(const std::string &key, MemClient *&client)
{
    std::string name;
    if (!loading() && client) {
        const SimObject *obj = sim().recorderOf(*client);
        fatal_if(!obj,
                 "checkpoint: in-flight packet references an "
                 "unregistered MemClient — every response target must "
                 "call registerCheckpointClient()");
        name = obj->name();
    }
    scalar(key, name);
    if (!loading())
        return;
    const SimObject *obj = name.empty() ? nullptr : sim().findObject(name);
    client = obj ? obj->checkpointClient() : nullptr;
    fatal_if(!name.empty() && !client,
             "checkpoint restore: no MemClient named '%s' in this "
             "topology", name.c_str());
}

void
CheckpointIo::reference(const std::string &key, MemRequestor *&req)
{
    std::string name;
    if (!loading()) {
        const SimObject *obj = sim().recorderOf(*req);
        fatal_if(!obj,
                 "checkpoint: parked retry waiter is an unregistered "
                 "MemRequestor — every requestor that can block must "
                 "call registerCheckpointRequestor()");
        name = obj->name();
    }
    scalar(key, name);
    if (!loading())
        return;
    const SimObject *obj = sim().findObject(name);
    req = obj ? obj->checkpointRequestor() : nullptr;
    fatal_if(!req,
             "checkpoint restore: no MemRequestor named '%s' in this "
             "topology", name.c_str());
}

const std::string &
CheckpointIo::sectionName() const
{
    return _out ? _out->sectionName() : _in->sectionName();
}

void
CheckpointIo::checkLength(const std::string &key, std::size_t stored,
                          std::size_t live) const
{
    fatal_if(stored != live,
             "checkpoint section '%s': '%s' holds %zu entries but this "
             "configuration has %zu", sectionName().c_str(), key.c_str(),
             stored, live);
}

} // namespace emerald
