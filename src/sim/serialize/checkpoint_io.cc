#include "sim/serialize/checkpoint_io.hh"

#include "sim/packet.hh"
#include "sim/packet_pool.hh"
#include "sim/serialize/registry.hh"

namespace emerald
{

CheckpointIo::CheckpointIo(CheckpointOut &out,
                           const CheckpointRegistry &registry,
                           PacketPool &pool)
    : _out(&out), _registry(registry), _pool(pool)
{
}

CheckpointIo::CheckpointIo(CheckpointIn in,
                           const CheckpointRegistry &registry,
                           PacketPool &pool)
    : _in(std::move(in)), _registry(registry), _pool(pool)
{
}

void
CheckpointIo::packet(const std::string &prefix, MemPacket *&pkt)
{
    // Loading allocates the packet first and fills it in place.
    if (loading()) {
        pkt = _pool.alloc(Addr(0), 0u, false, TrafficClass::Cpu,
                          AccessKind::CpuData, 0);
    }
    scalar(prefix + ".addr", pkt->addr);
    scalar(prefix + ".size", pkt->size);
    scalar(prefix + ".write", pkt->write);
    enumeration(prefix + ".tclass", pkt->tclass, numTrafficClasses);
    enumeration(prefix + ".kind", pkt->kind,
                static_cast<std::uint64_t>(AccessKind::NumKinds));
    scalar(prefix + ".requestor_id", pkt->requestorId);
    std::string client =
        pkt->client ? _registry.clientName(*pkt->client) : std::string();
    scalar(prefix + ".client", client);
    if (loading())
        pkt->client = client.empty() ? nullptr : &_registry.client(client);
    scalar(prefix + ".token", pkt->token);
    scalar(prefix + ".issued", pkt->issued);
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
