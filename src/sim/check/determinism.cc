#include "sim/check/determinism.hh"

#include "sim/serialize/checkpoint_io.hh"

namespace emerald::check
{

void
DeterminismVerifier::onEvent(const std::string &name, Tick when,
                             int priority, std::uint64_t wall_ns)
{
    // wall_ns is deliberately excluded: wall-clock cost differs
    // between runs of an identical simulation.
    (void)wall_ns;
    std::uint64_t tick = when;
    std::int64_t prio = priority;
    _hash = fnv1a(_hash, &tick, sizeof(tick));
    _hash = fnv1a(_hash, name);
    _hash = fnv1a(_hash, &prio, sizeof(prio));
    ++_numEvents;
    // Scalars hold doubles; fold to 53 bits so the stat is exact.
    _hashStat = static_cast<double>(_hash & ((1ULL << 53) - 1));
}

void
DeterminismVerifier::serialize(CheckpointIo &io)
{
    io.scalar("hash", _hash);
    io.scalar("num_events", _numEvents);
}

} // namespace emerald::check
