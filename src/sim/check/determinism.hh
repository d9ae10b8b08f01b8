/**
 * @file
 * Order-sensitive hash of the processed event stream, for O(1)
 * determinism diffing between runs.
 *
 * Two runs of the same configuration and seed must process exactly
 * the same (tick, event-name, priority) sequence; wall-clock cost is
 * excluded because it never repeats. The FNV-1a hash folds the whole
 * stream into one value exposed as sim.check.event_hash, so comparing
 * two multi-million-event runs is a single number diff instead of a
 * trace diff. Enabled with --check-determinism (any build type): it
 * rides the EventQueue's instrument branch, so runs without it pay
 * nothing.
 */

#ifndef EMERALD_SIM_CHECK_DETERMINISM_HH
#define EMERALD_SIM_CHECK_DETERMINISM_HH

#include <cstdint>
#include <string>

#include "sim/event_queue.hh"
#include "sim/fnv.hh"
#include "sim/stats.hh"

namespace emerald::check
{

/** Streams every processed event into one order-sensitive FNV hash. */
class DeterminismVerifier : public EventInstrument
{
  public:
    /** Mirrors the running hash into @p hash_stat (53-bit fold). */
    explicit DeterminismVerifier(Scalar &hash_stat)
        : _hashStat(hash_stat)
    {
    }

    void onEvent(const std::string &name, Tick when, int priority,
                 std::uint64_t wall_ns) override;

    /** Full 64-bit stream hash (the stat holds a 53-bit fold). */
    std::uint64_t hash() const { return _hash; }

    /** The hash reads no clock: wall time is not part of it. */
    bool timed() const override { return false; }

    /**
     * Checkpoint the running hash. A restored verifier continues
     * folding from the cold run's prefix, so the final hash of a
     * restored run equals the cold run's iff the measured-region
     * event streams are identical (the warm-start oracle). The hash
     * stat is restored with the stats tree.
     */
    void serialize(CheckpointIo &io);

  private:
    std::uint64_t _hash = fnvOffsetBasis;
    std::uint64_t _numEvents = 0;
    Scalar &_hashStat;
};

} // namespace emerald::check

#endif // EMERALD_SIM_CHECK_DETERMINISM_HH
