/**
 * @file
 * Pluggable warp-scheduling policies for the SIMT cores.
 *
 * Each SimtCore scheduler lane owns a fixed, interleaved subset of the
 * warp slots (slot % schedulers == lane). A WarpScheduler ranks those
 * owned slots each cycle; the core walks the ranking and issues the
 * first warp that passes the eligibility and scoreboard checks, then
 * reports the choice back through issued().
 *
 * Policies are listed by name in a constant factory table
 * (warp_sched.cc; --warp-sched picks one at run time);
 * createWarpScheduler() is the only construction path, so adding a
 * policy is one table entry and never touches the core. Built in:
 *
 *   lrr   Loose round-robin over the owned slots — the default, and
 *         bit-identical in issue order to the core's original scan.
 *   gto   Greedy-then-oldest: stay on the last-issued warp while it
 *         remains ready, else fall back to the oldest resident warp.
 *   wasp  WaSP-style lookahead (PAPERS.md): warps closest to their
 *         next memory instruction issue first, mimicking a prefetcher
 *         by pulling memory traffic earlier into the frame.
 */

#ifndef EMERALD_GPU_WARP_SCHED_HH
#define EMERALD_GPU_WARP_SCHED_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "gpu/warp.hh"

namespace emerald::gpu
{

/** The --warp-sched policy used when none is requested. */
inline constexpr const char *defaultWarpSchedPolicy = "lrr";

class WarpScheduler
{
  public:
    WarpScheduler(std::vector<unsigned> owned, unsigned scheduler_id)
        : _owned(std::move(owned)), _id(scheduler_id)
    {}

    virtual ~WarpScheduler() = default;

    /**
     * Rank the owned slots for this cycle: fill @p out with every
     * owned slot, highest priority first. The core issues the first
     * entry that is eligible and scoreboard-ready; slots holding
     * invalid warps may appear anywhere (the core skips them).
     */
    virtual void order(const std::vector<Warp> &warps,
                       std::vector<unsigned> &out) = 0;

    /** The core issued from @p slot this cycle. */
    virtual void issued(unsigned slot) { (void)slot; }

    virtual const char *policyName() const = 0;

    /**
     * Policy-private cursor state for checkpointing (e.g. the LRR
     * rotation point). One u64 is enough for every built-in policy;
     * stateless policies keep the 0 default.
     */
    virtual std::uint64_t cursorState() const { return 0; }
    virtual void setCursorState(std::uint64_t state) { (void)state; }

  protected:
    /** Owned warp slots, ascending. */
    std::vector<unsigned> _owned;
    unsigned _id;
};

using WarpSchedulerFactory =
    std::function<std::unique_ptr<WarpScheduler>(
        std::vector<unsigned> owned, unsigned scheduler_id)>;

/**
 * Construct the named policy for one scheduler lane. An empty
 * @p policy selects defaultWarpSchedPolicy; an unknown name is fatal
 * with a near-miss suggestion.
 */
std::unique_ptr<WarpScheduler>
createWarpScheduler(const std::string &policy,
                    std::vector<unsigned> owned, unsigned scheduler_id);

/** Every policy name, sorted. */
std::vector<std::string> warpSchedulerPolicies();

} // namespace emerald::gpu

#endif // EMERALD_GPU_WARP_SCHED_HH
