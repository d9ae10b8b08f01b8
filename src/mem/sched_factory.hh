/**
 * @file
 * Factory registry for DRAM scheduling policies (--mem-sched).
 *
 * Rigs never construct a concrete DramScheduler directly (the
 * sched-factory rule of tools/emerald_analyze.py enforces this): they
 * describe the environment in a MemSchedContext and ask
 * createMemScheduler() for a bundle. A bundle owns the policy object
 * plus any shared coordinator the policy needs (DASH's cross-channel
 * state); policies without one leave the coordinator null.
 */

#ifndef EMERALD_MEM_SCHED_FACTORY_HH
#define EMERALD_MEM_SCHED_FACTORY_HH

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "mem/dash_scheduler.hh"
#include "mem/dram_channel.hh"

namespace emerald::mem
{

/** The --mem-sched policy used when none is requested. */
inline constexpr const char *defaultMemSchedPolicy = "frfcfs";

/** Everything a policy factory may need to build its bundle. */
struct MemSchedContext
{
    Simulation &sim;
    /** SimObject name for any coordinator the policy creates. */
    std::string coordinatorName = "dash";
    /** Tunables for the DASH family; ignored by simpler policies. */
    DashParams dashParams = {};
};

/** One constructed policy: the scheduler plus its shared state. */
struct MemSchedBundle
{
    /** Cross-channel coordinator, or null for stateless policies. */
    std::unique_ptr<DashCoordinator> coordinator;
    std::unique_ptr<DramScheduler> scheduler;
};

using MemSchedulerFactory =
    std::function<MemSchedBundle(const MemSchedContext &)>;

/**
 * Register a policy under @p policy (fatal on duplicates). Like the
 * warp-scheduler registry, registration happens lazily inside the
 * registry accessor — never via static initializers, which the linker
 * strips from static libraries.
 */
void registerMemScheduler(const std::string &policy,
                          MemSchedulerFactory factory);

/**
 * Construct the named policy. An empty @p policy selects
 * defaultMemSchedPolicy; an unknown name is fatal with a near-miss
 * suggestion.
 */
MemSchedBundle createMemScheduler(const std::string &policy,
                                  const MemSchedContext &ctx);

/** All registered policy names, sorted. */
std::vector<std::string> memSchedulerPolicies();

} // namespace emerald::mem

#endif // EMERALD_MEM_SCHED_FACTORY_HH
