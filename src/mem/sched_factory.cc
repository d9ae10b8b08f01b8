#include "mem/sched_factory.hh"

#include <map>

#include "mem/frfcfs_scheduler.hh"
#include "sim/logging.hh"
#include "sim/nearest.hh"

namespace emerald::mem
{

namespace
{

using Registry = std::map<std::string, MemSchedulerFactory>;

/** Every policy by name: a constant table, built on first use. */
const Registry &
registry()
{
    static const Registry reg = {
        {"frfcfs",
         [](const MemSchedContext &) {
             MemSchedBundle bundle;
             bundle.scheduler = std::make_unique<FrfcfsScheduler>();
             return bundle;
         }},
        {"dash",
         [](const MemSchedContext &ctx) {
             MemSchedBundle bundle;
             bundle.coordinator = std::make_unique<DashCoordinator>(
                 ctx.sim, ctx.coordinatorName, ctx.dashParams);
             bundle.scheduler =
                 std::make_unique<DashScheduler>(*bundle.coordinator);
             return bundle;
         }},
    };
    return reg;
}

} // namespace

MemSchedBundle
createMemScheduler(const std::string &policy, const MemSchedContext &ctx)
{
    const std::string &name =
        policy.empty() ? defaultMemSchedPolicy : policy;
    auto it = registry().find(name);
    if (it == registry().end())
        fatalUnknownName("memory scheduler policy", name,
                         memSchedulerPolicies());
    MemSchedBundle bundle = it->second(ctx);
    fatal_if(!bundle.scheduler,
             "memory scheduler policy '%s' built no scheduler",
             name.c_str());
    return bundle;
}

std::vector<std::string>
memSchedulerPolicies()
{
    std::vector<std::string> names;
    for (const auto &[name, factory] : registry())
        names.push_back(name);
    return names;
}

} // namespace emerald::mem
