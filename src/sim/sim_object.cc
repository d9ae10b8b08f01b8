#include "sim/sim_object.hh"

#include "sim/logging.hh"
#include "sim/simulation.hh"

namespace emerald
{

SimObject::SimObject(Simulation &sim, const std::string &name)
    : StatGroup(sim.statsRoot(), name), _sim(sim), _eq(sim.eventQueue()),
      _name(name)
{
    _sim.registerObject(this);
}

SimObject::~SimObject()
{
    _sim.unregisterObject(this);
}

void
SimObject::registerCheckpointEvent(Event &ev)
{
    panic_if(_sim.checkpointEvent(ev.name()),
             "checkpoint registry: duplicate event name '%s'",
             ev.name().c_str());
    _ckptEvents.push_back(&ev);
}

void
SimObject::registerProfileCounters()
{
    _sim.profiler().registerComponent(_name);
}

} // namespace emerald
