#include "sim/sim_object.hh"

#include "sim/serialize/registry.hh"
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
    CheckpointRegistry &reg = _sim.checkpointRegistry();
    for (Event *ev : _ckptEvents)
        reg.unregisterEvent(*ev);
    if (_ckptClient)
        reg.unregisterClient(*_ckptClient);
    if (_ckptRequestor)
        reg.unregisterRequestor(*_ckptRequestor);
    _sim.unregisterObject(this);
}

void
SimObject::registerCheckpointEvent(Event &ev)
{
    _sim.checkpointRegistry().registerEvent(ev.name(), ev);
    _ckptEvents.push_back(&ev);
}

void
SimObject::registerCheckpointClient(MemClient &client)
{
    _sim.checkpointRegistry().registerClient(_name, client);
    _ckptClient = &client;
}

void
SimObject::registerCheckpointRequestor(MemRequestor &req)
{
    _sim.checkpointRegistry().registerRequestor(_name, req);
    _ckptRequestor = &req;
}

void
SimObject::registerProfileCounters()
{
    _sim.profiler().registerComponent(_name);
}

} // namespace emerald
