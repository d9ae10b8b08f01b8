#include "sim/clocked.hh"

#include "sim/logging.hh"

namespace emerald
{

Clocked::Clocked(ClockDomain &domain, std::string name)
    : _domain(domain), _tickEvent(*this, std::move(name) + ".tick")
{
}

void
Clocked::activate()
{
    if (_tickEvent.scheduled())
        return;
    _domain.eventQueue().schedule(_tickEvent, _domain.clockEdge(0));
}

void
Clocked::TickEvent::process()
{
    _owner.processTick();
}

void
Clocked::processTick()
{
    // Every tick is scheduled on an edge (activate(), the re-arm below,
    // or a restore of a saved one), so the next edge is one period on.
    const Tick edge = _tickEvent.when();
#ifdef EMERALD_CHECKS
    panic_if(edge % _domain.period() != 0,
             "%s fired at %llu, off its %llu-tick clock edge",
             _tickEvent.name().c_str(), (unsigned long long)edge,
             (unsigned long long)_domain.period());
#endif
    if (tick())
        _domain.eventQueue().schedule(_tickEvent, edge + _domain.period());
}

} // namespace emerald
