#include "sim/clocked.hh"

namespace emerald
{

Clocked::Clocked(ClockDomain &domain, std::string name)
    : _domain(domain),
      _tickEvent([this] { processTick(); }, std::move(name) + ".tick",
                 Event::clockPriority)
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
Clocked::processTick()
{
    bool more = tick();
    if (more) {
        _domain.eventQueue().schedule(_tickEvent, _domain.clockEdge(1));
    }
}

} // namespace emerald
