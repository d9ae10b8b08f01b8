/**
 * @file
 * Clock domains and cycle-ticked components.
 *
 * A ClockDomain converts between ticks and cycles for one frequency.
 * Clocked is the base class for components that do work every cycle
 * while active: subclasses implement tick() and return whether they
 * still have work; idle components consume no events.
 */

#ifndef EMERALD_SIM_CLOCKED_HH
#define EMERALD_SIM_CLOCKED_HH

#include <string>

#include "sim/event_queue.hh"
#include "sim/types.hh"

namespace emerald
{

/** One clock frequency, shared by any number of components. */
class ClockDomain
{
  public:
    ClockDomain(EventQueue &eq, Tick period, std::string name)
        : _eq(eq), _period(period), _name(std::move(name))
    {}

    Tick period() const { return _period; }
    const std::string &name() const { return _name; }
    EventQueue &eventQueue() { return _eq; }

    /** Cycle count of the last edge at or before curTick. */
    Cycle
    curCycle() const
    {
        return _eq.curTick() / _period;
    }

    /**
     * The tick of the clock edge @p cycles_ahead full cycles after the
     * next edge at or after curTick. clockEdge(0) is "now" when curTick
     * is exactly on an edge.
     */
    Tick
    clockEdge(Cycle cycles_ahead = 0) const
    {
        Tick now = _eq.curTick();
        Tick aligned = divCeil(now, _period) * _period;
        return aligned + cycles_ahead * _period;
    }

    /** Ticks from now until @p cycles cycles have elapsed. */
    Tick
    cyclesToTicks(Cycle cycles) const
    {
        return cycles * _period;
    }

  private:
    EventQueue &_eq;
    Tick _period;
    std::string _name;
};

/**
 * Base class for components that are stepped once per clock cycle
 * while they have work to do.
 */
class Clocked
{
  public:
    Clocked(ClockDomain &domain, std::string name);
    virtual ~Clocked() = default;

    Clocked(const Clocked &) = delete;
    Clocked &operator=(const Clocked &) = delete;

    /**
     * Make sure the component is ticking. Idempotent; safe to call
     * from any event context.
     */
    void activate();

    /** True when a tick is pending. */
    bool active() const { return _tickEvent.scheduled(); }

    ClockDomain &clockDomain() { return _domain; }

    /** Current cycle in this component's domain. */
    Cycle curCycle() const { return _domain.curCycle(); }

    /**
     * The per-cycle tick event, exposed so Clocked SimObjects can
     * register it for checkpointing (a scheduled tick event is what
     * "active" means, so restoring it restores activity).
     */
    Event &tickEvent() { return _tickEvent; }

  protected:
    /**
     * Do one cycle of work.
     * @return true to keep ticking next cycle, false to go idle
     *         (activate() restarts the component).
     */
    virtual bool tick() = 0;

  private:
    /** The tick event: calls processTick() with no std::function. */
    class TickEvent final : public Event
    {
      public:
        TickEvent(Clocked &owner, std::string name)
            : Event(clockPriority), _owner(owner), _name(std::move(name))
        {}

        void process() override;
        const std::string &name() const override { return _name; }

      private:
        Clocked &_owner;
        std::string _name;
    };

    /** tick(), then re-arm one period after this edge. */
    void processTick();

    ClockDomain &_domain;
    TickEvent _tickEvent;
};

} // namespace emerald

#endif // EMERALD_SIM_CLOCKED_HH
