/**
 * @file
 * Base class for named simulated components.
 *
 * A SimObject has a name, belongs to a Simulation, and owns a node in
 * the stats tree. It offers shortcuts for the common event-queue
 * operations so components do not have to thread the queue through
 * every call site.
 */

#ifndef EMERALD_SIM_SIM_OBJECT_HH
#define EMERALD_SIM_SIM_OBJECT_HH

#include <ostream>
#include <string>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/serialize/serialize.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace emerald
{

class MemClient;
class MemRequestor;
class Simulation;

/**
 * Base class of every named component in the simulated system.
 *
 * Every SimObject is Serializable: its name() is its checkpoint
 * section name. Stateful subclasses override serialize(CheckpointIo &);
 * tools/emerald_analyze.py flags ones that forget (the
 * serializable-coverage rule). Its name is unique within its
 * Simulation. Cross-object references that must survive a checkpoint
 * (pending events, response targets, retry waiters) are recorded in
 * the constructor via the registerCheckpoint*() helpers; a checkpoint
 * saves each as a name and resolves it against the recording objects
 * (Simulation::recorderOf, findObject, checkpointEvent).
 */
class SimObject : public StatGroup, public Serializable
{
  public:
    SimObject(Simulation &sim, const std::string &name);
    ~SimObject() override;

    SimObject(const SimObject &) = delete;
    SimObject &operator=(const SimObject &) = delete;

    const std::string &name() const { return _name; }
    Simulation &sim() { return _sim; }
    const Simulation &sim() const { return _sim; }

    /** Current simulated time. */
    Tick curTick() const { return _eq.curTick(); }

    /** Schedule @p ev at absolute tick @p when. */
    void schedule(Event &ev, Tick when) { _eq.schedule(ev, when); }

    /** Schedule @p ev @p delta ticks from now. */
    void
    scheduleIn(Event &ev, Tick delta)
    {
        _eq.schedule(ev, _eq.curTick() + delta);
    }

    /** Reschedule @p ev to absolute tick @p when. */
    void reschedule(Event &ev, Tick when) { _eq.reschedule(ev, when); }

    /** Deschedule @p ev if it is pending. */
    void
    descheduleIfPending(Event &ev)
    {
        if (ev.scheduled())
            _eq.deschedule(ev);
    }

    /**
     * Create sim.profile.<name()>.* counters that accumulate the
     * event count and process() wall time of every event named under
     * this object. Top-level components call this from their
     * constructor; the counters stay zero until profiling is enabled.
     */
    void registerProfileCounters();

    /**
     * Contribute one line to the watchdog's hang report: whatever
     * internal state explains why this component could be stuck
     * (queue depths, blocked flags, held packets). Write nothing when
     * there is nothing interesting to say — empty output is elided.
     */
    virtual void hangDiagnostics(std::ostream &os) const
    {
        (void)os;
    }

    /**
     * The watchdog detected a hang in degrade mode and force-woke all
     * parked waiters; shed load if possible (e.g. the display
     * controller abandons the in-flight frame). Default: do nothing.
     */
    virtual void onWatchdogDegrade() {}

    /** @{ The references this object recorded (see below). */
    const std::vector<Event *> &checkpointEvents() const
    {
        return _ckptEvents;
    }
    MemClient *checkpointClient() const { return _ckptClient; }
    MemRequestor *checkpointRequestor() const { return _ckptRequestor; }
    /** @} */

  protected:
    /**
     * Record @p ev so a checkpoint can re-schedule it by ev.name(),
     * which must be unique among recorded events. Every Event that
     * may be pending at a checkpoint must be recorded (saving with an
     * unrecorded pending event is fatal).
     */
    void registerCheckpointEvent(Event &ev);

    /** Record @p client; a checkpoint names it by this object. */
    void
    registerCheckpointClient(MemClient &client)
    {
        _ckptClient = &client;
    }

    /**
     * Record @p req; a checkpoint and the watchdog's hang report name
     * it by this object.
     */
    void
    registerCheckpointRequestor(MemRequestor &req)
    {
        _ckptRequestor = &req;
    }

  private:
    Simulation &_sim;
    /** _sim's queue, so the shortcuts above inline. */
    EventQueue &_eq;
    std::string _name;
    std::vector<Event *> _ckptEvents;
    MemClient *_ckptClient = nullptr;
    MemRequestor *_ckptRequestor = nullptr;
};

} // namespace emerald

#endif // EMERALD_SIM_SIM_OBJECT_HH
