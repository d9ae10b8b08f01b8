/**
 * @file
 * Discrete event queue at the heart of the simulator.
 *
 * Components own Event objects (usually EventFunction members bound to
 * a callback) and schedule them on the queue. Events at the same tick
 * fire in (priority, scheduling-order) order, which keeps simulations
 * deterministic (docs/scheduling.md, "Event queue").
 */

#ifndef EMERALD_SIM_EVENT_QUEUE_HH
#define EMERALD_SIM_EVENT_QUEUE_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace emerald
{

class EventQueue;

/**
 * Observer hooked into EventQueue::runOne(). When installed, the queue
 * reports each processed event here, timing its Event::process() call
 * when the instrument asks for wall time — the basis of the
 * Chrome-trace EventTracer and the sim.profile.* counters. When no
 * instrument is installed the cost is a single branch per event.
 */
class EventInstrument
{
  public:
    virtual ~EventInstrument() = default;

    /**
     * One event was processed.
     * @param name the event's name.
     * @param when the simulated tick the event fired at.
     * @param priority the event's tie-break priority.
     * @param wall_ns wall-clock nanoseconds spent inside process(),
     *        or 0 when the installed instrument is not timed().
     */
    virtual void onEvent(const std::string &name, Tick when,
                         int priority, std::uint64_t wall_ns) = 0;

    /** Whether onEvent() needs wall_ns; asked at setInstrument(). */
    virtual bool timed() const { return true; }
};

/**
 * An abstract schedulable event. Events are owned by their component;
 * the queue never deletes them. One Event object can be scheduled at
 * most once at a time (use reschedule to move it).
 */
class Event
{
  public:
    /** Priorities break ties between events at the same tick. */
    enum Priority : int
    {
        /** Clock ticks run before ordinary events at the same tick. */
        clockPriority = -10,
        defaultPriority = 0,
        /** Stat sampling runs after ordinary events at the same tick. */
        statsPriority = 10,
    };

    explicit Event(int priority = defaultPriority)
        : _priority(priority)
    {}

    virtual ~Event() = default;

    Event(const Event &) = delete;
    Event &operator=(const Event &) = delete;

    /** Invoked by the queue when the event fires. */
    virtual void process() = 0;

    /**
     * Name used in error messages, traces and the event hash. The
     * queue hands this reference to its instrument after process()
     * returns: an Event outlives its own process() (the ASan build
     * checks this), and its name does not change.
     */
    virtual const std::string &name() const;

    bool scheduled() const { return _scheduled; }
    Tick when() const { return _when; }
    int priority() const { return _priority; }

  private:
    friend class EventQueue;

    Tick _when = 0;
    int _priority;
    bool _scheduled = false;
};

/** An Event that invokes a bound std::function. */
class EventFunction : public Event
{
  public:
    EventFunction(std::function<void()> callback, std::string name,
                  int priority = defaultPriority)
        : Event(priority), _callback(std::move(callback)),
          _name(std::move(name))
    {}

    void process() override { _callback(); }
    const std::string &name() const override { return _name; }

  private:
    std::function<void()> _callback;
    std::string _name;
};

/**
 * The event queue: one run of nodes kept sorted latest-first, with a
 * monotonically advancing current tick.
 *
 * Service order is (when, priority, schedule order): every schedule()
 * or reschedule() takes the next sequence number, and one 128-bit key
 * packs all three, with when above a rank of the biased priority over
 * a 56-bit sequence number. The next event to fire is the run's back:
 * runOne() pops it, schedule() walks from the back to the new node's
 * place, and deschedule() and reschedule() find the node by its Event
 * and erase it. Rigs hold tens of live events, and most schedulings
 * land at or near the back (docs/scheduling.md, "Event queue").
 */
class EventQueue
{
  public:
    EventQueue() = default;

    /** Current simulated time. */
    Tick curTick() const { return _curTick; }

    /**
     * Schedule @p ev to fire at @p when.
     * @pre when >= curTick() and ev is not already scheduled.
     */
    void
    schedule(Event &ev, Tick when)
    {
        const Key key = nextKey(ev, when, ev._scheduled);
        ev._when = when;
        ev._scheduled = true;
        if (_run.empty() || key < _run.back().key)
            _run.push_back(Node{key, &ev});
        else
            insert(key, ev);
    }

    /** Move an event: deschedule if needed, then schedule at @p when. */
    void reschedule(Event &ev, Tick when);

    /** Remove a scheduled event from the queue. */
    void deschedule(Event &ev);

    /** True when no live events remain. */
    bool empty() const { return _run.empty(); }

    /** Number of live (scheduled) events. */
    std::size_t size() const { return _run.size(); }

    /** Tick of the next live event. @pre !empty(). */
    Tick nextTick() const;

    /**
     * Pop and process the next event.
     * @return false when the queue was empty.
     */
    bool
    runOne()
    {
        if (_run.empty())
            return false;
        Event &ev = *_run.back().event;
        _run.pop_back();
        _curTick = ev._when;
        ev._scheduled = false;
        ++_numProcessed;
        if (_instrument)
            processInstrumented(ev);
        else
            ev.process();
        return true;
    }

    /**
     * Run events until the queue drains or the next event would fire
     * after @p limit. curTick is left at the last processed event (or
     * unchanged if nothing ran).
     * @return number of events processed.
     */
    std::uint64_t runUntil(Tick limit = maxTick);

    /** Total events processed over the queue's lifetime. */
    std::uint64_t numProcessed() const { return _numProcessed; }

    /**
     * "name @ tick" of the next live event, or "(empty)"; used by the
     * watchdog's hang report.
     */
    std::string headSummary() const;

    /**
     * Install (or with nullptr remove) the observer notified after
     * every processed event. The queue does not own it, and reads
     * the clock around process() only if it is timed().
     */
    void setInstrument(EventInstrument *instrument)
    {
        _instrument = instrument;
        _timed = instrument && instrument->timed();
    }

    EventInstrument *instrument() const { return _instrument; }

    /** One live scheduling, as exposed for checkpointing. */
    struct LiveEventRef
    {
        Tick when;
        int priority;
        std::uint64_t seq;
        Event *event;
    };

    /**
     * Every live scheduling in service order (when, priority, seq).
     * Re-scheduling these in order on a fresh queue reproduces the
     * same-tick tie-breaks even though the new queue assigns fresh
     * sequence numbers.
     */
    std::vector<LiveEventRef> liveEventsSorted() const;

    /**
     * Deschedule everything (restore prologue). Topology constructors
     * pre-schedule events (clock ticks, DASH quantum timers); a
     * restore clears those and re-schedules exactly the checkpoint's
     * pending set. curTick and numProcessed are untouched — see
     * restoreTime().
     */
    void clearForRestore();

    /**
     * Jump the clock to a checkpoint's position. @pre the queue holds
     * no live event scheduled before @p tick.
     */
    void restoreTime(Tick tick, std::uint64_t num_processed);

  private:
    /** (when, biased priority, sequence number), most significant
     *  first: one unsigned compare orders two schedulings. */
    __extension__ using Key = unsigned __int128;

    struct Node
    {
        Key key;
        Event *event;
    };

    static constexpr int priorityBias = 128;
    static constexpr unsigned seqBits = 56;

    static Tick whenOf(Key key) { return static_cast<Tick>(key >> 64); }

    /**
     * The key of a new scheduling of @p ev at @p when; takes the next
     * sequence number. Panics when @p twice (schedule() of a scheduled
     * event), for a past tick, a priority outside -128..127 or an
     * exhausted sequence.
     */
    Key
    nextKey(const Event &ev, Tick when, bool twice)
    {
        const auto rank =
            static_cast<std::uint64_t>(ev._priority + priorityBias);
        if (twice || when < _curTick || (rank >> 8) != 0 ||
            (_nextSeq >> seqBits) != 0) [[unlikely]]
            refuse(ev, when, twice);
        return (Key(when) << 64) | (rank << seqBits) | _nextSeq++;
    }

    [[noreturn]] void refuse(const Event &ev, Tick when,
                             bool twice) const;

    /** Put @p ev's node in its place in the run. The key and event
     *  travel in registers: a Node built on the caller's stack and
     *  reloaded here stalls store forwarding on every call. */
    void insert(Key key, Event &ev);

    /** Erase a scheduled event's node from the run. */
    void unlink(const Event &ev);

    /** process() with the instrument notified (and timed). */
    void processInstrumented(Event &ev);

    /** Sorted by key, latest first: the back fires next. */
    std::vector<Node> _run;
    Tick _curTick = 0;
    std::uint64_t _nextSeq = 0;
    std::uint64_t _numProcessed = 0;
    EventInstrument *_instrument = nullptr;
    /** The installed instrument wants wall time. */
    bool _timed = false;
};

} // namespace emerald

#endif // EMERALD_SIM_EVENT_QUEUE_HH
