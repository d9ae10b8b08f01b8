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
 * times each Event::process() call and reports it here — the basis of
 * the Chrome-trace EventTracer and the sim.profile.* counters. When no
 * instrument is installed the cost is a single branch per event.
 */
class EventInstrument
{
  public:
    virtual ~EventInstrument() = default;

    /**
     * One event was processed.
     * @param name the event's name (captured before process()).
     * @param when the simulated tick the event fired at.
     * @param priority the event's tie-break priority.
     * @param wall_ns wall-clock nanoseconds spent inside process().
     */
    virtual void onEvent(const std::string &name, Tick when,
                         int priority, std::uint64_t wall_ns) = 0;
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

    /** Name used in error messages. */
    virtual std::string name() const { return "anon-event"; }

    bool scheduled() const { return _slot != idleSlot; }
    Tick when() const { return _when; }
    int priority() const { return _priority; }

  private:
    friend class EventQueue;

    /** _slot values that are not heap indices. */
    static constexpr std::uint32_t idleSlot = ~std::uint32_t(0);
    static constexpr std::uint32_t frontSlot = idleSlot - 1;

    Tick _when = 0;
    /** Where the queue holds the event: a heap index, or one of the
     *  two sentinels above. */
    std::uint32_t _slot = idleSlot;
    int _priority;
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
    std::string name() const override { return _name; }

  private:
    std::function<void()> _callback;
    std::string _name;
};

/**
 * The event queue: a 4-ary min-heap plus a front slot, with a
 * monotonically advancing current tick.
 *
 * Service order is (when, priority, schedule order): every schedule()
 * or reschedule() takes the next sequence number, and one 128-bit key
 * packs all three, with when above a rank of the biased priority over
 * a 56-bit sequence number. Each scheduled Event records where the
 * queue holds it, so deschedule() and reschedule() remove it in place.
 * The front slot holds a scheduling that is earlier than every heap
 * node, so an event that re-arms itself as the next to fire is stored
 * and popped without a sift.
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
    void schedule(Event &ev, Tick when);

    /** Move an event: deschedule if needed, then schedule at @p when. */
    void reschedule(Event &ev, Tick when);

    /** Remove a scheduled event from the queue. */
    void deschedule(Event &ev);

    /** True when no live events remain. */
    bool empty() const { return _liveEvents == 0; }

    /** Number of live (scheduled) events. */
    std::size_t size() const { return _liveEvents; }

    /** Tick of the next live event. @pre !empty(). */
    Tick nextTick() const;

    /**
     * Pop and process the next event.
     * @return false when the queue was empty.
     */
    bool runOne();

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
     * Nodes the queue holds: the heap plus an occupied front slot.
     * Descheduling removes a node in place, so this equals size();
     * exposed so tests can check that no stale node is left behind.
     */
    std::size_t
    heapSize() const
    {
        return _heap.size() + (_front.event != nullptr);
    }

    /**
     * "name @ tick" of the next live event, or "(empty)"; used by the
     * watchdog's hang report.
     */
    std::string headSummary() const;

    /**
     * Install (or with nullptr remove) the observer notified after
     * every processed event. The queue does not own it.
     */
    void setInstrument(EventInstrument *instrument)
    {
        _instrument = instrument;
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
    static constexpr std::size_t arity = 4;

    static Tick whenOf(Key key) { return static_cast<Tick>(key >> 64); }

    /** The key of a new scheduling of @p ev at @p when. Takes the
     *  next sequence number. */
    Key nextKey(const Event &ev, Tick when);

    /** Hold @p node in the front slot or the heap. @pre the node's
     *  event is not held anywhere. */
    void insert(Node node);

    /** Remove a scheduled event's node from wherever it is held. */
    void unlink(Event &ev);

    /** Pop and process the earliest node. @pre !empty(). */
    void serviceNext();

    void heapPush(Node node);
    void heapErase(std::size_t i);
    void siftUp(std::size_t i, Node node);
    void siftDown(std::size_t i, Node node);

    void
    place(std::size_t i, Node node)
    {
        _heap[i] = node;
        node.event->_slot = static_cast<std::uint32_t>(i);
    }

    /** Calls @p fn on every node the queue holds, in no order. */
    template <typename Fn>
    void
    forEachNode(Fn fn) const
    {
        if (_front.event)
            fn(_front);
        for (const Node &node : _heap)
            fn(node);
    }

    /** Earlier than every heap node when occupied (event != nullptr). */
    Node _front{0, nullptr};
    /** 4-ary min-heap on Node::key; each event records its index. */
    std::vector<Node> _heap;
    Tick _curTick = 0;
    std::uint64_t _nextSeq = 0;
    std::uint64_t _numProcessed = 0;
    std::size_t _liveEvents = 0;
    EventInstrument *_instrument = nullptr;
};

} // namespace emerald

#endif // EMERALD_SIM_EVENT_QUEUE_HH
