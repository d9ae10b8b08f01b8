/**
 * @file
 * Machine-readable observability for the event kernel.
 *
 * EventTracer streams every processed event as a Chrome-trace /
 * Perfetto JSON record ({"name","cat","ph","ts","dur","pid","tid"}),
 * one timeline row per component, so `chrome://tracing` or
 * https://ui.perfetto.dev can show where simulated and wall-clock
 * time go. EventProfiler accumulates per-component event counts and
 * wall-clock time under the sim.profile.* stat group. Both are
 * EventInstruments; InstrumentChain fans the queue's single hook out
 * to any number of them. Everything here is off by default — an
 * uninstrumented queue pays one branch per event.
 */

#ifndef EMERALD_SIM_EVENT_TRACER_HH
#define EMERALD_SIM_EVENT_TRACER_HH

#include <cstdint>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/stats.hh"

namespace emerald
{

/**
 * Streams Chrome-trace "complete" (ph:"X") records to a file. The
 * timestamp axis is simulated time in microseconds; each record's
 * duration is the wall-clock cost of that process() call, so wide
 * slices are simulation hot spots. The component (the event name up
 * to its last dot) becomes the record's category and its timeline
 * row (tid), with thread_name metadata so Perfetto labels rows.
 */
class EventTracer : public EventInstrument
{
  public:
    explicit EventTracer(const std::string &path);
    ~EventTracer() override;

    EventTracer(const EventTracer &) = delete;
    EventTracer &operator=(const EventTracer &) = delete;

    void onEvent(const std::string &name, Tick when, int priority,
                 std::uint64_t wall_ns) override;

    /** Write the closing bracket and flush. Idempotent. */
    void close();

    std::uint64_t numRecords() const { return _numRecords; }
    const std::string &path() const { return _path; }

  private:
    /** Timeline row for @p category, emitting metadata on first use. */
    unsigned tidFor(const std::string &category);

    void emitRecord(const std::string &json);

    std::string _path;
    std::ofstream _os;
    std::map<std::string, unsigned> _tids;
    std::uint64_t _numRecords = 0;
    bool _first = true;
    bool _closed = false;
};

/**
 * Per-component event-count and wall-clock profiling counters,
 * surfaced as sim.profile.<component>.{numProcessed,wallNs}. Top
 * level components register themselves by name; each processed event
 * is attributed to the longest registered dot-prefix of its event
 * name (events like "gpu.sc0.l1d.send" roll up under "gpu"), with a
 * catch-all "other" bucket. Counters exist (at zero) even while
 * profiling is disabled, so stat dumps are stable across runs.
 */
class EventProfiler : public EventInstrument
{
  public:
    /** Creates the "profile" group under @p parent. */
    explicit EventProfiler(StatGroup &parent);
    ~EventProfiler() override;

    /**
     * Register a component bucket. Idempotent; safe to call from any
     * component constructor.
     */
    void registerComponent(const std::string &name);

    void onEvent(const std::string &name, Tick when, int priority,
                 std::uint64_t wall_ns) override;

    /** Events attributed to @p component so far (0 if unknown). */
    std::uint64_t eventsFor(const std::string &component) const;

  private:
    struct Channel;

    Channel *channelFor(const std::string &event_name);

    StatGroup _group;
    std::map<std::string, std::unique_ptr<Channel>> _channels;
    /** Event-name -> channel memo (event names repeat millions of times). */
    std::unordered_map<std::string, Channel *> _memo;
    Channel *_other;
};

/** Fans the queue's single instrument slot out to several observers. */
class InstrumentChain : public EventInstrument
{
  public:
    void add(EventInstrument *instrument);
    bool empty() const { return _instruments.empty(); }

    void onEvent(const std::string &name, Tick when, int priority,
                 std::uint64_t wall_ns) override;

    /** Timed when any member is. */
    bool timed() const override;

  private:
    std::vector<EventInstrument *> _instruments;
};

} // namespace emerald

#endif // EMERALD_SIM_EVENT_TRACER_HH
