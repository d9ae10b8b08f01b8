#include "sim/event_queue.hh"

#include <chrono>

#include "sim/logging.hh"

namespace emerald
{

const std::string &
Event::name() const
{
    static const std::string anonymous = "anon-event";
    return anonymous;
}

void
EventQueue::refuse(const Event &ev, Tick when, bool twice) const
{
    panic_if(twice, "event %s scheduled twice", ev.name().c_str());
    panic_if(when < _curTick,
             "event %s scheduled in the past (%llu < %llu)",
             ev.name().c_str(), (unsigned long long)when,
             (unsigned long long)_curTick);
    panic_if(ev._priority < -priorityBias || ev._priority >= priorityBias,
             "event %s priority %d outside [%d, %d]", ev.name().c_str(),
             ev._priority, -priorityBias, priorityBias - 1);
    panic("event sequence numbers exhausted");
}

void
EventQueue::reschedule(Event &ev, Tick when)
{
    if (!ev._scheduled) {
        schedule(ev, when);
        return;
    }
    const Key key = nextKey(ev, when, false);
    unlink(ev);
    ev._when = when;
    insert(key, ev);
}

void
EventQueue::deschedule(Event &ev)
{
    panic_if(!ev._scheduled, "descheduling idle event %s",
             ev.name().c_str());
    unlink(ev);
    ev._scheduled = false;
}

void
EventQueue::insert(Key key, Event &ev)
{
    // Walk from the back (the earliest) past every earlier node.
    auto pos = _run.end();
    while (pos != _run.begin() && (pos - 1)->key < key)
        --pos;
    _run.insert(pos, Node{key, &ev});
}

void
EventQueue::unlink(const Event &ev)
{
    for (auto pos = _run.end(); pos != _run.begin();) {
        if ((--pos)->event == &ev) {
            _run.erase(pos);
            return;
        }
    }
    panic("event %s is scheduled but not queued", ev.name().c_str());
}

void
EventQueue::processInstrumented(Event &ev)
{
    // The name stays valid across process(): an Event outlives its own
    // processing (see Event::name()).
    const std::string &name = ev.name();
    const Tick when = _curTick;
    const int priority = ev._priority;
    std::uint64_t wall_ns = 0;
    if (_timed) {
        auto start = std::chrono::steady_clock::now();
        ev.process();
        wall_ns = static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - start)
                .count());
    } else {
        ev.process();
    }
    _instrument->onEvent(name, when, priority, wall_ns);
}

std::string
EventQueue::headSummary() const
{
    if (empty())
        return "(empty)";
    const Node &head = _run.back();
    return strprintf("%s @ %llu", head.event->name().c_str(),
                     (unsigned long long)whenOf(head.key));
}

Tick
EventQueue::nextTick() const
{
    panic_if(empty(), "nextTick on empty event queue");
    return whenOf(_run.back().key);
}

std::vector<EventQueue::LiveEventRef>
EventQueue::liveEventsSorted() const
{
    std::vector<LiveEventRef> out;
    out.reserve(_run.size());
    const std::uint64_t seq_mask = (std::uint64_t(1) << seqBits) - 1;
    for (auto node = _run.rbegin(); node != _run.rend(); ++node) {
        out.push_back({whenOf(node->key), node->event->_priority,
                       static_cast<std::uint64_t>(node->key) & seq_mask,
                       node->event});
    }
    return out;
}

void
EventQueue::clearForRestore()
{
    for (const Node &node : _run)
        node.event->_scheduled = false;
    _run.clear();
}

void
EventQueue::restoreTime(Tick tick, std::uint64_t num_processed)
{
    panic_if(tick < _curTick, "restoreTime would move time backwards");
    if (!empty()) {
        const Node &head = _run.back();
        panic_if(whenOf(head.key) < tick,
                 "restoreTime(%llu) with event %s pending at %llu",
                 (unsigned long long)tick, head.event->name().c_str(),
                 (unsigned long long)whenOf(head.key));
    }
    _curTick = tick;
    _numProcessed = num_processed;
}

std::uint64_t
EventQueue::runUntil(Tick limit)
{
    std::uint64_t processed = 0;
    while (!empty() && whenOf(_run.back().key) <= limit) {
        runOne();
        ++processed;
    }
    return processed;
}

} // namespace emerald
