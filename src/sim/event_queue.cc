#include "sim/event_queue.hh"

#include <algorithm>
#include <chrono>

#include "sim/logging.hh"

namespace emerald
{

EventQueue::Key
EventQueue::nextKey(const Event &ev, Tick when)
{
    panic_if(when < _curTick,
             "event %s scheduled in the past (%llu < %llu)",
             ev.name().c_str(), (unsigned long long)when,
             (unsigned long long)_curTick);
    panic_if(ev._priority < -priorityBias || ev._priority >= priorityBias,
             "event %s priority %d outside [%d, %d]", ev.name().c_str(),
             ev._priority, -priorityBias, priorityBias - 1);
    panic_if(_nextSeq >> seqBits, "event sequence numbers exhausted");
    const std::uint64_t rank =
        (static_cast<std::uint64_t>(ev._priority + priorityBias)
         << seqBits) |
        _nextSeq++;
    return (Key(when) << 64) | rank;
}

void
EventQueue::schedule(Event &ev, Tick when)
{
    panic_if(ev.scheduled(), "event %s scheduled twice",
             ev.name().c_str());
    const Key key = nextKey(ev, when);
    ev._when = when;
    insert(Node{key, &ev});
    ++_liveEvents;
}

void
EventQueue::reschedule(Event &ev, Tick when)
{
    if (!ev.scheduled()) {
        schedule(ev, when);
        return;
    }
    const Key key = nextKey(ev, when);
    unlink(ev);
    ev._when = when;
    insert(Node{key, &ev});
}

void
EventQueue::deschedule(Event &ev)
{
    panic_if(!ev.scheduled(), "descheduling idle event %s",
             ev.name().c_str());
    unlink(ev);
    ev._slot = Event::idleSlot;
    --_liveEvents;
}

void
EventQueue::insert(Node node)
{
    const bool earliest = _front.event
                              ? node.key < _front.key
                              : _heap.empty() || node.key < _heap[0].key;
    if (!earliest) {
        heapPush(node);
        return;
    }
    // A displaced front node is still earlier than every heap node,
    // so it sifts to the root.
    if (_front.event)
        heapPush(_front);
    _front = node;
    node.event->_slot = Event::frontSlot;
}

void
EventQueue::unlink(Event &ev)
{
    if (ev._slot == Event::frontSlot)
        _front.event = nullptr;
    else
        heapErase(ev._slot);
}

void
EventQueue::heapPush(Node node)
{
    _heap.push_back(node);
    siftUp(_heap.size() - 1, node);
}

void
EventQueue::heapErase(std::size_t i)
{
    const Node last = _heap.back();
    _heap.pop_back();
    if (i == _heap.size())
        return;
    if (i > 0 && last.key < _heap[(i - 1) / arity].key)
        siftUp(i, last);
    else
        siftDown(i, last);
}

void
EventQueue::siftUp(std::size_t i, Node node)
{
    while (i > 0) {
        const std::size_t parent = (i - 1) / arity;
        if (!(node.key < _heap[parent].key))
            break;
        place(i, _heap[parent]);
        i = parent;
    }
    place(i, node);
}

void
EventQueue::siftDown(std::size_t i, Node node)
{
    const std::size_t n = _heap.size();
    while (true) {
        const std::size_t first = arity * i + 1;
        if (first >= n)
            break;
        const std::size_t end = std::min(first + arity, n);
        std::size_t best = first;
        for (std::size_t c = first + 1; c < end; ++c) {
            if (_heap[c].key < _heap[best].key)
                best = c;
        }
        if (!(_heap[best].key < node.key))
            break;
        place(i, _heap[best]);
        i = best;
    }
    place(i, node);
}

std::string
EventQueue::headSummary() const
{
    if (empty())
        return "(empty)";
    const Node &head = _front.event ? _front : _heap[0];
    return strprintf("%s @ %llu", head.event->name().c_str(),
                     (unsigned long long)whenOf(head.key));
}

Tick
EventQueue::nextTick() const
{
    panic_if(empty(), "nextTick on empty event queue");
    return whenOf(_front.event ? _front.key : _heap[0].key);
}

void
EventQueue::serviceNext()
{
    Event *ev = _front.event;
    if (ev) {
        _front.event = nullptr;
    } else {
        ev = _heap[0].event;
        heapErase(0);
    }
    const Tick when = ev->_when;
    panic_if(when < _curTick, "event queue went backwards");
    _curTick = when;
    ev->_slot = Event::idleSlot;
    --_liveEvents;
    ++_numProcessed;
    if (_instrument) {
        // Capture the name first: process() may reschedule or even
        // destroy state the name is derived from.
        std::string name = ev->name();
        const int priority = ev->_priority;
        auto start = std::chrono::steady_clock::now();
        ev->process();
        auto wall = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - start)
                        .count();
        _instrument->onEvent(name, when, priority,
                             static_cast<std::uint64_t>(wall));
    } else {
        ev->process();
    }
}

bool
EventQueue::runOne()
{
    if (empty())
        return false;
    serviceNext();
    return true;
}

std::vector<EventQueue::LiveEventRef>
EventQueue::liveEventsSorted() const
{
    std::vector<Node> nodes;
    nodes.reserve(_liveEvents);
    forEachNode([&nodes](const Node &node) { nodes.push_back(node); });
    std::sort(nodes.begin(), nodes.end(),
              [](const Node &a, const Node &b) { return a.key < b.key; });
    std::vector<LiveEventRef> out;
    out.reserve(nodes.size());
    const std::uint64_t seq_mask = (std::uint64_t(1) << seqBits) - 1;
    for (const Node &node : nodes) {
        out.push_back({whenOf(node.key), node.event->_priority,
                       static_cast<std::uint64_t>(node.key) & seq_mask,
                       node.event});
    }
    return out;
}

void
EventQueue::clearForRestore()
{
    forEachNode([](const Node &node) {
        node.event->_slot = Event::idleSlot;
    });
    _front.event = nullptr;
    _heap.clear();
    _liveEvents = 0;
}

void
EventQueue::restoreTime(Tick tick, std::uint64_t num_processed)
{
    panic_if(tick < _curTick, "restoreTime would move time backwards");
    forEachNode([tick](const Node &node) {
        panic_if(whenOf(node.key) < tick,
                 "restoreTime(%llu) with event %s pending at %llu",
                 (unsigned long long)tick, node.event->name().c_str(),
                 (unsigned long long)whenOf(node.key));
    });
    _curTick = tick;
    _numProcessed = num_processed;
}

std::uint64_t
EventQueue::runUntil(Tick limit)
{
    std::uint64_t processed = 0;
    while (!empty() && nextTick() <= limit) {
        serviceNext();
        ++processed;
    }
    return processed;
}

} // namespace emerald
