#include "sim/event_tracer.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace emerald
{

namespace
{

/** The component owning an event: its name up to the last dot. */
std::string
categoryOf(const std::string &event_name)
{
    auto pos = event_name.rfind('.');
    if (pos == std::string::npos || pos == 0)
        return "sim";
    return event_name.substr(0, pos);
}

} // namespace

// ---------------------------------------------------------------------
// EventTracer
// ---------------------------------------------------------------------

EventTracer::EventTracer(const std::string &path)
    : _path(path), _os(path)
{
    fatal_if(!_os.is_open(), "cannot open trace file '%s'", path.c_str());
    _os << "[";
}

EventTracer::~EventTracer()
{
    close();
}

void
EventTracer::emitRecord(const std::string &json)
{
    if (!_first)
        _os << ",";
    _os << "\n" << json;
    _first = false;
}

unsigned
EventTracer::tidFor(const std::string &category)
{
    auto it = _tids.find(category);
    if (it != _tids.end())
        return it->second;
    unsigned tid = static_cast<unsigned>(_tids.size());
    _tids.emplace(category, tid);
    emitRecord(strprintf(
        "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":%u,"
        "\"args\":{\"name\":\"%s\"}}",
        tid, jsonEscape(category).c_str()));
    return tid;
}

void
EventTracer::onEvent(const std::string &name, Tick when, int priority,
                     std::uint64_t wall_ns)
{
    if (_closed)
        return;
    std::string category = categoryOf(name);
    unsigned tid = tidFor(category);
    // ts: simulated microseconds (ticks are picoseconds).
    // dur: wall-clock microseconds of this process() call, so slice
    // width shows where host time goes along the simulated timeline.
    emitRecord(strprintf(
        "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.6f,"
        "\"dur\":%.3f,\"pid\":0,\"tid\":%u,"
        "\"args\":{\"tick\":%llu,\"priority\":%d,\"wall_ns\":%llu}}",
        jsonEscape(name).c_str(), jsonEscape(category).c_str(),
        static_cast<double>(when) / 1e6,
        static_cast<double>(wall_ns) / 1e3, tid,
        (unsigned long long)when, priority,
        (unsigned long long)wall_ns));
    ++_numRecords;
}

void
EventTracer::close()
{
    if (_closed)
        return;
    _closed = true;
    _os << "\n]\n";
    _os.flush();
}

// ---------------------------------------------------------------------
// EventProfiler
// ---------------------------------------------------------------------

struct EventProfiler::Channel
{
    Channel(StatGroup &parent, const std::string &name)
        : group(parent, name),
          numProcessed(group, "numProcessed",
                       "events processed by this component"),
          wallNs(group, "wallNs",
                 "wall-clock nanoseconds spent in process()")
    {}

    StatGroup group;
    Scalar numProcessed;
    Scalar wallNs;
};

EventProfiler::EventProfiler(StatGroup &parent)
    : _group(parent, "profile")
{
    auto other = std::make_unique<Channel>(_group, "other");
    _other = other.get();
    _channels.emplace("other", std::move(other));
}

EventProfiler::~EventProfiler() = default;

void
EventProfiler::registerComponent(const std::string &name)
{
    if (name.empty() || _channels.count(name))
        return;
    _channels.emplace(name, std::make_unique<Channel>(_group, name));
    // Earlier events may have memoized to a shorter prefix (or
    // "other"); drop the memo so they re-resolve.
    _memo.clear();
}

EventProfiler::Channel *
EventProfiler::channelFor(const std::string &event_name)
{
    auto memo = _memo.find(event_name);
    if (memo != _memo.end())
        return memo->second;
    // Longest registered dot-prefix of the event name.
    Channel *found = _other;
    std::string prefix = event_name;
    while (true) {
        auto pos = prefix.rfind('.');
        if (pos == std::string::npos)
            break;
        prefix.resize(pos);
        auto it = _channels.find(prefix);
        if (it != _channels.end()) {
            found = it->second.get();
            break;
        }
    }
    _memo.emplace(event_name, found);
    return found;
}

void
EventProfiler::onEvent(const std::string &name, Tick when, int priority,
                       std::uint64_t wall_ns)
{
    (void)when;
    (void)priority;
    Channel *ch = channelFor(name);
    ++ch->numProcessed;
    ch->wallNs += static_cast<double>(wall_ns);
}

std::uint64_t
EventProfiler::eventsFor(const std::string &component) const
{
    auto it = _channels.find(component);
    if (it == _channels.end())
        return 0;
    return static_cast<std::uint64_t>(it->second->numProcessed.value());
}

// ---------------------------------------------------------------------
// InstrumentChain
// ---------------------------------------------------------------------

void
InstrumentChain::add(EventInstrument *instrument)
{
    if (std::find(_instruments.begin(), _instruments.end(), instrument) ==
        _instruments.end())
        _instruments.push_back(instrument);
}

bool
InstrumentChain::timed() const
{
    return std::any_of(_instruments.begin(), _instruments.end(),
                       [](const EventInstrument *instrument) {
                           return instrument->timed();
                       });
}

void
InstrumentChain::onEvent(const std::string &name, Tick when,
                         int priority, std::uint64_t wall_ns)
{
    for (EventInstrument *instrument : _instruments)
        instrument->onEvent(name, when, priority, wall_ns);
}

} // namespace emerald
