#include "layer_profile.hh"

#include <cctype>
#include <string_view>

namespace perfbench
{

namespace
{

bool
startsWith(std::string_view s, std::string_view prefix)
{
    return s.substr(0, prefix.size()) == prefix;
}

bool
endsWith(std::string_view s, std::string_view suffix)
{
    return s.size() >= suffix.size() &&
           s.substr(s.size() - suffix.size()) == suffix;
}

} // namespace

bool
isCacheSegment(std::string_view seg)
{
    return seg == "l2" || (startsWith(seg, "l1") && seg.size() <= 3);
}

bool
isNocSegment(std::string_view seg)
{
    return endsWith(seg, "link") || startsWith(seg, "xbar");
}

bool
isCpuCore(std::string_view seg)
{
    if (!startsWith(seg, "cpu") || seg.size() == 3)
        return false;
    for (char c : seg.substr(3))
        if (!std::isdigit(static_cast<unsigned char>(c)))
            return false;
    return true;
}

const char *
layerName(Layer layer)
{
    switch (layer) {
      case Layer::Sim: return "sim";
      case Layer::Core: return "core";
      case Layer::Gpu: return "gpu";
      case Layer::Cache: return "cache";
      case Layer::Noc: return "noc";
      case Layer::Mem: return "mem";
      case Layer::Soc: return "soc";
      case Layer::Npu: return "npu";
      default: return "other";
    }
}

Layer
classifyEvent(const std::string &name)
{
    std::string_view full(name);
    std::vector<std::string_view> segs;
    std::size_t begin = 0;
    while (true) {
        std::size_t dot = full.find('.', begin);
        segs.push_back(full.substr(begin, dot - begin));
        if (dot == std::string_view::npos)
            break;
        begin = dot + 1;
    }

    // The innermost cache/NoC instance owns the event: "cpu0.l1.send"
    // is the CPU's L1, "npu.link.deliver" the NPU's link.
    for (auto it = segs.rbegin(); it != segs.rend(); ++it) {
        if (isCacheSegment(*it))
            return Layer::Cache;
        if (isNocSegment(*it))
            return Layer::Noc;
    }

    std::string_view top = segs.front();
    if (top == "dram" || top == "dash")
        return Layer::Mem;
    if (top == "gfx")
        return Layer::Core;
    if (top == "gpu" || top == "kernels")
        return Layer::Gpu;
    if (isCpuCore(top) || top == "display" || top == "app" ||
        top == "replay")
        return Layer::Soc;
    if (top == "npu")
        return Layer::Npu;
    if (top == "watchdog-beat" || top == "fault-flush")
        return Layer::Sim;
    return Layer::Other;
}

std::uint64_t
LayerTotals::totalEvents() const
{
    std::uint64_t sum = 0;
    for (std::uint64_t v : events)
        sum += v;
    return sum;
}

std::uint64_t
LayerTotals::totalNs() const
{
    std::uint64_t sum = 0;
    for (std::uint64_t v : ns)
        sum += v;
    return sum;
}

LayerTotals
LayerTotals::operator-(const LayerTotals &base) const
{
    LayerTotals out;
    for (unsigned i = 0; i < numLayers; ++i) {
        out.events[i] = events[i] - base.events[i];
        out.ns[i] = ns[i] - base.ns[i];
    }
    return out;
}

LayerProfile::LayerProfile(emerald::EventQueue &eq)
    : _eq(eq), _next(eq.instrument()),
      _epoch(std::chrono::steady_clock::now())
{
    _eq.setInstrument(this);
}

LayerProfile::~LayerProfile()
{
    _eq.setInstrument(_next);
}

void
LayerProfile::onEvent(const std::string &name, emerald::Tick when,
                      int priority, std::uint64_t wall_ns)
{
    auto it = _memo.find(name);
    if (it == _memo.end())
        it = _memo.emplace(name, classifyEvent(name)).first;
    auto layer = static_cast<unsigned>(it->second);
    ++_totals.events[layer];
    _totals.ns[layer] += wall_ns;
    if (_next)
        _next->onEvent(name, when, priority, wall_ns);
    if (_probe) {
        unsigned value = _probe();
        if (value != _probeValue) {
            _probeValue = value;
            beginSpan(_probePrefix + std::to_string(value));
        }
    }
}

void
LayerProfile::setSpanProbe(std::function<unsigned()> probe,
                           const std::string &prefix)
{
    _probe = std::move(probe);
    _probePrefix = prefix;
    _probeValue = _probe();
    beginSpan(_probePrefix + std::to_string(_probeValue));
}

void
LayerProfile::beginSpan(const std::string &name)
{
    if (_inSpan)
        endSpan();
    Span span;
    span.name = name;
    span.hostStartS = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - _epoch)
                          .count();
    _spans.push_back(std::move(span));
    _spanBase = _totals;
    _inSpan = true;
}

void
LayerProfile::endSpan()
{
    if (!_inSpan)
        return;
    Span &span = _spans.back();
    span.hostEndS = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - _epoch)
                        .count();
    span.totals = _totals - _spanBase;
    _inSpan = false;
}

} // namespace perfbench
