#include "sim/stats.hh"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <sstream>

#include "sim/logging.hh"
#include "sim/serialize/checkpoint_io.hh"

namespace emerald
{

namespace
{

/** Render a double as a JSON number (non-finite values become null). */
std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    std::ostringstream os;
    os << std::setprecision(17) << v;
    return os.str();
}

/** Indentation helper for the pretty-printed stats tree. */
std::string
pad(int indent)
{
    return std::string(static_cast<std::size_t>(indent) * 2, ' ');
}

} // namespace

Stat::Stat(StatGroup &parent, std::string name, std::string desc)
    : _name(std::move(name)), _desc(std::move(desc))
{
    parent.addStat(this);
}

void
Scalar::dumpJson(std::ostream &os) const
{
    os << "{\"type\":\"scalar\",\"value\":" << jsonNumber(_value)
       << ",\"desc\":\"" << jsonEscape(desc()) << "\"}";
}

void
Scalar::flatten(const StatValueVisitor &emit) const
{
    emit("", _value);
}

void
Scalar::serialize(CheckpointIo &io, const std::string &key)
{
    io.scalar(key, _value);
}

void
Distribution::sample(double v, std::uint64_t count)
{
    if (_count == 0) {
        _min = v;
        _max = v;
    } else {
        _min = std::min(_min, v);
        _max = std::max(_max, v);
    }
    _count += count;
    _sum += v * static_cast<double>(count);
}

void
Distribution::reset()
{
    _count = 0;
    _sum = 0.0;
    _min = 0.0;
    _max = 0.0;
}

void
Distribution::dumpJson(std::ostream &os) const
{
    os << "{\"type\":\"distribution\",\"count\":" << _count
       << ",\"total\":" << jsonNumber(total())
       << ",\"mean\":" << jsonNumber(mean())
       << ",\"min\":" << jsonNumber(min())
       << ",\"max\":" << jsonNumber(max())
       << ",\"desc\":\"" << jsonEscape(desc()) << "\"}";
}

void
Distribution::flatten(const StatValueVisitor &emit) const
{
    emit(".count", static_cast<double>(_count));
    emit(".mean", mean());
    emit(".min", min());
    emit(".max", max());
    emit(".total", total());
}

void
Distribution::serialize(CheckpointIo &io, const std::string &key)
{
    io.scalar(key + ".count", _count);
    io.scalar(key + ".sum", _sum);
    io.scalar(key + ".min", _min);
    io.scalar(key + ".max", _max);
}

TimeSeries::TimeSeries(StatGroup &parent, std::string name,
                       std::string desc, Tick bucket_width)
    : Stat(parent, std::move(name), std::move(desc)),
      _bucketWidth(bucket_width)
{
    panic_if(bucket_width == 0, "TimeSeries %s: zero bucket width",
             this->name().c_str());
}

void
TimeSeries::add(Tick when, double value)
{
    std::size_t idx = static_cast<std::size_t>(when / _bucketWidth);
    if (idx >= maxBuckets) {
        idx = maxBuckets - 1;
        ++_clampedSamples;
    }
    if (idx >= _buckets.size())
        _buckets.resize(idx + 1, 0.0);
    _buckets[idx] += value;
}

void
TimeSeries::dumpJson(std::ostream &os) const
{
    os << "{\"type\":\"timeseries\",\"bucket_width\":" << _bucketWidth
       << ",\"clamped\":" << _clampedSamples << ",\"buckets\":[";
    for (std::size_t i = 0; i < _buckets.size(); ++i) {
        if (i)
            os << ",";
        os << jsonNumber(_buckets[i]);
    }
    os << "],\"desc\":\"" << jsonEscape(desc()) << "\"}";
}

void
TimeSeries::flatten(const StatValueVisitor &emit) const
{
    double total = 0.0;
    for (double v : _buckets)
        total += v;
    emit(".nbuckets", static_cast<double>(_buckets.size()));
    emit(".total", total);
}

void
TimeSeries::serialize(CheckpointIo &io, const std::string &key)
{
    // Buckets of another width would not line up.
    io.match(key + ".bucket_width", _bucketWidth,
             "the TimeSeries bucket width");
    io.vector(key + ".buckets", _buckets);
    io.scalar(key + ".clamped", _clampedSamples);
}

StatGroup::StatGroup(std::string name)
    : _name(std::move(name))
{
}

StatGroup::StatGroup(StatGroup &parent, std::string name)
    : _parent(&parent), _name(std::move(name))
{
    parent.addChild(this);
}

StatGroup::~StatGroup()
{
    if (_parent)
        _parent->removeChild(this);
}

void
StatGroup::removeChild(StatGroup *child)
{
    auto it = std::find(_children.begin(), _children.end(), child);
    if (it != _children.end())
        _children.erase(it);
}

std::string
StatGroup::fullStatName() const
{
    if (!_parent)
        return _name;
    std::string parent_name = _parent->fullStatName();
    if (parent_name.empty())
        return _name;
    return parent_name + "." + _name;
}

void
StatGroup::dumpJson(std::ostream &os, int indent) const
{
    os << "{\n";
    os << pad(indent + 1) << "\"stats\": {";
    for (std::size_t i = 0; i < _stats.size(); ++i) {
        os << (i ? ",\n" : "\n") << pad(indent + 2) << "\""
           << jsonEscape(_stats[i]->name()) << "\": ";
        _stats[i]->dumpJson(os);
    }
    if (!_stats.empty())
        os << "\n" << pad(indent + 1);
    os << "},\n";
    os << pad(indent + 1) << "\"groups\": {";
    for (std::size_t i = 0; i < _children.size(); ++i) {
        os << (i ? ",\n" : "\n") << pad(indent + 2) << "\""
           << jsonEscape(_children[i]->statName()) << "\": ";
        _children[i]->dumpJson(os, indent + 2);
    }
    if (!_children.empty())
        os << "\n" << pad(indent + 1);
    os << "}\n" << pad(indent) << "}";
}

void
StatGroup::flattenStats(const StatValueVisitor &emit) const
{
    std::string prefix = fullStatName();
    if (!prefix.empty())
        prefix += ".";
    for (const Stat *stat : _stats) {
        const std::string base = prefix + stat->name();
        stat->flatten([&](const std::string &suffix, double value) {
            emit(base + suffix, value);
        });
    }
    for (const StatGroup *child : _children)
        child->flattenStats(emit);
}

void
StatGroup::resetStats()
{
    for (Stat *stat : _stats)
        stat->reset();
    for (StatGroup *child : _children)
        child->resetStats();
}

void
StatGroup::serializeStats(CheckpointIo &io)
{
    std::string prefix = fullStatName();
    if (!prefix.empty())
        prefix += ".";
    for (Stat *stat : _stats)
        stat->serialize(io, prefix + stat->name());
    for (StatGroup *child : _children)
        child->serializeStats(io);
}

} // namespace emerald
