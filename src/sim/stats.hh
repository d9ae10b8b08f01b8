/**
 * @file
 * A small statistics framework in the spirit of gem5's stats package.
 *
 * Stats register themselves with a StatGroup; groups form a tree
 * rooted at the Simulation so a single dump walks every component.
 * TimeSeries stats bucket values over simulated time, which the
 * bandwidth-timeline experiments (paper Figs. 10 and 14) rely on.
 */

#ifndef EMERALD_SIM_STATS_HH
#define EMERALD_SIM_STATS_HH

#include <cstdint>
#include <functional>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace emerald
{

class CheckpointIo;
class StatGroup;

/**
 * Receiver for flattened stat values: one call per (name, value)
 * row. Tabular sinks (SQLite) consume stats this way where the JSON
 * sinks consume dumpJson().
 */
using StatValueVisitor =
    std::function<void(const std::string &name, double value)>;

/** Base class of all statistics. */
class Stat
{
  public:
    Stat(StatGroup &parent, std::string name, std::string desc);
    virtual ~Stat() = default;

    Stat(const Stat &) = delete;
    Stat &operator=(const Stat &) = delete;

    const std::string &name() const { return _name; }
    const std::string &desc() const { return _desc; }

    /**
     * Write this stat as one JSON object (no trailing newline), e.g.
     * {"type":"scalar","value":3,"desc":"..."}.
     */
    virtual void dumpJson(std::ostream &os) const = 0;

    /**
     * Emit this stat as (suffix, value) rows for tabular sinks:
     * scalars emit one row with an empty suffix, compound stats one
     * row per component (".mean", ".count", ...). TimeSeries emits
     * its aggregate only — per-bucket rows belong in the JSON dump.
     */
    virtual void flatten(const StatValueVisitor &emit) const = 0;

    /** Reset to the just-constructed state. */
    virtual void reset() = 0;

    /** Checkpoint this stat's state under @p key (strict on load:
     *  fatal when the checkpoint lacks it — docs/checkpointing.md). */
    virtual void serialize(CheckpointIo &io, const std::string &key) = 0;

  private:
    std::string _name;
    std::string _desc;
};

/** A simple accumulating counter / value. */
class Scalar : public Stat
{
  public:
    using Stat::Stat;

    Scalar &operator++() { _value += 1.0; return *this; }
    Scalar &operator+=(double v) { _value += v; return *this; }
    Scalar &operator=(double v) { _value = v; return *this; }

    double value() const { return _value; }

    void dumpJson(std::ostream &os) const override;
    void flatten(const StatValueVisitor &emit) const override;
    void reset() override { _value = 0.0; }
    void serialize(CheckpointIo &io, const std::string &key) override;

  private:
    double _value = 0.0;
};

/** Mean/min/max/count over sampled values. */
class Distribution : public Stat
{
  public:
    using Stat::Stat;

    void sample(double v, std::uint64_t count = 1);

    std::uint64_t count() const { return _count; }
    double
    mean() const
    {
        return _count ? _sum / static_cast<double>(_count) : 0.0;
    }
    double total() const { return _sum; }
    double min() const { return _count ? _min : 0.0; }
    double max() const { return _count ? _max : 0.0; }

    void dumpJson(std::ostream &os) const override;
    void flatten(const StatValueVisitor &emit) const override;
    void reset() override;
    void serialize(CheckpointIo &io, const std::string &key) override;

  private:
    std::uint64_t _count = 0;
    double _sum = 0.0;
    double _min = 0.0;
    double _max = 0.0;
};

/**
 * Values accumulated into fixed-width buckets of simulated time,
 * e.g. bytes transferred per 100 us window.
 */
class TimeSeries : public Stat
{
  public:
    /**
     * Bucket count is capped: samples beyond maxBuckets * bucket_width
     * are clamped into the last bucket (and counted) so one far-future
     * timestamp cannot balloon the vector to gigabytes.
     */
    static constexpr std::size_t maxBuckets = 1u << 20;

    TimeSeries(StatGroup &parent, std::string name, std::string desc,
               Tick bucket_width);

    /** Accumulate @p value into the bucket containing @p when. */
    void add(Tick when, double value);

    const std::vector<double> &buckets() const { return _buckets; }

    /** Samples clamped into the last bucket by the maxBuckets cap. */
    std::uint64_t clampedSamples() const { return _clampedSamples; }

    void dumpJson(std::ostream &os) const override;
    void flatten(const StatValueVisitor &emit) const override;
    void reset() override { _buckets.clear(); _clampedSamples = 0; }
    void serialize(CheckpointIo &io, const std::string &key) override;

  private:
    Tick _bucketWidth;
    std::vector<double> _buckets;
    std::uint64_t _clampedSamples = 0;
};

/**
 * A node in the stats tree. Components subclass or embed a StatGroup;
 * child groups chain to their parents.
 */
class StatGroup
{
  public:
    /** Construct the root group. */
    explicit StatGroup(std::string name);

    /** Construct a child group. */
    StatGroup(StatGroup &parent, std::string name);

    virtual ~StatGroup();

    StatGroup(const StatGroup &) = delete;
    StatGroup &operator=(const StatGroup &) = delete;

    const std::string &statName() const { return _name; }

    /** Fully qualified dotted name. */
    std::string fullStatName() const;

    /**
     * Dump this group's subtree as a JSON object:
     * {"stats":{"<name>":{...}},"groups":{"<name>":{...}}}, stats
     * before child groups, each in registration order.
     */
    void dumpJson(std::ostream &os) const { dumpJson(os, 0); }

    /**
     * Flatten this subtree into (dotted name, value) rows: every
     * stat's full path relative to this group, expanded through
     * Stat::flatten. The row order matches dumpJson().
     */
    void flattenStats(const StatValueVisitor &emit) const;

    /** Reset this group's stats and all children. */
    void resetStats();

    /**
     * Checkpoint this subtree: every stat under its full dotted path.
     * The whole stats tree lands in one "stats" section, so restore
     * overwrites counters after components have re-created in-flight
     * state (fixing up e.g. pool alloc counts). Strict by design: a
     * stat present in the binary but absent from the checkpoint is
     * fatal (adding stats is a checkpoint-breaking change; see
     * docs/checkpointing.md).
     */
    void serializeStats(CheckpointIo &io);

  private:
    friend class Stat;

    void dumpJson(std::ostream &os, int indent) const;

    void addStat(Stat *stat) { _stats.push_back(stat); }
    void addChild(StatGroup *child) { _children.push_back(child); }
    void removeChild(StatGroup *child);

    StatGroup *_parent = nullptr;
    std::string _name;
    std::vector<Stat *> _stats;
    std::vector<StatGroup *> _children;
};

} // namespace emerald

#endif // EMERALD_SIM_STATS_HH
