#include "sweep/stats_sink.hh"

#include <chrono>
#include <cmath>
#include <fstream>
#include <sstream>

#include "sim/logging.hh"
#include "sim/stats.hh"
#include "sweep/db.hh"

namespace emerald
{

namespace
{

constexpr const char *sqlitePrefix = "sqlite:";

/** Render a double exactly as the legacy BenchResults doc did. */
std::string
jsonResultNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    std::ostringstream os;
    os.precision(17);
    os << v;
    return os.str();
}

/** Discards everything; what "" and "null" URIs resolve to. */
class NullSink : public StatsSink
{
  public:
    void beginRun(const RunInfo &) override {}
    void recordScalar(const std::string &, double) override {}
    void addStatsTree(const std::string &, const StatGroup &) override {}
    void finishRun() override {}
    bool live() const override { return false; }
};

/**
 * The plain-path --stats-out document:
 * {"bench": ..., "results": {...}, "sim": {...}} with 17-digit
 * numbers — the format tools/check_restore.py parses in all its
 * modes.
 */
class JsonFileSink : public StatsSink
{
  public:
    explicit JsonFileSink(std::string path) : _path(std::move(path))
    {
        // Append mode probes without truncating: the document itself
        // is written at finishRun.
        fatal_if(!std::ofstream(_path, std::ios::app),
                 "cannot open stats-out file '%s' for writing",
                 _path.c_str());
    }

    JsonFileSink(const JsonFileSink &) = delete;
    JsonFileSink &operator=(const JsonFileSink &) = delete;

    ~JsonFileSink() override { finishRun(); }

    void beginRun(const RunInfo &info) override { _bench = info.bench; }

    void
    recordScalar(const std::string &key, double value) override
    {
        _results.emplace_back(key, value);
    }

    void
    addStatsTree(const std::string &label,
                 const StatGroup &root) override
    {
        std::ostringstream os;
        root.dumpJson(os);
        std::string text = os.str();
        while (!text.empty() && text.back() == '\n')
            text.pop_back();
        _trees.emplace_back(label, std::move(text));
    }

    void
    finishRun() override
    {
        if (_done)
            return;
        _done = true;
        std::ofstream os(_path);
        if (!os.is_open()) {
            warn("cannot open stats-out file '%s'", _path.c_str());
            return;
        }
        os << "{\n  \"bench\": \"" << jsonEscape(_bench) << "\",\n";
        os << "  \"results\": {";
        for (std::size_t i = 0; i < _results.size(); ++i) {
            os << (i ? ",\n" : "\n") << "    \""
               << jsonEscape(_results[i].first)
               << "\": " << jsonResultNumber(_results[i].second);
        }
        os << (_results.empty() ? "" : "\n  ") << "},\n";
        os << "  \"sim\": {";
        for (std::size_t i = 0; i < _trees.size(); ++i) {
            os << (i ? ",\n" : "\n") << "    \""
               << jsonEscape(_trees[i].first)
               << "\": " << _trees[i].second;
        }
        os << (_trees.empty() ? "" : "\n  ") << "}\n}\n";
        inform("stats-out: wrote %s", _path.c_str());
    }

  private:
    std::string _path;
    std::string _bench;
    std::vector<std::pair<std::string, double>> _results;
    std::vector<std::pair<std::string, std::string>> _trees;
    bool _done = false;
};

/**
 * The sweep results store (docs/sweeps.md): buffers one run's rows
 * and commits them through SweepDb::commitRun at finishRun. Opening
 * the database up front makes a bad path (or a build without SQLite)
 * fatal before the run starts.
 */
class SqliteSink : public StatsSink
{
  public:
    explicit SqliteSink(const std::string &path)
        : _db(path), _start(std::chrono::steady_clock::now())
    {}

    ~SqliteSink() override { finishRun(); }

    void beginRun(const RunInfo &info) override { _info = info; }

    void
    recordScalar(const std::string &key, double value) override
    {
        _rows.emplace_back("results." + key, value);
    }

    void
    addStatsTree(const std::string &label,
                 const StatGroup &root) override
    {
        root.flattenStats(
            [&](const std::string &name, double value) {
                _rows.emplace_back(label + "." + name, value);
            });
    }

    void
    finishRun() override
    {
        if (_done)
            return;
        _done = true;
        double wall_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - _start)
                             .count();
        _db.commitRun(_info, wall_ms, _rows);
    }

  private:
    sweep::SweepDb _db;
    std::chrono::steady_clock::time_point _start;
    RunInfo _info;
    std::vector<std::pair<std::string, double>> _rows;
    bool _done = false;
};

} // namespace

bool
isSqliteUri(const std::string &uri)
{
    return uri.rfind(sqlitePrefix, 0) == 0;
}

std::string
sqliteUriPath(const std::string &uri)
{
    fatal_if(!isSqliteUri(uri), "'%s' is not a sqlite: URI",
             uri.c_str());
    std::string path = uri.substr(std::string(sqlitePrefix).size());
    fatal_if(path.empty(), "empty path in stats URI '%s'",
             uri.c_str());
    return path;
}

std::unique_ptr<StatsSink>
makeStatsSink(const std::string &uri)
{
    if (uri.empty() || uri == "null")
        return std::make_unique<NullSink>();
    if (isSqliteUri(uri))
        return std::make_unique<SqliteSink>(sqliteUriPath(uri));
    return std::make_unique<JsonFileSink>(uri);
}

} // namespace emerald
