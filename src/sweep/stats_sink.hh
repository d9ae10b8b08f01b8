/**
 * @file
 * Stats sinks: where a run's results go.
 *
 * StatsSink turns the destination of a run's results into an
 * interface selected by a --stats-out URI:
 *
 *   --stats-out=results.json    JsonFileSink   (one JSON document
 *                                               per run)
 *   --stats-out=sqlite:runs.db  SqliteSink     (one queryable DB for
 *                                               a whole sweep)
 *   --stats-out=null            NullSink       (discard)
 *
 * A sink receives one run: beginRun() with the run's identity
 * (scenario name, config fingerprint, git sha, the sweep-relevant
 * parameters), then recordScalar()/addStatsTree() calls, then
 * finishRun() commits. SqliteSink buffers the run and hands it to
 * SweepDb::commitRun, which lands it in a single transaction, so a
 * run either lands complete or not at all — the sweep orchestrator's
 * resume journal is exactly the set of committed runs
 * (docs/sweeps.md).
 */

#ifndef EMERALD_SWEEP_STATS_SINK_HH
#define EMERALD_SWEEP_STATS_SINK_HH

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace emerald
{

class StatGroup;

/** Identity of one run, recorded alongside its stats. */
struct RunInfo
{
    /** Scenario / bench name (bench::ScenarioRegistry key). */
    std::string bench;
    /** Commit the binary was built from ("" when unknown). */
    std::string gitSha;
    /** sweepPointFingerprint() of the run's configuration. */
    std::uint64_t fingerprint = 0;
    /** The sweep-relevant key=value pairs (sweepPointParams()). */
    std::vector<std::pair<std::string, std::string>> params;
};

/** Destination for one run's results. */
class StatsSink
{
  public:
    virtual ~StatsSink() = default;

    /** Declare the run; must precede any record call. */
    virtual void beginRun(const RunInfo &info) = 0;

    /** Record one named scalar result. */
    virtual void recordScalar(const std::string &key, double value) = 0;

    /**
     * Capture @p root's stats subtree (now — the simulation may be
     * torn down before the sink commits) under @p label.
     */
    virtual void addStatsTree(const std::string &label,
                              const StatGroup &root) = 0;

    /** Commit the run. Idempotent; also called from the destructor. */
    virtual void finishRun() = 0;

    /** False for NullSink: callers may skip expensive captures. */
    virtual bool live() const { return true; }
};

/**
 * Create the sink a --stats-out URI names: "" or "null" discard,
 * "sqlite:<path>" writes the sweep database, anything else writes
 * the bench results JSON document to that path. Fatal when the
 * destination cannot be opened for writing, so a bad path fails
 * before any simulation runs.
 */
std::unique_ptr<StatsSink> makeStatsSink(const std::string &uri);

/** True when @p uri names a SQLite sink ("sqlite:<path>"). */
bool isSqliteUri(const std::string &uri);

/** The path inside a "sqlite:<path>" URI (fatal on other URIs). */
std::string sqliteUriPath(const std::string &uri);

} // namespace emerald

#endif // EMERALD_SWEEP_STATS_SINK_HH
