#include "sim/stats_sink.hh"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <sstream>

#include "sim/logging.hh"
#include "sim/stats.hh"

#ifdef EMERALD_HAS_SQLITE
#include <sqlite3.h>
#endif

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

/** Current wall-clock time as "YYYY-MM-DDTHH:MM:SSZ" (UTC). */
std::string
isoNow()
{
    std::time_t now = std::time(nullptr);
    std::tm tm_utc{};
    gmtime_r(&now, &tm_utc);
    char buf[32];
    std::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%SZ", &tm_utc);
    return buf;
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
    explicit JsonFileSink(std::string path) : _path(std::move(path)) {}

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
 * Raw stats-tree JSON (the --sim-stats-out exit dump): exactly what
 * Simulation::dumpStatsJson writes, with no document wrapper. One
 * addStatsTree() call supplies the tree; scalars are rejected.
 */
class JsonTreeFileSink : public StatsSink
{
  public:
    explicit JsonTreeFileSink(std::string path)
        : _path(std::move(path))
    {}

    ~JsonTreeFileSink() override { finishRun(); }

    void beginRun(const RunInfo &) override {}

    void
    recordScalar(const std::string &key, double) override
    {
        panic("JsonTreeFileSink carries a stats tree, not scalar "
              "results (key '%s')", key.c_str());
    }

    void
    addStatsTree(const std::string &, const StatGroup &root) override
    {
        std::ostringstream os;
        root.dumpJson(os);
        os << "\n";
        _text = os.str();
    }

    void
    finishRun() override
    {
        if (_done)
            return;
        _done = true;
        std::ofstream os(_path);
        if (!os.is_open()) {
            warn("cannot open stats file '%s'", _path.c_str());
            return;
        }
        os << _text;
    }

  private:
    std::string _path;
    std::string _text;
    bool _done = false;
};

#ifdef EMERALD_HAS_SQLITE

/**
 * The sweep results store (docs/sweeps.md): every run lands in one
 * SQLite database keyed by (bench, config fingerprint, git sha).
 *
 * The whole run commits in a single IMMEDIATE transaction, so a
 * killed run leaves no partial rows — the sweep orchestrator treats
 * "committed row with status done" as its completion journal and a
 * resume re-runs exactly the points that never committed. Re-running
 * a point replaces its previous rows (upsert on the unique key).
 *
 * Concurrent writers (one per sweep worker process) are serialized
 * by SQLite itself; a generous busy timeout absorbs the contention
 * of whole sweeps' worth of small commits.
 */
class SqliteSink : public StatsSink
{
  public:
    explicit SqliteSink(const std::string &path)
    {
        if (sqlite3_open(path.c_str(), &_db) != SQLITE_OK) {
            fatal("cannot open sqlite stats db '%s': %s", path.c_str(),
                  _db ? sqlite3_errmsg(_db) : "out of memory");
        }
        sqlite3_busy_timeout(_db, sqliteBusyTimeoutMs(120000));
        // WAL lets sweep workers commit without blocking readers;
        // best effort (plain rollback journal is correct too).
        exec("PRAGMA journal_mode=WAL", true);
        exec("PRAGMA synchronous=NORMAL", true);
        createSchema();
        _start = std::chrono::steady_clock::now();
    }

    SqliteSink(const SqliteSink &) = delete;
    SqliteSink &operator=(const SqliteSink &) = delete;

    ~SqliteSink() override
    {
        finishRun();
        sqlite3_close(_db);
    }

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
        double wall_ms =
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - _start)
                .count();

        exec("BEGIN IMMEDIATE");
        std::int64_t run_id = upsertRun(wall_ms);
        // Replace any previous attempt's detail rows wholesale.
        execBound("DELETE FROM run_params WHERE run_id=?1", run_id);
        execBound("DELETE FROM stats WHERE run_id=?1", run_id);
        insertParams(run_id);
        insertStats(run_id);
        exec("COMMIT");
    }

  private:
    void
    exec(const char *sql, bool best_effort = false)
    {
        std::string msg;
        if (sqliteExecRetry(_db, sql, &msg) != SQLITE_OK) {
            if (!best_effort)
                fatal("sqlite stats db: '%s' failed: %s", sql,
                      msg.c_str());
        }
    }

    void
    execBound(const char *sql, std::int64_t run_id)
    {
        sqlite3_stmt *stmt = prepare(sql);
        sqlite3_bind_int64(stmt, 1, run_id);
        stepDone(stmt, sql);
    }

    sqlite3_stmt *
    prepare(const char *sql)
    {
        sqlite3_stmt *stmt = nullptr;
        if (sqlite3_prepare_v2(_db, sql, -1, &stmt, nullptr) !=
            SQLITE_OK) {
            fatal("sqlite stats db: cannot prepare '%s': %s", sql,
                  sqlite3_errmsg(_db));
        }
        return stmt;
    }

    void
    stepDone(sqlite3_stmt *stmt, const char *what)
    {
        int rc = sqlite3_step(stmt);
        sqlite3_finalize(stmt);
        if (rc != SQLITE_DONE)
            fatal("sqlite stats db: '%s' failed: %s", what,
                  sqlite3_errmsg(_db));
    }

    void
    createSchema()
    {
        exec("BEGIN IMMEDIATE");
        for (const std::string &ddl : sweepSchemaStatements())
            exec(ddl.c_str());
        exec("COMMIT");
    }

    std::int64_t
    upsertRun(double wall_ms)
    {
        sqlite3_stmt *stmt = prepare(
            "INSERT INTO runs"
            "(bench, fingerprint, git_sha, status, wall_ms,"
            " finished_at) VALUES(?1, ?2, ?3, 'done', ?4, ?5) "
            "ON CONFLICT(bench, fingerprint, git_sha) DO UPDATE SET "
            "status='done', wall_ms=excluded.wall_ms, "
            "finished_at=excluded.finished_at");
        std::string fp = strprintf("%016llx",
                                   (unsigned long long)
                                       _info.fingerprint);
        std::string now = isoNow();
        sqlite3_bind_text(stmt, 1, _info.bench.c_str(), -1,
                          SQLITE_TRANSIENT);
        sqlite3_bind_text(stmt, 2, fp.c_str(), -1, SQLITE_TRANSIENT);
        sqlite3_bind_text(stmt, 3, _info.gitSha.c_str(), -1,
                          SQLITE_TRANSIENT);
        sqlite3_bind_double(stmt, 4, wall_ms);
        sqlite3_bind_text(stmt, 5, now.c_str(), -1, SQLITE_TRANSIENT);
        stepDone(stmt, "upsert run");

        sqlite3_stmt *sel = prepare(
            "SELECT run_id FROM runs WHERE bench=?1 AND "
            "fingerprint=?2 AND git_sha=?3");
        sqlite3_bind_text(sel, 1, _info.bench.c_str(), -1,
                          SQLITE_TRANSIENT);
        sqlite3_bind_text(sel, 2, fp.c_str(), -1, SQLITE_TRANSIENT);
        sqlite3_bind_text(sel, 3, _info.gitSha.c_str(), -1,
                          SQLITE_TRANSIENT);
        std::int64_t run_id = -1;
        if (sqlite3_step(sel) == SQLITE_ROW)
            run_id = sqlite3_column_int64(sel, 0);
        sqlite3_finalize(sel);
        if (run_id < 0)
            fatal("sqlite stats db: upserted run vanished");
        return run_id;
    }

    void
    insertParams(std::int64_t run_id)
    {
        sqlite3_stmt *stmt = prepare(
            "INSERT INTO run_params(run_id, key, value) "
            "VALUES(?1, ?2, ?3)");
        for (const auto &[key, value] : _info.params) {
            sqlite3_reset(stmt);
            sqlite3_bind_int64(stmt, 1, run_id);
            sqlite3_bind_text(stmt, 2, key.c_str(), -1,
                              SQLITE_TRANSIENT);
            sqlite3_bind_text(stmt, 3, value.c_str(), -1,
                              SQLITE_TRANSIENT);
            if (sqlite3_step(stmt) != SQLITE_DONE) {
                fatal("sqlite stats db: param insert failed: %s",
                      sqlite3_errmsg(_db));
            }
        }
        sqlite3_finalize(stmt);
    }

    void
    insertStats(std::int64_t run_id)
    {
        sqlite3_stmt *stmt = prepare(
            "INSERT OR REPLACE INTO stats(run_id, name, value) "
            "VALUES(?1, ?2, ?3)");
        for (const auto &[name, value] : _rows) {
            sqlite3_reset(stmt);
            sqlite3_bind_int64(stmt, 1, run_id);
            sqlite3_bind_text(stmt, 2, name.c_str(), -1,
                              SQLITE_TRANSIENT);
            if (std::isfinite(value))
                sqlite3_bind_double(stmt, 3, value);
            else
                sqlite3_bind_null(stmt, 3);
            if (sqlite3_step(stmt) != SQLITE_DONE) {
                fatal("sqlite stats db: stat insert failed: %s",
                      sqlite3_errmsg(_db));
            }
        }
        sqlite3_finalize(stmt);
    }

    sqlite3 *_db = nullptr;
    RunInfo _info;
    std::vector<std::pair<std::string, double>> _rows;
    std::chrono::steady_clock::time_point _start;
    bool _done = false;
};

#endif // EMERALD_HAS_SQLITE

std::unique_ptr<StatsSink>
makeSqliteSink(const std::string &uri)
{
#ifdef EMERALD_HAS_SQLITE
    return std::make_unique<SqliteSink>(sqliteUriPath(uri));
#else
    fatal("--stats-out=%s: this build has no SQLite support "
          "(libsqlite3 was not found at configure time)",
          uri.c_str());
#endif
}

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

bool
sqliteSinkAvailable()
{
#ifdef EMERALD_HAS_SQLITE
    return true;
#else
    return false;
#endif
}

std::unique_ptr<StatsSink>
makeStatsSink(const std::string &uri)
{
    if (uri.empty() || uri == "null")
        return std::make_unique<NullSink>();
    if (isSqliteUri(uri))
        return makeSqliteSink(uri);
    return std::make_unique<JsonFileSink>(uri);
}

const std::vector<std::string> &
sweepSchemaStatements()
{
    static const std::vector<std::string> ddl = {
        "CREATE TABLE IF NOT EXISTS sweep_meta("
        "  key TEXT PRIMARY KEY,"
        "  value TEXT NOT NULL)",
        "CREATE TABLE IF NOT EXISTS runs("
        "  run_id INTEGER PRIMARY KEY,"
        "  bench TEXT NOT NULL,"
        "  fingerprint TEXT NOT NULL,"
        "  git_sha TEXT NOT NULL DEFAULT '',"
        "  status TEXT NOT NULL DEFAULT 'done',"
        "  wall_ms REAL,"
        "  finished_at TEXT,"
        "  UNIQUE(bench, fingerprint, git_sha))",
        "CREATE TABLE IF NOT EXISTS run_params("
        "  run_id INTEGER NOT NULL "
        "    REFERENCES runs(run_id) ON DELETE CASCADE,"
        "  key TEXT NOT NULL,"
        "  value TEXT NOT NULL,"
        "  PRIMARY KEY(run_id, key))",
        "CREATE TABLE IF NOT EXISTS stats("
        "  run_id INTEGER NOT NULL "
        "    REFERENCES runs(run_id) ON DELETE CASCADE,"
        "  name TEXT NOT NULL,"
        "  value REAL,"
        "  PRIMARY KEY(run_id, name))",
        // Failure taxonomy (docs/resilience.md): one row per
        // classified per-point failure, keyed like runs so a point's
        // history survives its eventual success. Additive — older
        // readers ignore it, so schema_version stays '1'.
        "CREATE TABLE IF NOT EXISTS run_failures("
        "  failure_id INTEGER PRIMARY KEY,"
        "  bench TEXT NOT NULL,"
        "  fingerprint TEXT NOT NULL,"
        "  git_sha TEXT NOT NULL DEFAULT '',"
        "  attempt INTEGER NOT NULL DEFAULT 0,"
        "  class TEXT NOT NULL,"
        "  signal INTEGER NOT NULL DEFAULT 0,"
        "  exit_code INTEGER NOT NULL DEFAULT -1,"
        "  recovered_tick INTEGER NOT NULL DEFAULT 0,"
        "  detail TEXT NOT NULL DEFAULT '',"
        "  occurred_at TEXT)",
        "INSERT OR IGNORE INTO sweep_meta(key, value) "
        "VALUES('schema_version', '1')",
    };
    return ddl;
}

int
sqliteBusyTimeoutMs(int dfltMs)
{
    const char *env = std::getenv("EMERALD_SQLITE_BUSY_MS");
    if (!env || !*env)
        return dfltMs;
    char *end = nullptr;
    long ms = std::strtol(env, &end, 10);
    if (end == env || *end != '\0' || ms < 0)
        return dfltMs;
    return static_cast<int>(std::min<long>(ms, 600000));
}

#ifdef EMERALD_HAS_SQLITE

namespace
{

/**
 * Deterministic per-connection jitter in [0, limit): a splitmix64
 * finalizer over the connection pointer and attempt number. The
 * sanctioned rand() replacement (sim/random.hh) seeds simulation
 * state; host-side DB backoff must not touch it, and real randomness
 * would make contention stalls unreproducible.
 */
unsigned
backoffJitter(sqlite3 *db, int attempt, unsigned limit)
{
    std::uint64_t x = reinterpret_cast<std::uintptr_t>(db);
    x += static_cast<std::uint64_t>(::getpid());
    x += static_cast<std::uint64_t>(attempt) * 0x9e3779b97f4a7c15ull;
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ull;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebull;
    x ^= x >> 31;
    return limit ? static_cast<unsigned>(x % limit) : 0;
}

} // namespace

int
sqliteExecRetry(sqlite3 *db, const char *sql, std::string *errOut)
{
    // A dozen attempts with the doubling schedule below spans a few
    // seconds past the busy handler's own patience — enough for a
    // whole sweep's worth of workers fighting over one WAL.
    constexpr int maxAttempts = 12;
    constexpr unsigned baseDelayMs = 2;
    constexpr unsigned capDelayMs = 250;

    int rc = SQLITE_OK;
    for (int attempt = 0; attempt < maxAttempts; ++attempt) {
        char *err = nullptr;
        rc = sqlite3_exec(db, sql, nullptr, nullptr, &err);
        if (rc != SQLITE_BUSY && rc != SQLITE_LOCKED) {
            if (errOut)
                *errOut = err ? err : (rc == SQLITE_OK ? "" : "error");
            sqlite3_free(err);
            return rc;
        }
        if (errOut)
            *errOut = err ? err : "database is locked";
        sqlite3_free(err);
        // No rollback here: a busy BEGIN opened nothing, and a busy
        // COMMIT leaves its transaction intact for the retry.
        unsigned delay = std::min(capDelayMs, baseDelayMs << attempt);
        delay = delay / 2 + backoffJitter(db, attempt, delay / 2 + 1);
        ::usleep(delay * 1000u);
    }
    return rc;
}

#else // !EMERALD_HAS_SQLITE

int
sqliteExecRetry(sqlite3 *, const char *sql, std::string *)
{
    fatal("sqliteExecRetry('%s'): this build has no SQLite support",
          sql);
}

#endif // EMERALD_HAS_SQLITE

std::unique_ptr<StatsSink>
makeTreeStatsSink(const std::string &uri)
{
    if (uri.empty() || uri == "null")
        return std::make_unique<NullSink>();
    if (isSqliteUri(uri))
        return makeSqliteSink(uri);
    return std::make_unique<JsonTreeFileSink>(uri);
}

} // namespace emerald
