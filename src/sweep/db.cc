#include "sweep/db.hh"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <ctime>

#include "sim/logging.hh"
#include "sweep/stats_sink.hh"

#ifdef EMERALD_HAS_SQLITE
#include <sqlite3.h>
#endif

namespace emerald
{
namespace sweep
{

namespace
{

/**
 * The results-store DDL, one CREATE TABLE IF NOT EXISTS (or seed
 * INSERT) per statement. Every connection runs it, so the schema has
 * exactly one definition.
 */
const char *const schemaStatements[] = {
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

} // namespace

bool
sweepDbAvailable()
{
#ifdef EMERALD_HAS_SQLITE
    return true;
#else
    return false;
#endif
}

void
SweepDb::commitRun(const RunInfo &info, double wallMs,
                   const std::vector<std::pair<std::string, double>>
                       &rows)
{
    std::string fp =
        strprintf("%016llx", (unsigned long long)info.fingerprint);
    run("BEGIN IMMEDIATE");
    run("INSERT INTO runs"
        "(bench, fingerprint, git_sha, status, wall_ms, finished_at) "
        "VALUES(?1, ?2, ?3, 'done', ?4, ?5) "
        "ON CONFLICT(bench, fingerprint, git_sha) DO UPDATE SET "
        "status='done', wall_ms=excluded.wall_ms, "
        "finished_at=excluded.finished_at",
        {info.bench, fp, info.gitSha, wallMs, isoNow()});
    std::vector<std::string> id =
        run("SELECT run_id FROM runs WHERE bench=?1 AND "
            "fingerprint=?2 AND git_sha=?3",
            {info.bench, fp, info.gitSha});
    fatal_if(id.empty(), "sweep db '%s': upserted run vanished",
             _path.c_str());
    std::int64_t runId = std::stoll(id.front());
    // Replace any previous attempt's detail rows wholesale.
    run("DELETE FROM run_params WHERE run_id=?1", {runId});
    run("DELETE FROM stats WHERE run_id=?1", {runId});
    for (const auto &[key, value] : info.params) {
        run("INSERT INTO run_params(run_id, key, value) "
            "VALUES(?1, ?2, ?3)",
            {runId, key, value});
    }
    for (const auto &[name, value] : rows) {
        run("INSERT OR REPLACE INTO stats(run_id, name, value) "
            "VALUES(?1, ?2, ?3)",
            {runId, name, value});
    }
    run("COMMIT");
}

std::vector<std::string>
SweepDb::doneFingerprints(const std::string &bench,
                          const std::string &gitSha) const
{
    return run("SELECT fingerprint FROM runs "
               "WHERE bench=?1 AND git_sha=?2 AND status='done'",
               {bench, gitSha});
}

std::string
SweepDb::getMeta(const std::string &key) const
{
    std::vector<std::string> value =
        run("SELECT value FROM sweep_meta WHERE key=?1", {key});
    return value.empty() ? "" : value.front();
}

void
SweepDb::setMeta(const std::string &key, const std::string &value)
{
    run("INSERT INTO sweep_meta(key, value) VALUES(?1, ?2) "
        "ON CONFLICT(key) DO UPDATE SET value=excluded.value",
        {key, value});
}

void
SweepDb::recordFailure(const std::string &bench,
                       const std::string &fingerprint,
                       const std::string &gitSha, unsigned attempt,
                       const std::string &cls, int signal,
                       int exitCode, std::uint64_t recoveredTick,
                       const std::string &detail)
{
    run("INSERT INTO run_failures(bench, fingerprint, git_sha, "
        "attempt, class, signal, exit_code, recovered_tick, detail, "
        "occurred_at) VALUES(?1, ?2, ?3, ?4, ?5, ?6, ?7, ?8, ?9, ?10)",
        {bench, fingerprint, gitSha, attempt, cls, signal, exitCode,
         static_cast<std::int64_t>(recoveredTick), detail, isoNow()});
}

unsigned
SweepDb::failureCount(const std::string &bench,
                      const std::string &fingerprint,
                      const std::string &gitSha) const
{
    std::vector<std::string> count =
        run("SELECT COUNT(*) FROM run_failures WHERE bench=?1 AND "
            "fingerprint=?2 AND git_sha=?3 AND class != 'ckpt-corrupt'",
            {bench, fingerprint, gitSha});
    return static_cast<unsigned>(std::stoul(count.front()));
}

void
SweepDb::setRunStatus(const std::string &bench,
                      const std::string &fingerprint,
                      const std::string &gitSha,
                      const std::string &status)
{
    run("INSERT INTO runs(bench, fingerprint, git_sha, status) "
        "VALUES(?1, ?2, ?3, ?4) "
        "ON CONFLICT(bench, fingerprint, git_sha) DO UPDATE SET "
        "status=excluded.status",
        {bench, fingerprint, gitSha, status});
}

std::string
SweepDb::runStatus(const std::string &bench,
                   const std::string &fingerprint,
                   const std::string &gitSha) const
{
    std::vector<std::string> status =
        run("SELECT status FROM runs WHERE bench=?1 AND "
            "fingerprint=?2 AND git_sha=?3",
            {bench, fingerprint, gitSha});
    return status.empty() ? "" : status.front();
}

#ifdef EMERALD_HAS_SQLITE

namespace
{

/**
 * Busy-handler timeout: the EMERALD_SQLITE_BUSY_MS environment
 * variable when set (stress tests shrink it to force the retry path
 * in SweepDb::run), else two minutes.
 */
int
busyTimeoutMs()
{
    constexpr int dfltMs = 120000;
    const char *env = std::getenv("EMERALD_SQLITE_BUSY_MS");
    if (!env || !*env)
        return dfltMs;
    char *end = nullptr;
    long ms = std::strtol(env, &end, 10);
    if (end == env || *end != '\0' || ms < 0)
        return dfltMs;
    return static_cast<int>(std::min<long>(ms, 600000));
}

/**
 * Deterministic per-connection jitter in [0, limit): a splitmix64
 * finalizer over the connection pointer, pid and attempt number. The
 * sanctioned rand() replacement (sim/random.hh) seeds simulation
 * state; host-side DB backoff must not touch it, and real randomness
 * would make contention stalls unreproducible.
 */
unsigned
backoffJitter(const sqlite3 *db, int attempt, unsigned limit)
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

SweepDb::SweepDb(const std::string &path) : _path(path)
{
    int rc = sqlite3_open(path.c_str(), &_db);
    fatal_if(rc != SQLITE_OK, "cannot open sweep db '%s': %s",
             path.c_str(),
             _db ? sqlite3_errmsg(_db) : "out of memory");
    sqlite3_busy_timeout(_db, busyTimeoutMs());
    // WAL lets sweep workers commit without blocking readers; best
    // effort (a plain rollback journal is correct too).
    sqlite3_exec(_db, "PRAGMA journal_mode=WAL", nullptr, nullptr,
                 nullptr);
    sqlite3_exec(_db, "PRAGMA synchronous=NORMAL", nullptr, nullptr,
                 nullptr);
    run("BEGIN IMMEDIATE");
    for (const char *ddl : schemaStatements)
        run(ddl);
    run("COMMIT");
}

SweepDb::~SweepDb()
{
    sqlite3_close(_db);
}

std::vector<std::string>
SweepDb::run(const char *sql, std::initializer_list<Arg> args) const
{
    // A dozen attempts with the doubling schedule below spans a few
    // seconds past the busy handler's own patience — enough for a
    // whole sweep's worth of workers fighting over one WAL.
    constexpr int maxAttempts = 12;
    constexpr unsigned baseDelayMs = 2;
    constexpr unsigned capDelayMs = 250;

    for (int attempt = 0;; ++attempt) {
        std::vector<std::string> rows;
        sqlite3_stmt *stmt = nullptr;
        int rc = sqlite3_prepare_v2(_db, sql, -1, &stmt, nullptr);
        if (rc == SQLITE_OK) {
            int index = 0;
            for (const Arg &arg : args) {
                ++index;
                if (const auto *text = std::get_if<std::string>(&arg)) {
                    sqlite3_bind_text(stmt, index, text->c_str(), -1,
                                      SQLITE_TRANSIENT);
                } else if (const auto *integer =
                               std::get_if<std::int64_t>(&arg)) {
                    sqlite3_bind_int64(stmt, index, *integer);
                } else if (double real = std::get<double>(arg);
                           std::isfinite(real)) {
                    sqlite3_bind_double(stmt, index, real);
                } else {
                    sqlite3_bind_null(stmt, index);
                }
            }
            while ((rc = sqlite3_step(stmt)) == SQLITE_ROW) {
                const unsigned char *col = sqlite3_column_text(stmt, 0);
                rows.emplace_back(
                    col ? reinterpret_cast<const char *>(col) : "");
            }
        }
        std::string err = rc == SQLITE_DONE ? "" : sqlite3_errmsg(_db);
        sqlite3_finalize(stmt);
        if (rc == SQLITE_DONE)
            return rows;
        bool busy = rc == SQLITE_BUSY || rc == SQLITE_LOCKED;
        fatal_if(!busy || attempt + 1 == maxAttempts,
                 "sweep db '%s': '%s' failed: %s", _path.c_str(), sql,
                 err.c_str());
        // No rollback here: a busy BEGIN opened nothing, and a busy
        // COMMIT leaves its transaction intact for the retry.
        unsigned delay = std::min(capDelayMs, baseDelayMs << attempt);
        delay = delay / 2 + backoffJitter(_db, attempt, delay / 2 + 1);
        ::usleep(delay * 1000u);
    }
}

#else // !EMERALD_HAS_SQLITE

SweepDb::SweepDb(const std::string &path)
{
    fatal("sweep db '%s': this build has no SQLite support "
          "(install sqlite3 headers and reconfigure)", path.c_str());
}

SweepDb::~SweepDb() = default;

std::vector<std::string>
SweepDb::run(const char *sql, std::initializer_list<Arg>) const
{
    panic("sweep db: '%s' without SQLite support", sql);
}

#endif // EMERALD_HAS_SQLITE

} // namespace sweep
} // namespace emerald
