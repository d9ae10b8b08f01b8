/**
 * @file
 * The sweep results store (docs/sweeps.md), and the only code that
 * talks to SQLite. The children (emerald_bench
 * --stats-out=sqlite:...) commit runs through SqliteSink, which
 * hands each run to commitRun(); the orchestrator reads completion
 * state, journals failures and records sweep-level metadata. Every
 * connection creates the schema if absent, so whichever process
 * touches the DB first wins and the others find the tables already
 * in place.
 *
 * Every statement (bar the two best-effort connection PRAGMAs) retries
 * SQLITE_BUSY/SQLITE_LOCKED with jittered exponential backoff and is
 * fatal on any other error: a read never reports "no rows" for a
 * database it could not read.
 */

#ifndef EMERALD_SWEEP_DB_HH
#define EMERALD_SWEEP_DB_HH

#include <cstdint>
#include <initializer_list>
#include <string>
#include <utility>
#include <variant>
#include <vector>

struct sqlite3;

namespace emerald
{

struct RunInfo;

namespace sweep
{

/** True when SQLite support was compiled in. */
bool sweepDbAvailable();

class SweepDb
{
  public:
    /** Open (creating if absent) @p path; fatal without SQLite. */
    explicit SweepDb(const std::string &path);
    ~SweepDb();

    SweepDb(const SweepDb &) = delete;
    SweepDb &operator=(const SweepDb &) = delete;

    /**
     * Commit one finished run in a single transaction: upsert its
     * runs row as 'done' (keyed by bench, fingerprint and git sha)
     * and replace its run_params and stats rows. A killed run leaves
     * no partial rows. Non-finite stat values are stored as NULL.
     */
    void commitRun(const RunInfo &info, double wallMs,
                   const std::vector<std::pair<std::string, double>>
                       &rows);

    /**
     * Fingerprints of runs already committed for @p bench at
     * @p gitSha — the resume journal: points whose fingerprint is
     * listed here are skipped on relaunch.
     */
    std::vector<std::string> doneFingerprints(
        const std::string &bench, const std::string &gitSha) const;

    /** Read a sweep_meta value ("" when unset). */
    std::string getMeta(const std::string &key) const;

    /** Insert or overwrite a sweep_meta value. */
    void setMeta(const std::string &key, const std::string &value);

    /**
     * Record one classified point failure (docs/resilience.md) in
     * run_failures. @p cls is a failureClassName() string; @p signal
     * 0 when none; @p exitCode -1 when the child did not exit
     * normally; @p recoveredTick the checkpoint tick the retry
     * resumed from (0 = cold).
     */
    void recordFailure(const std::string &bench,
                       const std::string &fingerprint,
                       const std::string &gitSha, unsigned attempt,
                       const std::string &cls, int signal,
                       int exitCode, std::uint64_t recoveredTick,
                       const std::string &detail);

    /**
     * Failures already recorded for one point — a relaunched
     * orchestrator resumes a half-retried point with its attempt
     * budget partially spent instead of reset.
     */
    unsigned failureCount(const std::string &bench,
                          const std::string &fingerprint,
                          const std::string &gitSha) const;

    /**
     * Set a point's runs.status without touching its stats (creates
     * the row if the point never committed — how 'quarantined' rows
     * for never-successful points come to exist).
     */
    void setRunStatus(const std::string &bench,
                      const std::string &fingerprint,
                      const std::string &gitSha,
                      const std::string &status);

    /** A point's runs.status ("" when no row exists). */
    std::string runStatus(const std::string &bench,
                          const std::string &fingerprint,
                          const std::string &gitSha) const;

  private:
    /** One bound parameter; a non-finite double binds NULL. */
    using Arg = std::variant<std::string, std::int64_t, double>;

    /**
     * Run one statement with @p args bound to ?1..?n, retrying
     * BUSY/LOCKED; fatal on any other error. Returns the first
     * column of each result row as text (NULL as "").
     */
    std::vector<std::string> run(const char *sql,
                                 std::initializer_list<Arg> args = {})
        const;

    std::string _path;
    sqlite3 *_db = nullptr;
};

} // namespace sweep
} // namespace emerald

#endif // EMERALD_SWEEP_DB_HH
