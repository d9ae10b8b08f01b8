/**
 * @file
 * The sweep process pool: forks one emerald_bench child per pending
 * grid point, keeps --jobs of them running at once (a finished child
 * immediately frees its slot for the next point — work-stealing
 * across host cores), and streams each child's output to a per-point
 * log. Completion journaling is free: every child commits its whole
 * run to the results DB in one transaction, so a sweep killed at any
 * instant resumes from exactly the committed set (docs/sweeps.md).
 */

#ifndef EMERALD_SWEEP_ORCHESTRATOR_HH
#define EMERALD_SWEEP_ORCHESTRATOR_HH

#include <cstddef>
#include <string>
#include <vector>

#include "sweep/grid.hh"

namespace emerald
{
namespace sweep
{

class SweepDb;

struct OrchestratorOptions
{
    /** Path of the emerald_bench binary to fork. */
    std::string benchBin;
    /** SQLite results store every child writes into. */
    std::string dbPath;
    /** Output directory (manifest, per-point logs). */
    std::string outDir;
    /** Recorded with every run ("" when unknown). */
    std::string gitSha;
    /** Concurrent children; 0 means one per host core. */
    unsigned jobs = 0;
    /** Print each point's command line instead of running it. */
    bool dryRun = false;
    /**
     * Per-point retries after the first failure; a point that fails
     * maxRetries+1 times is quarantined (runs.status='quarantined')
     * instead of blocking the sweep (docs/resilience.md).
     */
    unsigned maxRetries = 2;
    /** First per-point retry backoff; doubles per retry, up to 30 s
     *  (supervise::backoffMs). */
    unsigned backoffBaseMs = 200;
    /**
     * Failure journal (borrowed, may be null): classified failures
     * land in run_failures and statuses in runs.status, making the
     * retry budget survive an orchestrator kill -9 — a relaunch
     * resumes half-retried points with their budget partially spent.
     */
    SweepDb *db = nullptr;
};

struct SweepReport
{
    std::size_t total = 0;       ///< points in the expanded grid
    std::size_t resumed = 0;     ///< already committed, not re-run
    std::size_t succeeded = 0;   ///< ran this launch, exit 0
    std::size_t failed = 0;      ///< exhausted their retry budget
    std::size_t retried = 0;     ///< failure-then-relaunch events
    std::size_t quarantined = 0; ///< marked quarantined this launch
};

/**
 * The command line runSweep() would fork for @p point (argv[0] is the
 * bench binary). Exposed for --dry-run and tests.
 */
std::vector<std::string> pointCommand(const SweepSpec &spec,
                                      const SweepPoint &point,
                                      const OrchestratorOptions &opts);

/**
 * Run @p pending (every point of @p spec not already committed) under
 * the process pool. Returns the launch's tally; already-committed
 * points are counted by the caller into SweepReport::resumed.
 */
SweepReport runSweep(const SweepSpec &spec,
                     const std::vector<SweepPoint> &pending,
                     const OrchestratorOptions &opts);

} // namespace sweep
} // namespace emerald

#endif // EMERALD_SWEEP_ORCHESTRATOR_HH
