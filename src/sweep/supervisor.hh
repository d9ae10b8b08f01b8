/**
 * @file
 * Crash-and-hang-resilient run supervisor.
 *
 * A long simulation can die in ways the simulator itself cannot
 * handle: a crash (assertion, segfault), the kernel's OOM killer, or
 * a hang the watchdog aborts on. The supervisor runs the simulation
 * in a forked child and turns those one-way exits into a recovery
 * loop:
 *
 *   1. run the child, capturing its log per attempt;
 *   2. on failure, classify it (crash / hang / oom-killed /
 *      spurious-exit / ckpt-corrupt) from the wait status plus the
 *      watchdog's --hang-report-path JSON file;
 *   3. locate, in each label's directory under the run's checkpoint
 *      directory, the newest integrity-passing rotated checkpoint
 *      (serialize/probeCheckpoint), so each simulation of the next
 *      attempt warm-starts from its own rotation instead of redoing
 *      the whole run;
 *   4. retry with exponential backoff, up to a bounded budget;
 *   5. refuse to loop on a deterministic failure: the same failure
 *      class recovering from the same per-label ticks twice in a row
 *      means retrying cannot help, so give up and write a triage
 *      bundle (hang report, log tail, checkpoint lineage) instead.
 *
 * The child runs a caller-provided callback (bench_main re-enters the
 * scenario with a rewritten argv) rather than exec'ing a binary, so
 * the supervisor works identically under the bench front end and in
 * unit tests. Supervision off means none of this code runs — the
 * scenario executes in-process exactly as before.
 *
 * The sweep orchestrator starts and judges its emerald_bench children
 * with the same launchChild() and classifyExit().
 */

#ifndef EMERALD_SWEEP_SUPERVISOR_HH
#define EMERALD_SWEEP_SUPERVISOR_HH

#include <sys/types.h>

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace emerald::supervise
{

/** Why an attempt died. Stable names via failureClassName(). */
enum class FailureClass : std::uint8_t
{
    /** Signal or nonzero exit without a hang report. */
    Crash,
    /** The watchdog wrote its JSON report before aborting. */
    Hang,
    /** A rotated checkpoint failed its integrity probe. */
    CkptCorrupt,
    /** SIGKILL: on a loaded host, almost always the OOM killer. */
    OomKilled,
    /** Exit 0 without the completion marker: the run lied. */
    SpuriousExit,
};

const char *failureClassName(FailureClass cls);

/**
 * The retry backoff the supervisor and the sweep orchestrator share:
 * @p baseMs doubled @p n times, saturating at 30 s for any @p n.
 */
unsigned backoffMs(unsigned baseMs, unsigned n);

/** One classified failure, as recorded in supervisor.json. */
struct FailureRecord
{
    FailureClass cls = FailureClass::Crash;
    /** Terminating signal, 0 if none. */
    int signal = 0;
    /** Exit code when the child exited normally, -1 otherwise. */
    int exitCode = -1;
    /** Attempt number (0-based) this failure ended. */
    unsigned attempt = 0;
    /** Per label directory of the checkpoint base (its path relative
     *  to the base): the tick of the checkpoint the *next* attempt
     *  resumes from there, 0 for a cold start (no usable rotation).
     *  Labels with no directory yet start cold and are not listed. */
    std::map<std::string, Tick> recoveredFromTicks;
    /** Human-readable detail (signal name, probe status, ...). */
    std::string detail;
};

struct SupervisorOptions
{
    /** Attempt logs, hang reports, marker and triage bundle land
     *  here; created if missing. */
    std::string runDir;
    /** Base the scenario rotates auto-checkpoints under; scanned
     *  recursively for auto-* rotations (benches that build several
     *  simulations nest per-config subdirectories). Empty = no
     *  checkpoint recovery, every retry is a cold start. */
    std::string ckptDir;
    /** Retries after the first attempt (so maxRetries+1 attempts). */
    unsigned maxRetries = 3;
    /** First retry waits this long; doubles per retry, up to 30 s
     *  (backoffMs). */
    unsigned backoffBaseMs = 200;
    /** SIGKILL the child after this much wall time, 0 = never.
     *  (Primarily a test hook for injecting mid-run kills.) */
    unsigned killAfterMs = 0;
};

/** What the child callback needs to know about this attempt. */
struct ChildSpec
{
    /** 0 on the first attempt. */
    unsigned attempt = 0;
    /** Where the watchdog must write its JSON report
     *  (pass through to --hang-report-path). */
    std::string hangReportPath;
    /** Newest integrity-passing checkpoint directory to restore
     *  from; empty on attempt 0 or when none survived. */
    std::string restoreDir;
};

struct SupervisorResult
{
    /** A child completed and wrote its marker. */
    bool succeeded = false;
    /** Attempts consumed (>= 1). */
    unsigned attempts = 0;
    /** Retry budget exhausted or deterministic failure detected. */
    bool gaveUp = false;
    /** Every classified failure, in order. */
    std::vector<FailureRecord> failures;
    /** Exit code of the final child. */
    int finalExitCode = -1;
};

/**
 * Fork a child that sends its stdout and stderr to @p logPath
 * (truncated) and exits with @p body's return value. Returns the
 * child's pid; reap it with reapChild() and judge it with
 * classifyExit().
 */
pid_t launchChild(const std::string &logPath,
                  const std::function<int()> &body);

/**
 * Reap child @p pid (-1: any child) into @p status. Returns the reaped
 * pid, or 0 when @p block is false and no such child has exited yet.
 */
pid_t reapChild(pid_t pid, bool block, int &status);

/**
 * Classify a reaped child from its wait @p status. A child that
 * exited 0 and @p completed (its completion marker exists) succeeded:
 * std::nullopt. Otherwise the failure, with attempt and
 * recoveredFromTicks left for the caller: a report at
 * @p hangReportPath makes it a hang whatever the status says (abort
 * mode ends in panic(), which looks like a plain crash from out here).
 */
std::optional<FailureRecord> classifyExit(
    int status, bool completed, const std::string &hangReportPath);

/**
 * Supervise @p child until it succeeds or the retry budget runs out.
 * The callback runs in a forked process: its return value is the
 * child's exit code, and it must not assume any parent-side state
 * changes survive. A summary is written to <runDir>/supervisor.json.
 */
SupervisorResult superviseRun(
    const SupervisorOptions &opts,
    const std::function<int(const ChildSpec &)> &child);

/**
 * Newest rotation under @p ckptDir (searched recursively) that passes
 * its integrity probe, or "" when none does. Corrupt rotations are
 * reported through @p corrupt (probe status + path) so the supervisor
 * can record them as CkptCorrupt failures.
 */
std::string newestUsableCheckpoint(const std::string &ckptDir,
                                   std::vector<std::string> *corrupt,
                                   Tick *tick);

} // namespace emerald::supervise

#endif // EMERALD_SWEEP_SUPERVISOR_HH
