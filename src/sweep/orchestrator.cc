#include "sweep/orchestrator.hh"

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <map>
#include <optional>
#include <thread>

#include "sim/logging.hh"
#include "sweep/db.hh"
#include "sweep/supervisor.hh"

namespace emerald
{
namespace sweep
{

std::vector<std::string>
pointCommand(const SweepSpec &spec, const SweepPoint &point,
             const OrchestratorOptions &opts)
{
    std::vector<std::string> command;
    command.push_back(opts.benchBin);
    command.push_back("--run=" + spec.scenario);
    for (const auto &[key, value] : point.params)
        command.push_back("--" + key + "=" + value);
    command.push_back("--stats-out=sqlite:" + opts.dbPath);
    if (!opts.gitSha.empty())
        command.push_back("--git-sha=" + opts.gitSha);
    if (!spec.restoreDir.empty())
        command.push_back("--restore=" + spec.restoreDir);
    if (!spec.replayDir.empty())
        command.push_back("--replay-trace=" + spec.replayDir);
    return command;
}

namespace
{

using Clock = std::chrono::steady_clock;

/** One pending point's retry ledger. */
struct PointState
{
    const SweepPoint *point = nullptr;
    /** Failures charged so far (seeded from run_failures, so a
     *  kill -9'd orchestrator resumes a half-retried point with its
     *  budget partially spent). */
    unsigned failures = 0;
    /** Earliest relaunch time (backoff). */
    Clock::time_point eligibleAt = Clock::time_point::min();
    bool finished = false;
};

} // namespace

SweepReport
runSweep(const SweepSpec &spec,
         const std::vector<SweepPoint> &pending,
         const OrchestratorOptions &opts)
{
    SweepReport report;
    report.total = pending.size();

    if (opts.dryRun) {
        for (const SweepPoint &point : pending) {
            std::string line;
            for (const std::string &arg :
                 pointCommand(spec, point, opts))
                line += (line.empty() ? "" : " ") + arg;
            inform("dry-run: %s", line.c_str());
        }
        return report;
    }

    unsigned jobs = opts.jobs;
    if (jobs == 0) {
        jobs = std::thread::hardware_concurrency();
        if (jobs == 0)
            jobs = 1;
    }

    std::string logDir = opts.outDir + "/logs";
    std::error_code ec;
    std::filesystem::create_directories(logDir, ec);
    fatal_if(static_cast<bool>(ec), "cannot create directory '%s': %s",
             logDir.c_str(), ec.message().c_str());

    auto hangReportPath = [&](const SweepPoint &point) {
        return logDir + "/" + point.fingerprintHex + ".hang.json";
    };

    std::vector<PointState> states(pending.size());
    std::size_t finished = 0;
    auto quarantine = [&](PointState &st) {
        if (opts.db) {
            opts.db->setRunStatus(spec.scenario,
                                  st.point->fingerprintHex,
                                  opts.gitSha, "quarantined");
        }
        st.finished = true;
        ++finished;
        ++report.failed;
        ++report.quarantined;
    };
    for (std::size_t i = 0; i < pending.size(); ++i) {
        states[i].point = &pending[i];
        if (opts.db) {
            states[i].failures = opts.db->failureCount(
                spec.scenario, pending[i].fingerprintHex,
                opts.gitSha);
        }
        if (states[i].failures > opts.maxRetries) {
            // The budget was exhausted in a previous launch (the
            // orchestrator died before, or while, quarantining):
            // finish the quarantine instead of retrying forever
            // across relaunches.
            warn("sweep point %s: retry budget already exhausted "
                 "(%u failures on record) — quarantined",
                 pending[i].fingerprintHex.c_str(),
                 states[i].failures);
            quarantine(states[i]);
        }
    }

    // Dispatch loop: keep up to `jobs` children in flight; whenever
    // one exits, harvest it, classify any failure, and either
    // relaunch the point after its backoff or quarantine it.
    std::map<pid_t, std::size_t> running;
    while (finished < states.size()) {
        Clock::time_point now = Clock::now();
        bool deferred = false;
        for (std::size_t i = 0;
             i < states.size() && running.size() < jobs; ++i) {
            PointState &st = states[i];
            bool launched = false;
            for (const auto &[pid, idx] : running)
                launched |= idx == i;
            if (st.finished || launched)
                continue;
            if (st.eligibleAt > now) {
                deferred = true;
                continue;
            }
            const SweepPoint &point = *st.point;
            std::string logPath =
                logDir + "/" + point.fingerprintHex + ".log";
            // A stale hang report would misclassify the next
            // failure, so each launch starts with a clean slate.
            std::remove(hangReportPath(point).c_str());
            std::vector<std::string> command =
                pointCommand(spec, point, opts);
            command.push_back("--hang-report-path=" +
                              hangReportPath(point));
            std::vector<char *> argv;
            for (std::string &arg : command)
                argv.push_back(arg.data());
            argv.push_back(nullptr);
            running[supervise::launchChild(logPath, [&argv] {
                ::execv(argv[0], argv.data());
                // exec failed; the parent sees exit 127 like a shell
                // would.
                return 127;
            })] = i;
        }

        if (running.empty()) {
            // Everything unfinished is backing off; nap briefly
            // rather than tracking the exact next deadline.
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
            continue;
        }

        // With deferred points waiting on a backoff deadline, poll so
        // an expiring deadline is not stuck behind a slow sibling.
        int status = 0;
        pid_t pid = supervise::reapChild(-1, !deferred, status);
        if (pid == 0) {
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
            continue;
        }
        auto it = running.find(pid);
        if (it == running.end())
            continue;
        PointState &st = states[it->second];
        const SweepPoint &point = *st.point;
        running.erase(it);

        // A child's completion marker is its committed run: exit 0
        // without one is a spurious exit.
        bool committed =
            !opts.db || opts.db->runStatus(spec.scenario,
                                           point.fingerprintHex,
                                           opts.gitSha) == "done";
        std::optional<supervise::FailureRecord> failure =
            supervise::classifyExit(status, committed,
                                    hangReportPath(point));
        if (!failure) {
            st.finished = true;
            ++finished;
            ++report.succeeded;
            inform("sweep: [%zu/%zu] %s done", finished,
                   states.size(), point.fingerprintHex.c_str());
            continue;
        }

        const char *cls = supervise::failureClassName(failure->cls);
        warn("sweep point %s failed (%s: %s; log: %s/%s.log)",
             point.fingerprintHex.c_str(), cls,
             failure->detail.c_str(), logDir.c_str(),
             point.fingerprintHex.c_str());

        failure->attempt = st.failures++;
        if (opts.db) {
            opts.db->recordFailure(
                spec.scenario, point.fingerprintHex, opts.gitSha,
                failure->attempt, cls, failure->signal,
                failure->exitCode, /*recoveredTick=*/0, failure->detail);
        }

        if (st.failures > opts.maxRetries) {
            warn("sweep point %s: %u failure(s), budget exhausted — "
                 "quarantined",
                 point.fingerprintHex.c_str(), st.failures);
            quarantine(st);
            inform("sweep: [%zu/%zu] %s QUARANTINED", finished,
                   states.size(), point.fingerprintHex.c_str());
            continue;
        }

        if (opts.db) {
            opts.db->setRunStatus(spec.scenario, point.fingerprintHex,
                                  opts.gitSha, "retrying");
        }
        unsigned delayMs = supervise::backoffMs(
            opts.backoffBaseMs, st.failures > 1 ? st.failures - 1 : 0);
        st.eligibleAt =
            Clock::now() + std::chrono::milliseconds(delayMs);
        ++report.retried;
        inform("sweep: %s retrying in %u ms (failure %u/%u)",
               point.fingerprintHex.c_str(), delayMs, st.failures,
               opts.maxRetries + 1);
    }
    return report;
}

} // namespace sweep
} // namespace emerald
