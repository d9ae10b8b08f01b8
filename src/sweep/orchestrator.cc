#include "sweep/orchestrator.hh"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <map>
#include <thread>

#include "sim/logging.hh"
#include "sim/supervise/supervisor.hh"
#include "sweep/db.hh"

namespace emerald
{
namespace sweep
{

void
makeDirs(const std::string &path)
{
    std::string::size_type pos = 0;
    while (pos != std::string::npos) {
        pos = path.find('/', pos + 1);
        std::string prefix = path.substr(0, pos);
        if (prefix.empty())
            continue;
        if (::mkdir(prefix.c_str(), 0755) != 0 && errno != EEXIST)
            fatal("cannot create directory '%s': %s", prefix.c_str(),
                  std::strerror(errno));
    }
}

namespace
{

/** Fork one child for @p point; returns its pid. */
pid_t
launchPoint(const std::vector<std::string> &command,
            const std::string &logPath)
{
    pid_t pid = ::fork();
    fatal_if(pid < 0, "fork failed: %s", std::strerror(errno));
    if (pid > 0)
        return pid;

    // Child: stdout+stderr to the per-point log, then exec. Only
    // async-signal-safe calls from here on.
    int fd = ::open(logPath.c_str(), O_WRONLY | O_CREAT | O_TRUNC,
                    0644);
    if (fd >= 0) {
        ::dup2(fd, STDOUT_FILENO);
        ::dup2(fd, STDERR_FILENO);
        if (fd > STDERR_FILENO)
            ::close(fd);
    }
    std::vector<char *> argv;
    argv.reserve(command.size() + 1);
    for (const std::string &arg : command)
        argv.push_back(const_cast<char *>(arg.c_str()));
    argv.push_back(nullptr);
    ::execv(argv[0], argv.data());
    // exec failed; the parent sees exit 127 like a shell would.
    _exit(127);
}

} // namespace

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

/** Classify one dead sweep child (docs/resilience.md taxonomy). */
std::string
classifyPointFailure(int status, bool hangReport)
{
    if (hangReport)
        return "hang";
    if (WIFSIGNALED(status))
        return WTERMSIG(status) == SIGKILL ? "oom-killed" : "crash";
    return "crash";
}

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
    makeDirs(logDir);

    auto hangReportPath = [&](const SweepPoint &point) {
        return logDir + "/" + point.fingerprintHex + ".hang.json";
    };

    std::vector<PointState> states(pending.size());
    std::size_t finished = 0;
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
            if (opts.db) {
                opts.db->setRunStatus(spec.scenario,
                                      pending[i].fingerprintHex,
                                      opts.gitSha, "quarantined");
            }
            warn("sweep point %s: retry budget already exhausted "
                 "(%u failures on record) — quarantined",
                 pending[i].fingerprintHex.c_str(),
                 states[i].failures);
            states[i].finished = true;
            ++finished;
            ++report.failed;
            ++report.quarantined;
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
            running[launchPoint(command, logPath)] = i;
        }

        if (running.empty()) {
            // Everything unfinished is backing off; nap briefly
            // rather than tracking the exact next deadline.
            ::usleep(10000);
            continue;
        }

        // With deferred points waiting on a backoff deadline, poll so
        // an expiring deadline is not stuck behind a slow sibling.
        int status = 0;
        pid_t pid = ::waitpid(-1, &status, deferred ? WNOHANG : 0);
        if (pid == 0) {
            ::usleep(10000);
            continue;
        }
        if (pid < 0) {
            fatal_if(errno != EINTR, "waitpid failed: %s",
                     std::strerror(errno));
            continue;
        }
        auto it = running.find(pid);
        if (it == running.end())
            continue;
        PointState &st = states[it->second];
        const SweepPoint &point = *st.point;
        running.erase(it);

        bool ok = WIFEXITED(status) && WEXITSTATUS(status) == 0;
        if (ok) {
            st.finished = true;
            ++finished;
            ++report.succeeded;
            inform("sweep: [%zu/%zu] %s done", finished,
                   states.size(), point.fingerprintHex.c_str());
            continue;
        }

        bool hangReport =
            ::access(hangReportPath(point).c_str(), F_OK) == 0;
        std::string cls = classifyPointFailure(status, hangReport);
        int sig = WIFSIGNALED(status) ? WTERMSIG(status) : 0;
        int exitCode = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
        std::string detail =
            sig ? strprintf("terminated by signal %d", sig)
                : strprintf("exit code %d", exitCode);
        if (hangReport)
            detail += "; hang report " + hangReportPath(point);
        warn("sweep point %s failed (%s: %s; log: %s/%s.log)",
             point.fingerprintHex.c_str(), cls.c_str(),
             detail.c_str(), logDir.c_str(),
             point.fingerprintHex.c_str());

        unsigned attempt = st.failures++;
        if (opts.db) {
            opts.db->recordFailure(spec.scenario,
                                   point.fingerprintHex, opts.gitSha,
                                   attempt, cls, sig, exitCode,
                                   /*recoveredTick=*/0, detail);
        }

        if (st.failures > opts.maxRetries) {
            if (opts.db) {
                opts.db->setRunStatus(spec.scenario,
                                      point.fingerprintHex,
                                      opts.gitSha, "quarantined");
            }
            warn("sweep point %s: %u failure(s), budget exhausted — "
                 "quarantined",
                 point.fingerprintHex.c_str(), st.failures);
            st.finished = true;
            ++finished;
            ++report.failed;
            ++report.quarantined;
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
