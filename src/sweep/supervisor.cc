#include "sweep/supervisor.hh"

#include <sys/wait.h>

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <utility>

#include "sim/logging.hh"
#include "sim/serialize/serialize.hh"

namespace emerald::supervise
{

namespace fs = std::filesystem;

namespace
{

/** Upper bound on one backoff sleep: a supervisor that naps for
 *  minutes between retries is worse than one that gives up. */
constexpr unsigned backoffCapMs = 30000;

/** Bytes of child log replayed into the failure diagnostic and the
 *  triage bundle. */
constexpr std::size_t logTailBytes = 4096;

std::string
attemptLogPath(const SupervisorOptions &opts, unsigned attempt)
{
    return strprintf("%s/attempt-%u.log", opts.runDir.c_str(), attempt);
}

std::string
markerPath(const SupervisorOptions &opts)
{
    return opts.runDir + "/done.marker";
}

std::string
hangReportPath(const SupervisorOptions &opts)
{
    return opts.runDir + "/hang-report.json";
}

/** Last @p n bytes of @p path ("" when unreadable). */
std::string
fileTail(const std::string &path, std::size_t n)
{
    std::ifstream is(path, std::ios::binary | std::ios::ate);
    if (!is)
        return "";
    auto size = static_cast<std::size_t>(is.tellg());
    std::size_t want = std::min(size, n);
    is.seekg(static_cast<std::streamoff>(size - want));
    std::string out(want, '\0');
    is.read(out.data(), static_cast<std::streamsize>(want));
    return out;
}

/** Replay a completed attempt's log onto our stdout so a supervised
 *  run still prints what the scenario printed. */
void
replayLog(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        return;
    char buf[4096];
    while (is.read(buf, sizeof(buf)) || is.gcount() > 0)
        std::fwrite(buf, 1, static_cast<std::size_t>(is.gcount()),
                    stdout);
    std::fflush(stdout);
}

/** Run one attempt in a child logging to its attempt log, and
 *  return the raw wait status. */
int
runAttempt(const SupervisorOptions &opts, const ChildSpec &spec,
           const std::function<int(const ChildSpec &)> &child)
{
    std::error_code ec;
    fs::remove(markerPath(opts), ec);
    fs::remove(hangReportPath(opts), ec);

    pid_t pid = launchChild(attemptLogPath(opts, spec.attempt), [&] {
        int rc = child(spec);
        if (rc == 0) {
            // The marker distinguishes a real completion from a child
            // that exited 0 without finishing (SpuriousExit).
            std::ofstream marker(markerPath(opts), std::ios::trunc);
            marker << "ok\n";
        }
        return rc;
    });

    // The kill-after deadline is a test hook: it injects a mid-run
    // SIGKILL into the first attempt only, so recovery can be
    // exercised deterministically from CI.
    int status = 0;
    if (opts.killAfterMs > 0 && spec.attempt == 0) {
        for (unsigned waitedMs = 0; waitedMs < opts.killAfterMs;
             waitedMs += 2) {
            if (reapChild(pid, false, status) == pid)
                return status;
            ::usleep(2000);
        }
        ::kill(pid, SIGKILL);
    }
    reapChild(pid, true, status);
    return status;
}

/** Every rotation under the checkpoint directory, with its probe. */
using RotationProbes = std::vector<std::pair<std::string, CkptProbe>>;

RotationProbes
probeRotations(const std::string &ckptDir)
{
    RotationProbes probes;
    for (const std::string &path : listRotations(ckptDir, true)) {
        CkptProbe probe = probeCheckpoint(path);
        probes.emplace_back(path, std::move(probe));
    }
    return probes;
}

/** newestUsableCheckpoint() over one scan's probes. */
std::string
newestUsable(const RotationProbes &probes,
             std::vector<std::string> *corrupt, Tick *tick)
{
    std::string best;
    Tick bestTick = 0;
    for (const auto &[path, probe] : probes) {
        if (!probe.ok()) {
            if (corrupt) {
                corrupt->push_back(strprintf(
                    "%s: %s (%s)", path.c_str(),
                    ckptIntegrityName(probe.status),
                    probe.detail.c_str()));
            }
            continue;
        }
        if (best.empty() || probe.tick > bestTick) {
            best = path;
            bestTick = probe.tick;
        }
    }
    if (tick)
        *tick = bestTick;
    return best;
}

void
writeSummary(const SupervisorOptions &opts,
             const SupervisorResult &result)
{
    std::ofstream os(opts.runDir + "/supervisor.json",
                     std::ios::trunc);
    if (!os) {
        warn("supervisor: cannot write %s/supervisor.json",
             opts.runDir.c_str());
        return;
    }
    os << "{\n";
    os << "  \"succeeded\": " << (result.succeeded ? "true" : "false")
       << ",\n";
    os << "  \"attempts\": " << result.attempts << ",\n";
    os << "  \"gave_up\": " << (result.gaveUp ? "true" : "false")
       << ",\n";
    os << "  \"final_exit_code\": " << result.finalExitCode << ",\n";
    os << "  \"failures\": [";
    for (std::size_t i = 0; i < result.failures.size(); ++i) {
        const FailureRecord &f = result.failures[i];
        os << (i ? ",\n    " : "\n    ");
        os << "{\"class\": \"" << failureClassName(f.cls)
           << "\", \"signal\": " << f.signal
           << ", \"exit_code\": " << f.exitCode
           << ", \"attempt\": " << f.attempt
           << ", \"recovered_from_tick\": " << f.recoveredFromTick
           << ", \"detail\": \"" << jsonEscape(f.detail) << "\"}";
    }
    os << (result.failures.empty() ? "]" : "\n  ]") << "\n}\n";
}

/** Freeze the evidence of an unrecoverable run under
 *  <runDir>/triage/. */
void
writeTriageBundle(const SupervisorOptions &opts, unsigned lastAttempt,
                  const RotationProbes &probes)
{
    std::error_code ec;
    std::string dir = opts.runDir + "/triage";
    fs::create_directories(dir, ec);

    if (fs::exists(hangReportPath(opts), ec))
        fs::copy_file(hangReportPath(opts), dir + "/hang-report.json",
                      fs::copy_options::overwrite_existing, ec);

    std::ofstream tail(dir + "/log-tail.txt", std::ios::trunc);
    if (tail) {
        tail << fileTail(attemptLogPath(opts, lastAttempt),
                         logTailBytes);
    }

    // Checkpoint lineage: every rotation we can see, with its probe
    // verdict, so "which checkpoint should I restore by hand" has an
    // answer.
    std::ofstream lineage(dir + "/ckpt-lineage.txt", std::ios::trunc);
    for (const auto &[path, probe] : probes) {
        lineage << path << " " << ckptIntegrityName(probe.status)
                << " tick=" << probe.tick;
        if (!probe.detail.empty())
            lineage << " (" << probe.detail << ")";
        lineage << "\n";
    }
}

} // namespace

const char *
failureClassName(FailureClass cls)
{
    switch (cls) {
      case FailureClass::Crash:
        return "crash";
      case FailureClass::Hang:
        return "hang";
      case FailureClass::CkptCorrupt:
        return "ckpt-corrupt";
      case FailureClass::OomKilled:
        return "oom-killed";
      case FailureClass::SpuriousExit:
        return "spurious-exit";
    }
    return "unknown";
}

unsigned
backoffMs(unsigned baseMs, unsigned n)
{
    std::uint64_t ms = baseMs;
    for (unsigned i = 0; i < n && ms < backoffCapMs; ++i)
        ms <<= 1;
    return static_cast<unsigned>(
        std::min<std::uint64_t>(ms, backoffCapMs));
}

pid_t
launchChild(const std::string &logPath,
            const std::function<int()> &body)
{
    pid_t pid = ::fork();
    fatal_if(pid < 0, "fork failed: %s", std::strerror(errno));
    if (pid > 0)
        return pid;

    // Child. Capture stdout+stderr into the log so a crash leaves its
    // last words behind.
    int fd = ::open(logPath.c_str(), O_WRONLY | O_CREAT | O_TRUNC,
                    0644);
    if (fd >= 0) {
        ::dup2(fd, STDOUT_FILENO);
        ::dup2(fd, STDERR_FILENO);
        if (fd > STDERR_FILENO)
            ::close(fd);
    }
    int rc = body();
    std::fflush(nullptr);
    _exit(rc);
}

pid_t
reapChild(pid_t pid, bool block, int &status)
{
    for (;;) {
        pid_t done = ::waitpid(pid, &status, block ? 0 : WNOHANG);
        if (done >= 0)
            return done;
        fatal_if(errno != EINTR, "waitpid failed: %s",
                 std::strerror(errno));
    }
}

std::optional<FailureRecord>
classifyExit(int status, bool completed,
             const std::string &hangReportPath)
{
    FailureRecord rec;
    rec.signal = WIFSIGNALED(status) ? WTERMSIG(status) : 0;
    rec.exitCode = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    if (rec.exitCode == 0 && completed)
        return std::nullopt;

    std::error_code ec;
    if (fs::exists(hangReportPath, ec)) {
        // The watchdog got its report out before the process died:
        // trust it over the raw wait status.
        rec.cls = FailureClass::Hang;
        rec.detail = "watchdog hang report at " + hangReportPath;
    } else if (rec.signal == SIGKILL) {
        rec.cls = FailureClass::OomKilled;
        rec.detail = "SIGKILL (oom killer or external kill)";
    } else if (rec.signal != 0) {
        rec.cls = FailureClass::Crash;
        rec.detail = strprintf("terminated by signal %d", rec.signal);
    } else if (rec.exitCode == 0) {
        rec.cls = FailureClass::SpuriousExit;
        rec.detail = "exit 0 without completion marker";
    } else {
        rec.cls = FailureClass::Crash;
        rec.detail = strprintf("exit code %d", rec.exitCode);
    }
    return rec;
}

std::string
newestUsableCheckpoint(const std::string &ckptDir,
                       std::vector<std::string> *corrupt, Tick *tick)
{
    return newestUsable(probeRotations(ckptDir), corrupt, tick);
}

SupervisorResult
superviseRun(const SupervisorOptions &opts,
             const std::function<int(const ChildSpec &)> &child)
{
    fatal_if(opts.runDir.empty(),
             "supervisor: a run directory is required");
    std::error_code ec;
    fs::create_directories(opts.runDir, ec);
    fatal_if(ec && !fs::exists(opts.runDir, ec),
             "supervisor: cannot create run directory '%s'",
             opts.runDir.c_str());

    SupervisorResult result;
    ChildSpec spec;
    spec.hangReportPath = hangReportPath(opts);
    std::optional<FailureRecord> prev;

    for (unsigned attempt = 0;; ++attempt) {
        spec.attempt = attempt;
        result.attempts = attempt + 1;
        int status = runAttempt(opts, spec, child);

        std::optional<FailureRecord> rec = classifyExit(
            status, fs::exists(markerPath(opts), ec),
            spec.hangReportPath);
        if (!rec) {
            result.succeeded = true;
            result.finalExitCode = 0;
            replayLog(attemptLogPath(opts, attempt));
            if (attempt > 0) {
                inform("supervisor: run completed on attempt %u "
                       "after %zu classified failure(s)",
                       attempt, result.failures.size());
            }
            writeSummary(opts, result);
            return result;
        }
        rec->attempt = attempt;
        result.finalExitCode = rec->exitCode;

        // One scan per failure. The next attempt restores from the
        // newest usable rotation, and its tick is the
        // deterministic-failure fingerprint: the same class dying
        // with the same resume point twice in a row means a retry
        // replays the identical path. An empty restoreDir means a
        // cold rerun — still better than giving up.
        RotationProbes probes = probeRotations(opts.ckptDir);
        std::vector<std::string> corrupt;
        spec.restoreDir =
            newestUsable(probes, &corrupt, &rec->recoveredFromTick);
        result.failures.push_back(*rec);
        warn("supervisor: attempt %u failed: %s (%s); tail:\n%s",
             attempt, failureClassName(rec->cls), rec->detail.c_str(),
             fileTail(attemptLogPath(opts, attempt), 512).c_str());

        bool deterministic =
            prev && prev->cls == rec->cls &&
            prev->recoveredFromTick == rec->recoveredFromTick;
        if (deterministic || attempt == opts.maxRetries) {
            if (deterministic) {
                warn("supervisor: deterministic failure (%s from tick "
                     "%llu twice in a row) — giving up, triage bundle "
                     "in %s/triage",
                     failureClassName(rec->cls),
                     (unsigned long long)rec->recoveredFromTick,
                     opts.runDir.c_str());
            } else {
                warn("supervisor: retry budget exhausted after %u "
                     "attempt(s) — triage bundle in %s/triage",
                     result.attempts, opts.runDir.c_str());
            }
            result.gaveUp = true;
            writeTriageBundle(opts, attempt, probes);
            writeSummary(opts, result);
            return result;
        }
        prev = rec;

        for (const std::string &c : corrupt) {
            FailureRecord bad;
            bad.cls = FailureClass::CkptCorrupt;
            bad.attempt = attempt + 1;
            bad.detail = c;
            result.failures.push_back(bad);
            warn("supervisor: %s", c.c_str());
        }

        unsigned delayMs = backoffMs(opts.backoffBaseMs, attempt);
        if (delayMs > 0) {
            inform("supervisor: retrying in %u ms (attempt %u/%u)",
                   delayMs, attempt + 1, opts.maxRetries);
            ::usleep(delayMs * 1000u);
        }
    }
}

} // namespace emerald::supervise
