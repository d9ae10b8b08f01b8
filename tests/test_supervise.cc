/**
 * @file
 * Run-supervisor tests (sweep/supervisor.cc): failure classification
 * from real forked children (SIGKILL, spurious exit, hang report),
 * checkpoint-directory scanning with corrupt rotations skipped, the
 * retry/backoff loop, the deterministic-failure give-up with its
 * triage bundle, and the supervisor.json summary.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <csignal>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "sim/serialize/checkpoint_io.hh"
#include "sweep/supervisor.hh"

namespace emerald
{
namespace
{

namespace fs = std::filesystem;
using supervise::ChildSpec;
using supervise::FailureClass;
using supervise::SupervisorOptions;
using supervise::SupervisorResult;

std::string
tempDir(const std::string &leaf)
{
    std::string dir = ::testing::TempDir() + "emerald_sup_" + leaf;
    fs::remove_all(dir);
    return dir;
}

SupervisorOptions
quickOpts(const std::string &leaf)
{
    SupervisorOptions opts;
    opts.runDir = tempDir(leaf);
    opts.maxRetries = 3;
    opts.backoffBaseMs = 1;
    return opts;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

/** Write a real rotated checkpoint at @p tick under @p base. */
std::string
writeRotation(const std::string &base, Tick tick)
{
    char leaf[32];
    std::snprintf(leaf, sizeof(leaf), "auto-%020llu",
                  static_cast<unsigned long long>(tick));
    std::string dir = base + "/" + leaf;
    CheckpointWriter w(dir, 0xfeedULL, tick, tick / 10);
    CheckpointIo io(w.section("s"));
    io.scalar("x", tick);
    w.finalize();
    return dir;
}

TEST(SuperviseClassify, StableFailureClassNames)
{
    EXPECT_STREQ(failureClassName(FailureClass::Crash), "crash");
    EXPECT_STREQ(failureClassName(FailureClass::Hang), "hang");
    EXPECT_STREQ(failureClassName(FailureClass::CkptCorrupt),
                 "ckpt-corrupt");
    EXPECT_STREQ(failureClassName(FailureClass::OomKilled),
                 "oom-killed");
    EXPECT_STREQ(failureClassName(FailureClass::SpuriousExit),
                 "spurious-exit");
}

TEST(SuperviseBackoff, DoublesThenSaturatesAtThirtySeconds)
{
    // The supervisor's test and default bases, the chaos sweep's
    // first-launch base, and one already past the cap. Shift counts
    // run past 31, where an unchecked 32-bit shift breaks.
    for (unsigned base : {1u, 200u, 5000u, 45000u}) {
        unsigned prev = 0;
        for (unsigned n = 0; n <= 40; ++n) {
            unsigned ms = supervise::backoffMs(base, n);
            std::uint64_t doubled = std::uint64_t{base} << n;
            EXPECT_EQ(ms, doubled < 30000 ? doubled : 30000u)
                << "base " << base << ", n " << n;
            EXPECT_GE(ms, prev) << "base " << base << ", n " << n;
            EXPECT_GT(ms, 0u) << "base " << base << ", n " << n;
            prev = ms;
        }
    }
    EXPECT_EQ(supervise::backoffMs(0, 40), 0u);
}

TEST(Supervise, CleanFirstAttemptIsOneAttemptNoFailures)
{
    SupervisorOptions opts = quickOpts("clean");
    SupervisorResult res = superviseRun(
        opts, [](const ChildSpec &) { return 0; });
    EXPECT_TRUE(res.succeeded);
    EXPECT_EQ(res.attempts, 1u);
    EXPECT_FALSE(res.gaveUp);
    EXPECT_TRUE(res.failures.empty());
    EXPECT_EQ(res.finalExitCode, 0);
    EXPECT_TRUE(fs::exists(opts.runDir + "/supervisor.json"));
}

TEST(Supervise, SigkillClassifiedOomKilledThenRecovers)
{
    SupervisorOptions opts = quickOpts("sigkill");
    SupervisorResult res = superviseRun(
        opts, [](const ChildSpec &spec) {
            if (spec.attempt == 0)
                ::raise(SIGKILL);
            return 0;
        });
    EXPECT_TRUE(res.succeeded);
    EXPECT_EQ(res.attempts, 2u);
    ASSERT_EQ(res.failures.size(), 1u);
    EXPECT_EQ(res.failures[0].cls, FailureClass::OomKilled);
    EXPECT_EQ(res.failures[0].signal, SIGKILL);
    // No checkpoint dir configured: the retry was a cold start.
    EXPECT_TRUE(res.failures[0].recoveredFromTicks.empty());

    std::string summary = readFile(opts.runDir + "/supervisor.json");
    EXPECT_NE(summary.find("\"oom-killed\""), std::string::npos);
    EXPECT_NE(summary.find("\"succeeded\": true"), std::string::npos);
}

TEST(Supervise, ExitZeroWithoutMarkerIsSpuriousExit)
{
    SupervisorOptions opts = quickOpts("spurious");
    SupervisorResult res = superviseRun(
        opts, [](const ChildSpec &spec) {
            if (spec.attempt == 0)
                ::_exit(0); // bypass the marker the wrapper writes
            return 0;
        });
    EXPECT_TRUE(res.succeeded);
    EXPECT_EQ(res.attempts, 2u);
    ASSERT_EQ(res.failures.size(), 1u);
    EXPECT_EQ(res.failures[0].cls, FailureClass::SpuriousExit);
}

TEST(Supervise, HangReportTrumpsExitStatus)
{
    SupervisorOptions opts = quickOpts("hang");
    SupervisorResult res = superviseRun(
        opts, [](const ChildSpec &spec) {
            if (spec.attempt == 0) {
                // What the watchdog's abortWithReport does, minus
                // the simulator: write the report, then die.
                std::ofstream report(spec.hangReportPath);
                report << "{\"kind\": \"hang\"}\n";
                report.close();
                return 134;
            }
            return 0;
        });
    EXPECT_TRUE(res.succeeded);
    ASSERT_EQ(res.failures.size(), 1u);
    EXPECT_EQ(res.failures[0].cls, FailureClass::Hang);
}

TEST(Supervise, DeterministicFailureGivesUpWithTriageBundle)
{
    SupervisorOptions opts = quickOpts("det");
    SupervisorResult res = superviseRun(
        opts, [](const ChildSpec &) { return 3; });
    EXPECT_FALSE(res.succeeded);
    EXPECT_TRUE(res.gaveUp);
    // Same class, same recovery ticks, twice in a row: stop at two
    // attempts even though the budget would allow four.
    EXPECT_EQ(res.attempts, 2u);
    ASSERT_EQ(res.failures.size(), 2u);
    EXPECT_EQ(res.failures[0].cls, FailureClass::Crash);
    EXPECT_EQ(res.failures[1].cls, FailureClass::Crash);
    EXPECT_EQ(res.finalExitCode, 3);

    EXPECT_TRUE(fs::exists(opts.runDir + "/triage/log-tail.txt"));
    EXPECT_TRUE(fs::exists(opts.runDir + "/triage/ckpt-lineage.txt"));
    std::string summary = readFile(opts.runDir + "/supervisor.json");
    EXPECT_NE(summary.find("\"gave_up\": true"), std::string::npos);
}

TEST(Supervise, BudgetExhaustionGivesUp)
{
    SupervisorOptions opts = quickOpts("budget");
    opts.maxRetries = 2;
    SupervisorResult res = superviseRun(
        opts, [](const ChildSpec &spec) {
            // Alternate failure modes so the deterministic-failure
            // detector never sees the same class twice in a row.
            if (spec.attempt % 2 == 0)
                ::raise(SIGKILL);
            return 7;
        });
    EXPECT_FALSE(res.succeeded);
    EXPECT_TRUE(res.gaveUp);
    EXPECT_EQ(res.attempts, 3u); // first try + maxRetries
    ASSERT_EQ(res.failures.size(), 3u);
    EXPECT_EQ(res.failures[0].cls, FailureClass::OomKilled);
    EXPECT_EQ(res.failures[1].cls, FailureClass::Crash);
    EXPECT_EQ(res.failures[2].cls, FailureClass::OomKilled);
}

TEST(SuperviseScan, NewestUsableCheckpointSkipsCorruptRotations)
{
    std::string base = tempDir("scan");
    writeRotation(base, 100);
    std::string mid = writeRotation(base, 500);
    std::string newest = writeRotation(base, 900);
    // Truncate the newest rotation: the scan must fall back to the
    // mid one and report the damage.
    fs::resize_file(newest + "/data.bin", 2);

    std::vector<std::string> corrupt;
    Tick tick = 0;
    std::string pick =
        supervise::newestUsableCheckpoint(base, &corrupt, &tick);
    EXPECT_EQ(pick, mid);
    EXPECT_EQ(tick, 500u);
    ASSERT_EQ(corrupt.size(), 1u);
    EXPECT_NE(corrupt[0].find("auto-00000000000000000900"),
              std::string::npos);
    EXPECT_NE(corrupt[0].find("truncated-section"),
              std::string::npos);

    // An empty / absent base scans to nothing, quietly.
    EXPECT_EQ(supervise::newestUsableCheckpoint(
                  tempDir("scan_absent"), nullptr, nullptr),
              "");
}

TEST(SuperviseScan, NestedPerConfigRotationsAreFound)
{
    // Benches that build one simulation per config rotate under
    // <base>/<config>-<fingerprint>/auto-*; the scan is recursive.
    std::string base = tempDir("scan_nested");
    writeRotation(base + "/BAS-abc", 300);
    std::string newest = writeRotation(base + "/HMC-def", 800);
    Tick tick = 0;
    EXPECT_EQ(supervise::newestUsableCheckpoint(base, nullptr, &tick),
              newest);
    EXPECT_EQ(tick, 800u);
}

TEST(Supervise, RetryRestoresFromNewestCheckpointAndRecordsTick)
{
    SupervisorOptions opts = quickOpts("restore");
    opts.ckptDir = tempDir("restore_ckpt");
    writeRotation(opts.ckptDir, 200);
    std::string newest = writeRotation(opts.ckptDir, 600);

    SupervisorResult res = superviseRun(
        opts, [&](const ChildSpec &spec) {
            if (spec.attempt == 0)
                ::raise(SIGKILL);
            // The retry must be pointed at the newest rotation; a
            // nonzero exit here fails the test via the result.
            return spec.restoreDir == newest ? 0 : 9;
        });
    EXPECT_TRUE(res.succeeded) << "retry saw the wrong restoreDir";
    ASSERT_EQ(res.failures.size(), 1u);
    EXPECT_EQ(res.failures[0].recoveredFromTicks,
              (std::map<std::string, Tick>{{".", 600}}));
}

TEST(Supervise, EachLabelRecordsItsOwnResumeTick)
{
    // A bench with one simulation per label rotates each under its
    // own <label>-<scope> directory and restores from the newest
    // usable rotation there: each label resumes from its own tick, and
    // one whose rotations are all damaged starts cold (0).
    SupervisorOptions opts = quickOpts("labels");
    opts.ckptDir = tempDir("labels_ckpt");
    writeRotation(opts.ckptDir + "/BAS-abc", 100);
    writeRotation(opts.ckptDir + "/BAS-abc", 500);
    writeRotation(opts.ckptDir + "/DCB-abc", 300);
    fs::remove(writeRotation(opts.ckptDir + "/HMC-abc", 200) +
               "/data.bin");

    SupervisorResult res = superviseRun(
        opts,
        [](const ChildSpec &spec) { return spec.attempt == 0 ? 11 : 0; });
    EXPECT_TRUE(res.succeeded);
    ASSERT_FALSE(res.failures.empty());
    EXPECT_EQ(res.failures[0].recoveredFromTicks,
              (std::map<std::string, Tick>{
                  {"BAS-abc", 500}, {"DCB-abc", 300}, {"HMC-abc", 0}}));
    std::string summary = readFile(opts.runDir + "/supervisor.json");
    EXPECT_NE(summary.find("\"recovered_from_ticks\": {\"BAS-abc\": 500, "
                           "\"DCB-abc\": 300, \"HMC-abc\": 0}"),
              std::string::npos)
        << summary;
}

TEST(Supervise, NewResumeTickInOneLabelIsNotDeterministic)
{
    // Each attempt crashes the same way, but one label checkpointed
    // further every time: that is progress, so only the retry budget
    // stops the run.
    SupervisorOptions opts = quickOpts("progress");
    opts.ckptDir = tempDir("progress_ckpt");
    opts.maxRetries = 2;
    writeRotation(opts.ckptDir + "/BAS-abc", 100);
    SupervisorResult res = superviseRun(
        opts, [&opts](const ChildSpec &spec) {
            writeRotation(opts.ckptDir + "/DCB-abc",
                          200 + 100 * spec.attempt);
            return 3;
        });
    EXPECT_TRUE(res.gaveUp);
    EXPECT_EQ(res.attempts, 3u);
    ASSERT_EQ(res.failures.size(), 3u);
    EXPECT_EQ(res.failures[2].recoveredFromTicks,
              (std::map<std::string, Tick>{{"BAS-abc", 100},
                                           {"DCB-abc", 400}}));
}

TEST(Supervise, CorruptRotationRecordedAndOlderOneUsed)
{
    SupervisorOptions opts = quickOpts("corrupt");
    opts.ckptDir = tempDir("corrupt_ckpt");
    std::string older = writeRotation(opts.ckptDir, 250);
    std::string newest = writeRotation(opts.ckptDir, 750);
    fs::remove(newest + "/data.bin");

    SupervisorResult res = superviseRun(
        opts, [&](const ChildSpec &spec) {
            if (spec.attempt == 0)
                return 11;
            return spec.restoreDir == older ? 0 : 9;
        });
    EXPECT_TRUE(res.succeeded);
    // The damaged rotation shows up as an informational
    // ckpt-corrupt record alongside the crash itself.
    ASSERT_EQ(res.failures.size(), 2u);
    EXPECT_EQ(res.failures[0].cls, FailureClass::Crash);
    EXPECT_EQ(res.failures[1].cls, FailureClass::CkptCorrupt);
    EXPECT_NE(res.failures[1].detail.find("missing-data"),
              std::string::npos)
        << res.failures[1].detail;
}

TEST(Supervise, KillAfterMsInjectsMidRunKill)
{
    SupervisorOptions opts = quickOpts("killafter");
    opts.killAfterMs = 20;
    SupervisorResult res = superviseRun(
        opts, [](const ChildSpec &spec) {
            if (spec.attempt == 0) {
                // Attempt 0 dawdles so the supervisor's timer lands.
                ::usleep(2000 * 1000);
            }
            return 0;
        });
    EXPECT_TRUE(res.succeeded);
    EXPECT_EQ(res.attempts, 2u);
    ASSERT_EQ(res.failures.size(), 1u);
    EXPECT_EQ(res.failures[0].cls, FailureClass::OomKilled);
}

} // namespace
} // namespace emerald
