/**
 * @file
 * emerald_sweep: expand a declarative grid spec into one
 * emerald_bench run per point, schedule the runs across host cores,
 * and land every run's stats in one SQLite results store.
 *
 *   emerald_sweep --spec=sweeps/fig12_grid.spec --out=out/sweep \
 *                 [--db=out/sweep/sweep.db] [--jobs=N] \
 *                 [--bench-bin=build/bench/emerald_bench] \
 *                 [--git-sha=$(git rev-parse HEAD)] [--dry-run]
 *
 * Resume is automatic: every child commits its whole run in one DB
 * transaction, so relaunching with the same spec and DB re-runs only
 * the points missing from the store. Relaunching into the same DB
 * with a *different* grid is fatal (spec_hash guard). docs/sweeps.md
 * has the grid grammar and schema.
 */

#include <unistd.h>

#include <filesystem>
#include <string>
#include <vector>

#include "sim/config.hh"
#include "sim/logging.hh"
#include "sweep/db.hh"
#include "sweep/grid.hh"
#include "sweep/manifest.hh"
#include "sweep/orchestrator.hh"

using namespace emerald;
using namespace emerald::sweep;

namespace
{

/** Default bench binary: next to this one, in ../bench. */
std::string
defaultBenchBin(const char *argv0)
{
    std::string self = argv0;
    auto slash = self.rfind('/');
    std::string dir = slash == std::string::npos
                          ? std::string(".")
                          : self.substr(0, slash);
    return dir + "/../bench/emerald_bench";
}

} // namespace

int
main(int argc, char **argv)
{
    Config cfg;
    cfg.parseArgs(argc, argv);

    std::string specPath = cfg.getString("spec", "");
    fatal_if(specPath.empty(),
             "usage: emerald_sweep --spec=<grid.spec> [--out=dir] "
             "[--db=path] [--jobs=N] [--bench-bin=path] "
             "[--git-sha=sha] [--dry-run]");

    SweepSpec spec = loadSweepSpec(specPath);
    std::vector<SweepPoint> points = expandGrid(spec);
    fatal_if(points.empty(), "sweep spec '%s' expands to no points",
             specPath.c_str());

    OrchestratorOptions opts;
    opts.outDir = cfg.getString("out", "sweep-out");
    opts.dbPath = cfg.getString("db", opts.outDir + "/sweep.db");
    opts.gitSha = cfg.getString("git-sha", "");
    opts.jobs = static_cast<unsigned>(cfg.getU64("jobs", 0));
    opts.dryRun = cfg.getBool("dry-run", false);
    opts.benchBin =
        cfg.getString("bench-bin", defaultBenchBin(argv[0]));
    opts.maxRetries =
        static_cast<unsigned>(cfg.getU64("retries", 2));
    opts.backoffBaseMs =
        static_cast<unsigned>(cfg.getU64("retry-backoff-ms", 200));

    std::string hash = specHash(spec);
    inform("sweep: scenario %s, %zu points (spec %s, hash %s)",
           spec.scenario.c_str(), points.size(), specPath.c_str(),
           hash.c_str());

    if (opts.dryRun) {
        // No DB, no manifest, no bench binary needed: just show the
        // command lines the launch would fork.
        SweepReport report = runSweep(spec, points, opts);
        inform("sweep: dry-run, %zu points", report.total);
        return 0;
    }

    fatal_if(::access(opts.benchBin.c_str(), X_OK) != 0,
             "bench binary '%s' is not executable (pass --bench-bin)",
             opts.benchBin.c_str());
    fatal_if(!sweepDbAvailable(),
             "this build has no SQLite support; emerald_sweep needs "
             "the sqlite3 library at configure time");

    std::error_code ec;
    std::filesystem::create_directories(opts.outDir, ec);
    fatal_if(static_cast<bool>(ec), "cannot create directory '%s': %s",
             opts.outDir.c_str(), ec.message().c_str());
    SweepDb db(opts.dbPath);
    opts.db = &db;

    // Resuming into a DB built from a different grid would interleave
    // two sweeps' points; refuse.
    std::string previous = db.getMeta("spec_hash");
    fatal_if(!previous.empty() && previous != hash,
             "results db '%s' was started from a different grid "
             "(spec_hash %s, this spec %s); use a fresh --db/--out",
             opts.dbPath.c_str(), previous.c_str(), hash.c_str());
    db.setMeta("spec_hash", hash);
    db.setMeta("scenario", spec.scenario);
    db.setMeta("spec_path", specPath);

    ManifestInfo manifest;
    manifest.scenario = spec.scenario;
    manifest.specHash = hash;
    manifest.gitSha = opts.gitSha;
    manifest.restoreDir = spec.restoreDir;
    manifest.replayDir = spec.replayDir;
    manifest.points = points;
    writeManifest(opts.outDir + "/manifest.json", manifest);

    std::vector<std::string> done =
        db.doneFingerprints(spec.scenario, opts.gitSha);
    std::vector<SweepPoint> pending = pendingPoints(points, done);
    std::size_t resumed = points.size() - pending.size();
    if (resumed)
        inform("sweep: %zu of %zu points already in %s, resuming "
               "with %zu",
               resumed, points.size(), opts.dbPath.c_str(),
               pending.size());

    SweepReport report = runSweep(spec, pending, opts);
    report.total = points.size();
    report.resumed = resumed;

    inform("sweep: %zu points — %zu resumed, %zu succeeded, %zu "
           "failed (%zu retried, %zu quarantined; db: %s)",
           report.total, report.resumed, report.succeeded,
           report.failed, report.retried, report.quarantined,
           opts.dbPath.c_str());
    return report.failed ? 1 : 0;
}
