/**
 * @file
 * Shared helpers for the experiment harnesses. Each bench binary
 * regenerates one of the paper's tables or figures (see DESIGN.md's
 * experiment index); absolute numbers differ from the paper's testbed
 * but the shapes are expected to hold (EXPERIMENTS.md).
 */

#ifndef EMERALD_BENCH_HARNESS_HH
#define EMERALD_BENCH_HARNESS_HH

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <memory>
#include <numeric>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "scenes/workloads.hh"
#include "sim/config.hh"
#include "sim/logging.hh"
#include "sim/simulation_builder.hh"
#include "soc/configs.hh"
#include "soc/soc_top.hh"
#include "sweep/stats_sink.hh"

namespace emerald::bench
{

/**
 * @p path with @p label spliced in before its extension
 * ("out/s.json" -> "out/s.<label>.json"); "" and "null" (output off)
 * pass through.
 */
inline std::string
labelledPath(const std::string &path, const std::string &label)
{
    if (path.empty() || path == "null")
        return path;
    std::filesystem::path p(path);
    p.replace_filename(p.stem().string() + "." + label +
                       p.extension().string());
    return p.string();
}

/**
 * The common bench prologue, deduplicated: parses --key=value
 * arguments, interprets --quick, hands out the recipe of every
 * simulation the bench builds (builderFor) and collects the bench's
 * machine-readable output: named scalar results (the numbers the
 * bench prints) plus every simulation's full stats tree, handed to
 * the StatsSink named by --stats-out=<uri> (a plain path writes the
 * JSON document, sqlite:<path> the sweep database, nothing/null
 * discards) when the harness goes out of scope.
 */
class BenchHarness
{
  public:
    BenchHarness(int argc, char **argv, const std::string &bench)
    {
        cfg.parseArgs(argc, argv);
        quick = cfg.getBool("quick", false);
        _sink = makeStatsSink(cfg.getString("stats-out", ""));
        RunInfo info;
        info.bench = bench;
        info.gitSha = cfg.getString("git-sha", "");
        info.fingerprint = sweepPointFingerprint(cfg);
        info.params = sweepPointParams(cfg);
        _sink->beginRun(info);
    }

    BenchHarness(const BenchHarness &) = delete;
    BenchHarness &operator=(const BenchHarness &) = delete;

    ~BenchHarness() { _sink->finishRun(); }

    /** Record one named scalar result. */
    void
    record(const std::string &key, double value)
    {
        _sink->recordScalar(key, value);
    }

    /** Count option --@p key (default @p dflt); 0 is fatal. */
    unsigned
    count(const std::string &key, unsigned dflt) const
    {
        auto n = static_cast<unsigned>(cfg.getU64(key, dflt));
        fatal_if(n == 0, "--%s must be at least 1", key.c_str());
        return n;
    }

    /**
     * Recipe for the one SocTop / StandaloneGpu simulation named
     * @p label, carrying every simulation key of the command line.
     * The label scopes each per-simulation output:
     *  - checkpoint/restore directories: <dir>/<label>-<scope>, where
     *    the checkpoint-scope fingerprint (ckptScopeFingerprintHex)
     *    keeps sweep points that share a label apart unless
     *    --ckpt-share-keys names their differing axes (docs/sweeps.md);
     *  - --trace-file: <stem>.<label><ext>;
     *  - what the rig's exit files in --stats-out: the results
     *    <label>.events, <label>.wall_ms (host time from rig
     *    construction to exit) and <label>.event_hash (53-bit fold,
     *    exact in JSON; 0 without --check-determinism), then the
     *    whole stats tree under the label ("" files it as "sim").
     * A second rig built from one label (a repeated call, or a reused
     * builder) is fatal. A bench with one simulation passes "": bare
     * result keys, unscoped files, and <dir>/<scope>. The hang report
     * is not scoped: the first hang ends the process, and the run
     * supervisor reads that file by name. The rig's exit records
     * into this harness, so the harness must outlive the rig.
     */
    SimulationBuilder
    builderFor(const std::string &label)
    {
        SimulationBuilder builder = SimulationBuilder().observability(cfg);
        std::string scope = ckptScopeFingerprintHex(cfg);
        std::string dir = label.empty() || scope.empty()
                              ? label + scope
                              : label + "-" + scope;
        if (!dir.empty())
            builder.subdir(dir);
        if (!label.empty())
            builder.traceFile(
                labelledPath(cfg.getString("trace-file", ""), label));
        std::string prefix = label.empty() ? "" : label + ".";
        builder.onBuild([this, label, prefix](Simulation &sim) {
            fatal_if(!_labels.insert(label).second,
                     "bench label '%s' reaches a second simulation; "
                     "give each simulation its own builderFor() label",
                     label.c_str());
            auto start = std::chrono::steady_clock::now();
            sim.atExit([this, label, prefix, start, &sim] {
                record(prefix + "events",
                       static_cast<double>(
                           sim.eventQueue().numProcessed()));
                record(prefix + "wall_ms",
                       std::chrono::duration<double, std::milli>(
                           std::chrono::steady_clock::now() - start)
                           .count());
                record(prefix + "event_hash",
                       static_cast<double>(sim.determinismHash() &
                                           ((1ULL << 53) - 1)));
                if (_sink->live())
                    _sink->addStatsTree(label.empty() ? "sim" : label,
                                        sim.statsRoot());
            });
        });
        return builder;
    }

    Config cfg;
    bool quick = false;

  private:
    std::unique_ptr<StatsSink> _sink;
    /** Labels that reached a simulation. */
    std::set<std::string> _labels;
};

/** Render one frame on a standalone rig; returns its cycle count. */
inline core::FrameStats
renderFrame(soc::StandaloneGpu &rig, scenes::SceneRenderer &scene,
            unsigned frame_idx)
{
    bool done = false;
    core::FrameStats stats;
    scene.renderFrame(frame_idx, [&](const core::FrameStats &s) {
        stats = s;
        done = true;
    });
    if (!rig.runUntil([&] { return done; }, ticksFromMs(4000.0)))
        fatal("frame %u did not drain", frame_idx);
    return stats;
}

/** Per-frame means over the measured frames of one WT rig. */
struct WtMeans
{
    double cycles = 0.0;
    /** @{ L1 misses by access kind. */
    double color = 0.0;
    double texture = 0.0;
    double depth = 0.0;
    /** @} */
};

/**
 * Frame cycles and L1 misses for @p workload at WT size @p wt: one
 * warm-up frame plus @p frames measured frames on a fresh rig built
 * from @p builder (a builderFor() recipe, so one call per label).
 */
inline WtMeans
meanCyclesAtWt(const SimulationBuilder &builder,
               scenes::WorkloadId workload, unsigned wt, unsigned fb_w,
               unsigned fb_h, unsigned frames = 3)
{
    soc::StandaloneGpu rig(fb_w, fb_h, soc::caseStudy2GpuParams(),
                           soc::caseStudy2MemParams(), builder);
    scenes::SceneRenderer scene(rig.pipeline(),
                                scenes::makeWorkload(workload),
                                rig.functionalMemory());
    rig.pipeline().setWtSize(wt);
    renderFrame(rig, scene, 0); // Warm-up.
    auto misses = [&](AccessKind kind) {
        return static_cast<double>(rig.gpu().l1Misses(kind));
    };
    double color0 = misses(AccessKind::Color);
    double texture0 = misses(AccessKind::Texture);
    double depth0 = misses(AccessKind::Depth);
    WtMeans out;
    for (unsigned f = 1; f <= frames; ++f)
        out.cycles += static_cast<double>(
            renderFrame(rig, scene, f).cycles);
    out.cycles /= frames;
    out.color = (misses(AccessKind::Color) - color0) / frames;
    out.texture = (misses(AccessKind::Texture) - texture0) / frames;
    out.depth = (misses(AccessKind::Depth) - depth0) / frames;
    return out;
}

/**
 * Print @p memory's DRAM bandwidth per source over time, in GB/s per
 * @p bucket, merging the channels' series: one row per bucket up to
 * the longest CPU or GPU series, at most @p max_rows rows. Returns
 * the bucket count before the cap.
 */
inline std::size_t
printBandwidthTimeline(const mem::MemorySystem &memory, Tick bucket,
                       std::size_t max_rows = SIZE_MAX)
{
    std::size_t buckets = 0;
    for (unsigned ch = 0; ch < memory.numChannels(); ++ch) {
        const auto &mc = memory.channel(ch);
        buckets = std::max({buckets, mc.statBwCpu.buckets().size(),
                            mc.statBwGpu.buckets().size()});
    }
    std::printf("%10s %12s %12s %12s   (GB/s per %.0f us bucket)\n",
                "t(ms)", "cpu", "gpu", "display",
                static_cast<double>(bucket) / 1e6);
    double scale = 1e9 * secondsFromTicks(bucket); // bytes -> GB/s.
    auto at = [](const TimeSeries &series, std::size_t i) {
        return i < series.buckets().size() ? series.buckets()[i] : 0.0;
    };
    for (std::size_t i = 0; i < std::min(buckets, max_rows); ++i) {
        double cpu = 0, gpu = 0, disp = 0;
        for (unsigned ch = 0; ch < memory.numChannels(); ++ch) {
            const auto &mc = memory.channel(ch);
            cpu += at(mc.statBwCpu, i);
            gpu += at(mc.statBwGpu, i);
            disp += at(mc.statBwDisplay, i);
        }
        std::printf("%10.2f %12.3f %12.3f %12.3f\n",
                    msFromTicks(Tick(i) * bucket), cpu / scale,
                    gpu / scale, disp / scale);
    }
    return buckets;
}

/** Pearson correlation coefficient. */
inline double
correlation(const std::vector<double> &x, const std::vector<double> &y)
{
    std::size_t n = x.size();
    double mx =
        std::accumulate(x.begin(), x.end(), 0.0) / static_cast<double>(n);
    double my =
        std::accumulate(y.begin(), y.end(), 0.0) / static_cast<double>(n);
    double sxy = 0, sxx = 0, syy = 0;
    for (std::size_t i = 0; i < n; ++i) {
        sxy += (x[i] - mx) * (y[i] - my);
        sxx += (x[i] - mx) * (x[i] - mx);
        syy += (y[i] - my) * (y[i] - my);
    }
    double denom = std::sqrt(sxx * syy);
    return denom > 0 ? sxy / denom : 0.0;
}

/** The six case-study-II workloads. */
inline std::vector<scenes::WorkloadId>
caseStudy2Workloads()
{
    return {scenes::WorkloadId::W1_Sibenik,
            scenes::WorkloadId::W2_Spot,
            scenes::WorkloadId::W3_Cube,
            scenes::WorkloadId::W4_Suzanne,
            scenes::WorkloadId::W5_SuzanneAlpha,
            scenes::WorkloadId::W6_Teapot};
}

/** The four case-study-I models. */
inline std::vector<scenes::WorkloadId>
caseStudy1Models()
{
    return {scenes::WorkloadId::M1_Chair, scenes::WorkloadId::M2_Cube,
            scenes::WorkloadId::M3_Mask,
            scenes::WorkloadId::M4_Triangles};
}

/** "<model>.<config>": the label of one case-study-I simulation. */
inline std::string
caseLabel(scenes::WorkloadId model, soc::MemConfig config)
{
    return std::string(scenes::workloadName(model)) + "." +
           soc::memConfigName(config);
}

inline std::vector<soc::MemConfig>
allMemConfigs()
{
    return {soc::MemConfig::BAS, soc::MemConfig::DCB,
            soc::MemConfig::DTB, soc::MemConfig::HMC};
}

/** Default SoC parameters for the case-study-I experiments. */
inline soc::SocParams
caseStudy1Params(scenes::WorkloadId model, soc::MemConfig config,
                 bool high_load)
{
    soc::SocParams p;
    p.model = model;
    p.memConfig = config;
    p.highLoad = high_load;
    p.frames = 5; // 1 warm-up + 4 profiled (paper Table 6).
    p.fbWidth = 256;
    p.fbHeight = 192;
    p.cpuPrepRequests = 1500;
    return p;
}

} // namespace emerald::bench

#endif // EMERALD_BENCH_HARNESS_HH
