/**
 * @file
 * The benchmark's own tests: event-to-layer mapping, the synthetic
 * trace's round trip and calibrated shape, and a smoke-size op of
 * every workload.
 */

#include <filesystem>

#include <gtest/gtest.h>

#include "layer_profile.hh"
#include "mem/traffic_trace.hh"
#include "synth_trace.hh"
#include "workloads.hh"

using namespace perfbench;

namespace
{

std::string
scratchDir(const std::string &name)
{
    auto dir = std::filesystem::current_path() /
               ("perfbench_tests_" + name);
    std::filesystem::create_directories(dir);
    return dir.string();
}

OpResult
smokeOp(Workload w, std::uint64_t seed, bool traced, bool hash = false)
{
    OpOptions opts;
    opts.workload = w;
    opts.seed = seed;
    opts.smoke = true;
    opts.traced = traced;
    opts.hash = hash;
    if (w == Workload::MemReplay) {
        opts.traceDir = scratchDir("replay-s" + std::to_string(seed));
        writeReplayTrace(opts.traceDir, seed, true);
    }
    return runOp(opts);
}

} // namespace

TEST(LayerMap, SegmentsDecideTheModule)
{
    EXPECT_EQ(classifyEvent("gfx.tick"), Layer::Core);
    EXPECT_EQ(classifyEvent("gpu.sc0.tick"), Layer::Gpu);
    EXPECT_EQ(classifyEvent("kernels.tick"), Layer::Gpu);
    EXPECT_EQ(classifyEvent("gpu.sc0.l1d.send"), Layer::Cache);
    EXPECT_EQ(classifyEvent("gpu.l2.resp"), Layer::Cache);
    EXPECT_EQ(classifyEvent("cpu3.l1.send"), Layer::Cache);
    EXPECT_EQ(classifyEvent("gpu.xbar2.deliver"), Layer::Noc);
    EXPECT_EQ(classifyEvent("gfx.l2link.deliver"), Layer::Noc);
    EXPECT_EQ(classifyEvent("npu.link.deliver"), Layer::Noc);
    EXPECT_EQ(classifyEvent("dram.ch1.issue"), Layer::Mem);
    EXPECT_EQ(classifyEvent("dash.switch"), Layer::Mem);
    EXPECT_EQ(classifyEvent("cpu0.issue"), Layer::Soc);
    EXPECT_EQ(classifyEvent("replay.p2.issue"), Layer::Soc);
    EXPECT_EQ(classifyEvent("display.scan"), Layer::Soc);
    EXPECT_EQ(classifyEvent("npu.cam.frame"), Layer::Npu);
    EXPECT_EQ(classifyEvent("mystery"), Layer::Other);
    EXPECT_EQ(classifyEvent("cpux.issue"), Layer::Other);
}

TEST(SynthTrace, RoundTripsWithOneStreamPerCore)
{
    SynthTraceParams params;
    params.seed = 7;
    params.frames = 2;
    params.txnsPerCoreFrame = 500;
    const std::string dir = scratchDir("trace");
    SynthTraceSummary summary = writeSynthTrace(dir, params);

    emerald::mem::TrafficTraceReader reader(dir);
    ASSERT_EQ(reader.numClients(), params.cores);
    EXPECT_EQ(reader.numFrames(), params.frames);
    EXPECT_EQ(reader.fbBase(), synthFbBase);
    EXPECT_EQ(reader.numRecords(), summary.records);
    std::uint64_t writes = 0, texture = 0;
    for (unsigned c = 0; c < reader.numClients(); ++c) {
        EXPECT_EQ(reader.clientName(c), "gpu.sc" + std::to_string(c));
        unsigned frame = 0;
        for (const auto &txn : reader.clientTxns(c)) {
            EXPECT_GE(txn.frame, frame); // Frames stay in order.
            frame = txn.frame;
            EXPECT_EQ(txn.addr % 128, 0u);
            writes += txn.write;
            texture += txn.kind == emerald::AccessKind::Texture;
        }
    }
    EXPECT_EQ(writes, summary.writes);
    EXPECT_EQ(texture, summary.textureReads);
    EXPECT_GT(summary.ropShare, 0.0);
    EXPECT_LT(summary.ropShare, 1.0);
}

TEST(SynthTrace, SeedChangesTheTraceButNotItsSize)
{
    SynthTraceParams params;
    params.frames = 2;
    params.txnsPerCoreFrame = 500;
    params.seed = 1;
    SynthTraceSummary one = writeSynthTrace(scratchDir("s1"), params);
    params.seed = 2;
    SynthTraceSummary two = writeSynthTrace(scratchDir("s2"), params);
    EXPECT_NE(one.textureReads, two.textureReads);
    EXPECT_NE(one.ropShare, two.ropShare);
    // Frame lengths vary per seed; the total stays within rounding
    // (one transaction per stream and frame) of the nominal size.
    const double nominal = 500.0 * 2 * params.cores;
    EXPECT_NEAR(static_cast<double>(one.records), nominal,
                2.0 * params.cores);
    EXPECT_NEAR(static_cast<double>(two.records), nominal,
                2.0 * params.cores);
}

TEST(SynthTrace, KeepsTheCalibratedShape)
{
    // The figures of a 15-frame capture of the soc_frames point
    // (README.md, "Calibration"), with tolerances wide enough for what
    // the seed varies.
    const std::string dir = scratchDir("shape");
    writeSynthTrace(dir, SynthTraceParams{});
    auto p = profileTrace(dir);
    EXPECT_NEAR(p["kind.texture.share"], 0.480, 0.05);
    EXPECT_NEAR(p["kind.depth.share"], 0.248, 0.03);
    EXPECT_NEAR(p["kind.color.share"], 0.214, 0.02);
    EXPECT_NEAR(p["kind.inst.share"], 0.057, 0.01);
    EXPECT_NEAR(p["kind.depth.write_share"], 0.86, 0.06);
    EXPECT_EQ(p["kind.color.write_share"], 1.0);
    EXPECT_EQ(p["kind.texture.lines"], 512.0);
    EXPECT_NEAR(p["kind.depth.lines"], 332.0, 20.0);
    EXPECT_NEAR(p["gap_ns.zero_share"], 0.389, 0.02);
    EXPECT_NEAR(p["gap_ns.mean"], 162.0, 25.0);
}

class SmokeOp : public testing::TestWithParam<Workload>
{};

TEST_P(SmokeOp, EveryEventMapsToAModule)
{
    OpResult r = smokeOp(GetParam(), 1, true);
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_GT(r.events, 0u);
    EXPECT_EQ(r.layers.totalEvents(), r.events);
    for (const auto &[name, layer] : r.eventNames)
        EXPECT_NE(layer, Layer::Other) << name;
    EXPECT_EQ(r.layers.events[static_cast<unsigned>(Layer::Other)], 0u);
    EXPECT_FALSE(r.spans.empty());
}

TEST_P(SmokeOp, HashIsReproducibleAndSeedsVerify)
{
    OpResult a = smokeOp(GetParam(), 1, false, true);
    OpResult b = smokeOp(GetParam(), 1, false, true);
    ASSERT_TRUE(a.ok) << a.error;
    ASSERT_TRUE(b.ok) << b.error;
    EXPECT_NE(a.eventHash, 0u);
    EXPECT_EQ(a.eventHash, b.eventHash);
    EXPECT_EQ(a.outputs, b.outputs);

    // A held-out seed gives other inputs that still pass every check;
    // soc_frames takes no seeded input.
    OpResult c = smokeOp(GetParam(), 2, false, true);
    ASSERT_TRUE(c.ok) << c.error;
    if (GetParam() != Workload::SocFrames) {
        EXPECT_NE(a.eventHash, c.eventHash);
    }
}

INSTANTIATE_TEST_SUITE_P(Workloads, SmokeOp,
                         testing::Values(Workload::SocFrames,
                                         Workload::MemReplay,
                                         Workload::GpgpuKernels));
