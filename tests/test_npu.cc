/**
 * @file
 * Tests for the NPU subsystem (src/npu/): systolic tile timing and
 * the tile walk, the DMA engine's offer/retry conformance under a
 * saturated sink, command-queue completion ordering through the
 * interrupt path, checkpoint round-trip of mid-inference state, and
 * a seeded DRAM-stall fault soak of the NPU-enabled SoC in degrade
 * mode.
 */

#include <gtest/gtest.h>

#include <vector>

#include "npu/camera_model.hh"
#include "npu/dma.hh"
#include "npu/npu_top.hh"
#include "npu/systolic.hh"
#include "sim/serialize/checkpoint_io.hh"
#include "sim/simulation.hh"
#include "sim/simulation_builder.hh"
#include "soc/soc_top.hh"

namespace emerald
{
namespace
{

using npu::NpuCommand;
using npu::NpuLayer;
using npu::SystolicParams;
using npu::SystolicTiming;
using npu::TileWork;

// Systolic timing ------------------------------------------------------

TEST(SystolicTiming, TileCyclesIsFillStreamDrain)
{
    SystolicParams sp;
    sp.rows = 16;
    sp.cols = 16;
    SystolicTiming timing(sp);
    EXPECT_EQ(timing.tileCycles(1), 16u + 16u + 1u);
    EXPECT_EQ(timing.tileCycles(512), 16u + 16u + 512u);
}

TEST(SystolicTiming, KChunkIsBoundedByScratchpadHalves)
{
    SystolicParams sp;
    sp.rows = 16;
    sp.cols = 16;
    sp.elemBytes = 1;
    sp.spInputKB = 32;
    sp.spWeightKB = 32;
    SystolicTiming timing(sp);
    // Half of 32 KB over a 16-wide operand edge = 1024 elements.
    EXPECT_EQ(timing.kChunk({"small", 64, 64, 27}), 27u);
    EXPECT_EQ(timing.kChunk({"big", 64, 64, 4096}), 1024u);
}

TEST(SystolicTiming, TileWalkCoversEveryOutputByteOnce)
{
    SystolicParams sp;
    sp.rows = 16;
    sp.cols = 16;
    SystolicTiming timing(sp);
    const Addr base = 0xC0000000ULL;
    for (const char *model_name : {"tiny-cnn", "mobile"}) {
        auto layers = npu::npuModelLayers(model_name);
        auto walk = timing.tileWalk(layers, base);
        ASSERT_FALSE(walk.empty());
        EXPECT_EQ(walk.front().inAddr, base);
        // Stores happen exactly on the last K-chunk of each output
        // tile; summed over the walk they cover every output element
        // of every layer exactly once.
        std::uint64_t out_bytes = 0, stores = 0;
        for (const TileWork &t : walk) {
            EXPECT_GE(t.inAddr, base);
            EXPECT_GT(t.wAddr, t.inAddr);
            EXPECT_GT(t.inBytes, 0u);
            EXPECT_GT(t.wBytes, 0u);
            EXPECT_GT(t.cycles, 0u);
            out_bytes += t.outBytes;
            if (t.outBytes > 0)
                ++stores;
        }
        std::uint64_t expect_bytes = 0, expect_stores = 0;
        for (const NpuLayer &l : layers) {
            expect_bytes += std::uint64_t(l.m) * l.n * sp.accBytes;
            expect_stores += divCeil(l.m, sp.rows) *
                             divCeil(l.n, sp.cols);
        }
        EXPECT_EQ(out_bytes, expect_bytes) << model_name;
        EXPECT_EQ(stores, expect_stores) << model_name;
    }
}

TEST(SystolicTiming, TileWalkIsDeterministic)
{
    SystolicParams sp;
    SystolicTiming timing(sp);
    auto layers = npu::npuModelLayers("tiny-cnn");
    auto a = timing.tileWalk(layers, 0x1000);
    auto b = timing.tileWalk(layers, 0x1000);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].inAddr, b[i].inAddr);
        EXPECT_EQ(a[i].outBytes, b[i].outBytes);
        EXPECT_EQ(a[i].cycles, b[i].cycles);
    }
}

// DMA engine -----------------------------------------------------------

/** Sink with externally controlled capacity that parks accepted
 *  packets for the test to respond to later. */
struct HoldingSink : public MemSink
{
    explicit HoldingSink(Simulation &sim) : MemSink(sim) {}

    unsigned capacity = 0;
    unsigned offers = 0;
    std::vector<MemPacket *> held;

    bool
    tryAccept(MemPacket *pkt) override
    {
        ++offers;
        if (held.size() >= capacity)
            return false;
        held.push_back(pkt);
        return true;
    }

    void
    respondAll()
    {
        std::vector<MemPacket *> batch;
        batch.swap(held);
        for (MemPacket *pkt : batch)
            completePacket(pkt);
    }

    void
    widen(unsigned n)
    {
        capacity += n;
        while (held.size() < capacity && wakeOneRetryChecked()) {
        }
    }
};

struct RecordingDmaClient : public npu::NpuDmaClient
{
    std::vector<std::uint64_t> done;
    std::vector<std::uint64_t> aborted;

    void dmaTransferDone(std::uint64_t token) override
    {
        done.push_back(token);
    }
    void dmaTransferAborted(std::uint64_t token) override
    {
        aborted.push_back(token);
    }
};

TEST(NpuDma, RejectedBurstHoldsOnePacketAndNeverPolls)
{
    Simulation sim;
    HoldingSink sink(sim);
    RecordingDmaClient client;
    npu::NpuDmaParams dp;
    dp.maxOutstanding = 4;
    dp.burstBytes = 128;
    npu::NpuDmaEngine dma(sim, "dma", dp, sink);
    dma.setClient(&client);

    // Saturated sink: the engine must stop after ONE rejected offer
    // (held for retryRequest), not spin re-offering.
    dma.startTransfer(0x1000, 512, false, 7);
    EXPECT_EQ(sink.offers, 1u);
    EXPECT_FALSE(dma.idle());
    EXPECT_TRUE(client.done.empty());

    // Capacity frees: the sink's FIFO wakeup resumes the burst. The
    // 512-byte transfer is four 128-byte packets.
    sink.widen(4);
    EXPECT_EQ(sink.held.size(), 4u);
    sink.respondAll();
    EXPECT_EQ(client.done, (std::vector<std::uint64_t>{7}));
    EXPECT_TRUE(dma.idle());
    EXPECT_EQ(dma.statTransfers.value(), 1.0);
}

TEST(NpuDma, OutOfOrderResponsesRetireTransfersFifo)
{
    Simulation sim;
    HoldingSink sink(sim);
    sink.capacity = 100;
    RecordingDmaClient client;
    npu::NpuDmaParams dp;
    dp.maxOutstanding = 8;
    dp.burstBytes = 128;
    npu::NpuDmaEngine dma(sim, "dma", dp, sink);
    dma.setClient(&client);

    dma.startTransfer(0x1000, 256, false, 1);
    dma.startTransfer(0x8000, 256, true, 2);
    ASSERT_EQ(sink.held.size(), 4u);

    // Respond to transfer 2's packets first: completion must still
    // be reported in submission order (1 before 2).
    completePacket(sink.held[2]);
    completePacket(sink.held[3]);
    EXPECT_TRUE(client.done.empty());
    completePacket(sink.held[0]);
    completePacket(sink.held[1]);
    sink.held.clear();
    EXPECT_EQ(client.done, (std::vector<std::uint64_t>{1, 2}));
    EXPECT_EQ(dma.statBytesRead.value(), 256.0);
    EXPECT_EQ(dma.statBytesWritten.value(), 256.0);
}

TEST(NpuDma, DegradeAbortsQueuedTransfersAndDrainsStragglers)
{
    Simulation sim;
    HoldingSink sink(sim);
    sink.capacity = 2;
    RecordingDmaClient client;
    npu::NpuDmaParams dp;
    dp.maxOutstanding = 2;
    dp.burstBytes = 128;
    npu::NpuDmaEngine dma(sim, "dma", dp, sink);
    dma.setClient(&client);

    dma.startTransfer(0x1000, 512, false, 11);
    dma.startTransfer(0x8000, 128, false, 12);
    ASSERT_EQ(sink.held.size(), 2u);

    // Watchdog degrade with a stuck burst: every queued transfer is
    // abandoned and reported, responses still in flight just drain.
    dma.onWatchdogDegrade();
    EXPECT_EQ(client.aborted, (std::vector<std::uint64_t>{11, 12}));
    EXPECT_EQ(dma.statAborts.value(), 2.0);
    EXPECT_EQ(dma.pendingTransfers(), 0u);
    sink.respondAll();
    EXPECT_TRUE(dma.idle());
    EXPECT_TRUE(client.done.empty());
}

// NpuTop command flow --------------------------------------------------

/** Sink that accepts everything and responds synchronously. */
struct InstantSink : public MemSink
{
    explicit InstantSink(Simulation &sim) : MemSink(sim) {}

    bool
    tryAccept(MemPacket *pkt) override
    {
        completePacket(pkt);
        return true;
    }
};

struct RecordingIntClient : public npu::NpuIntClient
{
    std::vector<std::uint64_t> doneIds;
    std::vector<bool> abortedFlags;
    double progress = 0.0;

    void
    npuCommandDone(const NpuCommand &cmd, Tick, bool aborted) override
    {
        doneIds.push_back(cmd.id);
        abortedFlags.push_back(aborted);
    }
    void
    npuCommandProgress(const NpuCommand &, double work) override
    {
        progress += work;
    }
};

void
drain(Simulation &sim)
{
    while (sim.eventQueue().runOne()) {
    }
}

TEST(NpuTop, CommandsCompleteInSubmissionOrder)
{
    Simulation sim;
    ClockDomain &clock = sim.createClockDomain(800.0, "npu_clk");
    InstantSink sink(sim);
    npu::NpuParams np;
    np.queueDepth = 2;
    np.model = "tiny-cnn";
    npu::NpuTop top(sim, "npu", np, clock, sink);
    RecordingIntClient irq;
    top.setInterruptClient(&irq);

    // Queue capacity 2 + 1 active: the fourth submit is refused.
    for (std::uint64_t id = 1; id <= 3; ++id)
        EXPECT_TRUE(top.submit({id, static_cast<std::uint32_t>(id),
                                ticksFromMs(100.0), sim.curTick()}));
    EXPECT_FALSE(top.submit({4, 4, ticksFromMs(100.0),
                             sim.curTick()}));
    EXPECT_EQ(top.statCmdsRejected.value(), 1.0);

    drain(sim);
    EXPECT_EQ(irq.doneIds, (std::vector<std::uint64_t>{1, 2, 3}));
    EXPECT_EQ(irq.abortedFlags,
              (std::vector<bool>{false, false, false}));
    EXPECT_EQ(top.statCmdsCompleted.value(), 3.0);
    // Per-tile progress interrupts covered every tile of every
    // inference.
    EXPECT_EQ(irq.progress, 3.0 * top.inferenceWork());
    EXPECT_TRUE(top.dma().idle());
}

TEST(NpuTop, MidInferenceStateRoundTripsThroughCheckpoint)
{
    npu::NpuParams np;
    np.model = "tiny-cnn";

    Simulation sim_a;
    ClockDomain &clock_a = sim_a.createClockDomain(800.0, "npu_clk");
    InstantSink sink_a(sim_a);
    npu::NpuTop a(sim_a, "npu", np, clock_a, sink_a);
    RecordingIntClient irq_a;
    a.setInterruptClient(&irq_a);

    ASSERT_TRUE(a.submit({1, 0, ticksFromMs(100.0), 0}));
    ASSERT_TRUE(a.submit({2, 1, ticksFromMs(100.0), 0}));
    // Step a handful of compute events: mid-inference, tiles done,
    // command 2 still queued.
    for (int i = 0; i < 5; ++i)
        ASSERT_TRUE(sim_a.eventQueue().runOne());
    ASSERT_GT(a.statTiles.value(), 0.0);
    ASSERT_EQ(a.queueDepth(), 1u);

    CheckpointOut out_a("npu");
    CheckpointIo save(out_a, &sim_a);
    a.serialize(save);

    // A fresh device restored from that section must serialize back
    // byte-identically — every execution cursor survived the trip.
    Simulation sim_b;
    ClockDomain &clock_b = sim_b.createClockDomain(800.0, "npu_clk");
    InstantSink sink_b(sim_b);
    npu::NpuTop b(sim_b, "npu", np, clock_b, sink_b);
    CheckpointIo load(CheckpointIn(out_a.sectionName(),
                                   out_a.bytes().data(),
                                   out_a.bytes().size()),
                      &sim_b);
    b.serialize(load);

    CheckpointOut out_b("npu");
    CheckpointIo resave(out_b, &sim_b);
    b.serialize(resave);
    EXPECT_EQ(out_a.bytes(), out_b.bytes());
    EXPECT_EQ(b.queueDepth(), 1u);
}

// Full-SoC integration -------------------------------------------------

soc::SocParams
smallNpuSocParams()
{
    soc::SocParams p;
    p.model = scenes::WorkloadId::M2_Cube;
    p.frames = 2;
    p.fbWidth = 128;
    p.fbHeight = 96;
    p.cpuPrepRequests = 200;
    p.npuEnabled = true;
    p.npuModel = "tiny-cnn";
    return p;
}

TEST(NpuSoc, WarmStartReproducesColdEventHash)
{
    std::string dir =
        ::testing::TempDir() + "emerald_ckpt_npu_soc";
    soc::SocParams p = smallNpuSocParams();
    // High load + the wider CNN keeps an inference (and its DMA
    // bursts) in flight at the 2 ms checkpoint boundary.
    p.highLoad = true;
    p.npuModel = "mobile";

    std::uint64_t cold_hash = 0, cold_events = 0;
    double cold_cmds = 0.0;
    {
        soc::SocTop soc(p, SimulationBuilder().checkDeterminism());
        soc.run(ticksFromMs(1000.0));
        cold_hash = soc.sim().determinismHash();
        cold_events = soc.sim().eventQueue().numProcessed();
        cold_cmds = soc.npu()->statCmdsCompleted.value();
        ASSERT_NE(cold_hash, 0u);
        ASSERT_GT(cold_cmds, 0.0);
    }
    {
        soc::SocTop soc(p, SimulationBuilder()
                               .checkDeterminism()
                               .checkpointAt(ticksFromMs(2.0), dir));
        soc.run(ticksFromMs(1000.0));
        EXPECT_EQ(soc.sim().determinismHash(), cold_hash);
    }
    {
        soc::SocTop soc(p, SimulationBuilder()
                               .checkDeterminism()
                               .restoreFrom(dir));
        EXPECT_TRUE(soc.sim().restored());
        soc.run(ticksFromMs(1000.0));
        EXPECT_EQ(soc.sim().determinismHash(), cold_hash);
        EXPECT_EQ(soc.sim().eventQueue().numProcessed(), cold_events);
        // Stats restart at restore; the warm segment still runs real
        // inferences after the 2 ms boundary.
        EXPECT_GT(soc.npu()->statCmdsCompleted.value(), 0.0);
    }
}

TEST(NpuSoc, SurvivesDramStallCampaignInDegradeMode)
{
    soc::SocParams p = smallNpuSocParams();
    p.highLoad = true; // Constrained memory: stalls bite mid-burst.
    p.npuModel = "mobile";
    p.npuFramePeriod = ticksFromMs(1000.0 / 70.0);

    SimulationBuilder builder;
    builder.checkDeterminism()
        .faultPlan("dram-stall(prob=0.5,len=10us,period=300us)",
                   2024)
        .watchdog(ticksFromUs(250.0), "degrade");

    // Must complete: stalled DMA bursts either ride out the stall or
    // are shed by degrade recovery — never a hang, never a checker
    // abort.
    soc::SocTop soc(p, builder);
    soc.run(ticksFromMs(1000.0));

    EXPECT_GT(soc.sim().faultInjector()->injections(), 0u);
    EXPECT_NE(soc.sim().determinismHash(), 0u);
    // Camera accounting stays consistent: every submitted inference
    // either completed or was explicitly aborted; nothing vanished.
    auto *cam = soc.npuCamera();
    ASSERT_NE(cam, nullptr);
    double submitted =
        cam->statFrames.value() - cam->statDropped.value();
    EXPECT_GT(submitted, 0.0);
    EXPECT_LE(cam->statCompleted.value() + cam->statAborted.value(),
              submitted);
    EXPECT_GE(cam->statCompleted.value(), 1.0);
}

} // namespace
} // namespace emerald
