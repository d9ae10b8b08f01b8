/**
 * @file
 * Tests for the memory-traffic trace subsystem (mem/traffic_trace.hh)
 * and the replay fast path (soc/replay.hh): the writer/reader disk
 * round-trip, capture wiring through a full SoC run, and the
 * capture -> replay -> re-capture determinism oracle — a replayed run
 * must reproduce the captured request stream per client, in order.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <tuple>
#include <vector>

#include "mem/traffic_trace.hh"
#include "sim/serialize/serialize.hh"
#include "sim/simulation_builder.hh"
#include "soc/replay.hh"
#include "soc/soc_top.hh"

using namespace emerald;

namespace
{

std::string
tempDir(const std::string &leaf)
{
    return ::testing::TempDir() + "emerald_" + leaf;
}

soc::SocParams
smallSocParams()
{
    soc::SocParams p;
    p.model = scenes::WorkloadId::M2_Cube;
    p.frames = 2;
    p.fbWidth = 192;
    p.fbHeight = 144;
    p.cpuPrepRequests = 300;
    return p;
}

/** Per-client (frame, addr, kind, write) sequences of @p dir. */
std::vector<std::vector<std::tuple<unsigned, Addr, int, bool>>>
streamsOf(const std::string &dir)
{
    mem::TrafficTraceReader reader(dir);
    std::vector<std::vector<std::tuple<unsigned, Addr, int, bool>>> out;
    for (unsigned c = 0; c < reader.numClients(); ++c) {
        std::vector<std::tuple<unsigned, Addr, int, bool>> seq;
        for (const mem::TraceTxn &t : reader.clientTxns(c)) {
            seq.emplace_back(t.frame, t.addr, static_cast<int>(t.kind),
                             t.write);
        }
        out.push_back(std::move(seq));
    }
    return out;
}

/** @p path's bytes. */
std::string
fileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
}

/**
 * Write @p reader's trace again, through a TrafficTraceWriter. Each
 * frame's records replay before its end, so this reproduces a capture
 * that dropped nothing before its first frame and recorded nothing
 * after its last frame ended (neither is in the reader's API).
 */
void
resave(const mem::TrafficTraceReader &reader, const std::string &dir)
{
    mem::TrafficTraceWriter writer(dir, reader.label(), reader.fbBase());
    for (unsigned c = 0; c < reader.numClients(); ++c)
        writer.addClient(reader.clientName(c));
    for (unsigned f = 0; f < reader.numFrames(); ++f) {
        writer.beginFrame(reader.frameStart(f));
        for (unsigned c = 0; c < reader.numClients(); ++c) {
            for (const mem::TraceTxn &t : reader.clientTxns(c)) {
                if (t.frame == f) {
                    writer.record(c, reader.frameStart(f) + t.offset,
                                  t.addr, t.kind, t.write);
                }
            }
        }
        writer.endFrame(reader.frameEnd(f), reader.frameWork(f));
    }
    writer.finalize();
}

} // namespace

TEST(TrafficTrace, FormatPinAndResaveIsByteIdentical)
{
    // The bytes a fixed capture saves to: a listing that renames,
    // retypes or reorders a record moves this CRC. Loading the file
    // and writing it again gives the same bytes.
    std::string dir = tempDir("traffic_pin");
    {
        mem::TrafficTraceWriter writer(dir, "pin", 0x8000);
        writer.addClient("gpu.sc0");
        writer.addClient("gpu.sc1");
        writer.beginFrame(100);
        writer.record(0, 150, 0x2000, AccessKind::Texture, false);
        writer.record(1, 180, 0x2080, AccessKind::Color, true);
        writer.endFrame(300, 640.0);
        // A drain tail: still frame 0's.
        writer.record(0, 320, 0x2100, AccessKind::Depth, false);
        writer.beginFrame(400);
        writer.record(1, 460, 0x3000, AccessKind::GlobalData, false);
        writer.record(0, 470, 0x3080, AccessKind::Vertex, false);
        writer.endFrame(700, 512.5);
    }
    const std::string bytes = fileBytes(dir + "/data.bin");
    EXPECT_EQ(crc32(bytes.data(), bytes.size()), 0xbcc43290u);

    resave(mem::TrafficTraceReader(dir), dir + "_again");
    EXPECT_TRUE(bytes == fileBytes(dir + "_again/data.bin"));
    std::filesystem::remove_all(dir);
    std::filesystem::remove_all(dir + "_again");
}

TEST(TrafficTrace, WriterReaderRoundTrip)
{
    std::string dir = tempDir("trace_roundtrip");
    {
        mem::TrafficTraceWriter writer(dir, "unit", 0x1000);
        ASSERT_EQ(writer.addClient("c0"), 0u);
        ASSERT_EQ(writer.addClient("c1"), 1u);
        // Records before the first frame are dropped, not attributed.
        writer.record(0, 50, 0xAA00, AccessKind::Texture, false);
        writer.beginFrame(100);
        writer.record(0, 150, 0x2000, AccessKind::Texture, false);
        writer.record(1, 180, 0x2080, AccessKind::Color, true);
        writer.endFrame(300, 640.0);
        // A drain-tail record after endFrame stays on frame 0.
        writer.record(0, 320, 0x2100, AccessKind::Depth, false);
        writer.beginFrame(400);
        writer.record(1, 460, 0x3000, AccessKind::GlobalData, false);
        writer.endFrame(700, 512.0);
        writer.finalize();
        EXPECT_EQ(writer.numRecords(), 4u);
        EXPECT_EQ(writer.droppedRecords(), 1u);
    }

    mem::TrafficTraceReader reader(dir);
    EXPECT_EQ(reader.label(), "unit");
    EXPECT_EQ(reader.fbBase(), 0x1000u);
    ASSERT_EQ(reader.numFrames(), 2u);
    EXPECT_EQ(reader.frameStart(0), 100u);
    EXPECT_EQ(reader.frameEnd(0), 300u);
    EXPECT_DOUBLE_EQ(reader.frameWork(0), 640.0);
    EXPECT_DOUBLE_EQ(reader.frameWork(1), 512.0);
    EXPECT_EQ(reader.numRecords(), 4u);

    ASSERT_EQ(reader.numClients(), 2u);
    EXPECT_EQ(reader.clientName(0), "c0");
    const auto &c0 = reader.clientTxns(0);
    ASSERT_EQ(c0.size(), 2u);
    EXPECT_EQ(c0[0].frame, 0u);
    EXPECT_EQ(c0[0].offset, 50u); // 150 - frame start 100.
    EXPECT_EQ(c0[0].addr, 0x2000u);
    EXPECT_EQ(c0[0].kind, AccessKind::Texture);
    EXPECT_FALSE(c0[0].write);
    EXPECT_EQ(c0[1].frame, 0u); // Drain tail stayed on frame 0.
    EXPECT_EQ(c0[1].offset, 220u);
    const auto &c1 = reader.clientTxns(1);
    ASSERT_EQ(c1.size(), 2u);
    EXPECT_TRUE(c1[0].write);
    EXPECT_EQ(c1[1].frame, 1u);
    EXPECT_EQ(c1[1].offset, 60u);
}

TEST(TrafficTrace, MissingDirectoryIsFatal)
{
    EXPECT_DEATH(
        mem::TrafficTraceReader(tempDir("trace_nonexistent")), "");
}

TEST(TrafficTrace, RenamedSectionIsCorruption)
{
    // A client section renamed in data.bin's index fails the index
    // CRC; the reader never gets as far as a missing section.
    std::string dir = tempDir("trace_renamed");
    {
        mem::TrafficTraceWriter writer(dir, "unit", 0x1000);
        writer.addClient("c0");
        writer.beginFrame(100);
        writer.record(0, 150, 0x2000, AccessKind::Texture, false);
        writer.endFrame(300, 640.0);
        writer.finalize();
    }
    std::string data = dir + "/data.bin";
    std::string bytes;
    {
        std::ifstream in(data, std::ios::binary);
        bytes.assign(std::istreambuf_iterator<char>(in), {});
    }
    auto name = bytes.find("client0");
    ASSERT_NE(name, std::string::npos);
    std::fstream f(data, std::ios::in | std::ios::out |
                             std::ios::binary);
    f.seekp(static_cast<std::streamoff>(name + 6));
    f.put('1');
    f.close();

    EXPECT_DEATH(mem::TrafficTraceReader reader(dir), "fails CRC");
}

TEST(TrafficTraceSoc, CaptureProducesOneClientPerCore)
{
    std::string dir = tempDir("trace_capture");
    {
        soc::SocTop soc(smallSocParams(),
                        SimulationBuilder().captureTrace(dir));
        soc.run(ticksFromMs(500.0));
    }
    mem::TrafficTraceReader reader(dir);
    EXPECT_EQ(reader.label(), "M2-cube");
    ASSERT_EQ(reader.numClients(), 4u);
    EXPECT_EQ(reader.clientName(0), "gpu.sc0");
    ASSERT_EQ(reader.numFrames(), 2u);
    EXPECT_GT(reader.numRecords(), 1000u);
    EXPECT_GT(reader.frameWork(0), 0.0);
}

TEST(TrafficTraceSoc, ReplayReproducesCapturedStreamPerClient)
{
    std::string cap1 = tempDir("trace_rt_capture");
    std::string cap2 = tempDir("trace_rt_recapture");
    soc::SocParams params = smallSocParams();
    {
        soc::SocTop soc(params, SimulationBuilder().captureTrace(cap1));
        soc.run(ticksFromMs(500.0));
    }
    double replay_gpu_ms = 0.0;
    {
        // Replay the capture and re-capture the replayed stream.
        soc::SocTop soc(params, SimulationBuilder()
                                    .replayTrace(cap1)
                                    .captureTrace(cap2));
        ASSERT_TRUE(soc.replayMode());
        soc.run(ticksFromMs(500.0));
        ASSERT_EQ(soc.replayDriver()->frames().size(), 2u);
        // The replay driver is the run's frame loop.
        EXPECT_EQ(&soc.app(), soc.replayDriver());
        for (const auto &frame : soc.app().frames())
            EXPECT_GT(frame.gpuTime(), 0u);
        replay_gpu_ms = soc.meanGpuFrameMs();
    }
    EXPECT_GT(replay_gpu_ms, 0.0);

    // The replayed stream must be the captured stream: same requests,
    // same per-client order, same frame attribution.
    auto original = streamsOf(cap1);
    auto replayed = streamsOf(cap2);
    ASSERT_EQ(original.size(), replayed.size());
    for (std::size_t c = 0; c < original.size(); ++c) {
        ASSERT_EQ(original[c].size(), replayed[c].size()) << c;
        EXPECT_EQ(original[c], replayed[c]) << c;
    }
}

TEST(TrafficTraceSoc, ReplayRefusesMismatchedRun)
{
    std::string dir = tempDir("trace_refuse");
    soc::SocParams params = smallSocParams();
    {
        soc::SocTop soc(params, SimulationBuilder().captureTrace(dir));
        soc.run(ticksFromMs(500.0));
    }
    // More frames than the trace holds.
    soc::SocParams too_many = params;
    too_many.frames = 3;
    EXPECT_DEATH(
        soc::SocTop(too_many, SimulationBuilder().replayTrace(dir)),
        "holds 2 frames but the run wants 3");
}

TEST(TrafficTraceSoc, ReplayCannotCombineWithCheckpointing)
{
    EXPECT_DEATH(SimulationBuilder()
                     .replayTrace(tempDir("trace_x"))
                     .checkpointAt(ticksFromMs(1.0),
                                   tempDir("trace_ckpt"))
                     .build(),
                 "cannot combine with");
}
