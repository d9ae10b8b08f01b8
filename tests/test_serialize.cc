/**
 * @file
 * Tests for the checkpoint/restore subsystem (src/sim/serialize/):
 * the typed record codec and its strict schema checking, the
 * writer/reader directory format, Random state round-trips, stats
 * round-trips, in-flight packet and RetryList serialization, the
 * cross-object references that resolve through SimObjects, event
 * queue re-scheduling, the config-fingerprint refusal, and the
 * end-to-end warm-start oracle — a restored SoC run must finish with
 * exactly the cold run's event-stream hash.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <vector>

#include "mem/frfcfs_scheduler.hh"
#include "mem/memory_system.hh"
#include "sim/event_queue.hh"
#include "sim/packet.hh"
#include "sim/random.hh"
#include "sim/serialize/checkpoint_io.hh"
#include "sim/serialize/serialize.hh"
#include "sim/sim_object.hh"
#include "sim/simulation.hh"
#include "sim/simulation_builder.hh"
#include "sim/stats.hh"
#include "soc/configs.hh"
#include "soc/soc_top.hh"

namespace emerald
{
namespace
{

std::string
tempDir(const std::string &leaf)
{
    return ::testing::TempDir() + "emerald_" + leaf;
}

/** Encode @p out and decode it back as a CheckpointIn. */
CheckpointIn
roundTrip(const CheckpointOut &out)
{
    const std::string &bytes = out.bytes();
    return CheckpointIn(out.sectionName(), bytes.data(), bytes.size());
}

/** An io saving into @p out, resolving names against @p sim. */
CheckpointIo
saving(CheckpointOut &out, Simulation &sim)
{
    return CheckpointIo(out, &sim);
}

/** An io loading what @p out holds into @p sim's objects. */
CheckpointIo
loading(const CheckpointOut &out, Simulation &sim)
{
    return CheckpointIo(roundTrip(out), &sim);
}

/** Save @p v as record @p key of @p out. */
template <class T>
void
put(CheckpointOut &out, const std::string &key, T v)
{
    CheckpointIo io(out);
    io.scalar(key, v);
}

/** Record @p key of @p in, loaded as a @p T. */
template <class T>
T
get(const CheckpointIn &in, const std::string &key)
{
    T v{};
    CheckpointIo io(in);
    io.scalar(key, v);
    return v;
}

// Record codec ---------------------------------------------------------

TEST(CheckpointCodec, RoundTripsEveryRecordType)
{
    // One field of each record type, listed once.
    struct Fields
    {
        std::uint64_t u = 0;
        std::int64_t i = 0;
        double f = 0.0;
        bool b0 = true;
        bool b1 = false;
        std::string s;
        std::vector<char> blob;
        std::vector<std::uint64_t> uv;
        std::vector<double> fv;

        void
        list(CheckpointIo &io)
        {
            io.scalar("u", u);
            io.scalar("i", i);
            io.scalar("f", f);
            io.scalar("b0", b0);
            io.scalar("b1", b1);
            io.scalar("s", s);
            io.blob("blob", blob);
            io.vector("uv", uv);
            io.vector("fv", fv);
        }
    };
    const std::vector<char> blob = {0x00, 0x01, 0x7f, (char)0xff};
    Fields saved{0xdeadbeefcafef00dULL, -42, 3.25, false, true,
                 "hello checkpoint", blob, {1, 2, 3}, {0.5, -1.5}};
    CheckpointOut out("test");
    CheckpointIo save(out);
    saved.list(save);

    CheckpointIn in = roundTrip(out);
    Fields back;
    CheckpointIo load(in);
    back.list(load);
    EXPECT_EQ(back.u, 0xdeadbeefcafef00dULL);
    EXPECT_EQ(back.i, -42);
    EXPECT_DOUBLE_EQ(back.f, 3.25);
    EXPECT_FALSE(back.b0);
    EXPECT_TRUE(back.b1);
    EXPECT_EQ(back.s, "hello checkpoint");
    EXPECT_EQ(back.blob, blob);
    EXPECT_EQ(back.uv, (std::vector<std::uint64_t>{1, 2, 3}));
    EXPECT_EQ(back.fv, (std::vector<double>{0.5, -1.5}));
    EXPECT_TRUE(in.has("u"));
    EXPECT_FALSE(in.has("nope"));
}

TEST(CheckpointCodec, MissingKeyIsFatal)
{
    CheckpointOut out("test");
    put<std::uint64_t>(out, "present", 1);
    CheckpointIn in = roundTrip(out);
    EXPECT_DEATH(get<std::uint64_t>(in, "absent"), "missing key");
}

TEST(CheckpointCodec, TypeMismatchIsFatal)
{
    CheckpointOut out("test");
    put(out, "f", 1.0);
    CheckpointIn in = roundTrip(out);
    EXPECT_DEATH(get<std::uint64_t>(in, "f"), "expected");
}

TEST(CheckpointCodec, DuplicateKeyIsFatal)
{
    CheckpointOut out("test");
    put<std::uint64_t>(out, "k", 1);
    EXPECT_DEATH(put<std::uint64_t>(out, "k", 2), "duplicate key");
}

// Writer / reader directory format -------------------------------------

TEST(CheckpointDir, WriterReaderRoundTrip)
{
    std::string dir = tempDir("ckpt_dir");
    {
        CheckpointWriter w(dir, 0xabcdULL, 777, 99);
        put<std::uint64_t>(w.section("alpha"), "x", 11);
        put<std::string>(w.section("beta"), "y", "z");
        w.finalize();
    }
    CheckpointReader r(dir);
    EXPECT_EQ(r.configFingerprint(), 0xabcdULL);
    EXPECT_EQ(r.tick(), 777u);
    EXPECT_EQ(r.numProcessed(), 99u);
    EXPECT_TRUE(r.hasSection("alpha"));
    EXPECT_TRUE(r.hasSection("beta"));
    EXPECT_FALSE(r.hasSection("gamma"));
    EXPECT_EQ(get<std::uint64_t>(r.section("alpha"), "x"), 11u);
    EXPECT_EQ(get<std::string>(r.section("beta"), "y"), "z");
}

TEST(CheckpointDir, HeldSectionSurvivesLaterSections)
{
    // A section may be filled after later ones open (a header that
    // ends with a table of what followed it).
    std::string dir = tempDir("ckpt_held_section");
    {
        CheckpointWriter w(dir, 0, 0, 0);
        CheckpointOut &head = w.section("head");
        put<std::uint64_t>(head, "first", 1);
        for (int i = 0; i < 64; ++i)
            put<std::uint64_t>(w.section("s" + std::to_string(i)), "i", i);
        put<std::uint64_t>(head, "last", 2);
        w.finalize();
    }
    CheckpointReader r(dir);
    CheckpointIn head = r.section("head");
    EXPECT_EQ(get<std::uint64_t>(head, "first"), 1u);
    EXPECT_EQ(get<std::uint64_t>(head, "last"), 2u);
    EXPECT_EQ(get<std::uint64_t>(r.section("s63"), "i"), 63u);
}

TEST(CheckpointDir, MissingSectionIsFatal)
{
    std::string dir = tempDir("ckpt_missing_section");
    {
        CheckpointWriter w(dir, 1, 0, 0);
        put<std::uint64_t>(w.section("only"), "x", 1);
        w.finalize();
    }
    CheckpointReader r(dir);
    EXPECT_DEATH(r.section("other"), "no section");
}

TEST(CheckpointDir, NotACheckpointDirIsFatal)
{
    EXPECT_DEATH(CheckpointReader r(tempDir("ckpt_nonexistent")),
                 "checkpoint directory");
}

// Random ---------------------------------------------------------------

TEST(CheckpointRandom, StateRoundTripContinuesTheStream)
{
    Random rng(12345);
    for (int i = 0; i < 100; ++i)
        rng.next();
    auto state = rng.state();
    std::vector<std::uint64_t> expect;
    for (int i = 0; i < 32; ++i)
        expect.push_back(rng.next());

    Random other(999); // Different seed; state overrides it.
    other.setState(state);
    for (std::uint64_t v : expect)
        EXPECT_EQ(other.next(), v);
}

// Stats ----------------------------------------------------------------

TEST(CheckpointStats, TreeRoundTripsScalarDistributionTimeSeries)
{
    StatGroup root("");
    StatGroup node(root, "node");
    Scalar sc(node, "sc", "scalar");
    Distribution di(node, "di", "distribution");
    TimeSeries ts(node, "ts", "timeseries", 100);
    sc = 42.5;
    di.sample(1.0);
    di.sample(9.0, 3);
    ts.add(50, 2.0);
    ts.add(250, 5.0);

    Simulation sim;
    CheckpointOut out("stats");
    CheckpointIo save = saving(out, sim);
    root.serializeStats(save);

    StatGroup root2("");
    StatGroup node2(root2, "node");
    Scalar sc2(node2, "sc", "scalar");
    Distribution di2(node2, "di", "distribution");
    TimeSeries ts2(node2, "ts", "timeseries", 100);
    CheckpointIo load = loading(out, sim);
    root2.serializeStats(load);

    EXPECT_DOUBLE_EQ(sc2.value(), 42.5);
    EXPECT_EQ(di2.count(), 4u);
    EXPECT_DOUBLE_EQ(di2.total(), 28.0);
    EXPECT_DOUBLE_EQ(di2.min(), 1.0);
    EXPECT_DOUBLE_EQ(di2.max(), 9.0);
    ASSERT_EQ(ts2.buckets().size(), 3u);
    EXPECT_DOUBLE_EQ(ts2.buckets()[0], 2.0);
    EXPECT_DOUBLE_EQ(ts2.buckets()[2], 5.0);
}

TEST(CheckpointStats, StatAbsentFromCheckpointIsFatal)
{
    StatGroup root("");
    Scalar sc(root, "present", "x");
    Simulation sim;
    CheckpointOut out("stats");
    CheckpointIo save = saving(out, sim);
    root.serializeStats(save);
    CheckpointIo load = loading(out, sim);

    // The reader binary grew a stat the checkpoint does not carry:
    // strict restore must refuse, not zero-fill.
    StatGroup root2("");
    Scalar sc2(root2, "present", "x");
    Scalar added(root2, "added_later", "x");
    EXPECT_DEATH(root2.serializeStats(load), "missing key");
}

TEST(CheckpointStats, TimeSeriesBucketWidthMismatchIsFatal)
{
    StatGroup root("");
    TimeSeries ts(root, "ts", "x", 100);
    Simulation sim;
    CheckpointOut out("stats");
    CheckpointIo save = saving(out, sim);
    root.serializeStats(save);
    CheckpointIo load = loading(out, sim);

    StatGroup root2("");
    TimeSeries ts2(root2, "ts", "x", 200);
    EXPECT_DEATH(root2.serializeStats(load), "bucket width");
}

// Packets and retry lists ----------------------------------------------

/** A response target and retry waiter with one checkpointable event. */
class RefRequestor : public SimObject,
                     public MemClient,
                     public MemRequestor
{
  public:
    RefRequestor(Simulation &sim, const std::string &name)
        : SimObject(sim, name), wake([] {}, name + ".wake")
    {
        registerCheckpointEvent(wake);
        registerCheckpointClient(*this);
        registerCheckpointRequestor(*this);
    }

    void memResponse(MemPacket *pkt) override { freePacket(pkt); }
    void retryRequest() override {}

    EventFunction wake;
};

/** A sink that rejects every offer and holds one packet in flight. */
class RefSink : public SimObject, public MemSink
{
  public:
    RefSink(Simulation &sim, const std::string &name)
        : SimObject(sim, name), MemSink(sim)
    {
        setSinkName(name);
    }

    bool tryAccept(MemPacket *) override { return false; }

    void
    serialize(CheckpointIo &io) override
    {
        bool holding = held != nullptr;
        io.scalar("holding", holding);
        if (holding)
            io.packet("held", held);
        retryList().serialize(io, "retry");
    }

    const RetryList &parked() const { return retryList(); }

    MemPacket *held = nullptr;
};

TEST(CheckpointPacket, LivePacketRoundTripsThroughThePool)
{
    Simulation sim;
    RefRequestor client(sim, "cl");

    MemPacket *pkt = sim.packetPool().alloc(
        0x1234u, 64u, true, TrafficClass::Gpu, AccessKind::Texture, 7,
        &client, 55u);
    pkt->issued = 900;

    CheckpointOut out("pkt");
    CheckpointIo save = saving(out, sim);
    save.packet("p", pkt);
    freePacket(pkt);
    EXPECT_EQ(sim.packetPool().live(), 0u);

    CheckpointIo load = loading(out, sim);
    MemPacket *back = nullptr;
    load.packet("p", back);
    EXPECT_EQ(sim.packetPool().live(), 1u);
    EXPECT_EQ(back->addr, 0x1234u);
    EXPECT_EQ(back->size, 64u);
    EXPECT_TRUE(back->write);
    EXPECT_EQ(back->tclass, TrafficClass::Gpu);
    EXPECT_EQ(back->kind, AccessKind::Texture);
    EXPECT_EQ(back->requestorId, 7);
    EXPECT_EQ(back->client, &client);
    EXPECT_EQ(back->token, 55u);
    EXPECT_EQ(back->issued, 900u);
    freePacket(back);
}

TEST(CheckpointPacket, PostedWriteRestoresNullClient)
{
    Simulation sim;
    MemPacket *pkt = sim.packetPool().alloc(
        0x40u, 32u, true, TrafficClass::Display, AccessKind::Writeback,
        2, nullptr, 0u);
    CheckpointOut out("pkt");
    CheckpointIo save = saving(out, sim);
    save.packet("p", pkt);
    freePacket(pkt);

    CheckpointIo load = loading(out, sim);
    MemPacket *back = nullptr;
    load.packet("p", back);
    EXPECT_EQ(back->client, nullptr);
    EXPECT_TRUE(back->posted());
    freePacket(back);
}

TEST(CheckpointPacketDeathTest, TrafficClassPastTheEnumIsFatal)
{
    // TrafficClass has four enumerators; DASH indexes a four-entry
    // table by it, so a restored class 4 must be refused.
    Simulation sim;
    MemPacket *pkt = sim.packetPool().alloc(
        0x40u, 32u, false, TrafficClass::Npu, AccessKind::NpuData, 2,
        nullptr, 0u);
    pkt->tclass = static_cast<TrafficClass>(numTrafficClasses);
    CheckpointOut out("pkt");
    CheckpointIo save = saving(out, sim);
    save.packet("p", pkt);
    freePacket(pkt);

    CheckpointIo load = loading(out, sim);
    MemPacket *back = nullptr;
    EXPECT_DEATH(load.packet("p", back), "'p.tclass' is 4");
}

TEST(CheckpointPacket, PoolHighWaterRestores)
{
    Simulation sim;
    sim.packetPool().restoreLiveHighWater(17);
    EXPECT_EQ(sim.packetPool().liveHighWater(), 17u);
    EXPECT_DOUBLE_EQ(sim.packetPool().statLiveHighWater.value(), 17.0);
}

TEST(CheckpointRetryList, ParkedWaitersRestoreInFifoOrder)
{
    Simulation sim;
    RefRequestor a(sim, "req.a"), b(sim, "req.b"), c(sim, "req.c");

    RetryList list;
    list.add(b);
    list.add(a);
    list.add(c);

    CheckpointOut out("rl");
    CheckpointIo save = saving(out, sim);
    list.serialize(save, "retry");

    RetryList other;
    CheckpointIo load = loading(out, sim);
    other.serialize(load, "retry");
    ASSERT_EQ(other.size(), 3u);
    EXPECT_EQ(other.waiters()[0], &b);
    EXPECT_EQ(other.waiters()[1], &a);
    EXPECT_EQ(other.waiters()[2], &c);
}

TEST(CheckpointDramDeathTest, ShortBankColumnIsFatal)
{
    mem::MemorySystemParams mp;
    mp.geom.channels = 1;
    mp.timing = mem::lpddr3Timing(1333.0, 32, 128);
    mp.statsBucket = ticksFromUs(10.0);
    Simulation sim;
    mem::FrfcfsScheduler sched;
    mem::MemorySystem memory(sim, "mem", mp, sched);
    mem::DramChannel &channel = memory.channel(0);

    CheckpointOut saved("ch");
    CheckpointIo save = saving(saved, sim);
    channel.serialize(save);
    std::vector<std::uint64_t> open;
    CheckpointIo(roundTrip(saved)).vector("bank.open", open);
    const std::size_t banks = open.size();

    // An idle channel's section, with @p ready_banks ready ticks.
    auto section = [banks](std::size_t ready_banks) {
        std::vector<std::uint64_t> zeros(banks, 0);
        std::vector<std::uint64_t> ready(ready_banks, 0);
        CheckpointOut out("ch");
        CheckpointIo io(out);
        put<std::uint64_t>(out, "num_queue", 0);
        io.vector("bank.open", zeros);
        io.vector("bank.open_row", zeros);
        io.vector("bank.ready_tick", ready);
        io.vector("bank.activate_tick", zeros);
        io.vector("bank.bytes_since_activate", zeros);
        put<std::uint64_t>(out, "bus_free_tick", 0);
        put<std::uint64_t>(out, "num_inflight", 0);
        put<std::uint64_t>(out, "retry.num_waiters", 0);
        return out;
    };
    ASSERT_EQ(section(banks).bytes(), saved.bytes());

    CheckpointOut short_column = section(banks - 1);
    CheckpointIo load = loading(short_column, sim);
    EXPECT_DEATH(channel.serialize(load),
                 "'bank.ready_tick' holds " + std::to_string(banks - 1) +
                     " entries");
}

/** Records one event named @p event. */
class EventOwner : public SimObject
{
  public:
    EventOwner(Simulation &sim, const std::string &name,
               const std::string &event)
        : SimObject(sim, name), ev([] {}, event)
    {
        registerCheckpointEvent(ev);
    }

    EventFunction ev;
};

/** A response target and retry waiter that no SimObject recorded. */
class Unrecorded : public MemClient, public MemRequestor
{
  public:
    void memResponse(MemPacket *pkt) override { freePacket(pkt); }
    void retryRequest() override {}
};

TEST(CheckpointRefsDeathTest, DuplicatesPanicAndUnknownsAreFatal)
{
    Simulation sim;
    {
        RefRequestor gone(sim, "gone");
    }
    EXPECT_EQ(sim.findObject("gone"), nullptr);
    EXPECT_EQ(sim.checkpointEvent("gone.wake"), nullptr);

    RefRequestor cpu(sim, "cpu");
    EventOwner owner(sim, "owner", "owner.ev");
    EXPECT_EQ(sim.findObject("cpu"), &cpu);
    EXPECT_EQ(sim.recorderOf(static_cast<MemClient &>(cpu)), &cpu);
    EXPECT_EQ(sim.recorderOf(static_cast<MemRequestor &>(cpu)), &cpu);
    EXPECT_EQ(sim.checkpointEvent("cpu.wake"), &cpu.wake);

    EXPECT_DEATH(RefRequestor again(sim, "cpu"),
                 "two SimObjects named 'cpu' in one Simulation");
    EXPECT_DEATH(EventOwner dup(sim, "dup", "cpu.wake"),
                 "checkpoint registry: duplicate event name 'cpu.wake'");

    // Saving a reference that no object recorded.
    Unrecorded stray;
    EventFunction timer([] {}, "timer");
    sim.eventQueue().schedule(timer, 10);
    EXPECT_DEATH(sim.saveCheckpoint(tempDir("ckpt_unrecorded")),
                 "checkpoint: pending event 'timer' .* is not in the "
                 "checkpoint registry");
    sim.eventQueue().deschedule(timer);
    MemPacket *pkt = sim.packetPool().alloc(
        0x40u, 32u, false, TrafficClass::Cpu, AccessKind::CpuData, 0,
        &stray, 0u);
    CheckpointOut out("refs");
    CheckpointIo save = saving(out, sim);
    EXPECT_DEATH(save.packet("p", pkt),
                 "checkpoint: in-flight packet references an "
                 "unregistered MemClient");
    freePacket(pkt);
    RetryList list;
    list.add(stray);
    EXPECT_DEATH(list.serialize(save, "retry"),
                 "checkpoint: parked retry waiter is an unregistered "
                 "MemRequestor");

    // Loading a name that no object recorded a reference under: "x"
    // names no object, and "owner" recorded neither role.
    for (std::string name : {"x", "owner"}) {
        CheckpointOut names("refs");
        put(names, "client", name);
        put(names, "req", name);
        CheckpointIo load = loading(names, sim);
        MemClient *client = nullptr;
        MemRequestor *req = nullptr;
        EXPECT_DEATH(load.reference("client", client),
                     "checkpoint restore: no MemClient named '" + name +
                         "' in this topology");
        EXPECT_DEATH(load.reference("req", req),
                     "checkpoint restore: no MemRequestor named '" +
                         name + "' in this topology");
    }
}

TEST(CheckpointRefsDeathTest, UnknownEventAtRestoreIsFatal)
{
    const std::string dir = tempDir("ckpt_unknown_event");
    std::filesystem::remove_all(dir);
    {
        Simulation sim;
        RefRequestor cpu(sim, "cpu");
        cpu.schedule(cpu.wake, 100);
        sim.saveCheckpoint(dir);
    }
    Simulation sim;
    RefRequestor gpu(sim, "gpu");
    EXPECT_DEATH(sim.restoreCheckpoint(dir, false),
                 "checkpoint restore: no event named 'cpu.wake' in this "
                 "topology");
    std::filesystem::remove_all(dir);
}

// Event queue ----------------------------------------------------------

TEST(CheckpointEventQueue, RestoredScheduleReproducesFireOrder)
{
    std::vector<int> fired;
    EventQueue q;
    EventFunction e1([&] { fired.push_back(1); }, "e1");
    EventFunction e2([&] { fired.push_back(2); }, "e2",
                     Event::clockPriority);
    EventFunction e3([&] { fired.push_back(3); }, "e3");
    EventFunction e4([&] { fired.push_back(4); }, "e4");

    // Same tick: priority then scheduling order breaks the tie.
    q.schedule(e3, 100);
    q.schedule(e1, 100);
    q.schedule(e2, 100);
    q.schedule(e4, 50);

    auto live = q.liveEventsSorted();
    ASSERT_EQ(live.size(), 4u);
    EXPECT_EQ(live[0].event, &e4); // Earliest tick first.
    EXPECT_EQ(live[1].event, &e2); // clockPriority beats default.
    EXPECT_EQ(live[2].event, &e3); // Then scheduling order.
    EXPECT_EQ(live[3].event, &e1);

    // Simulate a restore: wipe the queue, jump time, re-schedule the
    // saved set in service order on the "fresh" queue.
    q.clearForRestore();
    EXPECT_TRUE(q.empty());
    q.restoreTime(40, 7);
    EXPECT_EQ(q.curTick(), 40u);
    EXPECT_EQ(q.numProcessed(), 7u);
    for (const auto &ref : live)
        q.schedule(*ref.event, ref.when);

    while (q.runOne()) {}
    EXPECT_EQ(fired, (std::vector<int>{4, 2, 3, 1}));
    EXPECT_EQ(q.numProcessed(), 11u);
}

// Integrity probe ------------------------------------------------------

/** A small two-section checkpoint to damage in controlled ways. */
std::string
probeFixture(const std::string &leaf)
{
    std::string dir = tempDir(leaf);
    std::filesystem::remove_all(dir);
    CheckpointWriter w(dir, 0xfeedULL, 777, 99);
    put<std::uint64_t>(w.section("alpha"), "x", 11);
    put<std::string>(w.section("beta"), "y",
                     "payload bytes the crc covers");
    w.finalize();
    return dir;
}

void
patchFile(const std::string &path, long offset, char byte)
{
    std::fstream f(path, std::ios::in | std::ios::out |
                             std::ios::binary);
    ASSERT_TRUE(f.is_open()) << path;
    f.seekp(offset);
    f.put(byte);
}

/** The bit-at-a-time reflected CRC-32 that crc32() must equal. */
std::uint32_t
bitwiseCrc32(const unsigned char *p, std::size_t n)
{
    std::uint32_t crc = 0xffffffffu;
    for (std::size_t i = 0; i < n; ++i) {
        crc ^= p[i];
        for (int bit = 0; bit < 8; ++bit)
            crc = (crc >> 1) ^ (0xedb88320u & (0u - (crc & 1u)));
    }
    return crc ^ 0xffffffffu;
}

/** @p n bytes from a fixed linear congruential sequence. */
std::vector<unsigned char>
crcInput(std::size_t n)
{
    std::vector<unsigned char> bytes(n);
    std::uint32_t x = 12345;
    for (unsigned char &b : bytes) {
        x = x * 1664525u + 1013904223u;
        b = static_cast<unsigned char>(x >> 24);
    }
    return bytes;
}

TEST(Crc32, StandardCheckValue)
{
    EXPECT_EQ(crc32("123456789", 9), 0xCBF43926u);
    EXPECT_EQ(crc32("", 0), 0u);
}

TEST(Crc32, MatchesBitwiseReference)
{
    // Every length up to eight slices at every alignment, so the
    // 8-byte loop and the byte tail both run from each offset.
    std::vector<unsigned char> bytes = crcInput(64 + 8);
    for (std::size_t offset = 0; offset < 8; ++offset) {
        for (std::size_t len = 0; len <= 64; ++len) {
            EXPECT_EQ(crc32(bytes.data() + offset, len),
                      bitwiseCrc32(bytes.data() + offset, len))
                << "offset " << offset << " length " << len;
        }
    }
    std::vector<unsigned char> big = crcInput(3u << 20);
    EXPECT_EQ(crc32(big.data(), big.size()),
              bitwiseCrc32(big.data(), big.size()));
}

TEST(CheckpointProbe, IntactCheckpointReportsHeader)
{
    CkptProbe probe = probeCheckpoint(probeFixture("probe_ok"));
    EXPECT_TRUE(probe.ok());
    EXPECT_EQ(probe.status, CkptIntegrity::Ok);
    EXPECT_EQ(probe.fingerprint, 0xfeedULL);
    EXPECT_EQ(probe.tick, 777u);
    EXPECT_EQ(probe.numProcessed, 99u);
    EXPECT_STREQ(ckptIntegrityName(probe.status), "ok");
}

TEST(CheckpointProbe, BitFlipIsCrcMismatchNotFatal)
{
    std::string dir = probeFixture("probe_flip");
    // Flip one byte inside the second section's payload.
    auto size = std::filesystem::file_size(dir + "/data.bin");
    patchFile(dir + "/data.bin", static_cast<long>(size) - 3, 'X');

    CkptProbe probe = probeCheckpoint(dir);
    EXPECT_EQ(probe.status, CkptIntegrity::CrcMismatch);
    EXPECT_NE(probe.detail.find("beta"), std::string::npos)
        << probe.detail;

    // The strict reader refuses the same damage loudly.
    EXPECT_DEATH(CheckpointReader r(dir), "fails CRC");
}

TEST(CheckpointProbe, OpenServesWhatItValidated)
{
    // The non-fatal open and the probe are one validator: an intact
    // checkpoint comes back open, a damaged one as its status.
    CkptProbe probe;
    std::optional<CheckpointReader> reader =
        CheckpointReader::open(probeFixture("probe_open"), probe);
    ASSERT_TRUE(reader.has_value());
    EXPECT_TRUE(probe.ok());
    EXPECT_EQ(reader->tick(), 777u);
    EXPECT_EQ(get<std::uint64_t>(reader->section("alpha"), "x"), 11u);

    std::string dir = probeFixture("probe_open_flip");
    auto size = std::filesystem::file_size(dir + "/data.bin");
    patchFile(dir + "/data.bin", static_cast<long>(size) - 3, 'X');
    EXPECT_FALSE(CheckpointReader::open(dir, probe).has_value());
    EXPECT_EQ(probe.status, CkptIntegrity::CrcMismatch);
}

TEST(CheckpointProbe, TruncationIsTruncatedSection)
{
    // Cut inside the header, the index and the last section: each is
    // reported, and none is fatal to the probe.
    std::string dir = probeFixture("probe_trunc");
    std::string data = dir + "/data.bin";
    auto size = std::filesystem::file_size(data);
    for (std::uintmax_t cut : {std::uintmax_t{4}, std::uintmax_t{20},
                               size - 3}) {
        std::string trunc = probeFixture("probe_trunc_at");
        std::filesystem::resize_file(trunc + "/data.bin", cut);
        CkptProbe probe = probeCheckpoint(trunc);
        EXPECT_EQ(probe.status, CkptIntegrity::TruncatedSection)
            << "cut at " << cut << ": " << probe.detail;
    }
    std::filesystem::resize_file(data, 4);
    EXPECT_DEATH(CheckpointReader r(dir), "past the end");
}

TEST(CheckpointProbe, MissingAndMalformedPieces)
{
    std::string dir = probeFixture("probe_nodata");
    std::filesystem::remove(dir + "/data.bin");
    EXPECT_EQ(probeCheckpoint(dir).status, CkptIntegrity::MissingData);
    EXPECT_EQ(probeCheckpoint(tempDir("probe_absent")).status,
              CkptIntegrity::MissingData);

    dir = probeFixture("probe_garbage");
    {
        std::ofstream data(dir + "/data.bin", std::ios::trunc);
        data << "this is not a checkpoint at all";
    }
    EXPECT_EQ(probeCheckpoint(dir).status,
              CkptIntegrity::UnsupportedVersion);

    dir = probeFixture("probe_trailing");
    {
        std::ofstream data(dir + "/data.bin", std::ios::app);
        data << "x";
    }
    EXPECT_EQ(probeCheckpoint(dir).status, CkptIntegrity::TrailingBytes);
}

TEST(CheckpointProbe, FormatTwoDirectoryIsUnsupported)
{
    // Format 2 kept the identity and section table in manifest.json
    // and began data.bin with the first section's records.
    std::string dir = tempDir("probe_format2");
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    CheckpointOut alpha("alpha");
    put<std::uint64_t>(alpha, "x", 11);
    CheckpointOut beta("beta");
    put<std::string>(beta, "y", "payload bytes the crc covers");
    {
        std::ofstream data(dir + "/data.bin", std::ios::binary);
        data << alpha.bytes() << beta.bytes();
        std::ofstream manifest(dir + "/manifest.json");
        manifest << "{\"format_version\": \"2\", \"sections\": []}\n";
    }
    CkptProbe probe = probeCheckpoint(dir);
    EXPECT_EQ(probe.status, CkptIntegrity::UnsupportedVersion);
    EXPECT_DEATH(CheckpointReader r(dir), "format version");
}

TEST(CheckpointProbe, FutureVersionIsUnsupported)
{
    std::string dir = probeFixture("probe_future");
    patchFile(dir + "/data.bin", 4, 99); // The header's version field.
    EXPECT_EQ(probeCheckpoint(dir).status,
              CkptIntegrity::UnsupportedVersion);
    EXPECT_DEATH(CheckpointReader r(dir), "format version");
}

/** @p path's bytes. */
std::string
fileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

TEST(CheckpointProbe, IndexDamageIsCrcMismatch)
{
    // A renamed section and an edited tick live in the index: both
    // are corruption, caught before any section is served.
    std::string dir = probeFixture("probe_index_name");
    std::string data = dir + "/data.bin";
    auto name = fileBytes(data).find("beta");
    ASSERT_NE(name, std::string::npos);
    patchFile(data, static_cast<long>(name), 'z');
    CkptProbe probe = probeCheckpoint(dir);
    EXPECT_EQ(probe.status, CkptIntegrity::CrcMismatch);
    EXPECT_NE(probe.detail.find("the index"), std::string::npos)
        << probe.detail;
    EXPECT_DEATH(CheckpointReader r(dir), "fails CRC");

    // The tick (777 = 0x309) follows its key in the index.
    dir = probeFixture("probe_index_tick");
    data = dir + "/data.bin";
    auto tick = fileBytes(data).find("tick");
    ASSERT_NE(tick, std::string::npos);
    patchFile(data, static_cast<long>(tick + 4), 0x08);
    EXPECT_EQ(probeCheckpoint(dir).status, CkptIntegrity::CrcMismatch);
}

TEST(CheckpointProbe, EveryByteIsChecked)
{
    // A one-byte change anywhere in data.bin — header, index or
    // section — turns the probe non-Ok.
    std::string dir = probeFixture("probe_every_byte");
    std::string data = dir + "/data.bin";
    const std::string intact = fileBytes(data);
    for (std::size_t i = 0; i < intact.size(); ++i) {
        patchFile(data, static_cast<long>(i),
                  static_cast<char>(intact[i] ^ 0x01));
        EXPECT_FALSE(probeCheckpoint(dir).ok()) << "byte " << i;
        patchFile(data, static_cast<long>(i), intact[i]);
    }
    EXPECT_TRUE(probeCheckpoint(dir).ok());
}

TEST(CheckpointRotation, DamagedIndexFallsBackToOlderRotation)
{
    std::string base = tempDir("ckpt_rotation_index");
    std::filesystem::remove_all(base);
    {
        Simulation sim;
        sim.setConfigFingerprint(0x77);
        EventFunction step([] {}, "step");
        for (Tick when : {Tick{100}, Tick{200}}) {
            sim.eventQueue().schedule(step, when);
            sim.eventQueue().runOne();
            sim.saveRotatedCheckpoint(base, 2);
        }
    }
    std::vector<std::string> rotations = listRotations(base);
    ASSERT_EQ(rotations.size(), 2u);
    std::string newest = rotations.back() + "/data.bin";
    auto name = fileBytes(newest).find("sim.pool");
    ASSERT_NE(name, std::string::npos);
    patchFile(newest, static_cast<long>(name + 7), '1');

    Simulation sim;
    sim.setConfigFingerprint(0x77);
    ::testing::internal::CaptureStderr();
    sim.restoreCheckpoint(base, false, /*lenient=*/true);
    std::string log = ::testing::internal::GetCapturedStderr();
    EXPECT_TRUE(sim.restored());
    EXPECT_EQ(sim.curTick(), 100u);
    EXPECT_NE(log.find("ckpt-corrupt: skipping checkpoint '" +
                       rotations.back() + "' (crc-mismatch)"),
              std::string::npos)
        << log;
}

// Fingerprint policy ---------------------------------------------------

TEST(CheckpointFingerprint, MismatchRefusesRestore)
{
    std::string dir = tempDir("ckpt_fp_mismatch");
    {
        Simulation sim;
        sim.setConfigFingerprint(0x1111);
        sim.saveCheckpoint(dir);
    }
    Simulation sim;
    sim.setConfigFingerprint(0x2222);
    EXPECT_DEATH(sim.restoreCheckpoint(dir, false), "config fingerprint");
}

TEST(CheckpointFingerprint, ForceDowngradesMismatchToWarning)
{
    std::string dir = tempDir("ckpt_fp_force");
    {
        Simulation sim;
        sim.setConfigFingerprint(0x1111);
        sim.saveCheckpoint(dir);
    }
    Simulation sim;
    sim.setConfigFingerprint(0x2222);
    EXPECT_FALSE(sim.restored());
    sim.restoreCheckpoint(dir, true);
    EXPECT_TRUE(sim.restored());
}

// End-to-end warm start ------------------------------------------------

soc::SocParams
smallSocParams()
{
    soc::SocParams p;
    p.model = scenes::WorkloadId::M4_Triangles;
    p.frames = 2;
    p.fbWidth = 128;
    p.fbHeight = 96;
    p.cpuPrepRequests = 200;
    return p;
}

TEST(CheckpointSoc, WarmStartReproducesColdEventHash)
{
    std::string dir = tempDir("ckpt_soc");
    soc::SocParams p = smallSocParams();

    std::uint64_t cold_hash = 0, cold_events = 0;
    {
        soc::SocTop soc(p, SimulationBuilder().checkDeterminism());
        soc.run(ticksFromMs(500.0));
        cold_hash = soc.sim().determinismHash();
        cold_events = soc.sim().eventQueue().numProcessed();
        ASSERT_NE(cold_hash, 0u);
    }
    {
        // The checkpointing run itself must not perturb the stream:
        // the trigger rides the instrument chain between events.
        soc::SocTop soc(p, SimulationBuilder()
                               .checkDeterminism()
                               .checkpointAt(ticksFromMs(10.0), dir));
        soc.run(ticksFromMs(500.0));
        EXPECT_EQ(soc.sim().determinismHash(), cold_hash);
        EXPECT_EQ(soc.sim().eventQueue().numProcessed(), cold_events);
    }
    {
        // The oracle: a warm start resumes the cold run's hash stream
        // and must land on the same final hash and event count.
        soc::SocTop soc(p, SimulationBuilder()
                               .checkDeterminism()
                               .restoreFrom(dir));
        EXPECT_TRUE(soc.sim().restored());
        soc.run(ticksFromMs(500.0));
        EXPECT_EQ(soc.sim().determinismHash(), cold_hash);
        EXPECT_EQ(soc.sim().eventQueue().numProcessed(), cold_events);
        EXPECT_EQ(soc.app().frames().size(), 2u);
    }
}

TEST(CheckpointSoc, ResaveAfterRestoreIsByteIdentical)
{
    // Saved again at the restored tick, a restored run must write the
    // checkpoint it read: a field that is saved but not restored
    // shows up as a byte that differs.
    struct Case
    {
        const char *name;
        soc::SocParams params;
        double atMs;
    };
    soc::SocParams dtb = smallSocParams();
    dtb.memConfig = soc::MemConfig::DTB;
    dtb.highLoad = true;
    soc::SocParams hmc = smallSocParams();
    hmc.memConfig = soc::MemConfig::HMC;
    soc::SocParams npu = smallSocParams();
    npu.model = scenes::WorkloadId::M2_Cube;
    npu.fbWidth = 256;
    npu.fbHeight = 192;
    npu.highLoad = true;
    npu.npuEnabled = true;
    const Case cases[] = {{"bas", smallSocParams(), 10.0},
                          {"dtb_high", dtb, 10.0},
                          {"hmc", hmc, 10.0},
                          {"bas_high_npu", npu, 7.0}};

    std::size_t live_packets = 0;
    for (const Case &c : cases) {
        SCOPED_TRACE(c.name);
        const std::string dir = tempDir(std::string("ckpt_resave_") +
                                        c.name);
        {
            soc::SocTop soc(c.params,
                            SimulationBuilder().checkDeterminism()
                                .checkpointAt(ticksFromMs(c.atMs), dir));
            soc.run(ticksFromMs(500.0));
        }
        soc::SocTop soc(c.params,
                        SimulationBuilder().checkDeterminism().restoreFrom(
                            dir));
        ASSERT_TRUE(soc.sim().restored());
        live_packets += soc.sim().packetPool().live();
        soc.sim().saveCheckpoint(dir + "_again");
        const std::string bytes = fileBytes(dir + "/data.bin");
        ASSERT_FALSE(bytes.empty());
        EXPECT_TRUE(bytes == fileBytes(dir + "_again/data.bin"));
    }
    // At least one checkpoint holds packets in flight.
    EXPECT_GT(live_packets, 0u);
}

TEST(CheckpointSoc, RestoreIntoDifferentConfigIsFatal)
{
    std::string dir = tempDir("ckpt_soc_mismatch");
    soc::SocParams p = smallSocParams();
    {
        soc::SocTop soc(p, SimulationBuilder()
                               .checkDeterminism()
                               .checkpointAt(ticksFromMs(10.0), dir));
        soc.run(ticksFromMs(500.0));
    }
    soc::SocParams other = p;
    other.memConfig = soc::MemConfig::HMC;
    EXPECT_DEATH(
        {
            soc::SocTop soc(other, SimulationBuilder()
                                       .checkDeterminism()
                                       .restoreFrom(dir));
        },
        "config fingerprint");
}

TEST(CheckpointStandalone, RestoreIsFatal)
{
    // The standalone rig has no restore path: accepting --restore
    // would silently cold-start, even from a directory that does
    // not exist.
    EXPECT_DEATH(
        {
            soc::StandaloneGpu rig(64, 64, soc::caseStudy2GpuParams(),
                                   soc::caseStudy2MemParams(),
                                   SimulationBuilder().restoreFrom(
                                       tempDir("ckpt_missing")));
        },
        "cannot restore checkpoint");
}

TEST(CheckpointStandalone, CheckpointFlagsAreFatal)
{
    // Nothing could restore the checkpoint, so none is written.
    const std::string dir = tempDir("ckpt_standalone");
    for (const SimulationBuilder &builder :
         {SimulationBuilder().checkpointAt(ticksFromUs(100.0), dir),
          SimulationBuilder().checkpointEvery(ticksFromUs(100.0), dir)}) {
        EXPECT_DEATH(
            {
                soc::StandaloneGpu rig(64, 64,
                                       soc::caseStudy2GpuParams(),
                                       soc::caseStudy2MemParams(),
                                       builder);
            },
            "cannot restore checkpoint");
    }
}

TEST(CheckpointRefs, FormatPinAndResaveIsByteIdentical)
{
    // A pending event, an in-flight packet's response target and a
    // parked retry waiter, each saved as a name: a change in how a
    // reference is named moves this CRC. Restoring the checkpoint and
    // saving it again writes the same bytes.
    const std::string dir = tempDir("ckpt_refs_pin");
    std::filesystem::remove_all(dir);
    std::filesystem::remove_all(dir + "_again");
    {
        Simulation sim;
        RefRequestor req(sim, "cpu");
        RefSink sink(sim, "l2");
        EventFunction boot([] {}, "boot");
        sim.eventQueue().schedule(boot, 250);
        req.schedule(req.wake, 400);
        sim.run(300);

        sink.held = sim.packetPool().alloc(
            0x80u, 64u, false, TrafficClass::Cpu, AccessKind::CpuData, 3,
            &req, 9u);
        sink.held->issued = 120;
        MemPacket *blocked = sim.packetPool().alloc(
            0xc0u, 64u, false, TrafficClass::Cpu, AccessKind::CpuData, 3,
            &req, 10u);
        ASSERT_FALSE(sink.offer(blocked, req));
        freePacket(blocked);

        sim.saveCheckpoint(dir);
        freePacket(sink.held);
    }
    const std::string bytes = fileBytes(dir + "/data.bin");
    EXPECT_EQ(crc32(bytes.data(), bytes.size()), 0x428b48d7u);

    Simulation sim;
    RefRequestor req(sim, "cpu");
    RefSink sink(sim, "l2");
    sim.restoreCheckpoint(dir, false);
    EXPECT_TRUE(req.wake.scheduled());
    EXPECT_EQ(req.wake.when(), 400u);
    ASSERT_NE(sink.held, nullptr);
    EXPECT_EQ(sink.held->client, &req);
    ASSERT_EQ(sink.parked().size(), 1u);
    EXPECT_EQ(sink.parked().waiters().front(), &req);

    sim.saveCheckpoint(dir + "_again");
    EXPECT_TRUE(bytes == fileBytes(dir + "_again/data.bin"));
    freePacket(sink.held);
    std::filesystem::remove_all(dir);
    std::filesystem::remove_all(dir + "_again");
}

} // namespace
} // namespace emerald
