#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <unordered_map>

#include "cache/cache.hh"
#include "sim/random.hh"
#include "sim/serialize/checkpoint_io.hh"
#include "sim/simulation.hh"

using namespace emerald;
using namespace emerald::cache;

namespace
{

/** Terminal memory: accepts everything, responds after a delay. */
struct FakeMemory : public MemSink
{
    Simulation &sim;
    Tick delay;
    std::vector<std::unique_ptr<EventFunction>> events;
    unsigned reads = 0;
    unsigned writes = 0;

    FakeMemory(Simulation &s, Tick d) : sim(s), delay(d) {}

    bool
    tryAccept(MemPacket *pkt) override
    {
        if (pkt->write)
            ++writes;
        else
            ++reads;
        events.push_back(std::make_unique<EventFunction>(
            [pkt] { completePacket(pkt); }, "fake.resp"));
        sim.eventQueue().schedule(*events.back(),
                                  sim.curTick() + delay);
        return true;
    }
};

struct Requestor : public MemClient
{
    unsigned responses = 0;
    Tick lastResponse = 0;
    Simulation *sim = nullptr;

    void
    memResponse(MemPacket *pkt) override
    {
        ++responses;
        lastResponse = sim->curTick();
        delete pkt;
    }
};

struct Rig
{
    Simulation sim;
    ClockDomain &clk;
    FakeMemory memory;
    Cache cache;
    Requestor client;

    explicit Rig(CacheParams params, Tick mem_delay = ticksFromNs(100))
        : clk(sim.createClockDomain(1000.0, "clk")),
          memory(sim, mem_delay),
          cache(sim, "l1", clk, params)
    {
        cache.setDownstream(memory);
        client.sim = &sim;
    }

    bool
    read(Addr addr)
    {
        auto *pkt = new MemPacket(addr, 4, false, TrafficClass::Gpu,
                                  AccessKind::GlobalData, 0, &client);
        bool ok = cache.tryAccept(pkt);
        if (!ok)
            delete pkt;
        return ok;
    }

    bool
    write(Addr addr)
    {
        auto *pkt = new MemPacket(addr, 4, true, TrafficClass::Gpu,
                                  AccessKind::GlobalData, 0, &client);
        bool ok = cache.tryAccept(pkt);
        if (!ok)
            delete pkt;
        return ok;
    }
};

CacheParams
smallCache()
{
    CacheParams p;
    p.sizeBytes = 1024; // 8 lines.
    p.assoc = 2;
    p.lineSize = 128;
    p.hitLatency = 2;
    p.mshrs = 4;
    p.targetsPerMshr = 4;
    return p;
}

} // namespace

TEST(Cache, MissThenHit)
{
    Rig rig(smallCache());
    ASSERT_TRUE(rig.read(0x1000));
    rig.sim.run();
    EXPECT_EQ(rig.client.responses, 1u);
    EXPECT_EQ(rig.cache.statMisses.value(), 1.0);
    EXPECT_EQ(rig.memory.reads, 1u);

    Tick miss_time = rig.client.lastResponse;
    ASSERT_TRUE(rig.read(0x1000));
    rig.sim.run();
    EXPECT_EQ(rig.client.responses, 2u);
    EXPECT_EQ(rig.cache.statHits.value(), 1.0);
    EXPECT_EQ(rig.memory.reads, 1u); // No second fill.
    // Hit is far faster than miss.
    EXPECT_LT(rig.client.lastResponse - miss_time, miss_time);
}

TEST(Cache, MshrMergesSameLine)
{
    Rig rig(smallCache());
    ASSERT_TRUE(rig.read(0x2000));
    ASSERT_TRUE(rig.read(0x2004));
    ASSERT_TRUE(rig.read(0x2008));
    rig.sim.run();
    EXPECT_EQ(rig.client.responses, 3u);
    EXPECT_EQ(rig.memory.reads, 1u); // One fill serves all three.
    EXPECT_EQ(rig.cache.statMshrMerges.value(), 2.0);
}

TEST(Cache, MshrFullRejects)
{
    CacheParams p = smallCache();
    p.mshrs = 2;
    Rig rig(p);
    ASSERT_TRUE(rig.read(0x1000));
    ASSERT_TRUE(rig.read(0x2000));
    EXPECT_FALSE(rig.read(0x3000)); // Third distinct line: no MSHR.
    EXPECT_EQ(rig.cache.statRejects.value(), 1.0);
    rig.sim.run();
    EXPECT_TRUE(rig.read(0x3000)); // Frees up after fills.
    rig.sim.run();
}

TEST(Cache, TargetsPerMshrLimit)
{
    CacheParams p = smallCache();
    p.targetsPerMshr = 2;
    Rig rig(p);
    ASSERT_TRUE(rig.read(0x1000));
    ASSERT_TRUE(rig.read(0x1004));
    EXPECT_FALSE(rig.read(0x1008));
    rig.sim.run();
}

TEST(Cache, DirtyEvictionWritesBack)
{
    CacheParams p = smallCache(); // 4 sets x 2 ways.
    Rig rig(p);
    // Three lines mapping to the same set (set stride = 4 * 128).
    Addr stride = 4 * 128;
    ASSERT_TRUE(rig.write(0x0));
    rig.sim.run();
    ASSERT_TRUE(rig.read(stride));
    rig.sim.run();
    ASSERT_TRUE(rig.read(2 * stride)); // Evicts the dirty line 0.
    rig.sim.run();
    EXPECT_EQ(rig.cache.statWritebacks.value(), 1.0);
    EXPECT_EQ(rig.memory.writes, 1u);

    // Line 0 must now miss again.
    ASSERT_TRUE(rig.read(0x0));
    rig.sim.run();
    EXPECT_EQ(rig.cache.statMisses.value(), 4.0);
}

TEST(Cache, LruVictimSelection)
{
    Rig rig(smallCache());
    Addr stride = 4 * 128;
    // Fill both ways of set 0, touch line A again, then insert C:
    // B (least recent) must be evicted, A stays.
    ASSERT_TRUE(rig.read(0));           // A
    rig.sim.run();
    ASSERT_TRUE(rig.read(stride));      // B
    rig.sim.run();
    ASSERT_TRUE(rig.read(0));           // Touch A.
    rig.sim.run();
    ASSERT_TRUE(rig.read(2 * stride));  // C evicts B.
    rig.sim.run();
    EXPECT_TRUE(rig.cache.isCached(0));
    EXPECT_FALSE(rig.cache.isCached(stride));
    EXPECT_TRUE(rig.cache.isCached(2 * stride));
}

TEST(Cache, PostedWritesComplete)
{
    Rig rig(smallCache());
    auto *pkt = new MemPacket(0x40, 4, true, TrafficClass::Gpu,
                              AccessKind::Color, 0, nullptr);
    ASSERT_TRUE(rig.cache.tryAccept(pkt));
    rig.sim.run(); // Must not leak or crash; fill + dirty install.
    EXPECT_TRUE(rig.cache.isCached(0x40));
}

// The tag store's checkpoint sections after a fixed access sequence:
// evictions of dirty lines, write hits, and a set left empty.
// The expected vectors were recorded before the tag store became one
// dense tag array, so its on-disk layout cannot drift.
TEST(Cache, CheckpointSectionsMatchRecordedLayout)
{
    Rig rig(smallCache()); // 4 sets x 2 ways; set stride 4 * 128.
    const Addr stride = 4 * 128;
    auto settle = [&](bool ok) {
        ASSERT_TRUE(ok);
        rig.sim.run();
    };
    settle(rig.write(0x0));            // Set 0, dirty.
    settle(rig.read(stride));          // Set 0.
    settle(rig.read(2 * stride));      // Set 0: evicts dirty 0x0.
    settle(rig.write(0x80));           // Set 1, dirty.
    settle(rig.read(0x84));            // Set 1 hit.
    settle(rig.read(0x100 + stride));  // Set 2.
    settle(rig.write(0x104 + stride)); // Set 2 write hit.
    settle(rig.read(0x80 + 3 * stride)); // Set 1, second way.
    settle(rig.read(0x80 + 5 * stride)); // Set 1: evicts dirty 0x80.
    EXPECT_EQ(rig.cache.statWritebacks.value(), 2.0);

    CheckpointOut out("l1");
    CheckpointIo save(out, &rig.sim);
    rig.cache.serialize(save);
    CheckpointIn in("l1", out.bytes().data(), out.bytes().size());
    using V = std::vector<std::uint64_t>;
    V valid, dirty, tag, last_use;
    std::uint64_t use_counter = 0;
    CheckpointIo read(in);
    read.vector("line.valid", valid);
    read.vector("line.dirty", dirty);
    read.vector("line.tag", tag);
    read.vector("line.last_use", last_use);
    read.scalar("use_counter", use_counter);
    EXPECT_EQ(valid, (V{1, 1, 1, 1, 1, 0, 0, 0}));
    EXPECT_EQ(dirty, (V{0, 0, 0, 0, 1, 0, 0, 0}));
    EXPECT_EQ(tag, (V{0x400, 0x200, 0xa80, 0x680, 0x300, 0, 0, 0}));
    EXPECT_EQ(last_use, (V{3, 2, 9, 8, 7, 0, 0, 0}));
    EXPECT_EQ(use_counter, 9u);

    // A restored cache holds the same lines and writes the same bytes.
    Rig restored(smallCache());
    CheckpointIo load(in, &restored.sim);
    restored.cache.serialize(load);
    CheckpointOut again("l1");
    CheckpointIo resave(again, &restored.sim);
    restored.cache.serialize(resave);
    EXPECT_EQ(again.bytes(), out.bytes());
    EXPECT_TRUE(restored.cache.isCached(0xa80));
    EXPECT_TRUE(restored.cache.isCached(0x304));
    EXPECT_FALSE(restored.cache.isCached(0x80));
    EXPECT_FALSE(restored.cache.isCached(0x0));
    EXPECT_FALSE(restored.cache.isCached(3 * 128));
}

/**
 * Property test: the timing cache's hit/miss decisions must match a
 * simple reference model over random traffic.
 */
class CacheVsReference : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(CacheVsReference, HitMissSequenceMatches)
{
    CacheParams p;
    p.sizeBytes = 2048;
    p.assoc = 2;
    p.lineSize = 128;
    p.mshrs = 1; // Serialize so LRU state is deterministic.
    Rig rig(p);
    Random rng(GetParam());

    // Reference: per-set LRU lists.
    unsigned sets = 2048 / 128 / 2;
    std::vector<std::vector<Addr>> ref(sets);

    for (int i = 0; i < 2000; ++i) {
        Addr line = (rng.next() % 64) * 128;
        auto set = static_cast<unsigned>((line / 128) % sets);
        auto &lru = ref[set];
        auto it = std::find(lru.begin(), lru.end(), line);
        bool ref_hit = it != lru.end();
        if (ref_hit)
            lru.erase(it);
        lru.push_back(line);
        if (lru.size() > 2)
            lru.erase(lru.begin());

        double hits_before = rig.cache.statHits.value();
        ASSERT_TRUE(rig.read(line));
        rig.sim.run(); // Complete before the next access.
        bool model_hit = rig.cache.statHits.value() > hits_before;
        ASSERT_EQ(model_hit, ref_hit) << "access " << i << " line 0x"
                                      << std::hex << line;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CacheVsReference,
                         ::testing::Values(11u, 22u, 33u));

// MshrFile against a hash-map reference, over random allocate, merge,
// fill and release sequences that keep the file at or near capacity.
TEST(MshrFile, MatchesUnorderedMapReference)
{
    struct RefEntry
    {
        bool fillSent = false;
        std::vector<MemPacket *> targets;
    };
    const unsigned entries = 6;
    const unsigned targets = 3;
    std::vector<MemPacket> pkts(
        8, MemPacket(0, 128, false, TrafficClass::Gpu,
                     AccessKind::GlobalData, 0));

    for (std::uint64_t seed : {1u, 2u, 3u}) {
        MshrFile file(entries, targets);
        std::unordered_map<Addr, RefEntry> ref;
        Random rng(seed);
        unsigned reused = 0;
        for (int step = 0; step < 20000; ++step) {
            const Addr line = rng.below(16) * 128;
            MemPacket *target = &pkts[rng.below(pkts.size())];
            Mshr *mshr = file.find(line);
            auto it = ref.find(line);
            ASSERT_EQ(mshr != nullptr, it != ref.end()) << "step " << step;
            if (!mshr) {
                ASSERT_EQ(file.available(), ref.size() < entries);
                if (file.available()) {
                    // A reused slot starts empty, whatever it held.
                    Mshr &fresh = file.allocate(line);
                    ASSERT_EQ(fresh.lineAddr, line);
                    ASSERT_TRUE(fresh.targets.empty());
                    ASSERT_FALSE(fresh.fillSent);
                    reused += fresh.targets.capacity() > 0;
                    fresh.targets.push_back(target);
                    ref[line].targets.push_back(target);
                }
            } else {
                switch (rng.below(3)) {
                  case 0:
                    ASSERT_EQ(file.canAddTarget(*mshr),
                              it->second.targets.size() < targets);
                    if (file.canAddTarget(*mshr)) {
                        mshr->targets.push_back(target);
                        it->second.targets.push_back(target);
                    }
                    break;
                  case 1:
                    mshr->fillSent = true;
                    it->second.fillSent = true;
                    break;
                  default:
                    file.release(line);
                    ref.erase(it);
                    break;
                }
            }

            ASSERT_EQ(file.inUse(), ref.size());
            ASSERT_EQ(file.available(), ref.size() < entries);
            std::vector<Addr> lines;
            for (const auto &kv : ref)
                lines.push_back(kv.first);
            std::sort(lines.begin(), lines.end());
            std::vector<Mshr *> live = file.entries();
            ASSERT_EQ(live.size(), lines.size());
            for (std::size_t i = 0; i < live.size(); ++i) {
                const RefEntry &want = ref.at(lines[i]);
                ASSERT_EQ(live[i]->lineAddr, lines[i]);
                ASSERT_EQ(live[i]->fillSent, want.fillSent);
                ASSERT_EQ(live[i]->targets, want.targets);
                ASSERT_EQ(file.find(lines[i]), live[i]);
            }
        }
        // Slots really were reused after holding targets.
        EXPECT_GT(reused, 0u) << "seed " << seed;
    }
}
