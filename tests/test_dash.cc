#include <gtest/gtest.h>

#include <algorithm>
#include <deque>

#include "mem/dash_scheduler.hh"
#include "mem/frfcfs_scheduler.hh"
#include "mem/memory_system.hh"
#include "sim/random.hh"
#include "sim/simulation.hh"

using namespace emerald;
using namespace emerald::mem;

namespace
{

DashParams
testParams()
{
    DashParams p;
    p.switchingUnit = ticksFromUs(1.0);
    p.quantum = ticksFromUs(100.0);
    p.numCpuCores = 4;
    return p;
}

MemPacket
cpuPkt(int core)
{
    return MemPacket(0, 128, false, TrafficClass::Cpu,
                     AccessKind::CpuData, core);
}

MemPacket
gpuPkt()
{
    return MemPacket(0, 128, false, TrafficClass::Gpu,
                     AccessKind::Texture, 100);
}

} // namespace

TEST(DashCoordinator, UrgencyFollowsExpectedProgress)
{
    Simulation sim;
    DashCoordinator dash(sim, "dash", testParams());
    int gpu = dash.registerIp("gpu", TrafficClass::Gpu, 0.9);

    dash.beginIpPeriod(gpu, ticksFromMs(33.0), 1000.0);

    // At t=0 expected progress is 0: not urgent.
    EXPECT_FALSE(dash.ipUrgent(gpu, sim.curTick()));

    // Half way through the period with no progress: urgent.
    Tick half = ticksFromMs(16.5);
    EXPECT_TRUE(dash.ipUrgent(gpu, half));

    // On pace: not urgent (0.9 threshold).
    dash.addIpProgress(gpu, 500.0);
    EXPECT_FALSE(dash.ipUrgent(gpu, half));

    // Slightly behind but above threshold: still not urgent.
    // expected=0.75, actual=0.5/1.0 -> 0.5 < 0.9*0.75: urgent again.
    EXPECT_TRUE(dash.ipUrgent(gpu, ticksFromMs(24.75)));

    dash.endIpPeriod(gpu);
    EXPECT_FALSE(dash.ipUrgent(gpu, half));
    dash.shutdown();
}

TEST(DashCoordinator, PriorityLevels)
{
    Simulation sim;
    DashCoordinator dash(sim, "dash", testParams());
    int gpu = dash.registerIp("gpu", TrafficClass::Gpu, 0.9);
    dash.beginIpPeriod(gpu, ticksFromMs(33.0), 1000.0);

    MemPacket cpu0 = cpuPkt(0);
    MemPacket gpu_pkt = gpuPkt();

    // All CPU cores start non-intensive (no bandwidth history).
    EXPECT_EQ(dash.priorityOf(cpu0, 0), 1);
    // Non-urgent IP ranks below non-intensive CPU.
    EXPECT_GT(dash.priorityOf(gpu_pkt, 0), 1);
    // Urgent IP outranks everything.
    Tick late = ticksFromMs(20.0);
    EXPECT_EQ(dash.priorityOf(gpu_pkt, late), 0);
    dash.shutdown();
}

TEST(DashCoordinator, TcmClusteringSplitsHeavyCores)
{
    Simulation sim;
    DashCoordinator dash(sim, "dash", testParams());

    // Core 3 produces the overwhelming share of traffic.
    for (int i = 0; i < 100; ++i) {
        MemPacket p = cpuPkt(3);
        dash.serviced(p, 0);
    }
    MemPacket light = cpuPkt(0);
    dash.serviced(light, 0);
    dash.recluster();

    EXPECT_FALSE(dash.cpuIntensive(0));
    EXPECT_TRUE(dash.cpuIntensive(3));
    dash.shutdown();
}

TEST(DashCoordinator, DtbIncludesIpBandwidth)
{
    // With DTB (whole-system bandwidth), a huge GPU byte count makes
    // the threshold budget large enough that all CPU cores stay
    // non-intensive - the effect the paper discusses in Section 5.1.1.
    Simulation sim;
    DashParams p = testParams();
    p.useTotalBandwidth = true;
    DashCoordinator dash(sim, "dash", p);
    dash.registerIp("gpu", TrafficClass::Gpu, 0.9);

    for (int i = 0; i < 100; ++i) {
        MemPacket g = gpuPkt();
        dash.serviced(g, 0);
    }
    for (int i = 0; i < 10; ++i) {
        MemPacket c = cpuPkt(2);
        dash.serviced(c, 0);
    }
    dash.recluster();
    EXPECT_FALSE(dash.cpuIntensive(2));
    dash.shutdown();

    // Same traffic under DCB classifies core 2 as intensive.
    Simulation sim2;
    DashCoordinator dcb(sim2, "dash", testParams());
    dcb.registerIp("gpu", TrafficClass::Gpu, 0.9);
    for (int i = 0; i < 100; ++i) {
        MemPacket g = gpuPkt();
        dcb.serviced(g, 0);
    }
    for (int i = 0; i < 10; ++i) {
        MemPacket c = cpuPkt(2);
        dcb.serviced(c, 0);
    }
    dcb.recluster();
    EXPECT_TRUE(dcb.cpuIntensive(2));
    dcb.shutdown();
}

TEST(DashScheduler, PicksUrgentIpFirst)
{
    Simulation sim;
    DashCoordinator dash(sim, "dash", testParams());
    int gpu = dash.registerIp("gpu", TrafficClass::Gpu, 0.9);
    DashScheduler sched(dash);

    MemorySystemParams mp;
    mp.geom.channels = 1;
    mp.timing = lpddr3Timing(1333, 32, 128);
    FrfcfsScheduler basis;
    MemorySystem mem(sim, "mem", mp, basis);
    AddressMap map(mp.geom, AddrMapScheme::RoRaBaCoCh);

    // Build a queue view: an old CPU request and a new GPU request.
    std::vector<DramScheduler::QueueEntry> queue;
    MemPacket cpu = cpuPkt(0);
    MemPacket gp = gpuPkt();
    queue.push_back({&cpu, map.decode(0), 0});
    queue.push_back({&gp, map.decode(4096), 10});

    // GPU not urgent: CPU (non-intensive, level 1) wins.
    dash.beginIpPeriod(gpu, ticksFromMs(33.0), 100.0);
    EXPECT_EQ(sched.pick(mem.channel(0), queue, 0), 0u);

    // Make the GPU urgent: it must win despite being younger.
    Tick late = ticksFromMs(30.0);
    EXPECT_EQ(sched.pick(mem.channel(0), queue, late), 1u);
    dash.shutdown();
}

TEST(DashCoordinator, ProbabilityAdapts)
{
    Simulation sim;
    DashParams p = testParams();
    DashCoordinator dash(sim, "dash", p);
    dash.registerIp("gpu", TrafficClass::Gpu, 0.9);

    double p0 = dash.currentP();
    // Run several switching periods with no service imbalance data;
    // P drifts but stays within bounds.
    sim.run(ticksFromUs(50.0));
    EXPECT_GE(dash.currentP(), 0.05);
    EXPECT_LE(dash.currentP(), 0.95);
    (void)p0;
    dash.shutdown();
}

namespace
{

/** DASH's pick as a two-pass formula: the best priorityOf() over the
 *  queue, then the FR-FCFS choice among the entries at that level. */
std::size_t
twoPassPick(const DashCoordinator &dash, const DramChannel &channel,
            const std::vector<DramScheduler::QueueEntry> &queue, Tick now)
{
    int best = 4;
    for (const DramScheduler::QueueEntry &entry : queue)
        best = std::min(best, dash.priorityOf(*entry.pkt, now));
    return FrfcfsScheduler::pickAmong(
        channel, queue, [&](std::size_t i) {
            return dash.priorityOf(*queue[i].pkt, now) == best;
        });
}

} // namespace

TEST(DashScheduler, PickMatchesTwoPassReference)
{
    Simulation sim;
    DashCoordinator dash(sim, "dash", testParams());
    const int ips[] = {
        dash.registerIp("gpu", TrafficClass::Gpu, 0.9),
        dash.registerIp("display", TrafficClass::Display, 0.8),
        dash.registerIp("npu", TrafficClass::Npu, 0.8),
    };
    DashScheduler sched(dash);

    MemorySystemParams mp;
    mp.geom.channels = 1;
    mp.timing = lpddr3Timing(1333, 32, 128);
    FrfcfsScheduler basis;
    MemorySystem mem(sim, "mem", mp, basis);
    DramChannel &channel = mem.channel(0);

    Random rng(2024);
    // Few banks and rows, so queues hold row hits and same-level ties.
    auto randomCoord = [&] {
        DecodedAddr coord;
        coord.bank = static_cast<unsigned>(rng.below(mp.geom.banks));
        coord.row = rng.below(3);
        coord.column = rng.below(32);
        return coord;
    };
    const TrafficClass classes[] = {TrafficClass::Cpu, TrafficClass::Gpu,
                                    TrafficClass::Display,
                                    TrafficClass::Npu};
    std::deque<MemPacket> pkts;
    auto randomPkt = [&]() -> MemPacket * {
        TrafficClass tc = classes[rng.below(4)];
        // Core 5 is outside the clustering table: never intensive.
        int requestor = tc == TrafficClass::Cpu
                            ? static_cast<int>(rng.below(6))
                            : 100;
        pkts.emplace_back(0, 128, false, tc, AccessKind::GlobalData,
                          requestor);
        return &pkts.back();
    };

    int best_seen[4] = {0, 0, 0, 0};
    int row_hit_picks = 0;
    for (int trial = 0; trial < 3000; ++trial) {
        // Re-draw the IPs' periods and progress now and then.
        for (int ip : ips) {
            if (rng.chance(0.1)) {
                Tick period = ticksFromUs(20.0) * (1 + rng.below(20));
                dash.beginIpPeriod(
                    ip, period, static_cast<double>(rng.between(50, 1000)));
            }
            if (rng.chance(0.3))
                dash.addIpProgress(ip, static_cast<double>(rng.below(60)));
            if (rng.chance(0.02))
                dash.endIpPeriod(ip);
        }
        // Re-cluster the CPU cores on random bandwidth.
        if (rng.chance(0.1)) {
            for (int n = static_cast<int>(rng.below(40)); n > 0; --n) {
                MemPacket cpu = cpuPkt(static_cast<int>(rng.below(4)));
                dash.serviced(cpu, sim.curTick());
            }
            dash.recluster();
        }
        // Open new rows, and let the switch re-draw its favourite.
        for (int n = static_cast<int>(rng.below(3)); n > 0; --n) {
            auto *opener = new MemPacket(0, 128, false, TrafficClass::Gpu,
                                         AccessKind::GlobalData, 100);
            ASSERT_TRUE(channel.enqueue(opener, randomCoord()));
        }
        sim.run(sim.curTick() + ticksFromUs(1.0) * (1 + rng.below(4)));

        std::vector<DramScheduler::QueueEntry> queue;
        for (int n = static_cast<int>(rng.between(1, 24)); n > 0; --n)
            queue.push_back({randomPkt(), randomCoord(), sim.curTick()});
        const Tick now = sim.curTick() + ticksFromUs(1.0) * rng.below(200);

        const std::size_t expect = twoPassPick(dash, channel, queue, now);
        ASSERT_EQ(sched.pick(channel, queue, now), expect)
            << "trial " << trial;

        const DecodedAddr &c = queue[expect].coord;
        const unsigned bank = c.flatBank(mp.geom);
        row_hit_picks += channel.bankOpen(bank) &&
                         channel.bankOpenRow(bank) == c.row;
        ++best_seen[dash.priorityOf(*queue[expect].pkt, now)];
        pkts.clear();
    }
    // The random walk reached every level and both FR-FCFS outcomes.
    for (int level = 0; level < 4; ++level)
        EXPECT_GT(best_seen[level], 0) << "level " << level;
    EXPECT_GT(row_hit_picks, 0);
    EXPECT_LT(row_hit_picks, 3000);
    dash.shutdown();
}
