/**
 * @file
 * Tests for the robustness layer (src/sim/fault/): the --fault-plan
 * parser, the seeded FaultInjector, the progress watchdog in both
 * abort and degrade modes, and the Config unknown-key validation.
 *
 * The hang tests build a real deadlock — a requestor parked on a
 * RetryList whose wakeup never arrives — and assert the watchdog
 * either names the parked waiter in its report (abort mode) or
 * force-wakes it and lets traffic complete (degrade mode). The soak
 * test runs the paper's Fig. 12 SoC configuration under a random
 * multi-seam fault campaign and requires it to finish with zero
 * checker aborts.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "sim/config.hh"
#include "sim/fault/fault_injector.hh"
#include "sim/fault/fault_plan.hh"
#include "sim/fault/watchdog.hh"
#include "sim/packet.hh"
#include "sim/simulation.hh"
#include "sim/simulation_builder.hh"
#include "soc/soc_top.hh"

namespace emerald
{
namespace
{

using fault::FaultKind;
using fault::FaultPlan;
using fault::FaultSite;

// Plan grammar ---------------------------------------------------------

TEST(FaultPlanTest, EmptyStringYieldsEmptyPlan)
{
    EXPECT_TRUE(FaultPlan::parse("").empty());
    EXPECT_TRUE(FaultPlan::parse("  ;  ; ").empty());
}

TEST(FaultPlanTest, ParsesAllKindsAndKeys)
{
    FaultPlan plan = FaultPlan::parse(
        "offer-burst(match=dram,start=1us,len=500ns,period=2us,"
        "prob=0.5,count=10);"
        "dram-stall(len=1us);"
        "link-delay(delay=250ns);"
        "dup-wake;"
        "wake-suppress(count=1)");
    ASSERT_EQ(plan.sites().size(), 5u);

    const FaultSite &burst = plan.sites()[0];
    EXPECT_EQ(burst.kind, FaultKind::OfferBurst);
    EXPECT_EQ(burst.match, "dram");
    EXPECT_EQ(burst.start, ticksFromUs(1.0));
    EXPECT_EQ(burst.len, ticksFromNs(500.0));
    EXPECT_EQ(burst.period, ticksFromUs(2.0));
    EXPECT_DOUBLE_EQ(burst.prob, 0.5);
    EXPECT_EQ(burst.count, 10u);

    EXPECT_EQ(plan.sites()[1].kind, FaultKind::DramStall);
    EXPECT_EQ(plan.sites()[2].delay, ticksFromNs(250.0));
    EXPECT_EQ(plan.sites()[3].kind, FaultKind::DupWake);
    EXPECT_EQ(plan.sites()[4].count, 1u);
}

TEST(FaultPlanTest, WindowMath)
{
    FaultPlan plan =
        FaultPlan::parse("offer-burst(start=100,len=10,period=50)");
    const FaultSite &s = plan.sites()[0];
    EXPECT_FALSE(s.activeAt(99));
    EXPECT_TRUE(s.activeAt(100));
    EXPECT_TRUE(s.activeAt(109));
    EXPECT_FALSE(s.activeAt(110));
    EXPECT_TRUE(s.activeAt(150)); // Next period.
    EXPECT_EQ(s.windowEnd(105), 110u);
    EXPECT_EQ(s.windowEnd(152), 160u);
}

TEST(FaultPlanTest, MatchFilter)
{
    FaultPlan plan = FaultPlan::parse("dram-stall(match=ch0,len=1us)");
    EXPECT_TRUE(plan.sites()[0].matches("dram.ch0"));
    EXPECT_FALSE(plan.sites()[0].matches("dram.ch1"));
    FaultPlan all = FaultPlan::parse("dup-wake");
    EXPECT_TRUE(all.sites()[0].matches("anything"));
}

TEST(FaultPlanTest, DurationUnits)
{
    EXPECT_EQ(fault::parseDuration("1000", "t"), 1000u);
    EXPECT_EQ(fault::parseDuration("1ns", "t"), ticksFromNs(1.0));
    EXPECT_EQ(fault::parseDuration("2.5us", "t"), ticksFromUs(2.5));
    EXPECT_EQ(fault::parseDuration("3ms", "t"), ticksFromMs(3.0));
}

using FaultPlanDeathTest = ::testing::Test;

TEST(FaultPlanDeathTest, RejectsBadSyntax)
{
    EXPECT_DEATH(FaultPlan::parse("bit-flip(prob=1)"),
                 "unknown fault kind");
    EXPECT_DEATH(FaultPlan::parse("offer-burst(prob=0.5"),
                 "missing '\\)'");
    EXPECT_DEATH(FaultPlan::parse("offer-burst(prob=2.0)"), "bad prob");
    EXPECT_DEATH(FaultPlan::parse("offer-burst(oops=1)"),
                 "unknown key");
    EXPECT_DEATH(FaultPlan::parse("offer-burst(prob)"),
                 "expected key=value");
    EXPECT_DEATH(FaultPlan::parse("dram-stall"), "requires len>0");
    EXPECT_DEATH(FaultPlan::parse("offer-burst(period=1us)"),
                 "period without len");
    EXPECT_DEATH(FaultPlan::parse("offer-burst(len=2us,period=1us)"),
                 "len must not exceed period");
    EXPECT_DEATH(fault::parseDuration("1 parsec", "--watchdog-ticks"),
                 "bad duration suffix");
}

// Config unknown-key validation ----------------------------------------

using ConfigDeathTest = ::testing::Test;

TEST(ConfigDeathTest, UnknownKeySuggestsNearMiss)
{
    Config cfg;
    const char *argv[] = {"prog", "--fault-pln=dup-wake"};
    EXPECT_DEATH(cfg.parseArgs(2, const_cast<char **>(argv)),
                 "did you mean '--fault-plan'");
}

TEST(ConfigDeathTest, UnknownKeyWithoutNeighborStillRejected)
{
    Config cfg;
    const char *argv[] = {"prog", "--zzqqxx=1"};
    EXPECT_DEATH(cfg.parseArgs(2, const_cast<char **>(argv)),
                 "unknown option '--zzqqxx'");
}

TEST(ConfigTest, AllowUnknownArgsOptsOut)
{
    Config cfg;
    const char *argv[] = {"prog", "--allow-unknown-args",
                          "--totally-custom=7"};
    cfg.parseArgs(3, const_cast<char **>(argv));
    EXPECT_EQ(cfg.getU64("totally-custom", 0), 7u);
}

TEST(ConfigTest, KnownKeysParseClean)
{
    Config cfg;
    const char *argv[] = {"prog", "--fault-plan=dup-wake",
                          "--fault-seed=42", "--watchdog-ticks=1ms",
                          "--watchdog-mode=degrade"};
    cfg.parseArgs(5, const_cast<char **>(argv));
    EXPECT_EQ(cfg.getString("fault-plan", ""), "dup-wake");
    EXPECT_EQ(cfg.getU64("fault-seed", 0), 42u);
    EXPECT_EQ(cfg.getString("watchdog-mode", ""), "degrade");
}

// Zero-cost when off ---------------------------------------------------

TEST(FaultOffTest, DefaultSimulationHasNoInjectorOrWatchdog)
{
    Simulation sim;
    EXPECT_EQ(sim.faultInjector(), nullptr);
    EXPECT_EQ(sim.watchdog(), nullptr);
    EXPECT_EQ(sim.faultDomain().injector(), nullptr);
}

TEST(FaultOffTest, EmptyPlanConfiguresNothing)
{
    Simulation sim;
    sim.configureFaults("", 1);
    EXPECT_EQ(sim.faultInjector(), nullptr);
    EXPECT_EQ(sim.faultDomain().injector(), nullptr);
}

// Watchdog -------------------------------------------------------------

MemPacket *
allocPacket(Simulation &sim, Addr addr = 0x1000)
{
    return sim.packetPool().alloc(addr, 64u, false, TrafficClass::Cpu,
                                  AccessKind::CpuData, 0);
}

/** Rejects everything; the base offer() parks the requestor. */
class FullSink : public MemSink
{
  public:
    explicit FullSink(Simulation &sim) : MemSink(sim)
    {
        setSinkName("test_sink");
    }

    bool tryAccept(MemPacket *) override { return false; }

    void drainWaiters() { while (wakeOneRetry()) {} }
};

class NamedRequestor : public MemRequestor
{
  public:
    void retryRequest() override {}

    std::string requestorName() const override { return "starved_cpu"; }
};

TEST(WatchdogTest, CleanRunNoFalsePositive)
{
    Simulation sim;
    sim.enableWatchdog(ticksFromUs(10.0), fault::WatchdogMode::Abort);
    ASSERT_NE(sim.watchdog(), nullptr);

    // Steady traffic: a packet allocated and freed every 5us keeps the
    // completion counter moving across every heartbeat.
    int remaining = 20;
    EventFunction tick(
        [&] {
            freePacket(allocPacket(sim));
            if (--remaining > 0)
                sim.eventQueue().schedule(tick, sim.curTick() +
                                          ticksFromUs(5.0));
        },
        "traffic");
    sim.eventQueue().schedule(tick, ticksFromUs(1.0));
    sim.run();

    EXPECT_EQ(remaining, 0);
    EXPECT_EQ(sim.watchdog()->statHangs.value(), 0.0);
    EXPECT_GT(sim.watchdog()->statChecks.value(), 0.0);
}

TEST(WatchdogTest, HeartbeatDoesNotKeepFinishedSimAlive)
{
    Simulation sim;
    sim.enableWatchdog(ticksFromUs(1.0), fault::WatchdogMode::Abort);
    sim.run(); // Must return: the heartbeat re-arms only with company.
    EXPECT_GE(sim.watchdog()->statChecks.value(), 1.0);
}

using WatchdogDeathTest = ::testing::Test;

TEST(WatchdogDeathTest, HangReportNamesParkedWaiter)
{
    Simulation sim;
    FullSink sink(sim);
    NamedRequestor req;
    MemPacket *pkt = allocPacket(sim);
    ASSERT_FALSE(sink.offer(pkt, req)); // Parks req on test_sink.

    sim.enableWatchdog(ticksFromUs(5.0), fault::WatchdogMode::Abort);
    // A suppressed wakeup hangs silently: nothing will ever wake req,
    // so the first heartbeat finds zero completions and a parked
    // waiter, and the report must name both sides of the seam.
    EXPECT_DEATH(sim.run(),
                 "PROGRESS WATCHDOG.*test_sink.*starved_cpu");

    // The death ran in a forked child; unwind the parent's copy of the
    // deadlock so teardown sees a quiescent protocol and empty pool.
    sink.drainWaiters();
    freePacket(pkt);
}

/**
 * Capacity-1 sink that services its packet 10us after accepting it,
 * then wakes one parked requestor — the canonical backpressure loop.
 */
class SlowSink : public MemSink
{
  public:
    explicit SlowSink(Simulation &sim)
        : MemSink(sim), _sim(sim),
          _done(
              [this] {
                  completePacket(_held);
                  _held = nullptr;
                  wakeOneRetry();
              },
              "slow_sink_done")
    {
        setSinkName("slow_sink");
    }

    ~SlowSink() override
    {
        if (_done.scheduled())
            _sim.eventQueue().deschedule(_done);
    }

    bool
    tryAccept(MemPacket *pkt) override
    {
        if (_held)
            return false;
        // _held admits one packet at a time, so one done event suffices.
        _held = pkt;
        _sim.eventQueue().schedule(_done, _sim.curTick() + ticksFromUs(10.0));
        return true;
    }

  private:
    Simulation &_sim;
    MemPacket *_held = nullptr;
    EventFunction _done;
};

/** Offers one packet; re-offers whenever the sink wakes it. */
class RetryingRequestor : public MemRequestor
{
  public:
    RetryingRequestor(SlowSink &sink, MemPacket *pkt)
        : _sink(sink), _pkt(pkt)
    {
    }

    void
    send()
    {
        if (_sink.offer(_pkt, *this))
            _pkt = nullptr;
    }

    void retryRequest() override
    {
        if (_pkt)
            send();
    }

    std::string requestorName() const override { return "retry_cpu"; }

    bool delivered() const { return _pkt == nullptr; }

  private:
    SlowSink &_sink;
    MemPacket *_pkt;
};

TEST(WatchdogTest, WakeSuppressDegradeForcesWakesAndRecovers)
{
    Simulation sim;
    // Swallow the first natural wakeup; the degrade watchdog must
    // force-wake the parked requestor so its packet still delivers.
    sim.configureFaults("wake-suppress(count=1)", 7);
    sim.enableWatchdog(ticksFromUs(4.0), fault::WatchdogMode::Degrade);

    SlowSink sink(sim);
    MemPacket *pktA = allocPacket(sim, 0x1000);
    MemPacket *pktB = allocPacket(sim, 0x2000);
    RetryingRequestor reqA(sink, pktA);
    RetryingRequestor reqB(sink, pktB);

    // Keep the event queue alive long enough for the watchdog to keep
    // re-arming across the recovery (it never self-perpetuates).
    int ticks = 20;
    EventFunction keepAlive(
        [&] {
            if (--ticks > 0)
                sim.eventQueue().schedule(keepAlive, sim.curTick() +
                                          ticksFromUs(10.0));
        },
        "keep_alive");
    sim.eventQueue().schedule(keepAlive, ticksFromUs(1.0));

    EventFunction start(
        [&] {
            reqA.send(); // Accepted; sink busy for 10us.
            reqB.send(); // Rejected; parked on slow_sink.
        },
        "start_traffic");
    sim.eventQueue().schedule(start, 1);
    sim.run();

    EXPECT_TRUE(reqA.delivered());
    EXPECT_TRUE(reqB.delivered());
    ASSERT_NE(sim.watchdog(), nullptr);
    EXPECT_GE(sim.watchdog()->statHangs.value(), 1.0);
    EXPECT_GE(sim.watchdog()->statForcedWakes.value(), 1.0);
    ASSERT_NE(sim.faultInjector(), nullptr);
    EXPECT_EQ(sim.faultInjector()->statWakesSuppressed.value(), 1.0);
    EXPECT_EQ(sim.packetPool().live(), 0u);
}

TEST(WatchdogTest, StaleFrontSweepRecoversPartialStarvation)
{
    Simulation sim;
    sim.configureFaults("wake-suppress(count=1)", 9);
    sim.enableWatchdog(ticksFromUs(4.0), fault::WatchdogMode::Degrade);

    SlowSink sink(sim);
    MemPacket *pktA = allocPacket(sim, 0x1000);
    MemPacket *pktB = allocPacket(sim, 0x2000);
    RetryingRequestor reqA(sink, pktA);
    RetryingRequestor reqB(sink, pktB);

    // Unrelated traffic keeps the global completion counter moving on
    // every heartbeat, so the hang condition (zero completions) never
    // holds — only the stale-front sweep can rescue the starved
    // waiter.
    int churn = 25;
    EventFunction traffic(
        [&] {
            freePacket(allocPacket(sim, 0x9000));
            if (--churn > 0)
                sim.eventQueue().schedule(traffic, sim.curTick() +
                                          ticksFromUs(3.0));
        },
        "churn");
    sim.eventQueue().schedule(traffic, ticksFromUs(2.0));

    EventFunction start(
        [&] {
            reqA.send(); // Accepted; sink busy for 10us.
            reqB.send(); // Rejected; parked — its wake gets swallowed.
        },
        "start_traffic");
    sim.eventQueue().schedule(start, 1);
    sim.run();

    EXPECT_TRUE(reqA.delivered());
    EXPECT_TRUE(reqB.delivered());
    EXPECT_EQ(sim.watchdog()->statHangs.value(), 0.0);
    EXPECT_GE(sim.watchdog()->statStaleWakes.value(), 1.0);
    EXPECT_EQ(sim.faultInjector()->statWakesSuppressed.value(), 1.0);
    EXPECT_EQ(sim.packetPool().live(), 0u);
}

/**
 * Re-offers to a sink that never accepts: every force-wake bounces
 * straight back onto the retry list. The degrade watchdog's per-waiter
 * cap exists exactly for this shape of deterministic hang.
 */
class StubbornRequestor : public MemRequestor
{
  public:
    StubbornRequestor(FullSink &sink, MemPacket *pkt)
        : _sink(sink), _pkt(pkt)
    {
    }

    void send() { _sink.offer(_pkt, *this); }
    void retryRequest() override { send(); }
    std::string requestorName() const override { return "stubborn_cpu"; }

    MemPacket *packet() { return _pkt; }

  private:
    FullSink &_sink;
    MemPacket *_pkt;
};

TEST(WatchdogDeathTest, DegradeEscalatesAfterForcedWakeCapAndWritesReport)
{
    Simulation sim;
    std::string report =
        ::testing::TempDir() + "emerald_degrade_escalation.json";
    std::remove(report.c_str());
    sim.enableWatchdog(ticksFromUs(4.0), fault::WatchdogMode::Degrade,
                       report);

    FullSink sink(sim);
    StubbornRequestor req(sink, allocPacket(sim));

    // No completions ever: each heartbeat force-wakes the lone parked
    // waiter, which re-parks immediately. Keep the queue alive long
    // past the cap (16 charges) so the escalation fires.
    int ticks = 400;
    EventFunction keepAlive(
        [&] {
            if (--ticks > 0)
                sim.eventQueue().schedule(keepAlive, sim.curTick() +
                                          ticksFromUs(10.0));
        },
        "keep_alive");
    sim.eventQueue().schedule(keepAlive, ticksFromUs(1.0));

    EventFunction start([&] { req.send(); }, "start_traffic");
    sim.eventQueue().schedule(start, 1);
    EXPECT_DEATH(sim.run(),
                 "DEGRADE ESCALATION.*stubborn_cpu.*test_sink");

    // The death child wrote the machine-readable report before
    // panicking — that file is what the run supervisor classifies.
    std::ifstream is(report);
    ASSERT_TRUE(is.is_open()) << report;
    std::ostringstream text;
    text << is.rdbuf();
    EXPECT_NE(text.str().find("\"kind\": \"degrade-escalation\""),
              std::string::npos)
        << text.str();
    EXPECT_NE(text.str().find("stubborn_cpu"), std::string::npos);

    // Unwind the parent's copy of the deadlock for teardown.
    sink.drainWaiters();
    freePacket(req.packet());
}

// Injector seams -------------------------------------------------------

TEST(FaultInjectorTest, OfferBurstRejectsThenHeals)
{
    Simulation sim;
    // Reject every offer in the first 2us; the flush event at the
    // window's end must force-wake the starved requestor.
    sim.configureFaults("offer-burst(len=2us)", 3);

    SlowSink sink(sim);
    MemPacket *pkt = allocPacket(sim);
    RetryingRequestor req(sink, pkt);
    EventFunction start([&] { req.send(); }, "start");
    sim.eventQueue().schedule(start, 1);
    sim.run();

    EXPECT_TRUE(req.delivered());
    EXPECT_GE(sim.faultInjector()->statOfferRejects.value(), 1.0);
    EXPECT_EQ(sim.packetPool().live(), 0u);
}

TEST(FaultInjectorTest, SeededCampaignsReplay)
{
    auto countRejects = [](std::uint64_t seed) {
        Simulation sim;
        sim.configureFaults("offer-burst(prob=0.5,len=10us)", seed);
        SlowSink sink(sim);
        std::vector<std::unique_ptr<RetryingRequestor>> reqs;
        EventFunction start(
            [&] {
                for (unsigned i = 0; i < 8; ++i) {
                    reqs.push_back(std::make_unique<RetryingRequestor>(
                        sink, allocPacket(sim, 0x1000 + 64u * i)));
                    reqs.back()->send();
                }
            },
            "start");
        sim.eventQueue().schedule(start, 1);
        sim.run();
        return sim.faultInjector()->statOfferRejects.value();
    };
    EXPECT_DOUBLE_EQ(countRejects(11), countRejects(11));
}

// Fig. 12 SoC soak -----------------------------------------------------

TEST(FaultSoakTest, SocSurvivesRandomFaultCampaignInDegrade)
{
    soc::SocParams p;
    p.model = scenes::WorkloadId::M2_Cube;
    p.highLoad = true; // Fig. 12 scenario: constrained memory.
    p.frames = 2;
    p.fbWidth = 192;
    p.fbHeight = 144;
    p.cpuPrepRequests = 300;

    SimulationBuilder builder;
    builder.checkDeterminism()
        .faultPlan("offer-burst(prob=0.05,len=20us,period=200us);"
                   "dram-stall(prob=0.5,len=10us,period=300us);"
                   "link-delay(delay=200ns,prob=0.1);"
                   "dup-wake(prob=0.05);"
                   "wake-suppress(prob=0.02,count=50)",
                   12345)
        .watchdog(ticksFromUs(250.0), "degrade");

    // Must complete — no checker abort, no unbounded hang. The degrade
    // watchdog is allowed (expected, even) to intervene.
    soc::SocTop soc(p, builder);
    soc.run(ticksFromMs(500.0));

    EXPECT_GT(soc.sim().faultInjector()->injections(), 0u);
    EXPECT_NE(soc.sim().determinismHash(), 0u);
}

} // namespace
} // namespace emerald
