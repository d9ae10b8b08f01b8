#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <tuple>

#include "mem/functional_memory.hh"
#include "noc/crossbar.hh"
#include "noc/link.hh"
#include "sim/clocked.hh"
#include "sim/config.hh"
#include "sim/random.hh"
#include "sim/simulation.hh"
#include "sim/stats.hh"

using namespace emerald;

TEST(EventQueue, OrderingByTickPriorityAndInsertion)
{
    EventQueue eq;
    std::vector<int> order;
    EventFunction a([&] { order.push_back(1); }, "a");
    EventFunction b([&] { order.push_back(2); }, "b");
    EventFunction c([&] { order.push_back(3); }, "c",
                    Event::clockPriority);
    EventFunction d([&] { order.push_back(4); }, "d");

    eq.schedule(a, 10);
    eq.schedule(b, 5);
    eq.schedule(c, 10); // Same tick as a, higher priority.
    eq.schedule(d, 10); // Same tick/priority as a, inserted later.
    eq.runUntil();
    EXPECT_EQ(order, (std::vector<int>{2, 3, 1, 4}));
    EXPECT_EQ(eq.curTick(), 10u);
}

TEST(EventQueue, RescheduleAndDeschedule)
{
    EventQueue eq;
    int fired = 0;
    EventFunction ev([&] { ++fired; }, "ev");
    eq.schedule(ev, 10);
    eq.reschedule(ev, 20);
    eq.runUntil(15);
    EXPECT_EQ(fired, 0);
    eq.runUntil(25);
    EXPECT_EQ(fired, 1);

    eq.schedule(ev, 30);
    eq.deschedule(ev);
    eq.runUntil();
    EXPECT_EQ(fired, 1);
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueue, SelfReschedulingEvent)
{
    EventQueue eq;
    int count = 0;
    EventFunction *ptr = nullptr;
    EventFunction ev(
        [&] {
            if (++count < 5)
                eq.schedule(*ptr, eq.curTick() + 100);
        },
        "tick");
    ptr = &ev;
    eq.schedule(ev, 0);
    eq.runUntil();
    EXPECT_EQ(count, 5);
    EXPECT_EQ(eq.curTick(), 400u);
}

TEST(EventQueue, RunUntilStopsAtLimit)
{
    EventQueue eq;
    int fired = 0;
    EventFunction a([&] { ++fired; }, "a");
    EventFunction b([&] { ++fired; }, "b");
    eq.schedule(a, 10);
    eq.schedule(b, 100);
    EXPECT_EQ(eq.runUntil(50), 1u);
    EXPECT_EQ(fired, 1);
    EXPECT_FALSE(eq.empty());
}

// ------------------------------------------------------------------
// EventQueue against a reference model
// ------------------------------------------------------------------

namespace
{

/**
 * Drives one EventQueue and a reference model through the same
 * operations. The model is a sorted set of (when, priority, seq), and
 * every schedule or reschedule takes the next seq. Events fire through
 * the real queue; each one checks that the model agrees on which event
 * is next, then may re-arm itself or touch another event from inside
 * process().
 */
class QueueDiff
{
  public:
    QueueDiff(std::uint64_t seed, int num_events) : _rng(seed)
    {
        const int priorities[] = {Event::clockPriority,
                                  Event::defaultPriority,
                                  Event::statsPriority};
        for (int id = 0; id < num_events; ++id) {
            std::string name = "e";
            name += std::to_string(id);
            _events.push_back(std::make_unique<EventFunction>(
                [this, id] { fired(id); }, name, priorities[id % 3]));
        }
        _keys.resize(static_cast<std::size_t>(num_events));
    }

    EventQueue eq;

    void
    schedule(int id, Tick when)
    {
        eq.schedule(ev(id), when);
        insert(id, when);
    }

    void
    reschedule(int id, Tick when)
    {
        eq.reschedule(ev(id), when);
        erase(id);
        insert(id, when);
    }

    void
    deschedule(int id)
    {
        eq.deschedule(ev(id));
        erase(id);
    }

    /** The checkpoint-restore prologue, then the pending set again in
     *  service order at a later tick. */
    void
    clearAndRestore(Tick jump)
    {
        std::vector<std::pair<int, Tick>> pending;
        for (const auto &[key, id] : _model)
            pending.emplace_back(id, std::get<0>(key) + jump);
        eq.clearForRestore();
        _model.clear();
        for (auto &key : _keys)
            key.reset();
        eq.restoreTime(eq.curTick() + jump, eq.numProcessed());
        for (const auto &[id, when] : pending)
            schedule(id, when);
    }

    /** Run one event, or schedule, reschedule or deschedule one. */
    void
    randomStep()
    {
        if (_rng.chance(0.4))
            eq.runOne();
        else
            randomOp();
    }

    void
    runAll()
    {
        while (eq.runOne())
            ASSERT_NO_FATAL_FAILURE(check());
    }

    /** Everything observable must match the model. */
    void
    check() const
    {
        ASSERT_EQ(_fired, _expected);
        ASSERT_EQ(eq.size(), _model.size());
        ASSERT_EQ(eq.heapSize(), eq.size());
        ASSERT_EQ(eq.empty(), _model.empty());
        if (!_model.empty()) {
            ASSERT_EQ(eq.nextTick(), std::get<0>(_model.begin()->first));
        }

        auto live = eq.liveEventsSorted();
        ASSERT_EQ(live.size(), _model.size());
        std::size_t i = 0;
        for (const auto &[key, id] : _model) {
            const auto &ref = live[i++];
            ASSERT_EQ(ref.when, std::get<0>(key));
            ASSERT_EQ(ref.priority, std::get<1>(key));
            ASSERT_EQ(ref.seq, std::get<2>(key));
            ASSERT_EQ(ref.event, &ev(id));
        }
        for (std::size_t e = 0; e < _events.size(); ++e) {
            ASSERT_EQ(_events[e]->scheduled(), _keys[e].has_value());
            if (_keys[e]) {
                ASSERT_EQ(_events[e]->when(), std::get<0>(*_keys[e]));
            }
        }
    }

  private:
    using Key = std::tuple<Tick, int, std::uint64_t>;

    Event &ev(int id) const { return *_events[static_cast<std::size_t>(id)]; }

    void
    insert(int id, Tick when)
    {
        Key key{when, ev(id).priority(), _seq++};
        _model.emplace(key, id);
        _keys[static_cast<std::size_t>(id)] = key;
    }

    void
    erase(int id)
    {
        auto &key = _keys[static_cast<std::size_t>(id)];
        if (key) {
            _model.erase(*key);
            key.reset();
        }
    }

    /** Mostly zero-delay or near ties, sometimes further out. */
    Tick
    delay()
    {
        return _rng.chance(0.3) ? 0 : _rng.below(_rng.chance(0.8) ? 4 : 40);
    }

    void
    randomOp()
    {
        const int id = static_cast<int>(_rng.below(_events.size()));
        const Tick when = eq.curTick() + delay();
        if (ev(id).scheduled()) {
            if (_rng.chance(0.5))
                reschedule(id, when);
            else
                deschedule(id);
        } else if (_rng.chance(0.7)) {
            schedule(id, when);
        } else {
            reschedule(id, when);
        }
    }

    void
    fired(int id)
    {
        _fired.emplace_back(id, eq.curTick());
        if (_model.empty()) {
            _expected.emplace_back(-1, 0);
            return;
        }
        auto head = _model.begin();
        _expected.emplace_back(head->second, std::get<0>(head->first));
        _keys[static_cast<std::size_t>(head->second)].reset();
        _model.erase(head);
        if (_rng.chance(0.5))
            schedule(id, eq.curTick() + delay());
        if (_rng.chance(0.2))
            randomOp();
    }

    Random _rng;
    std::vector<std::unique_ptr<EventFunction>> _events;
    std::map<Key, int> _model;
    std::vector<std::optional<Key>> _keys;
    std::uint64_t _seq = 0;
    std::vector<std::pair<int, Tick>> _fired;
    std::vector<std::pair<int, Tick>> _expected;
};

void
runRandomDiff(std::uint64_t seed)
{
    QueueDiff diff(seed, 12);
    for (int step = 0; step < 20000; ++step) {
        diff.randomStep();
        ASSERT_NO_FATAL_FAILURE(diff.check()) << "step " << step;
        if (step % 5000 == 4999) {
            diff.clearAndRestore(100);
            ASSERT_NO_FATAL_FAILURE(diff.check()) << "restore " << step;
        }
    }
    ASSERT_NO_FATAL_FAILURE(diff.runAll());
    EXPECT_TRUE(diff.eq.empty());
}

} // namespace

TEST(EventQueueDifferential, RandomOpsSeed1) { runRandomDiff(1); }
TEST(EventQueueDifferential, RandomOpsSeed2) { runRandomDiff(2); }
TEST(EventQueueDifferential, RandomOpsSeed3) { runRandomDiff(3); }

TEST(EventQueueDifferential, FrontSlotDescheduledRescheduledDisplaced)
{
    // Priorities by id: e0/e3 clock, e1/e4 default, e2/e5 stats.
    QueueDiff diff(7, 6);
    // e0 into an empty queue takes the front slot; e1 goes behind it.
    diff.schedule(0, 10);
    diff.schedule(1, 20);
    ASSERT_NO_FATAL_FAILURE(diff.check());
    // An earlier tick displaces the front node into the heap.
    diff.schedule(2, 5);
    ASSERT_NO_FATAL_FAILURE(diff.check());
    // Descheduling the front node leaves the heap's root next.
    diff.deschedule(2);
    ASSERT_NO_FATAL_FAILURE(diff.check());
    // A heap node rescheduled earliest takes the front slot,
    diff.reschedule(0, 3);
    ASSERT_NO_FATAL_FAILURE(diff.check());
    // keeps it when moved within its lead,
    diff.reschedule(0, 4);
    ASSERT_NO_FATAL_FAILURE(diff.check());
    // and goes back into the heap when moved behind the root.
    diff.reschedule(0, 30);
    ASSERT_NO_FATAL_FAILURE(diff.check());
    // e4 takes the empty front slot; e3, same tick but clock priority,
    // displaces it; e5, same tick but stats priority, goes behind.
    diff.schedule(4, 10);
    ASSERT_NO_FATAL_FAILURE(diff.check());
    diff.schedule(3, 10);
    ASSERT_NO_FATAL_FAILURE(diff.check());
    diff.schedule(5, 10);
    ASSERT_NO_FATAL_FAILURE(diff.check());
    ASSERT_NO_FATAL_FAILURE(diff.runAll());
}

TEST(EventQueueDifferential, ClearForRestoreThenReschedule)
{
    QueueDiff diff(11, 9);
    for (int id = 0; id < 9; ++id)
        diff.schedule(id, 50 - 5 * (id % 4));
    ASSERT_NO_FATAL_FAILURE(diff.check());
    diff.eq.runUntil(40);
    ASSERT_NO_FATAL_FAILURE(diff.check());
    diff.clearAndRestore(1000);
    ASSERT_NO_FATAL_FAILURE(diff.check());
    ASSERT_NO_FATAL_FAILURE(diff.runAll());
}

TEST(ClockDomain, EdgeMath)
{
    EventQueue eq;
    ClockDomain clk(eq, 1000, "clk"); // 1 GHz, 1000 ps period.
    EXPECT_EQ(clk.clockEdge(0), 0u);
    EXPECT_EQ(clk.clockEdge(3), 3000u);

    EventFunction ev([] {}, "pad");
    eq.schedule(ev, 1500);
    eq.runUntil();
    EXPECT_EQ(clk.curCycle(), 1u);
    EXPECT_EQ(clk.clockEdge(0), 2000u); // Next edge at/after 1500.
}

namespace
{

struct Ticker : public Clocked
{
    int ticks = 0;
    int stop_after;

    Ticker(ClockDomain &domain, int n)
        : Clocked(domain, "ticker"), stop_after(n)
    {}

    bool
    tick() override
    {
        return ++ticks < stop_after;
    }
};

} // namespace

TEST(Clocked, TicksUntilIdleThenReactivates)
{
    EventQueue eq;
    ClockDomain clk(eq, 1000, "clk");
    Ticker ticker(clk, 3);
    ticker.activate();
    eq.runUntil();
    EXPECT_EQ(ticker.ticks, 3);
    EXPECT_TRUE(eq.empty());

    ticker.stop_after = 5;
    ticker.activate();
    eq.runUntil();
    EXPECT_EQ(ticker.ticks, 5);
}

TEST(Stats, ScalarAndDistributionDump)
{
    StatGroup root("");
    StatGroup group(root, "unit");
    Scalar counter(group, "count", "a counter");
    Distribution dist(group, "lat", "a distribution");
    ++counter;
    counter += 2.0;
    dist.sample(10.0);
    dist.sample(20.0);

    EXPECT_EQ(counter.value(), 3.0);
    EXPECT_EQ(dist.mean(), 15.0);
    EXPECT_EQ(dist.min(), 10.0);
    EXPECT_EQ(dist.max(), 20.0);

    std::ostringstream os;
    root.dumpStats(os);
    std::string text = os.str();
    EXPECT_NE(text.find("unit.count 3"), std::string::npos);
    EXPECT_NE(text.find("unit.lat.mean 15"), std::string::npos);

    root.resetStats();
    EXPECT_EQ(counter.value(), 0.0);
    EXPECT_EQ(dist.count(), 0u);
}

TEST(Stats, TimeSeriesBuckets)
{
    StatGroup root("");
    TimeSeries series(root, "bw", "bytes", 100);
    series.add(5, 10.0);
    series.add(95, 10.0);
    series.add(105, 7.0);
    series.add(950, 1.0);
    ASSERT_EQ(series.buckets().size(), 10u);
    EXPECT_EQ(series.buckets()[0], 20.0);
    EXPECT_EQ(series.buckets()[1], 7.0);
    EXPECT_EQ(series.buckets()[9], 1.0);
}

TEST(Random, DeterministicAndBounded)
{
    Random a(42), b(42), c(43);
    EXPECT_EQ(a.next(), b.next());
    EXPECT_NE(a.next(), c.next());
    for (int i = 0; i < 1000; ++i) {
        EXPECT_LT(a.below(17), 17u);
        double u = a.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
        std::int64_t v = a.between(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
    }
}

TEST(Config, ParseAndTypedAccess)
{
    Config cfg;
    const char *argv[] = {"prog", "--alpha=3", "--beta=2.5",
                          "--gamma=yes", "--name=hello"};
    cfg.parseArgs(5, const_cast<char **>(argv));
    EXPECT_EQ(cfg.getInt("alpha", 0), 3);
    EXPECT_DOUBLE_EQ(cfg.getDouble("beta", 0.0), 2.5);
    EXPECT_TRUE(cfg.getBool("gamma", false));
    EXPECT_EQ(cfg.getString("name", ""), "hello");
    EXPECT_EQ(cfg.getInt("missing", 7), 7);
    EXPECT_TRUE(cfg.has("alpha"));
    EXPECT_FALSE(cfg.has("missing"));
}

TEST(FunctionalMemory, ReadWriteAcrossPages)
{
    mem::FunctionalMemory fmem;
    std::vector<std::uint8_t> data(10000);
    for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<std::uint8_t>(i * 7);
    Addr base = fmem.allocate(data.size());
    fmem.write(base, data.data(), data.size());

    std::vector<std::uint8_t> back(data.size());
    fmem.read(base, back.data(), back.size());
    EXPECT_EQ(back, data);

    // Unwritten memory reads as zero.
    EXPECT_EQ(fmem.read32(base + 0x100000), 0u);
}

TEST(FunctionalMemory, AllocatorAlignsAndSeparates)
{
    mem::FunctionalMemory fmem;
    Addr a = fmem.allocate(100, 128);
    Addr b = fmem.allocate(100, 128);
    EXPECT_EQ(a % 128, 0u);
    EXPECT_EQ(b % 128, 0u);
    EXPECT_GE(b, a + 100);
}

namespace
{

struct SinkCounter : public MemSink
{
    unsigned count = 0;
    Tick lastArrival = 0;
    EventQueue *eq = nullptr;
    bool reject = false;

    bool
    tryAccept(MemPacket *pkt) override
    {
        if (reject)
            return false;
        ++count;
        lastArrival = eq->curTick();
        delete pkt;
        return true;
    }

    /** Real sinks wake waiters when capacity frees; tests drive it. */
    void wakeAll()
    {
        while (wakeOneRetryChecked()) {
        }
    }
};

} // namespace

TEST(Link, DelaysAndSerializes)
{
    Simulation sim;
    noc::LinkParams lp;
    lp.latency = ticksFromNs(10.0);
    lp.bytesPerSec = 1e9; // 128 B takes 128 ns.
    noc::Link link(sim, "link", lp);
    SinkCounter sink;
    sink.eq = &sim.eventQueue();
    link.setTarget(sink);

    auto *p1 = new MemPacket(0, 128, false, TrafficClass::Gpu,
                             AccessKind::GlobalData, 0, nullptr);
    auto *p2 = new MemPacket(128, 128, false, TrafficClass::Gpu,
                             AccessKind::GlobalData, 0, nullptr);
    ASSERT_TRUE(link.tryAccept(p1));
    ASSERT_TRUE(link.tryAccept(p2));
    sim.run();
    EXPECT_EQ(sink.count, 2u);
    // Second packet: 2 serialization slots + latency = 266 ns.
    EXPECT_EQ(sink.lastArrival, ticksFromNs(128.0 * 2 + 10.0));
}

TEST(Link, BackpressureAndRetry)
{
    Simulation sim;
    noc::LinkParams lp;
    lp.latency = ticksFromNs(1.0);
    lp.queueDepth = 2;
    noc::Link link(sim, "link", lp);
    SinkCounter sink;
    sink.eq = &sim.eventQueue();
    sink.reject = true;
    link.setTarget(sink);

    auto mk = [] {
        return new MemPacket(0, 128, false, TrafficClass::Gpu,
                             AccessKind::GlobalData, 0, nullptr);
    };
    EXPECT_TRUE(link.tryAccept(mk()));
    EXPECT_TRUE(link.tryAccept(mk()));
    MemPacket *overflow = mk();
    EXPECT_FALSE(link.tryAccept(overflow)); // Queue full.
    delete overflow;

    sim.run(ticksFromNs(100.0));
    EXPECT_EQ(sink.count, 0u); // Still rejecting; link is parked.
    sink.reject = false;
    // No polling: nothing happens until the sink signals capacity.
    sim.run(ticksFromNs(300.0));
    EXPECT_EQ(sink.count, 0u);
    sink.wakeAll();
    sim.run(ticksFromNs(600.0));
    EXPECT_EQ(sink.count, 2u); // Delivered after the retry wake.
}

TEST(Crossbar, RoutesByFunction)
{
    Simulation sim;
    noc::LinkParams lp;
    lp.latency = ticksFromNs(1.0);
    noc::Crossbar xbar(sim, "xbar", lp, [](const MemPacket &pkt) {
        return pkt.addr < 0x1000 ? 0u : 1u;
    });
    SinkCounter low, high;
    low.eq = high.eq = &sim.eventQueue();
    xbar.addDestination(low);
    xbar.addDestination(high);

    auto send = [&](Addr a) {
        auto *pkt = new MemPacket(a, 128, false, TrafficClass::Gpu,
                                  AccessKind::GlobalData, 0, nullptr);
        ASSERT_TRUE(xbar.tryAccept(pkt));
    };
    send(0x100);
    send(0x2000);
    send(0x200);
    sim.run();
    EXPECT_EQ(low.count, 2u);
    EXPECT_EQ(high.count, 1u);
}

TEST(Stats, SimulationTreeDumpsComponentStats)
{
    Simulation sim;
    ClockDomain &clk = sim.createClockDomain(1000.0, "clk");
    noc::LinkParams lp;
    noc::Link link(sim, "syslink", lp);
    (void)clk;

    std::ostringstream os;
    sim.dumpStats(os);
    std::string text = os.str();
    EXPECT_NE(text.find("syslink.packets 0"), std::string::npos);
    EXPECT_NE(text.find("syslink.bytes 0"), std::string::npos);

    sim.resetStats();
    std::ostringstream os2;
    sim.dumpStats(os2);
    EXPECT_FALSE(os2.str().empty());
}
