/**
 * @file
 * Tests for the machine-readable observability layer (JSON stat
 * dumps, the Chrome-trace EventTracer, the sim.profile.* profiler)
 * and regression tests for the kernel bugfixes that shipped with it
 * (Random modulo bias, TimeSeries hazards, EventQueue memory under
 * deschedule churn, Config space-form parsing).
 */

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "harness.hh"
#include "scenes/workloads.hh"
#include "sim/config.hh"
#include "sim/event_queue.hh"
#include "sim/event_tracer.hh"
#include "sim/random.hh"
#include "sim/simulation.hh"
#include "sim/simulation_builder.hh"
#include "sim/stats.hh"
#include "soc/configs.hh"

using namespace emerald;

namespace
{

// ------------------------------------------------------------------
// A deliberately small JSON parser: just enough to validate that the
// dumps are well-formed and round-trip the stat values. Throws
// std::runtime_error on malformed input so tests fail loudly.
// ------------------------------------------------------------------

struct JsonValue
{
    enum Kind { Null, Bool, Number, String, Array, Object } kind = Null;
    bool boolean = false;
    double number = 0.0;
    std::string str;
    std::vector<JsonValue> array;
    std::map<std::string, JsonValue> object;

    const JsonValue &
    at(const std::string &key) const
    {
        auto it = object.find(key);
        if (it == object.end())
            throw std::runtime_error("missing key: " + key);
        return it->second;
    }

    bool has(const std::string &key) const
    {
        return object.count(key) != 0;
    }
};

class JsonParser
{
  public:
    explicit JsonParser(const std::string &text) : _s(text) {}

    JsonValue
    parse()
    {
        JsonValue v = parseValue();
        skipWs();
        if (_pos != _s.size())
            throw std::runtime_error("trailing garbage");
        return v;
    }

  private:
    void
    skipWs()
    {
        while (_pos < _s.size() &&
               (_s[_pos] == ' ' || _s[_pos] == '\t' ||
                _s[_pos] == '\n' || _s[_pos] == '\r'))
            ++_pos;
    }

    char
    peek()
    {
        skipWs();
        if (_pos >= _s.size())
            throw std::runtime_error("unexpected end");
        return _s[_pos];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            throw std::runtime_error(std::string("expected ") + c);
        ++_pos;
    }

    JsonValue
    parseValue()
    {
        char c = peek();
        if (c == '{')
            return parseObject();
        if (c == '[')
            return parseArray();
        if (c == '"') {
            JsonValue v;
            v.kind = JsonValue::String;
            v.str = parseString();
            return v;
        }
        if (c == 't' || c == 'f')
            return parseBool();
        if (c == 'n') {
            literal("null");
            return JsonValue{};
        }
        return parseNumber();
    }

    void
    literal(const char *word)
    {
        for (const char *p = word; *p; ++p) {
            if (_pos >= _s.size() || _s[_pos] != *p)
                throw std::runtime_error("bad literal");
            ++_pos;
        }
    }

    JsonValue
    parseBool()
    {
        JsonValue v;
        v.kind = JsonValue::Bool;
        if (_s[_pos] == 't') {
            literal("true");
            v.boolean = true;
        } else {
            literal("false");
        }
        return v;
    }

    JsonValue
    parseNumber()
    {
        std::size_t start = _pos;
        while (_pos < _s.size() &&
               (std::isdigit(static_cast<unsigned char>(_s[_pos])) ||
                _s[_pos] == '-' || _s[_pos] == '+' ||
                _s[_pos] == '.' || _s[_pos] == 'e' ||
                _s[_pos] == 'E'))
            ++_pos;
        if (start == _pos)
            throw std::runtime_error("bad number");
        JsonValue v;
        v.kind = JsonValue::Number;
        v.number = std::stod(_s.substr(start, _pos - start));
        return v;
    }

    std::string
    parseString()
    {
        expect('"');
        std::string out;
        while (true) {
            if (_pos >= _s.size())
                throw std::runtime_error("unterminated string");
            char c = _s[_pos++];
            if (c == '"')
                return out;
            if (c == '\\') {
                if (_pos >= _s.size())
                    throw std::runtime_error("bad escape");
                char e = _s[_pos++];
                switch (e) {
                case '"': out += '"'; break;
                case '\\': out += '\\'; break;
                case '/': out += '/'; break;
                case 'b': out += '\b'; break;
                case 'f': out += '\f'; break;
                case 'n': out += '\n'; break;
                case 'r': out += '\r'; break;
                case 't': out += '\t'; break;
                case 'u': {
                    if (_pos + 4 > _s.size())
                        throw std::runtime_error("bad \\u");
                    unsigned code = static_cast<unsigned>(std::stoul(
                        _s.substr(_pos, 4), nullptr, 16));
                    _pos += 4;
                    // Tests only emit ASCII control codes.
                    out += static_cast<char>(code);
                    break;
                }
                default:
                    throw std::runtime_error("bad escape char");
                }
            } else {
                out += c;
            }
        }
    }

    JsonValue
    parseArray()
    {
        expect('[');
        JsonValue v;
        v.kind = JsonValue::Array;
        if (peek() == ']') {
            ++_pos;
            return v;
        }
        while (true) {
            v.array.push_back(parseValue());
            char c = peek();
            if (c == ']') {
                ++_pos;
                return v;
            }
            expect(',');
        }
    }

    JsonValue
    parseObject()
    {
        expect('{');
        JsonValue v;
        v.kind = JsonValue::Object;
        if (peek() == '}') {
            ++_pos;
            return v;
        }
        while (true) {
            std::string key = parseString();
            expect(':');
            v.object[key] = parseValue();
            char c = peek();
            if (c == '}') {
                ++_pos;
                return v;
            }
            expect(',');
        }
    }

    const std::string &_s;
    std::size_t _pos = 0;
};

JsonValue
parseJson(const std::string &text)
{
    return JsonParser(text).parse();
}

std::string
readFile(const std::string &path)
{
    std::ifstream is(path);
    std::ostringstream ss;
    ss << is.rdbuf();
    return ss.str();
}

/** A named event counting its own firings. */
class NamedEvent : public Event
{
  public:
    explicit NamedEvent(std::string name) : _name(std::move(name)) {}

    void process() override { ++fired; }
    const std::string &name() const override { return _name; }

    int fired = 0;

  private:
    std::string _name;
};

} // namespace

// ------------------------------------------------------------------
// JSON stat dumps
// ------------------------------------------------------------------

TEST(JsonStats, RoundTripsScalarDistributionAndTimeSeries)
{
    StatGroup root("");
    StatGroup mem(root, "mem");
    Scalar reads(mem, "reads", "read requests");
    Distribution lat(mem, "latency", "request latency");
    TimeSeries bw(mem, "bw", "bytes per bucket", 100);

    reads += 41;
    ++reads;
    lat.sample(10.0);
    lat.sample(30.0, 2);
    bw.add(0, 64.0);
    bw.add(250, 128.0);

    std::ostringstream os;
    root.dumpJson(os);
    JsonValue doc = parseJson(os.str());

    const JsonValue &memNode = doc.at("groups").at("mem");
    const JsonValue &stats = memNode.at("stats");

    const JsonValue &r = stats.at("reads");
    EXPECT_EQ(r.at("type").str, "scalar");
    EXPECT_DOUBLE_EQ(r.at("value").number, reads.value());
    EXPECT_EQ(r.at("desc").str, "read requests");

    const JsonValue &l = stats.at("latency");
    EXPECT_EQ(l.at("type").str, "distribution");
    EXPECT_DOUBLE_EQ(l.at("count").number, 3.0);
    EXPECT_DOUBLE_EQ(l.at("total").number, lat.total());
    EXPECT_DOUBLE_EQ(l.at("mean").number, lat.mean());
    EXPECT_DOUBLE_EQ(l.at("min").number, 10.0);
    EXPECT_DOUBLE_EQ(l.at("max").number, 30.0);

    const JsonValue &b = stats.at("bw");
    EXPECT_EQ(b.at("type").str, "timeseries");
    EXPECT_DOUBLE_EQ(b.at("bucket_width").number, 100.0);
    ASSERT_EQ(b.at("buckets").array.size(), 3u);
    EXPECT_DOUBLE_EQ(b.at("buckets").array[0].number, 64.0);
    EXPECT_DOUBLE_EQ(b.at("buckets").array[1].number, 0.0);
    EXPECT_DOUBLE_EQ(b.at("buckets").array[2].number, 128.0);
}

TEST(JsonStats, EscapesSpecialCharactersInDescriptions)
{
    StatGroup root("");
    Scalar s(root, "odd",
             "a \"quoted\" desc with \\ backslash and \n newline");
    s = 7;

    std::ostringstream os;
    root.dumpJson(os);
    JsonValue doc = parseJson(os.str());
    EXPECT_EQ(doc.at("stats").at("odd").at("desc").str,
              "a \"quoted\" desc with \\ backslash and \n newline");
}

TEST(JsonStats, SimulationDumpIncludesProfileGroup)
{
    Simulation sim;
    sim.profiler().registerComponent("gpu");

    std::ostringstream os;
    sim.statsRoot().dumpJson(os);
    JsonValue doc = parseJson(os.str());
    const JsonValue &profile =
        doc.at("groups").at("sim").at("groups").at("profile");
    EXPECT_TRUE(profile.at("groups").object.count("gpu"));
    EXPECT_TRUE(profile.at("groups").object.count("other"));

    // The flattened view holds the same counters.
    std::set<std::string> rows;
    sim.statsRoot().flattenStats(
        [&](const std::string &name, double) { rows.insert(name); });
    EXPECT_TRUE(rows.count("sim.profile.gpu.numProcessed"));
    EXPECT_TRUE(rows.count("sim.profile.other.wallNs"));
}

// ------------------------------------------------------------------
// Bench harness: one label per simulation
// ------------------------------------------------------------------

/** A BenchHarness over @p args, as if passed to emerald_bench. */
std::unique_ptr<bench::BenchHarness>
makeHarness(std::vector<std::string> args)
{
    args.insert(args.begin(), "emerald_bench");
    std::vector<char *> argv;
    for (std::string &arg : args)
        argv.push_back(arg.data());
    return std::make_unique<bench::BenchHarness>(
        static_cast<int>(argv.size()), argv.data(), "harness_test");
}

/** Render @p frames frames of W3 on a 64x64 rig built from @p builder. */
void
renderOn(const SimulationBuilder &builder, unsigned frames)
{
    soc::StandaloneGpu rig(64, 64, soc::caseStudy2GpuParams(),
                           soc::caseStudy2MemParams(), builder);
    scenes::SceneRenderer scene(
        rig.pipeline(), scenes::makeWorkload(scenes::WorkloadId::W3_Cube),
        rig.functionalMemory());
    for (unsigned f = 0; f < frames; ++f)
        bench::renderFrame(rig, scene, f);
}

/** A fresh, empty temporary directory. */
std::string
freshDir(const std::string &leaf)
{
    std::string dir = ::testing::TempDir() + "emerald_" + leaf;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

TEST(BenchHarness, RecordsEventsWallTimeAndHashPerLabel)
{
    std::string out = freshDir("harness_results") + "/r.json";
    {
        auto harness =
            makeHarness({"--check-determinism", "--stats-out=" + out});
        renderOn(harness->builderFor("one"), 1);
        renderOn(harness->builderFor(""), 1);
    }
    JsonValue doc = parseJson(readFile(out));
    const JsonValue &results = doc.at("results");
    for (const char *prefix : {"one.", ""}) {
        std::string p = prefix;
        EXPECT_GT(results.at(p + "events").number, 0.0) << p;
        EXPECT_GT(results.at(p + "wall_ms").number, 0.0) << p;
        EXPECT_NE(results.at(p + "event_hash").number, 0.0) << p;
    }
    // Same rig, same frame: the two labels hashed one event stream.
    EXPECT_EQ(results.at("one.event_hash").number,
              results.at("event_hash").number);
}

TEST(BenchHarness, StatsOutTreeAndTraceFilePerLabel)
{
    std::string dir = freshDir("harness_dumps");
    {
        auto harness = makeHarness({"--stats-out=" + dir + "/s.json",
                                    "--trace-file=" + dir + "/t.json"});
        renderOn(harness->builderFor("one"), 1);
        renderOn(harness->builderFor("two"), 2);
    }
    // Each rig files its whole tree when it exits, while its
    // components are alive: exactly one tree per label.
    JsonValue stats = parseJson(readFile(dir + "/s.json"));
    const JsonValue &trees = stats.at("sim");
    EXPECT_EQ(trees.object.size(), 2u);
    const std::pair<const char *, double> labels[] = {{"one", 1.0},
                                                      {"two", 2.0}};
    for (const auto &[label, frames] : labels) {
        const JsonValue &groups = trees.at(label).at("groups");
        for (const char *group : {"sim", "gpu", "gfx", "dram"})
            EXPECT_TRUE(groups.has(group)) << label << ": " << group;
        EXPECT_DOUBLE_EQ(groups.at("gfx")
                             .at("stats")
                             .at("frames")
                             .at("value")
                             .number,
                         frames)
            << label;
    }
    EXPECT_FALSE(std::filesystem::exists(dir + "/t.json"));
    for (const char *trace : {"/t.one.json", "/t.two.json"}) {
        JsonValue doc = parseJson(readFile(dir + trace));
        EXPECT_FALSE(doc.array.empty()) << trace;
    }

    EXPECT_EQ(bench::labelledPath("out/s.json", "M2-cube.BAS"),
              "out/s.M2-cube.BAS.json");
    EXPECT_EQ(bench::labelledPath("dump", "a"), "dump.a");
    EXPECT_EQ(bench::labelledPath("null", "a"), "null");
    EXPECT_EQ(bench::labelledPath("", "a"), "");
}

TEST(BenchHarness, CheckpointDirIsLabelThenScope)
{
    auto quick = makeHarness(
        {"--quick", "--checkpoint-at=1ms", "--checkpoint-dir=ck"});
    std::string scope = ckptScopeFingerprintHex(quick->cfg);
    ASSERT_FALSE(scope.empty());
    EXPECT_EQ(quick->builderFor("M2-cube.BAS").checkpointDir(),
              "ck/M2-cube.BAS-" + scope);
    EXPECT_EQ(quick->builderFor("").checkpointDir(), "ck/" + scope);

    // No sweep-relevant key: no scope to add.
    auto plain =
        makeHarness({"--checkpoint-at=1ms", "--checkpoint-dir=ck"});
    EXPECT_EQ(plain->builderFor("BAS").checkpointDir(), "ck/BAS");
    EXPECT_EQ(plain->builderFor("").checkpointDir(), "ck");
}

TEST(JsonStats, RigExitDumpHoldsComponentGroups)
{
    std::string path = freshDir("rig_exit_dump") + "/s.json";
    {
        auto harness = makeHarness({"--stats-out=" + path});
        renderOn(harness->builderFor(""), 1);
    }
    // Filed by the rig while its components were alive, not by the
    // Simulation's own teardown afterwards.
    JsonValue doc = parseJson(readFile(path));
    const JsonValue &groups = doc.at("sim").at("sim").at("groups");
    for (const char *group : {"sim", "gpu", "gfx", "dram"})
        EXPECT_TRUE(groups.has(group)) << group;
    EXPECT_DOUBLE_EQ(
        groups.at("gfx").at("stats").at("frames").at("value").number, 1.0);
}

TEST(JsonStatsDeathTest, UnwritableExitDumpPathIsFatal)
{
    // The exit dump goes to --stats-out, whose sink opens with the
    // harness: a bad path fails before any simulation is built, not
    // with a warning at teardown.
    EXPECT_EXIT(makeHarness({"--stats-out=/nonexistent/emerald/y.json"}),
                ::testing::ExitedWithCode(1),
                "cannot open stats-out file "
                "'/nonexistent/emerald/y.json'");
}

TEST(BenchHarnessDeathTest, LabelReachingSecondSimulationIsFatal)
{
    auto harness = makeHarness({});
    EXPECT_EXIT(
        {
            renderOn(harness->builderFor("twice"), 0);
            renderOn(harness->builderFor("twice"), 0);
        },
        ::testing::ExitedWithCode(1),
        "bench label 'twice' reaches a second simulation");
    EXPECT_EXIT(
        {
            SimulationBuilder reused = harness->builderFor("reused");
            renderOn(reused, 0);
            renderOn(reused, 0);
        },
        ::testing::ExitedWithCode(1),
        "bench label 'reused' reaches a second simulation");
}

TEST(BenchHarnessDeathTest, BareValueOptionsAreFatal)
{
    // A bare key reads "1": --frames alone ran one frame, a trailing
    // --stats-out wrote a file named 1, and --checkpoint-at alone
    // checkpointed at tick 15000. Only getBool may read a bare key.
    auto harness = makeHarness({"--quick", "--frames", "--checkpoint-at"});
    EXPECT_TRUE(harness->quick);
    EXPECT_EQ(harness->cfg.items().at("frames"), "1");
    EXPECT_EXIT(harness->cfg.getU64("frames", 3),
                ::testing::ExitedWithCode(1),
                "option --frames needs a value");
    EXPECT_EXIT(harness->builderFor(""), ::testing::ExitedWithCode(1),
                "option --checkpoint-at needs a value");
    EXPECT_EXIT(makeHarness({"--quick", "--stats-out"}),
                ::testing::ExitedWithCode(1),
                "option --stats-out needs a value");

    // A value given after the bare form wins, and reads as one.
    auto later = makeHarness({"--frames", "--frames=4"});
    EXPECT_EQ(later->cfg.getU64("frames", 3), 4u);
}

TEST(BenchHarnessDeathTest, ModifierWithoutItsOptionIsFatal)
{
    // Each modifier alone would do nothing; with the option it
    // modifies it is accepted.
    struct Case
    {
        const char *modifier;
        const char *option;
        const char *missing;
    };
    const Case cases[] = {
        {"--checkpoint-dir=ck", "--checkpoint-at=1ms",
         "--checkpoint-at or --checkpoint-every"},
        {"--checkpoint-dir=ck", "--checkpoint-every=1ms",
         "--checkpoint-at or --checkpoint-every"},
        {"--checkpoint-keep=2", "--checkpoint-every=1ms",
         "--checkpoint-every"},
        {"--restore-force", "--restore=ck", "--restore"},
        {"--watchdog-mode=degrade", "--watchdog-ticks=1ms",
         "--watchdog-ticks"},
        {"--fault-seed=7", "--fault-plan=dup-wake", "--fault-plan"},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(c.modifier);
        auto alone = makeHarness({c.modifier});
        std::string flag = c.modifier;
        flag = flag.substr(0, flag.find('='));
        EXPECT_EXIT(alone->builderFor(""), ::testing::ExitedWithCode(1),
                    flag + " does nothing without " + c.missing);
        makeHarness({c.modifier, c.option})->builderFor("");
    }
    // --checkpoint-keep sizes the --checkpoint-every rotation only.
    EXPECT_EXIT(makeHarness({"--checkpoint-keep=2", "--checkpoint-at=1ms"})
                    ->builderFor(""),
                ::testing::ExitedWithCode(1),
                "--checkpoint-keep does nothing without "
                "--checkpoint-every");
}

// ------------------------------------------------------------------
// Event tracing
// ------------------------------------------------------------------

TEST(EventTracer, WritesWellFormedChromeTrace)
{
    std::string path = ::testing::TempDir() + "emerald_trace.json";

    Simulation sim;
    sim.enableTracing(path);

    NamedEvent a("gpu.sc0.fetch");
    NamedEvent b("display.vsync");
    NamedEvent c("gpu.sc0.fetch2");
    sim.eventQueue().schedule(a, 1000);
    sim.eventQueue().schedule(b, 2000);
    sim.eventQueue().schedule(c, 2000);
    sim.run();
    sim.tracer()->close();

    JsonValue doc = parseJson(readFile(path));
    ASSERT_EQ(doc.kind, JsonValue::Array);

    unsigned complete = 0, metadata = 0;
    std::map<std::string, double> tidByName;
    for (const JsonValue &rec : doc.array) {
        const std::string &ph = rec.at("ph").str;
        if (ph == "X") {
            ++complete;
            EXPECT_TRUE(rec.has("name"));
            EXPECT_TRUE(rec.has("cat"));
            EXPECT_TRUE(rec.has("ts"));
            EXPECT_TRUE(rec.has("dur"));
            EXPECT_TRUE(rec.has("pid"));
            EXPECT_TRUE(rec.has("tid"));
            tidByName[rec.at("name").str] = rec.at("tid").number;
            if (rec.at("name").str == "display.vsync") {
                // ts is simulated microseconds: 2000 ticks = 2e-3 us.
                EXPECT_DOUBLE_EQ(rec.at("ts").number, 2000.0 / 1e6);
                EXPECT_EQ(rec.at("cat").str, "display");
            }
        } else if (ph == "M") {
            ++metadata;
            EXPECT_EQ(rec.at("name").str, "thread_name");
        }
    }
    EXPECT_EQ(complete, 3u);
    // Two categories: "gpu.sc0" and "display".
    EXPECT_EQ(metadata, 2u);
    // Same category -> same timeline row; different -> different.
    EXPECT_EQ(tidByName["gpu.sc0.fetch"], tidByName["gpu.sc0.fetch2"]);
    EXPECT_NE(tidByName["gpu.sc0.fetch"], tidByName["display.vsync"]);

    std::remove(path.c_str());
}

TEST(EventTracer, CloseIsIdempotentAndCountsRecords)
{
    std::string path = ::testing::TempDir() + "emerald_trace2.json";
    {
        EventTracer tracer(path);
        tracer.onEvent("a.b", 10, 0, 100);
        tracer.onEvent("a.c", 20, 0, 100);
        tracer.close();
        tracer.close();
        EXPECT_EQ(tracer.numRecords(), 2u);
    }
    JsonValue doc = parseJson(readFile(path));
    EXPECT_EQ(doc.kind, JsonValue::Array);
    std::remove(path.c_str());
}

// ------------------------------------------------------------------
// Event profiling
// ------------------------------------------------------------------

TEST(EventProfiler, AttributesEventsByLongestRegisteredPrefix)
{
    Simulation sim;
    sim.enableProfiling();
    EventProfiler &prof = sim.profiler();
    prof.registerComponent("gpu");
    prof.registerComponent("gpu.sc0");
    prof.registerComponent("display");

    NamedEvent deep("gpu.sc0.l1d.send");
    NamedEvent shallow("gpu.l2.recv");
    NamedEvent disp("display.vsync");
    NamedEvent stray("dma.copy");
    sim.eventQueue().schedule(deep, 10);
    sim.eventQueue().schedule(shallow, 20);
    sim.eventQueue().schedule(disp, 30);
    sim.eventQueue().schedule(stray, 40);
    sim.run();

    EXPECT_EQ(prof.eventsFor("gpu.sc0"), 1u);
    EXPECT_EQ(prof.eventsFor("gpu"), 1u);
    EXPECT_EQ(prof.eventsFor("display"), 1u);
    EXPECT_EQ(prof.eventsFor("other"), 1u);
}

TEST(EventProfiler, LateRegistrationReroutesFutureEvents)
{
    Simulation sim;
    sim.enableProfiling();
    EventProfiler &prof = sim.profiler();

    NamedEvent first("dma.copy");
    sim.eventQueue().schedule(first, 10);
    sim.run();
    EXPECT_EQ(prof.eventsFor("other"), 1u);

    prof.registerComponent("dma");
    NamedEvent second("dma.copy");
    sim.eventQueue().schedule(second, 20);
    sim.run();
    EXPECT_EQ(prof.eventsFor("dma"), 1u);
    EXPECT_EQ(prof.eventsFor("other"), 1u);
}

// ------------------------------------------------------------------
// Random::below() rejection sampling
// ------------------------------------------------------------------

TEST(RandomBelow, StaysInBoundsAndIsDeterministic)
{
    Random a(1234), b(1234);
    for (int i = 0; i < 10000; ++i) {
        std::uint64_t v = a.below(77);
        EXPECT_LT(v, 77u);
        EXPECT_EQ(v, b.below(77));
    }
    EXPECT_EQ(a.below(1), 0u);
}

TEST(RandomBelow, HugeBoundsAreNotSystematicallySmall)
{
    // With the old (next() % bound) implementation a bound just above
    // 2^63 maps the top half of the 64-bit range onto [0, 2^63), so
    // ~2/3 of draws land in the lower half. Rejection sampling keeps
    // the halves balanced.
    const std::uint64_t bound = (1ULL << 63) + 3;
    Random r(99);
    int low = 0;
    const int n = 4000;
    for (int i = 0; i < n; ++i)
        if (r.below(bound) < bound / 2)
            ++low;
    EXPECT_GT(low, n * 2 / 5);
    EXPECT_LT(low, n * 3 / 5);
}

TEST(RandomBelow, SmallBoundIsRoughlyUniform)
{
    Random r(7);
    int counts[5] = {0, 0, 0, 0, 0};
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        ++counts[r.below(5)];
    for (int c : counts) {
        EXPECT_GT(c, n / 5 * 0.9);
        EXPECT_LT(c, n / 5 * 1.1);
    }
}

// ------------------------------------------------------------------
// TimeSeries hazards
// ------------------------------------------------------------------

TEST(TimeSeriesHazards, ZeroBucketWidthPanics)
{
    StatGroup root("");
    EXPECT_DEATH(
        { TimeSeries ts(root, "bad", "zero width", 0); },
        "zero bucket width");
}

TEST(TimeSeriesHazards, FarFutureSampleIsClampedNotAllocated)
{
    StatGroup root("");
    TimeSeries ts(root, "bw", "clamped", 1);
    // One sample ~2^40 buckets out would previously try to allocate
    // terabytes; it now lands in the last allowed bucket.
    ts.add(Tick(1) << 40, 5.0);
    EXPECT_EQ(ts.buckets().size(), TimeSeries::maxBuckets);
    EXPECT_DOUBLE_EQ(ts.buckets().back(), 5.0);
    EXPECT_EQ(ts.clampedSamples(), 1u);

    ts.reset();
    EXPECT_TRUE(ts.buckets().empty());
    EXPECT_EQ(ts.clampedSamples(), 0u);
}

// ------------------------------------------------------------------
// EventQueue memory under deschedule churn: descheduling erases the
// node, so no stale node may survive in the queue
// ------------------------------------------------------------------

TEST(EventQueueCompaction, HeapStaysBoundedUnderRescheduleChurn)
{
    EventQueue eq;
    NamedEvent anchor("anchor");
    eq.schedule(anchor, 1000000);

    NamedEvent churn("churn");
    for (int i = 0; i < 100000; ++i) {
        eq.schedule(churn, 500 + i);
        eq.deschedule(churn);
    }
    // Descheduling erases the node: 100k schedulings of one event
    // leave nothing behind but the anchor.
    EXPECT_EQ(eq.size(), 1u);
    EXPECT_LT(eq.size(), 1000u);
    EXPECT_EQ(eq.nextTick(), 1000000u);

    EXPECT_TRUE(eq.runOne());
    EXPECT_EQ(anchor.fired, 1);
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueueCompaction, RunUntilSurvivesCompactionMidRun)
{
    EventQueue eq;
    std::vector<std::unique_ptr<NamedEvent>> events;
    for (int i = 0; i < 200; ++i) {
        // Built with += rather than operator+ to dodge a GCC 12
        // -Wrestrict false positive (PR105651) under -Werror.
        std::string name = "e";
        name += std::to_string(i);
        events.push_back(std::make_unique<NamedEvent>(name));
        eq.schedule(*events.back(), 10 + i);
    }
    // Deschedule every other event from inside the queue, then run.
    for (int i = 0; i < 200; i += 2)
        eq.deschedule(*events[i]);
    EXPECT_EQ(eq.size(), 100u);
    std::uint64_t processed = eq.runUntil();
    EXPECT_EQ(processed, 100u);
    for (int i = 0; i < 200; ++i)
        EXPECT_EQ(events[i]->fired, i % 2 == 1 ? 1 : 0);
}

// ------------------------------------------------------------------
// Config argument forms
// ------------------------------------------------------------------

TEST(ConfigParse, SupportsEqualsSpaceAndBareFlagForms)
{
    const char *argv[] = {"prog",       "--width=640", "--stats-out",
                          "out.json",   "--profile",   "--frames",
                          "3"};
    Config cfg;
    cfg.parseArgs(7, const_cast<char **>(argv));
    EXPECT_EQ(cfg.getInt("width", 0), 640);
    EXPECT_EQ(cfg.getString("stats-out", ""), "out.json");
    EXPECT_TRUE(cfg.getBool("profile", false));
    EXPECT_EQ(cfg.getInt("frames", 0), 3);
}

TEST(ConfigParse, RetiredStatsJsonAliasIsUnknown)
{
    const char *argv[] = {"prog", "--stats-json=out.json"};
    Config cfg;
    EXPECT_DEATH(cfg.parseArgs(2, const_cast<char **>(argv)),
                 "unknown option '--stats-json'");
}

TEST(ConfigParse, RetiredSimStatsOutIsUnknown)
{
    // --stats-out holds every simulation's stats tree.
    const char *argv[] = {"prog", "--sim-stats-out=x"};
    Config cfg;
    EXPECT_DEATH(cfg.parseArgs(2, const_cast<char **>(argv)),
                 "unknown option '--sim-stats-out'");
}

TEST(ConfigParse, RetiredAlphaBetaGammaAreUnknown)
{
    // No scenario read them, so they only split sweep fingerprints.
    for (const char *key : {"alpha", "beta", "gamma"}) {
        std::string arg = std::string("--") + key + "=3";
        const char *argv[] = {"prog", arg.c_str()};
        Config cfg;
        EXPECT_DEATH(cfg.parseArgs(2, const_cast<char **>(argv)),
                     "unknown option '--" + std::string(key) + "'");
    }
}

TEST(ConfigParse, RetiredAllowUnknownArgsIsUnknown)
{
    const char *argv[] = {"prog", "--allow-unknown-args",
                          "--totally-custom=7"};
    Config cfg;
    EXPECT_DEATH(cfg.parseArgs(3, const_cast<char **>(argv)),
                 "unknown option '--allow-unknown-args'");
}

TEST(ConfigParse, RetiredStatsIsUnknown)
{
    // --stats-out files the tree that --stats printed.
    const char *argv[] = {"prog", "--stats"};
    Config cfg;
    EXPECT_DEATH(cfg.parseArgs(2, const_cast<char **>(argv)),
                 "unknown option '--stats' .* did you mean "
                 "'--stats-out'\\?");
}

TEST(ConfigParse, AcceptsFullNumericRange)
{
    Config cfg;
    cfg.set("n", "-42");
    EXPECT_EQ(cfg.getInt("n", 0), -42);
    cfg.set("n", "0x20");
    EXPECT_EQ(cfg.getInt("n", 0), 0x20);
    cfg.set("n", "9223372036854775807");
    EXPECT_EQ(cfg.getInt("n", 0), INT64_MAX);
    cfg.set("n", "18446744073709551615");
    EXPECT_EQ(cfg.getU64("n", 0), UINT64_MAX);
    cfg.set("fps", "2.5e-3");
    EXPECT_DOUBLE_EQ(cfg.getDouble("fps", 0.0), 2.5e-3);
    // Denormal underflow is tiny-but-valid, not an error.
    cfg.set("fps", "1e-320");
    EXPECT_GT(cfg.getDouble("fps", 0.0), 0.0);
}

TEST(ConfigParse, TrailingGarbageOnIntIsFatal)
{
    Config cfg;
    cfg.set("n", "12x");
    EXPECT_DEATH(cfg.getInt("n", 0), "is not an integer");
    cfg.set("n", "3 4");
    EXPECT_DEATH(cfg.getInt("n", 0), "is not an integer");
    cfg.set("n", "");
    EXPECT_DEATH(cfg.getInt("n", 0), "is not an integer");
}

TEST(ConfigParse, IntOverflowIsFatal)
{
    Config cfg;
    cfg.set("n", "9223372036854775808"); // INT64_MAX + 1.
    EXPECT_DEATH(cfg.getInt("n", 0), "overflows a 64-bit integer");
    cfg.set("n", "18446744073709551616"); // UINT64_MAX + 1.
    EXPECT_DEATH(cfg.getU64("n", 0), "overflows a 64-bit integer");
}

TEST(ConfigParse, NegativeOrMalformedU64IsFatal)
{
    Config cfg;
    cfg.set("n", "-3");
    EXPECT_DEATH(cfg.getU64("n", 0), "not a non-negative integer");
    cfg.set("n", "7q");
    EXPECT_DEATH(cfg.getU64("n", 0), "not a non-negative integer");
}

TEST(ConfigParse, MalformedBoolIsFatal)
{
    Config cfg;
    for (const char *yes : {"1", "true", "yes", "on"}) {
        cfg.set("quick", yes);
        EXPECT_TRUE(cfg.getBool("quick", false)) << yes;
    }
    for (const char *no : {"0", "false", "no", "off"}) {
        cfg.set("quick", no);
        EXPECT_FALSE(cfg.getBool("quick", true)) << no;
    }
    cfg.set("quick", "ture");
    EXPECT_DEATH(cfg.getBool("quick", false),
                 "config key 'quick': 'ture' is not a boolean");
    cfg.set("quick", "");
    EXPECT_DEATH(cfg.getBool("quick", false), "is not a boolean");
}

TEST(ConfigParse, MalformedOrOverflowingDoubleIsFatal)
{
    Config cfg;
    cfg.set("fps", "1.5pt");
    EXPECT_DEATH(cfg.getDouble("fps", 0.0), "is not a number");
    cfg.set("fps", "");
    EXPECT_DEATH(cfg.getDouble("fps", 0.0), "is not a number");
    cfg.set("fps", "1e999");
    EXPECT_DEATH(cfg.getDouble("fps", 0.0), "overflows a double");
}
