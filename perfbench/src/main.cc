/**
 * @file
 * emerald_perfbench: run one benchmark op and print it as one JSON line.
 *
 * Usage: emerald_perfbench --workload <soc_frames|mem_replay|gpgpu_kernels>
 *            --seed <n> [--trace-dir <dir>] [--traced] [--hash] [--smoke]
 *        emerald_perfbench --gen-trace <dir> --seed <n> [--smoke]
 *        emerald_perfbench --trace-stats <dir>
 *
 * --gen-trace writes mem_replay's synthetic trace for the seed, and a
 * mem_replay op replays the trace named by --trace-dir. --trace-stats
 * prints the figures the synthetic trace is calibrated against, for
 * any trace directory (README.md, "Calibration").
 *
 * run.py drives this binary: one process per op, so a rig that exits
 * fatally costs one op, and peak RSS is per op. See README.md.
 */

#include <sys/resource.h>

#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "workloads.hh"

using namespace perfbench;

namespace
{

std::string
num(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
quoted(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + "\"";
}

template <typename Map>
std::string
numberObject(const Map &values)
{
    std::string out = "{";
    for (const auto &[key, value] : values) {
        if (out.size() > 1)
            out += ",";
        out += quoted(key) + ":" + num(value);
    }
    return out + "}";
}

std::string
layersObject(const LayerTotals &totals)
{
    std::string out = "{";
    for (unsigned i = 0; i < numLayers; ++i) {
        if (i)
            out += ",";
        out += quoted(layerName(static_cast<Layer>(i))) +
               ":{\"events\":" + num(double(totals.events[i])) +
               ",\"ns\":" + num(double(totals.ns[i])) + "}";
    }
    return out + "}";
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB -> MiB
}

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "emerald_perfbench: %s\nusage: emerald_perfbench "
                 "--workload <soc_frames|mem_replay|gpgpu_kernels> "
                 "--seed <n> [--trace-dir <dir>] [--traced] [--hash] "
                 "[--smoke]\n"
                 "       emerald_perfbench --gen-trace <dir> --seed <n> "
                 "[--smoke]\n"
                 "       emerald_perfbench --trace-stats <dir>\n",
                 why);
    std::exit(2);
}

std::uint64_t
parseCount(const char *text)
{
    char *end = nullptr;
    errno = 0;
    unsigned long long v = std::strtoull(text, &end, 10);
    if (errno || end == text || *end != '\0' || text[0] == '-')
        usage("bad number");
    return v;
}

} // namespace

int
main(int argc, char **argv)
{
    OpOptions opts;
    bool have_workload = false;
    std::string gen_trace, trace_stats;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc)
                usage(("missing value for " + arg).c_str());
            return argv[++i];
        };
        if (arg == "--workload") {
            auto w = workloadFromName(value());
            if (!w)
                usage("unknown workload");
            opts.workload = *w;
            have_workload = true;
        } else if (arg == "--seed") {
            opts.seed = parseCount(value());
        } else if (arg == "--trace-dir") {
            opts.traceDir = value();
        } else if (arg == "--gen-trace") {
            gen_trace = value();
        } else if (arg == "--trace-stats") {
            trace_stats = value();
        } else if (arg == "--traced") {
            opts.traced = true;
        } else if (arg == "--hash") {
            opts.hash = true;
        } else if (arg == "--smoke") {
            opts.smoke = true;
        } else {
            usage(("unknown argument " + arg).c_str());
        }
    }
    if (!gen_trace.empty()) {
        SynthTraceSummary trace =
            writeReplayTrace(gen_trace, opts.seed, opts.smoke);
        std::printf("{\"records\":%" PRIu64 "}\n", trace.records);
        return 0;
    }
    if (!trace_stats.empty()) {
        std::printf("%s\n", numberObject(profileTrace(trace_stats)).c_str());
        return 0;
    }
    if (!have_workload)
        usage("--workload is required");
    if (opts.workload == Workload::MemReplay && opts.traceDir.empty())
        usage("mem_replay needs --trace-dir (write one with --gen-trace)");

    OpResult r = runOp(opts);

    char hash[24];
    std::snprintf(hash, sizeof(hash), "0x%016" PRIx64, r.eventHash);
    std::string out = "{\"ok\":" + std::string(r.ok ? "true" : "false") +
                      ",\"error\":" + quoted(r.error) +
                      ",\"setup_s\":" + num(r.setupS) +
                      ",\"wall_s\":" + num(r.wallS) +
           ",\"gpu_cycles\":" + num(double(r.gpuCycles)) +
           ",\"events\":" + num(double(r.events)) +
           ",\"event_hash\":" + quoted(hash) +
           ",\"peak_rss_mb\":" + num(peakRssMb()) +
           ",\"outputs\":" + numberObject(r.outputs) +
           ",\"layer_stats\":" + numberObject(r.layerStats);
    if (opts.traced) {
        out += ",\"layers\":" + layersObject(r.layers) + ",\"spans\":[";
        for (std::size_t i = 0; i < r.spans.size(); ++i) {
            const Span &s = r.spans[i];
            out += std::string(i ? "," : "") + "{\"name\":" +
                   quoted(s.name) + ",\"start_s\":" + num(s.hostStartS) +
                   ",\"dur_s\":" + num(s.hostEndS - s.hostStartS) +
                   ",\"layers\":" + layersObject(s.totals) + "}";
        }
        out += "],\"event_names\":{";
        bool first = true;
        for (const auto &[name, layer] : r.eventNames) {
            if (!first)
                out += ",";
            out += quoted(name) + ":" + quoted(layerName(layer));
            first = false;
        }
        out += "}";
    }
    out += "}\n";
    std::fputs(out.c_str(), stdout);
    return r.ok ? 0 : 1;
}
