#include "sim/config.hh"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <vector>

#include "sim/fnv.hh"
#include "sim/logging.hh"
#include "sim/nearest.hh"

namespace emerald
{

namespace
{

/**
 * What a key changes. An Axis shapes the simulated machine or
 * workload and enters the sweep point's fingerprint; a Run key steers
 * where output goes or how the run is driven, so two runs that differ
 * only in Run keys are the same design point.
 */
enum class KeyRole { Axis, Run };

struct KnownKey
{
    const char *name;
    KeyRole role;
};

constexpr KeyRole axis = KeyRole::Axis;
constexpr KeyRole run = KeyRole::Run;

/**
 * Every --key some bench scenario, tool or the simulation kernel
 * reads, with its role. parseArgs rejects anything else (with a
 * near-miss suggestion); adding a flag is one entry here.
 */
const KnownKey knownKeys[] = {
    // Simulation kernel (SimulationBuilder::observability).
    {"capture-trace", run}, {"check-determinism", run}, {"checkpoint-at", run},
    {"checkpoint-dir", run}, {"checkpoint-every", run},
    {"checkpoint-keep", run}, {"fault-plan", axis}, {"fault-seed", axis},
    {"hang-report-path", run}, {"mem-sched", axis}, {"profile", run},
    {"replay-trace", run}, {"restore", run}, {"restore-force", run},
    {"trace-file", run}, {"warp-sched", axis}, {"watchdog-mode", run},
    {"watchdog-ticks", run},
    // Run supervisor (bench_main --supervise).
    {"supervise", run}, {"supervise-backoff-ms", run}, {"supervise-dir", run},
    {"supervise-kill-after-ms", run}, {"supervise-retries", run},
    // Bench scenarios.
    {"channels", axis}, {"config", axis}, {"fps", axis}, {"frames", axis},
    {"height", axis}, {"highload", axis}, {"maxwt", axis}, {"model", axis},
    {"n", axis},
    {"name", run}, {"npu", axis}, {"npu-dma-outstanding", axis},
    {"npu-fps", axis}, {"npu-frames", axis}, {"npu-model", axis},
    {"npu-queue-depth", axis}, {"npu-scratch-kb", axis}, {"npu-tile", axis},
    {"out", run}, {"outdir", run}, {"prep", axis}, {"quick", axis},
    {"run_frames", axis}, {"stats-out", run}, {"width", axis},
    {"workload", axis}, {"wt", axis},
    // Bench registry front end (bench_main) and sweep driver.
    {"bench-bin", run}, {"ckpt-share-keys", run}, {"db", run},
    {"dry-run", run}, {"git-sha", run}, {"jobs", run}, {"list", run},
    {"retries", run}, {"retry-backoff-ms", run}, {"run", run}, {"spec", run},
};

const KnownKey *
findKey(const std::string &key)
{
    for (const KnownKey &known : knownKeys)
        if (key == known.name)
            return &known;
    return nullptr;
}

/**
 * Fatal for a key the table lacks, suggesting a near-miss spelling
 * or the one known key that extends it ("stats" -> "stats-out").
 */
void
rejectUnknownKey(const std::string &key)
{
    std::vector<std::string> names, extensions;
    for (const KnownKey &known : knownKeys) {
        names.emplace_back(known.name);
        if (names.back().rfind(key + "-", 0) == 0)
            extensions.push_back(names.back());
    }
    std::string suggestion = nearestMatch(key, names);
    if (suggestion.empty() && extensions.size() == 1)
        suggestion = extensions[0];
    if (!suggestion.empty()) {
        fatal("unknown option '--%s' — did you mean '--%s'?",
              key.c_str(), suggestion.c_str());
    }
    fatal("unknown option '--%s'", key.c_str());
}

} // namespace

void
Config::parseArgs(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind("--", 0) != 0)
            fatal("bad argument '%s': expected --key=value", arg.c_str());
        auto eq = arg.find('=');
        std::string key = eq != std::string::npos
                              ? arg.substr(2, eq - 2)
                              : arg.substr(2);
        if (!findKey(key))
            rejectUnknownKey(key);
        if (eq != std::string::npos) {
            set(key, arg.substr(eq + 1));
        } else if (i + 1 < argc && argv[i + 1][0] != '-') {
            // "--key value" form, e.g. "--stats-out out.json".
            set(key, argv[++i]);
        } else {
            // Bare "--flag" is a boolean switch.
            set(key, "1");
            _bare.insert(key);
        }
    }
}

void
Config::set(const std::string &key, const std::string &value)
{
    _values[key] = value;
    _bare.erase(key);
}

bool
Config::has(const std::string &key) const
{
    return _values.count(key) != 0;
}

const std::string *
Config::lookup(const std::string &key) const
{
    auto it = _values.find(key);
    if (it == _values.end())
        return nullptr;
    fatal_if(_bare.count(key) != 0, "option --%s needs a value",
             key.c_str());
    return &it->second;
}

std::string
Config::getString(const std::string &key, const std::string &dflt) const
{
    const std::string *v = lookup(key);
    return v ? *v : dflt;
}

std::int64_t
Config::getInt(const std::string &key, std::int64_t dflt) const
{
    const std::string *v = lookup(key);
    if (!v)
        return dflt;
    const char *text = v->c_str();
    char *end = nullptr;
    errno = 0;
    std::int64_t value = std::strtoll(text, &end, 0);
    fatal_if(v->empty() || end == text || *end != '\0',
             "config key '%s': '%s' is not an integer",
             key.c_str(), text);
    fatal_if(errno == ERANGE,
             "config key '%s': '%s' overflows a 64-bit integer",
             key.c_str(), text);
    return value;
}

std::uint64_t
Config::getU64(const std::string &key, std::uint64_t dflt) const
{
    const std::string *v = lookup(key);
    if (!v)
        return dflt;
    const char *text = v->c_str();
    char *end = nullptr;
    fatal_if(v->empty() || text[0] == '-',
             "config key '%s': '%s' is not a non-negative integer",
             key.c_str(), text);
    errno = 0;
    std::uint64_t value = std::strtoull(text, &end, 0);
    fatal_if(end == text || *end != '\0',
             "config key '%s': '%s' is not a non-negative integer",
             key.c_str(), text);
    fatal_if(errno == ERANGE,
             "config key '%s': '%s' overflows a 64-bit integer",
             key.c_str(), text);
    return value;
}

double
Config::getDouble(const std::string &key, double dflt) const
{
    const std::string *v = lookup(key);
    if (!v)
        return dflt;
    const char *text = v->c_str();
    char *end = nullptr;
    errno = 0;
    double value = std::strtod(text, &end);
    fatal_if(v->empty() || end == text || *end != '\0',
             "config key '%s': '%s' is not a number",
             key.c_str(), text);
    // Overflow to +/-HUGE_VAL is a malformed input; denormal
    // underflow (errno set, tiny value returned) is accepted.
    fatal_if(errno == ERANGE && (value == HUGE_VAL || value == -HUGE_VAL),
             "config key '%s': '%s' overflows a double",
             key.c_str(), text);
    return value;
}

bool
Config::getBool(const std::string &key, bool dflt) const
{
    auto it = _values.find(key);
    if (it == _values.end())
        return dflt;
    const std::string &v = it->second;
    if (v == "1" || v == "true" || v == "yes" || v == "on")
        return true;
    fatal_if(v != "0" && v != "false" && v != "no" && v != "off",
             "config key '%s': '%s' is not a boolean (1/true/yes/on "
             "or 0/false/no/off)", key.c_str(), v.c_str());
    return false;
}

namespace
{

/** True for a Run key of the table, or one of @p shared. */
bool
fingerprintExcluded(const std::string &key,
                    const std::vector<std::string> &shared)
{
    const KnownKey *known = findKey(key);
    if (known && known->role == KeyRole::Run)
        return true;
    for (const std::string &s : shared)
        if (key == s)
            return true;
    return false;
}

/** Split a comma-separated list, dropping empty fields. */
std::vector<std::string>
splitCommaList(const std::string &text)
{
    std::vector<std::string> out;
    std::string::size_type start = 0;
    while (start <= text.size()) {
        auto comma = text.find(',', start);
        if (comma == std::string::npos)
            comma = text.size();
        if (comma > start)
            out.push_back(text.substr(start, comma - start));
        start = comma + 1;
    }
    return out;
}

} // namespace

namespace
{

std::vector<std::pair<std::string, std::string>>
paramsExcluding(const Config &cfg, const std::vector<std::string> &shared)
{
    std::vector<std::pair<std::string, std::string>> params;
    for (const auto &[key, value] : cfg.items()) {
        if (!fingerprintExcluded(key, shared))
            params.emplace_back(key, value);
    }
    return params;
}

std::uint64_t
fingerprintParams(
    const std::vector<std::pair<std::string, std::string>> &params)
{
    if (params.empty())
        return 0;
    // FNV-1a over "key=value\n" in sorted-key order.
    std::uint64_t hash = sweepFnvBasis;
    auto mix = [&hash](const std::string &text) {
        hash = fnv1a(hash, text);
    };
    for (const auto &[key, value] : params) {
        mix(key);
        mix("=");
        mix(value);
        mix("\n");
    }
    // Reserve 0 for "no sweep-relevant keys".
    return hash ? hash : 1;
}

std::string
fingerprintHex(std::uint64_t fp)
{
    if (!fp)
        return "";
    return strprintf("%016llx", (unsigned long long)fp);
}

} // namespace

std::vector<std::pair<std::string, std::string>>
sweepPointParams(const Config &cfg)
{
    return paramsExcluding(cfg, {});
}

std::uint64_t
sweepPointFingerprint(const Config &cfg)
{
    return fingerprintParams(sweepPointParams(cfg));
}

std::string
sweepPointFingerprintHex(const Config &cfg)
{
    return fingerprintHex(sweepPointFingerprint(cfg));
}

std::string
ckptScopeFingerprintHex(const Config &cfg)
{
    std::vector<std::string> shared =
        splitCommaList(cfg.getString("ckpt-share-keys", ""));
    return fingerprintHex(
        fingerprintParams(paramsExcluding(cfg, shared)));
}

} // namespace emerald
