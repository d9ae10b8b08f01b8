#include "sweep/grid.hh"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "sim/config.hh"
#include "sim/fnv.hh"
#include "sim/logging.hh"

namespace emerald
{
namespace sweep
{

namespace
{

std::string
trim(const std::string &text)
{
    auto begin = text.find_first_not_of(" \t\r");
    if (begin == std::string::npos)
        return "";
    auto end = text.find_last_not_of(" \t\r");
    return text.substr(begin, end - begin + 1);
}

/**
 * Split on @p sep, trimming each field; empty fields are fatal.
 *
 * Separators nested inside (), [] or {} do not split, and a
 * backslash escapes the next character, so structured values — a
 * fault plan's `offer-reject(match=l2,prob=0.5)`, say — sweep as
 * single axis values instead of being sheared at their commas.
 */
std::vector<std::string>
splitList(const std::string &text, char sep, int line,
          const char *what)
{
    std::vector<std::string> out;
    std::string field;
    auto flush = [&] {
        std::string trimmed = trim(field);
        fatal_if(trimmed.empty(), "sweep spec line %d: empty %s in '%s'",
                 line, what, text.c_str());
        out.push_back(std::move(trimmed));
        field.clear();
    };
    int depth = 0;
    bool escaped = false;
    for (char c : text) {
        if (escaped) {
            field.push_back(c);
            escaped = false;
            continue;
        }
        if (c == '\\') {
            escaped = true;
            continue;
        }
        if (c == '(' || c == '[' || c == '{') {
            ++depth;
        } else if (c == ')' || c == ']' || c == '}') {
            --depth;
            fatal_if(depth < 0,
                     "sweep spec line %d: unbalanced brackets in '%s'",
                     line, text.c_str());
        } else if (c == sep && depth == 0) {
            flush();
            continue;
        }
        field.push_back(c);
    }
    fatal_if(escaped, "sweep spec line %d: dangling backslash in '%s'",
             line, text.c_str());
    fatal_if(depth != 0,
             "sweep spec line %d: unbalanced brackets in '%s'", line,
             text.c_str());
    flush();
    return out;
}

std::pair<std::string, std::string>
splitPair(const std::string &text, int line)
{
    auto eq = text.find('=');
    fatal_if(eq == std::string::npos,
             "sweep spec line %d: expected key=value, got '%s'", line,
             text.c_str());
    std::string key = trim(text.substr(0, eq));
    std::string value = trim(text.substr(eq + 1));
    fatal_if(key.empty(), "sweep spec line %d: empty key in '%s'",
             line, text.c_str());
    return {key, value};
}

} // namespace

SweepSpec
parseSweepSpec(const std::string &text)
{
    SweepSpec spec;
    std::istringstream in(text);
    std::string raw;
    int lineno = 0;
    while (std::getline(in, raw)) {
        ++lineno;
        auto hash = raw.find('#');
        if (hash != std::string::npos)
            raw.erase(hash);
        std::string line = trim(raw);
        if (line.empty())
            continue;
        auto [directive, value] = splitPair(line, lineno);
        fatal_if(value.empty(), "sweep spec line %d: '%s' has no value",
                 lineno, directive.c_str());
        if (directive == "scenario") {
            spec.scenario = value;
        } else if (directive == "restore") {
            spec.restoreDir = value;
        } else if (directive == "replay") {
            spec.replayDir = value;
        } else if (directive == "skip") {
            std::vector<std::pair<std::string, std::string>> pairs;
            for (const std::string &field :
                 splitList(value, ',', lineno, "skip term"))
                pairs.push_back(splitPair(field, lineno));
            spec.skips.push_back(std::move(pairs));
        } else if (directive.rfind("fixed.", 0) == 0) {
            std::string key = directive.substr(6);
            fatal_if(key.empty(),
                     "sweep spec line %d: 'fixed.' needs a key",
                     lineno);
            spec.fixed.emplace_back(key, value);
        } else if (directive.rfind("axis.", 0) == 0) {
            std::string key = directive.substr(5);
            fatal_if(key.empty(),
                     "sweep spec line %d: 'axis.' needs a key", lineno);
            spec.axes.emplace_back(
                key, splitList(value, ',', lineno, "axis value"));
        } else {
            fatal("sweep spec line %d: unknown directive '%s' (want "
                  "scenario, fixed.<key>, axis.<key>, skip, restore "
                  "or replay)",
                  lineno, directive.c_str());
        }
    }
    return spec;
}

SweepSpec
loadSweepSpec(const std::string &path)
{
    std::ifstream in(path);
    fatal_if(!in, "cannot read sweep spec '%s'", path.c_str());
    std::ostringstream text;
    text << in.rdbuf();
    return parseSweepSpec(text.str());
}

namespace
{

bool
pointMatches(
    const Config &cfg,
    const std::vector<std::pair<std::string, std::string>> &pairs)
{
    for (const auto &[key, value] : pairs)
        if (cfg.getString(key, "") != value)
            return false;
    return true;
}

} // namespace

std::vector<SweepPoint>
expandGrid(const SweepSpec &spec)
{
    // Duplicate keys would silently shadow each other in the child's
    // Config; reject them up front.
    std::vector<std::string> seen;
    auto claim = [&seen](const std::string &key) {
        fatal_if(std::find(seen.begin(), seen.end(), key) != seen.end(),
                 "sweep spec: key '%s' appears more than once across "
                 "fixed/axis directives", key.c_str());
        seen.push_back(key);
    };
    for (const auto &[key, value] : spec.fixed)
        claim(key);
    for (const auto &[key, values] : spec.axes) {
        claim(key);
        fatal_if(values.empty(), "sweep spec: axis '%s' has no values",
                 key.c_str());
    }

    std::size_t total = 1;
    for (const auto &[key, values] : spec.axes)
        total *= values.size();

    std::vector<SweepPoint> points;
    points.reserve(total);
    // Odometer over the axes; the last axis varies fastest.
    std::vector<std::size_t> index(spec.axes.size(), 0);
    for (std::size_t n = 0; n < total; ++n) {
        Config cfg;
        for (const auto &[key, value] : spec.fixed)
            cfg.set(key, value);
        for (std::size_t a = 0; a < spec.axes.size(); ++a)
            cfg.set(spec.axes[a].first,
                    spec.axes[a].second[index[a]]);

        bool skipped = false;
        for (const auto &pairs : spec.skips)
            if (pointMatches(cfg, pairs)) {
                skipped = true;
                break;
            }
        if (!skipped) {
            SweepPoint point;
            point.params = sweepPointParams(cfg);
            point.fingerprintHex = sweepPointFingerprintHex(cfg);
            points.push_back(std::move(point));
        }

        for (std::size_t a = spec.axes.size(); a-- > 0;) {
            if (++index[a] < spec.axes[a].second.size())
                break;
            index[a] = 0;
        }
    }
    return points;
}

std::string
specHash(const SweepSpec &spec)
{
    // FNV-1a over a canonical rendering of the grid definition —
    // the same scheme sweepPointFingerprint uses for point identity.
    std::uint64_t hash = sweepFnvBasis;
    auto mix = [&hash](const std::string &text) {
        hash = fnv1a(hash, text);
    };
    mix("scenario=" + spec.scenario + "\n");
    for (const auto &[key, value] : spec.fixed)
        mix("fixed." + key + "=" + value + "\n");
    for (const auto &[key, values] : spec.axes) {
        mix("axis." + key + "=");
        for (const std::string &value : values)
            mix(value + ",");
        mix("\n");
    }
    for (const auto &pairs : spec.skips) {
        mix("skip=");
        for (const auto &[key, value] : pairs)
            mix(key + "=" + value + ",");
        mix("\n");
    }
    return strprintf("%016llx", (unsigned long long)hash);
}

} // namespace sweep
} // namespace emerald
