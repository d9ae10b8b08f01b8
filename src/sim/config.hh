/**
 * @file
 * A minimal key=value configuration store used by examples and
 * benchmark harnesses to override experiment parameters from the
 * command line (--key=value).
 */

#ifndef EMERALD_SIM_CONFIG_HH
#define EMERALD_SIM_CONFIG_HH

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace emerald
{

class Config;

/**
 * The sweep-relevant key=value pairs of @p cfg, sorted by key:
 * everything that shapes the simulated machine or workload, with
 * IO/observability and drive-mode keys (output paths, log switches,
 * checkpoint/restore and trace capture/replay directories, parser
 * control) excluded — the same design point fingerprints identically
 * no matter where its results go or how the run is driven.
 */
std::vector<std::pair<std::string, std::string>>
sweepPointParams(const Config &cfg);

/**
 * FNV-1a hash over sweepPointParams(): the identity of one sweep
 * point, keying the runs table in the SQLite results store. Returns
 * 0 when no sweep-relevant keys are set.
 */
std::uint64_t sweepPointFingerprint(const Config &cfg);

/** sweepPointFingerprint() as fixed-width lowercase hex ("" for 0). */
std::string sweepPointFingerprintHex(const Config &cfg);

/**
 * Like sweepPointFingerprintHex() but additionally excluding the
 * keys listed in --ckpt-share-keys: the *checkpoint scope* of the
 * run. It keys the per-point checkpoint/trace subdirectory
 * (BenchHarness::builderFor), so declaring an axis in
 * --ckpt-share-keys lets every point along it share one warm
 * checkpoint — without collapsing their distinct run identities in
 * the results store (docs/sweeps.md).
 */
std::string ckptScopeFingerprintHex(const Config &cfg);

/** String-keyed configuration with typed accessors. */
class Config
{
  public:
    Config() = default;

    /**
     * Parse "--key=value", "--key value" and bare boolean "--flag"
     * arguments; anything not starting with "--" is fatal.
     *
     * Keys are validated against the table of options the tools
     * actually read, so a typo like --fault-sed fails loudly (with a
     * near-miss suggestion) instead of being silently ignored. Pass
     * --allow-unknown-args to opt out, e.g. when feeding one argv to
     * several parsers. Programmatic set() is never validated.
     */
    void parseArgs(int argc, char **argv);

    void set(const std::string &key, const std::string &value);

    bool has(const std::string &key) const;

    std::string getString(const std::string &key,
                          const std::string &dflt) const;
    std::int64_t getInt(const std::string &key, std::int64_t dflt) const;
    /** Unsigned accessor; fatal on negative or malformed values. */
    std::uint64_t getU64(const std::string &key,
                         std::uint64_t dflt) const;
    double getDouble(const std::string &key, double dflt) const;
    /** 1/true/yes/on or 0/false/no/off; fatal on anything else. */
    bool getBool(const std::string &key, bool dflt) const;

    /** All key=value pairs, sorted by key (std::map order). */
    const std::map<std::string, std::string> &items() const
    {
        return _values;
    }

  private:
    std::map<std::string, std::string> _values;
};

} // namespace emerald

#endif // EMERALD_SIM_CONFIG_HH
