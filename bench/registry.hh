/**
 * @file
 * Declarative bench scenario registry. Every figure/ablation bench
 * registers itself here (name, description, the expected paper shape,
 * and its entry point); the single emerald_bench binary runs them by
 * name (--run=<name>, --list) and the sweep driver (src/sweep/)
 * enumerates them programmatically instead of exec'ing bespoke
 * binaries.
 */

#ifndef EMERALD_BENCH_REGISTRY_HH
#define EMERALD_BENCH_REGISTRY_HH

#include <string>
#include <vector>

namespace emerald::bench
{

/**
 * Entry point of one scenario. Receives the full command line (the
 * scenario re-parses it with BenchHarness, which accepts the shared
 * --run/--list/--stats-out keys); returns the process exit code.
 */
using ScenarioFn = int (*)(int argc, char **argv);

enum class ScenarioKind
{
    /** Reproduces a paper figure/table — run_benches.sh runs these. */
    Figure,
    /** Sweep unit / utility — enumerable, but not a figure. */
    Aux,
};

struct Scenario
{
    std::string name;
    std::string desc;
    ScenarioFn run = nullptr;
    ScenarioKind kind = ScenarioKind::Figure;
    /** It reads harness.quick: --quick selects a smaller run. Every
     *  other scenario accepts --quick and runs in full. */
    bool quick = false;
};

class ScenarioRegistry
{
  public:
    static ScenarioRegistry &instance();

    /** Register @p s; duplicate names are fatal. */
    void add(Scenario s);

    /** The named scenario, or nullptr. */
    const Scenario *find(const std::string &name) const;

    /** All scenarios, sorted by name. */
    const std::vector<Scenario> &scenarios() const
    {
        return _scenarios;
    }

  private:
    std::vector<Scenario> _scenarios;
};

/** Static registrar: file-scope instances run before main(). */
struct RegisterScenario
{
    explicit RegisterScenario(Scenario s);
};

} // namespace emerald::bench

#endif // EMERALD_BENCH_REGISTRY_HH
