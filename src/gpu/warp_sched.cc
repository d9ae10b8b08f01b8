#include "gpu/warp_sched.hh"

#include <algorithm>
#include <map>
#include <tuple>

#include "sim/logging.hh"
#include "sim/nearest.hh"

namespace emerald::gpu
{

namespace
{

using isa::LatencyClass;

/**
 * Loose round-robin: rotate through the owned slots starting just
 * after the last-issued one. The cursor starts so that the very first
 * ranking reproduces the core's original whole-array scan from
 * _issuePtr == 0: lane 0 owns slot 0 (its old scan saw slot `k`
 * first), every other lane's first owned slot lies after slot 0 (its
 * old scan saw owned[0] first).
 */
class LrrScheduler final : public WarpScheduler
{
  public:
    LrrScheduler(std::vector<unsigned> owned, unsigned scheduler_id)
        : WarpScheduler(std::move(owned), scheduler_id),
          _cursor(scheduler_id == 0 || _owned.empty()
                      ? 0
                      : _owned.size() - 1)
    {}

    void
    order(const std::vector<Warp> &, std::vector<unsigned> &out) override
    {
        // The slots after the cursor, then the rest up to and
        // including it.
        out.clear();
        if (_owned.empty())
            return;
        auto split =
            _owned.begin() + static_cast<std::ptrdiff_t>(_cursor + 1);
        out.insert(out.end(), split, _owned.end());
        out.insert(out.end(), _owned.begin(), split);
    }

    void
    issued(unsigned slot) override
    {
        auto it = std::lower_bound(_owned.begin(), _owned.end(), slot);
        panic_if(it == _owned.end() || *it != slot,
                 "lrr: issued slot %u is not owned by lane %u", slot,
                 _id);
        _cursor = static_cast<std::size_t>(it - _owned.begin());
    }

    const char *policyName() const override { return "lrr"; }

    std::uint64_t cursorState() const override { return _cursor; }

    void
    setCursorState(std::uint64_t state) override
    {
        _cursor = _owned.empty()
                      ? 0
                      : static_cast<std::size_t>(state) % _owned.size();
    }

  private:
    std::size_t _cursor;
};

/**
 * Greedy-then-oldest: keep issuing from the warp issued last cycle
 * while it stays ready (preserving its cache locality), otherwise the
 * oldest resident warp (smallest launch sequence) wins.
 */
class GtoScheduler final : public WarpScheduler
{
  public:
    using WarpScheduler::WarpScheduler;

    void
    order(const std::vector<Warp> &warps,
          std::vector<unsigned> &out) override
    {
        out.assign(_owned.begin(), _owned.end());
        std::sort(out.begin(), out.end(),
                  [&](unsigned a, unsigned b) {
                      return key(warps, a) < key(warps, b);
                  });
    }

    void issued(unsigned slot) override { _lastIssued = slot; }

    const char *policyName() const override { return "gto"; }

    /** Encoded as slot+1 so 0 keeps meaning "none yet". */
    std::uint64_t
    cursorState() const override
    {
        return _lastIssued < 0
                   ? 0
                   : static_cast<std::uint64_t>(_lastIssued) + 1;
    }

    void
    setCursorState(std::uint64_t state) override
    {
        _lastIssued = state == 0 ? -1 : static_cast<int>(state - 1);
    }

  private:
    std::tuple<int, std::uint64_t, unsigned>
    key(const std::vector<Warp> &warps, unsigned slot) const
    {
        const Warp &warp = warps[slot];
        return {static_cast<int>(slot) == _lastIssued ? 0 : 1,
                warp.valid ? warp.launchSeq : ~std::uint64_t{0}, slot};
    }

    int _lastIssued = -1;
};

/**
 * WaSP-style criticality/lookahead scheduling: scan up to
 * `lookaheadWindow` instructions of straight-line code ahead of each
 * warp's pc and prioritize the warp nearest its next memory
 * instruction. Memory requests therefore enter the memory system as
 * early as the scoreboard allows — the software-prefetch-like effect
 * WaSP reports for graphics shaders. Ties break toward the warp that
 * has executed the fewest instructions (criticality: the straggler
 * holds the frame fence), then by slot for determinism.
 */
class WaspScheduler final : public WarpScheduler
{
  public:
    using WarpScheduler::WarpScheduler;

    static constexpr unsigned lookaheadWindow = 8;

    void
    order(const std::vector<Warp> &warps,
          std::vector<unsigned> &out) override
    {
        out.assign(_owned.begin(), _owned.end());
        std::sort(out.begin(), out.end(),
                  [&](unsigned a, unsigned b) {
                      return key(warps, a) < key(warps, b);
                  });
    }

    const char *policyName() const override { return "wasp"; }

  private:
    static unsigned
    distanceToMemory(const Warp &warp)
    {
        if (!warp.valid || warp.stack.empty())
            return lookaheadWindow + 1;
        const auto &code = warp.task.program->code;
        int pc = warp.stack.pc();
        for (unsigned d = 0; d < lookaheadWindow; ++d) {
            int at = pc + static_cast<int>(d);
            if (at < 0 || at >= static_cast<int>(code.size()))
                break;
            const isa::Instruction &instr =
                code[static_cast<std::size_t>(at)];
            LatencyClass lat = instr.latencyClass();
            if (lat == LatencyClass::MemGlobal ||
                lat == LatencyClass::Tex || lat == LatencyClass::Rop) {
                return d;
            }
            if (instr.isBranch())
                break; // Fall-through is speculative past a branch.
        }
        return lookaheadWindow + 1;
    }

    std::tuple<unsigned, std::uint64_t, unsigned>
    key(const std::vector<Warp> &warps, unsigned slot) const
    {
        const Warp &warp = warps[slot];
        return {distanceToMemory(warp), warp.warpInstrsExecuted, slot};
    }
};

using Registry = std::map<std::string, WarpSchedulerFactory>;

/**
 * Function-local registry, populated on first use. Self-registration
 * through global constructors would be stripped by the linker when
 * this object file sits unreferenced in libemerald_gpu.a.
 */
Registry &
registry()
{
    static Registry reg = [] {
        Registry builtins;
        builtins["lrr"] = [](std::vector<unsigned> owned, unsigned id) {
            return std::make_unique<LrrScheduler>(std::move(owned), id);
        };
        builtins["gto"] = [](std::vector<unsigned> owned, unsigned id) {
            return std::make_unique<GtoScheduler>(std::move(owned), id);
        };
        builtins["wasp"] = [](std::vector<unsigned> owned, unsigned id) {
            return std::make_unique<WaspScheduler>(std::move(owned),
                                                   id);
        };
        return builtins;
    }();
    return reg;
}

} // namespace

void
registerWarpScheduler(const std::string &policy,
                      WarpSchedulerFactory factory)
{
    auto [it, inserted] = registry().emplace(policy, std::move(factory));
    (void)it;
    fatal_if(!inserted, "warp scheduler policy '%s' registered twice",
             policy.c_str());
}

std::unique_ptr<WarpScheduler>
createWarpScheduler(const std::string &policy,
                    std::vector<unsigned> owned, unsigned scheduler_id)
{
    const std::string &name =
        policy.empty() ? defaultWarpSchedPolicy : policy;
    auto it = registry().find(name);
    if (it == registry().end()) {
        std::string suggestion =
            nearestMatch(name, warpSchedulerPolicies());
        std::string known;
        for (const std::string &p : warpSchedulerPolicies())
            known += (known.empty() ? "" : ", ") + p;
        if (!suggestion.empty()) {
            fatal("unknown warp scheduler policy '%s' — did you mean "
                  "'%s'? (known: %s)",
                  name.c_str(), suggestion.c_str(), known.c_str());
        }
        fatal("unknown warp scheduler policy '%s' (known: %s)",
              name.c_str(), known.c_str());
    }
    return it->second(std::move(owned), scheduler_id);
}

std::vector<std::string>
warpSchedulerPolicies()
{
    std::vector<std::string> names;
    for (const auto &[name, factory] : registry())
        names.push_back(name);
    return names;
}

} // namespace emerald::gpu
