/**
 * @file
 * Per-layer host-time accounting for traced benchmark runs.
 *
 * LayerProfile is an EventInstrument the benchmark chains in front of
 * whatever instrument a Simulation already installed. It charges every
 * processed event (its count and the host nanoseconds spent inside
 * process()) to the src/ module the event belongs to, and aggregates in
 * memory: no per-event record is kept, only layer totals and one
 * snapshot of them per span (the whole run, a frame, a kernel).
 *
 * A synchronous call that crosses layers is charged to the layer of
 * the event that made it (a gfx tick's L2 offers count as core).
 */

#ifndef PERFBENCH_LAYER_PROFILE_HH
#define PERFBENCH_LAYER_PROFILE_HH

#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "sim/event_queue.hh"

namespace perfbench
{

/** The simulator layers, named after their src/ modules. */
enum class Layer : unsigned
{
    Sim,
    Core,
    Gpu,
    Cache,
    Noc,
    Mem,
    Soc,
    Npu,
    Other,
    NumLayers,
};

constexpr unsigned numLayers = static_cast<unsigned>(Layer::NumLayers);

/** Lower-case module name ("core", "cache", ..., "other"). */
const char *layerName(Layer layer);

/** @{ Name segments that decide a module, shared with the stats reader:
 * "l1", "l1d", ..., "l2" is a cache instance; "link", "memlink",
 * "xbar0", ... an interconnect hop; "cpu0", "cpu12", ... a CPU core. */
bool isCacheSegment(std::string_view seg);
bool isNocSegment(std::string_view seg);
bool isCpuCore(std::string_view seg);
/** @} */

/**
 * Map an event name to its module by its dot-separated segments, not
 * its top-level prefix: a segment l1, l1<x> or l2 is a cache; a
 * segment link, <x>link or xbar<n> is the NoC; dram.* and dash.* are
 * the memory system; the remaining top-level owner decides the rest
 * (gfx -> core, gpu/kernels -> gpu, cpu<n>/display/app/replay -> soc,
 * npu -> npu, kernel housekeeping -> sim). Anything else is Other.
 */
Layer classifyEvent(const std::string &name);

/** Event count and host time charged to each layer. */
struct LayerTotals
{
    std::array<std::uint64_t, numLayers> events{};
    std::array<std::uint64_t, numLayers> ns{};

    std::uint64_t totalEvents() const;
    std::uint64_t totalNs() const;
    LayerTotals operator-(const LayerTotals &base) const;
};

/** A named host-time interval with the layer totals accrued in it. */
struct Span
{
    std::string name;
    double hostStartS = 0.0;
    double hostEndS = 0.0;
    LayerTotals totals;
};

class LayerProfile : public emerald::EventInstrument
{
  public:
    /** Chains in front of @p eq's current instrument. */
    explicit LayerProfile(emerald::EventQueue &eq);
    /** Restores the instrument that was installed before. */
    ~LayerProfile() override;

    LayerProfile(const LayerProfile &) = delete;
    LayerProfile &operator=(const LayerProfile &) = delete;

    void onEvent(const std::string &name, emerald::Tick when,
                 int priority, std::uint64_t wall_ns) override;

    const LayerTotals &totals() const { return _totals; }

    /** Open a span now; close it with endSpan(). Spans do not nest. */
    void beginSpan(const std::string &name);
    void endSpan();

    /**
     * Split the run into spans by a progress counter (frames done):
     * after every event, when @p probe's value changes to v, the open
     * span closes and "<prefix><v>" opens. Opens "<prefix>0" now.
     */
    void setSpanProbe(std::function<unsigned()> probe,
                      const std::string &prefix);

    const std::vector<Span> &spans() const { return _spans; }

    /** Every distinct event name seen, with its layer. */
    const std::unordered_map<std::string, Layer> &names() const
    {
        return _memo;
    }

  private:
    emerald::EventQueue &_eq;
    emerald::EventInstrument *_next;
    std::unordered_map<std::string, Layer> _memo;
    LayerTotals _totals;
    std::vector<Span> _spans;
    LayerTotals _spanBase;
    bool _inSpan = false;
    std::chrono::steady_clock::time_point _epoch;
    std::function<unsigned()> _probe;
    std::string _probePrefix;
    unsigned _probeValue = 0;
};

} // namespace perfbench

#endif // PERFBENCH_LAYER_PROFILE_HH
