/**
 * @file
 * The Tile Coalescing (TC) stage (paper Fig. 7).
 *
 * Raster tiles arriving from fine rasterization / Hi-Z are staged by
 * TC engines (TCEs). Each TCE works on one screen-space TC tile
 * position at a time, merging non-overlapping raster tiles from
 * multiple primitives into one TC tile to improve fragment-shading
 * SIMT utilization. Overlapping tiles force a flush so in-shader
 * depth/blend stays ordered; issue is additionally gated by the
 * per-position interlock owned by the pipeline (Fig. 7 element 7).
 */

#ifndef EMERALD_CORE_TC_STAGE_HH
#define EMERALD_CORE_TC_STAGE_HH

#include <array>
#include <bit>
#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "core/rasterizer.hh"
#include "core/wt_mapping.hh"

namespace emerald::core
{

/** A fully coalesced TC tile ready for fragment shading. */
struct TcInstance
{
    unsigned tcX = 0;
    unsigned tcY = 0;
    /** Merged raster tiles by slot (2x2 within the TC tile). */
    std::array<std::optional<FragmentTile>,
               tcTileRasterTiles * tcTileRasterTiles>
        tiles;

    unsigned
    fragmentCount() const
    {
        unsigned n = 0;
        for (const auto &tile : tiles) {
            if (tile)
                n += static_cast<unsigned>(
                    std::popcount(static_cast<unsigned>(
                        tile->coverMask)));
        }
        return n;
    }
};

/** Flush cause, for statistics. */
enum class TcFlushReason { Conflict, Full, Timeout, Drain };

/** One cluster's TC unit. */
class TcUnit
{
  public:
    TcUnit(unsigned num_engines, unsigned flush_timeout_cycles,
           unsigned ready_queue_depth);

    /**
     * Offer a raster tile.
     * @return false when no engine can take it this cycle.
     */
    bool tryAdd(const FragmentTile &tile, std::uint64_t now_cycle);

    /**
     * Flush engines idle for longer than the timeout.
     * @return true when an engine flushed.
     */
    bool tickTimeouts(std::uint64_t now_cycle);

    /**
     * Flush everything (draw drain).
     * @return true when an engine flushed.
     */
    bool drain();

    /**
     * The first cycle at which tickTimeouts() can flush: the earliest
     * lastAddCycle + timeout over the active engines. neverCycle when
     * no engine is active, or while the ready queue is full: no
     * timeout can flush then, and only an issue empties the queue.
     */
    std::uint64_t nextTimeoutCycle() const;

    static constexpr std::uint64_t neverCycle = ~std::uint64_t(0);

    /** True when a coalesced instance is waiting to issue. */
    bool hasReady() const { return !_ready.empty(); }
    const TcInstance &peekReady() const { return _ready.front(); }
    TcInstance popReady();

    bool
    readyQueueFull() const
    {
        return _ready.size() >= _readyDepth;
    }

    /** True when no staged or ready work remains. */
    bool empty() const;

    /** @{ Flush counters by reason (stats). */
    std::uint64_t flushesConflict = 0;
    std::uint64_t flushesFull = 0;
    std::uint64_t flushesTimeout = 0;
    std::uint64_t flushesDrain = 0;
    /** @} */

  private:
    struct Engine
    {
        bool active = false;
        unsigned tcX = 0;
        unsigned tcY = 0;
        std::array<std::optional<FragmentTile>,
                   tcTileRasterTiles * tcTileRasterTiles>
            staged;
        std::uint64_t lastAddCycle = 0;
    };

    void flushEngine(Engine &engine, TcFlushReason reason);
    bool engineFull(const Engine &engine) const;

    std::vector<Engine> _engines;
    unsigned _flushTimeout;
    std::size_t _readyDepth;
    std::deque<TcInstance> _ready;
};

} // namespace emerald::core

#endif // EMERALD_CORE_TC_STAGE_HH
