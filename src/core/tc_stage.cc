#include "core/tc_stage.hh"

#include <algorithm>
#include <bit>

#include "sim/logging.hh"

namespace emerald::core
{

TcUnit::TcUnit(unsigned num_engines, unsigned flush_timeout_cycles,
               unsigned ready_queue_depth)
    : _engines(num_engines), _flushTimeout(flush_timeout_cycles),
      _readyDepth(ready_queue_depth)
{
    panic_if(num_engines == 0, "TC unit needs at least one engine");
}

bool
TcUnit::engineFull(const Engine &engine) const
{
    for (const auto &tile : engine.staged) {
        if (!tile || !tile->fullyCovered())
            return false;
    }
    return true;
}

void
TcUnit::flushEngine(Engine &engine, TcFlushReason reason)
{
    if (!engine.active)
        return;
    TcInstance instance;
    instance.tcX = engine.tcX;
    instance.tcY = engine.tcY;
    instance.tiles = std::move(engine.staged);
    for (auto &tile : engine.staged)
        tile.reset();
    engine.active = false;
    _ready.push_back(std::move(instance));

    switch (reason) {
      case TcFlushReason::Conflict: ++flushesConflict; break;
      case TcFlushReason::Full: ++flushesFull; break;
      case TcFlushReason::Timeout: ++flushesTimeout; break;
      case TcFlushReason::Drain: ++flushesDrain; break;
    }
}

bool
TcUnit::tryAdd(const FragmentTile &tile, std::uint64_t now_cycle)
{
    unsigned tc_x = static_cast<unsigned>(tile.tileX) /
                    tcTileRasterTiles;
    unsigned tc_y = static_cast<unsigned>(tile.tileY) /
                    tcTileRasterTiles;
    unsigned slot = (static_cast<unsigned>(tile.tileY) %
                     tcTileRasterTiles) *
                        tcTileRasterTiles +
                    static_cast<unsigned>(tile.tileX) %
                        tcTileRasterTiles;

    // An engine already coalescing this TC position?
    Engine *target = nullptr;
    for (Engine &engine : _engines) {
        if (engine.active && engine.tcX == tc_x && engine.tcY == tc_y) {
            target = &engine;
            break;
        }
    }
    if (!target) {
        for (Engine &engine : _engines) {
            if (!engine.active) {
                target = &engine;
                break;
            }
        }
        if (!target)
            return false; // All engines busy with other positions.
        target->active = true;
        target->tcX = tc_x;
        target->tcY = tc_y;
        for (auto &staged : target->staged)
            staged.reset();
    }

    auto &staged = target->staged[slot];
    if (staged && (staged->coverMask & tile.coverMask) != 0) {
        // Overlap: must not coalesce (ordering); flush and restart.
        if (readyQueueFull())
            return false;
        flushEngine(*target, TcFlushReason::Conflict);
        target->active = true;
        target->tcX = tc_x;
        target->tcY = tc_y;
        for (auto &s : target->staged)
            s.reset();
        target->staged[slot] = tile;
        target->lastAddCycle = now_cycle;
        return true;
    }

    if (!staged) {
        staged = tile;
    } else {
        // Merge disjoint coverage from another primitive.
        for (unsigned p = 0; p < rasterTilePixels; ++p) {
            if (tile.coverMask & (1u << p)) {
                staged->z[p] = tile.z[p];
                staged->attrs[p] = tile.attrs[p];
            }
        }
        staged->coverMask |= tile.coverMask;
    }
    target->lastAddCycle = now_cycle;

    if (engineFull(*target) && !readyQueueFull())
        flushEngine(*target, TcFlushReason::Full);
    return true;
}

bool
TcUnit::tickTimeouts(std::uint64_t now_cycle)
{
    bool flushed = false;
    for (Engine &engine : _engines) {
        if (engine.active && !readyQueueFull() &&
            now_cycle - engine.lastAddCycle >= _flushTimeout) {
            flushEngine(engine, TcFlushReason::Timeout);
            flushed = true;
        }
    }
    return flushed;
}

bool
TcUnit::drain()
{
    bool flushed = false;
    for (Engine &engine : _engines) {
        if (engine.active && !readyQueueFull()) {
            flushEngine(engine, TcFlushReason::Drain);
            flushed = true;
        }
    }
    return flushed;
}

std::uint64_t
TcUnit::nextTimeoutCycle() const
{
    if (readyQueueFull())
        return neverCycle;
    std::uint64_t next = neverCycle;
    for (const Engine &engine : _engines) {
        if (engine.active)
            next = std::min(next, engine.lastAddCycle + _flushTimeout);
    }
    return next;
}

TcInstance
TcUnit::popReady()
{
    panic_if(_ready.empty(), "popReady on empty TC queue");
    TcInstance instance = std::move(_ready.front());
    _ready.pop_front();
    return instance;
}

bool
TcUnit::empty() const
{
    if (!_ready.empty())
        return false;
    for (const Engine &engine : _engines) {
        if (engine.active)
            return false;
    }
    return true;
}

} // namespace emerald::core
