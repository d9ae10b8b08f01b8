/**
 * @file
 * Hierarchical-Z (paper Fig. 3 stage J): a low-resolution on-chip
 * depth bound buffer at raster-tile granularity. A raster tile whose
 * minimum fragment depth exceeds the stored bound cannot contain any
 * visible fragment and is rejected before fragment shading. The
 * bound is tightened only by fully covered tiles from shaders that
 * cannot discard, keeping it conservative.
 */

#ifndef EMERALD_CORE_HIZ_HH
#define EMERALD_CORE_HIZ_HH

#include <vector>

#include "core/rasterizer.hh"
#include "sim/types.hh"

namespace emerald::core
{

class HiZBuffer
{
  public:
    HiZBuffer(unsigned fb_width, unsigned fb_height);

    /** Reset all bounds to the far plane. */
    void clear(float depth = 1.0f);

    /** True when the tile may contain visible fragments. */
    bool test(int tx, int ty, float tile_min_z) const;

    /**
     * Tighten the bound after a fully covered, non-discarding tile.
     * @param tile_max_z maximum depth the tile's fragments can leave
     *        in the depth buffer.
     */
    void update(int tx, int ty, float tile_max_z);

    float bound(int tx, int ty) const;

    /** Tiles rejected so far (stats). */
    std::uint64_t rejected() const { return _rejected; }
    void noteRejected() { ++_rejected; }

  private:
    std::size_t
    index(int tx, int ty) const
    {
        return static_cast<std::size_t>(ty) * _tilesX +
               static_cast<std::size_t>(tx);
    }

    unsigned _tilesX;
    unsigned _tilesY;
    std::vector<float> _maxZ;
    std::uint64_t _rejected = 0;
};

} // namespace emerald::core

#endif // EMERALD_CORE_HIZ_HH
