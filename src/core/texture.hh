/**
 * @file
 * Textures and the bilinear sampler the TEX instruction uses.
 *
 * Texels are stored RGBA8 in a block-linear layout (8x4 texel blocks,
 * one cache line each) so the timing model sees the 2D locality a
 * real tiled texture layout provides — the L1T behaviour behind the
 * paper's Fig. 18 depends on it.
 */

#ifndef EMERALD_CORE_TEXTURE_HH
#define EMERALD_CORE_TEXTURE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "gpu/isa/executor.hh"
#include "sim/types.hh"

namespace emerald::core
{

/** A 2D RGBA8 texture with wrap addressing. */
class Texture
{
  public:
    /** Block layout: 8x4 texels = 128 bytes = one cache line. */
    static constexpr unsigned blockW = 8;
    static constexpr unsigned blockH = 4;

    Texture(unsigned width, unsigned height, Addr base_addr);

    unsigned width() const { return _width; }
    unsigned height() const { return _height; }

    void setTexel(unsigned x, unsigned y, std::uint32_t rgba);
    std::uint32_t texel(unsigned x, unsigned y) const;

    /** Physical address of texel (x, y) in the block-linear layout. */
    Addr texelAddr(unsigned x, unsigned y) const;

    /** Procedural checkerboard fill. */
    void fillChecker(unsigned cell, std::uint32_t a, std::uint32_t b);

    /** Procedural value-noise fill (deterministic by @p seed). */
    void fillNoise(std::uint64_t seed);

  private:
    std::size_t
    index(unsigned x, unsigned y) const
    {
        return std::size_t(y) * _width + x;
    }

    unsigned _width;
    unsigned _height;
    Addr _base;
    std::vector<std::uint32_t> _texels;
};

/** The set of textures bound for a draw; implements TEX sampling. */
class TextureSet : public gpu::isa::TextureSamplerIface
{
  public:
    /** Bind @p texture at @p unit (non-owning). */
    void bind(int unit, Texture *texture);

    Texture *texture(int unit) const;

    void sample(int unit, float u, float v, float rgba[4],
                std::vector<Addr> &texel_addrs) override;

  private:
    std::vector<Texture *> _units;
};

} // namespace emerald::core

#endif // EMERALD_CORE_TEXTURE_HH
