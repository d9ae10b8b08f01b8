/**
 * @file
 * The framebuffer: functional color (RGBA8) and depth (F32) planes
 * plus the in-shader raster operations the fragment shaders invoke
 * through the RopIface (paper Fig. 3 stages L-N: early/late depth
 * test, blending, framebuffer commit).
 *
 * Both planes occupy linear (row-major) address ranges so the timing
 * model sees realistic depth/color/display streams; the display
 * controller scans the color plane sequentially.
 */

#ifndef EMERALD_CORE_FRAMEBUFFER_HH
#define EMERALD_CORE_FRAMEBUFFER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "gpu/isa/executor.hh"
#include "sim/serialize/serialize.hh"
#include "sim/types.hh"

namespace emerald::core
{

class Framebuffer : public gpu::isa::RopIface, public Serializable
{
  public:
    /**
     * @param color_base physical base address of the color plane.
     * @param depth_base physical base address of the depth plane.
     */
    Framebuffer(unsigned width, unsigned height,
                Addr color_base = 0x80000000ULL,
                Addr depth_base = 0x90000000ULL);

    unsigned width() const { return _width; }
    unsigned height() const { return _height; }
    Addr colorBase() const { return _colorBase; }
    Addr depthBase() const { return _depthBase; }

    /** Clear color to packed RGBA @p rgba and depth to @p depth. */
    void clear(std::uint32_t rgba = 0xff000000u, float depth = 1.0f);

    /** Per-draw raster state. */
    void setDepthWrite(bool enabled) { _depthWrite = enabled; }

    /** @{ RopIface (invoked from fragment shaders). */
    bool depthTest(int x, int y, float z, Addr &addr) override;
    void blendPixel(int x, int y, const float rgba[4],
                    Addr &addr) override;
    void storePixel(int x, int y, const float rgba[4],
                    Addr &addr) override;
    /** @} */

    std::uint32_t pixel(int x, int y) const
    {
        return _color[idx(x, y)];
    }
    float depthAt(int x, int y) const { return _depth[idx(x, y)]; }

    Addr
    colorAddr(int x, int y) const
    {
        return _colorBase + static_cast<Addr>(idx(x, y)) * 4;
    }
    Addr
    depthAddr(int x, int y) const
    {
        return _depthBase + static_cast<Addr>(idx(x, y)) * 4;
    }

    /** FNV-1a hash of the color plane, for golden-image tests. */
    std::uint64_t colorHash() const;

    /** Write a binary PPM (P6) of the color plane. */
    bool writePpm(const std::string &path) const;

    /** Pack float RGBA in [0,1] to 8-bit ABGR (R in low byte). */
    static std::uint32_t packRgba(const float rgba[4]);

    void serialize(CheckpointIo &io) override;

  private:
    std::size_t
    idx(int x, int y) const
    {
        return static_cast<std::size_t>(y) * _width +
               static_cast<std::size_t>(x);
    }

    unsigned _width;
    unsigned _height;
    Addr _colorBase;
    Addr _depthBase;
    bool _depthWrite = true;

    std::vector<std::uint32_t> _color;
    std::vector<float> _depth;
};

} // namespace emerald::core

#endif // EMERALD_CORE_FRAMEBUFFER_HH
