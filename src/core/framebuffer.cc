#include "core/framebuffer.hh"

#include <algorithm>
#include <cstdio>

#include "sim/fnv.hh"
#include "sim/logging.hh"
#include "sim/serialize/checkpoint_io.hh"

namespace emerald::core
{

Framebuffer::Framebuffer(unsigned width, unsigned height,
                         Addr color_base, Addr depth_base)
    : _width(width), _height(height), _colorBase(color_base),
      _depthBase(depth_base),
      _color(std::size_t(width) * height, 0xff000000u),
      _depth(std::size_t(width) * height, 1.0f)
{
    panic_if(width == 0 || height == 0, "empty framebuffer");
}

void
Framebuffer::clear(std::uint32_t rgba, float depth)
{
    std::fill(_color.begin(), _color.end(), rgba);
    std::fill(_depth.begin(), _depth.end(), depth);
}

bool
Framebuffer::depthTest(int x, int y, float z, Addr &addr)
{
    if (x < 0 || y < 0 || x >= static_cast<int>(_width) ||
        y >= static_cast<int>(_height)) {
        addr = _depthBase;
        return false;
    }
    addr = depthAddr(x, y);
    float &stored = _depth[idx(x, y)];
    if (z < stored) {
        if (_depthWrite)
            stored = z;
        return true;
    }
    return false;
}

std::uint32_t
Framebuffer::packRgba(const float rgba[4])
{
    auto to8 = [](float v) -> std::uint32_t {
        v = std::clamp(v, 0.0f, 1.0f);
        return static_cast<std::uint32_t>(v * 255.0f + 0.5f);
    };
    return to8(rgba[0]) | (to8(rgba[1]) << 8) | (to8(rgba[2]) << 16) |
           (to8(rgba[3]) << 24);
}

void
Framebuffer::blendPixel(int x, int y, const float rgba[4], Addr &addr)
{
    if (x < 0 || y < 0 || x >= static_cast<int>(_width) ||
        y >= static_cast<int>(_height)) {
        addr = _colorBase;
        return;
    }
    addr = colorAddr(x, y);
    std::uint32_t dst = _color[idx(x, y)];
    float d[4] = {
        static_cast<float>(dst & 0xff) / 255.0f,
        static_cast<float>((dst >> 8) & 0xff) / 255.0f,
        static_cast<float>((dst >> 16) & 0xff) / 255.0f,
        static_cast<float>((dst >> 24) & 0xff) / 255.0f,
    };
    float sa = std::clamp(rgba[3], 0.0f, 1.0f);
    float out[4] = {
        rgba[0] * sa + d[0] * (1.0f - sa),
        rgba[1] * sa + d[1] * (1.0f - sa),
        rgba[2] * sa + d[2] * (1.0f - sa),
        sa + d[3] * (1.0f - sa),
    };
    _color[idx(x, y)] = packRgba(out);
}

void
Framebuffer::storePixel(int x, int y, const float rgba[4], Addr &addr)
{
    if (x < 0 || y < 0 || x >= static_cast<int>(_width) ||
        y >= static_cast<int>(_height)) {
        addr = _colorBase;
        return;
    }
    addr = colorAddr(x, y);
    _color[idx(x, y)] = packRgba(rgba);
}

std::uint64_t
Framebuffer::colorHash() const
{
    return fnv1a(fnvOffsetBasis, _color.data(),
                 _color.size() * sizeof(_color[0]));
}

bool
Framebuffer::writePpm(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (!f)
        return false;
    std::fprintf(f, "P6\n%u %u\n255\n", _width, _height);
    for (std::uint32_t px : _color) {
        unsigned char rgb[3] = {
            static_cast<unsigned char>(px & 0xff),
            static_cast<unsigned char>((px >> 8) & 0xff),
            static_cast<unsigned char>((px >> 16) & 0xff),
        };
        std::fwrite(rgb, 1, 3, f);
    }
    std::fclose(f);
    return true;
}

void
Framebuffer::serialize(CheckpointIo &io)
{
    io.match("width", _width, "the framebuffer width");
    io.match("height", _height, "the framebuffer height");
    io.scalar("depth_write", _depthWrite);
    io.blob("color", _color);
    io.blob("depth", _depth);
}

} // namespace emerald::core
