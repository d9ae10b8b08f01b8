#include "npu/systolic.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace emerald::npu
{

std::vector<NpuLayer>
npuModelLayers(const std::string &name)
{
    // Camera-pipeline CNNs expressed as im2col GEMMs
    // (M = out pixels, N = out channels, K = inC x kh x kw).
    if (name == "tiny-cnn") {
        // 64x64 RGB frame, three 3x3 conv stages + classifier head.
        return {
            {"conv1", 32 * 32, 16, 3 * 3 * 3},
            {"conv2", 16 * 16, 32, 16 * 3 * 3},
            {"conv3", 8 * 8, 64, 32 * 3 * 3},
            {"fc", 1, 10, 64 * 8 * 8},
        };
    }
    if (name == "mobile") {
        // 128x128 input, wider channels: the bursty-DMA stressor for
        // the npu_contention scenario family.
        return {
            {"conv1", 64 * 64, 32, 3 * 3 * 3},
            {"conv2", 32 * 32, 64, 32 * 3 * 3},
            {"conv3", 16 * 16, 128, 64 * 3 * 3},
            {"conv4", 16 * 16, 128, 128 * 3 * 3},
            {"head", 1, 64, 128 * 16 * 16},
        };
    }
    fatal("npu: unknown model '%s' (use tiny-cnn|mobile)",
          name.c_str());
}

SystolicTiming::SystolicTiming(const SystolicParams &params)
    : _params(params)
{
    fatal_if(_params.rows == 0 || _params.cols == 0,
             "npu: PE grid must be at least 1x1");
    fatal_if(_params.elemBytes == 0 || _params.accBytes == 0,
             "npu: zero operand width");
}

unsigned
SystolicTiming::kChunk(const NpuLayer &layer) const
{
    // Half of each scratchpad holds the resident tile; the other half
    // is the prefetch target (double buffering).
    std::uint64_t in_half =
        std::uint64_t(_params.spInputKB) * 1024 / 2;
    std::uint64_t w_half =
        std::uint64_t(_params.spWeightKB) * 1024 / 2;
    std::uint64_t by_input =
        in_half / (std::uint64_t(_params.rows) * _params.elemBytes);
    std::uint64_t by_weight =
        w_half / (std::uint64_t(_params.cols) * _params.elemBytes);
    std::uint64_t kc = std::min({by_input, by_weight,
                                 std::uint64_t(layer.k)});
    return static_cast<unsigned>(std::max<std::uint64_t>(kc, 1));
}

std::uint64_t
SystolicTiming::tileCycles(unsigned kc) const
{
    // Wavefront fill (rows), stream (kc), drain (cols): the classic
    // output-stationary pass over one K-chunk.
    return std::uint64_t(_params.rows) + _params.cols + kc;
}

std::vector<TileWork>
SystolicTiming::tileWalk(const std::vector<NpuLayer> &model,
                         Addr base) const
{
    std::vector<TileWork> walk;
    Addr region = base;
    auto align = [](Addr a) { return (a + 127) & ~Addr(127); };

    for (const NpuLayer &layer : model) {
        unsigned kc = kChunk(layer);
        unsigned m_tiles =
            static_cast<unsigned>(divCeil(layer.m, _params.rows));
        unsigned n_tiles =
            static_cast<unsigned>(divCeil(layer.n, _params.cols));
        unsigned k_chunks =
            static_cast<unsigned>(divCeil(layer.k, kc));

        Addr in_base = align(region);
        Addr w_base = align(
            in_base + Addr(layer.m) * layer.k * _params.elemBytes);
        Addr out_base = align(
            w_base + Addr(layer.k) * layer.n * _params.elemBytes);
        region = align(
            out_base + Addr(layer.m) * layer.n * _params.accBytes);

        Addr in_cursor = in_base;
        Addr w_cursor = w_base;
        Addr out_cursor = out_base;
        for (unsigned mt = 0; mt < m_tiles; ++mt) {
            unsigned mr = std::min(_params.rows,
                                   layer.m - mt * _params.rows);
            for (unsigned nt = 0; nt < n_tiles; ++nt) {
                unsigned nc = std::min(_params.cols,
                                       layer.n - nt * _params.cols);
                for (unsigned kt = 0; kt < k_chunks; ++kt) {
                    unsigned kr =
                        std::min(kc, layer.k - kt * kc);
                    TileWork tile;
                    tile.inBytes = mr * kr * _params.elemBytes;
                    tile.wBytes = kr * nc * _params.elemBytes;
                    tile.cycles = tileCycles(kr);
                    tile.inAddr = in_cursor;
                    tile.wAddr = w_cursor;
                    in_cursor += tile.inBytes;
                    w_cursor += tile.wBytes;
                    if (kt + 1 == k_chunks) {
                        tile.outBytes = mr * nc * _params.accBytes;
                        tile.outAddr = out_cursor;
                        out_cursor += tile.outBytes;
                    }
                    walk.push_back(tile);
                }
            }
        }
    }
    return walk;
}

} // namespace emerald::npu
