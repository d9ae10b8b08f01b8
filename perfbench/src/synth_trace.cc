#include "synth_trace.hh"

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include "mem/traffic_trace.hh"
#include "sim/random.hh"

namespace perfbench
{

using emerald::AccessKind;
using emerald::Addr;
using emerald::Tick;

namespace
{

constexpr Addr vertexBase = 0x10000000ULL;
constexpr Addr instBase = 0x41000000ULL;
constexpr Addr textureBase = 0x60000000ULL;
constexpr Addr depthBase = 0x68000000ULL;
constexpr unsigned lineBytes = 128;
constexpr unsigned tilePx = 16;
/** The captured object: 40 screen tiles (16x16 px), sampling 512
 * texture lines (64 KB) in rows of 512 texels (2 KB, 16 lines). */
constexpr unsigned objectTiles = 40;
constexpr unsigned texLinesPerRow = 16;
constexpr unsigned texRows = 32;
/** One GPU clock (950 MHz) in ticks: the LSU hands out two lines per
 * cycle at most. */
constexpr Tick gpuCycle = 1053;

Addr
lineOf(Addr addr)
{
    return addr & ~Addr(lineBytes - 1);
}

/** Log-uniform between @p lo and @p hi ticks. */
Tick
logUniform(emerald::Random &rng, double lo, double hi)
{
    return static_cast<Tick>(lo * std::pow(hi / lo, rng.uniform()));
}

/**
 * Offset from a core's previous transaction, drawn to match the
 * captured spacing: 39% in the same cycle, 41.5% one cycle later, and
 * otherwise a stall, half of them short (2-80 ns) and half long
 * (80 ns-8 us, while the core waits on memory or shading).
 */
Tick
drawGap(emerald::Random &rng)
{
    double u = rng.uniform();
    if (u < 0.39)
        return 0;
    if (u < 0.805)
        return gpuCycle;
    return rng.chance(0.5) ? logUniform(rng, 2e3, 8e4)
                           : logUniform(rng, 8e4, 8e6);
}

} // namespace

SynthTraceSummary
writeSynthTrace(const std::string &dir, const SynthTraceParams &params)
{
    emerald::Random rng(params.seed);
    SynthTraceSummary summary;

    // Seeded frame lengths (+-25% per core and frame), normalized so
    // every seed replays the same number of transactions in total.
    std::vector<double> weights(params.frames * params.cores);
    double weight_sum = 0.0;
    for (double &w : weights) {
        w = 0.75 + 0.5 * rng.uniform();
        weight_sum += w;
    }
    const double per_weight =
        static_cast<double>(params.txnsPerCoreFrame) *
        static_cast<double>(weights.size()) / weight_sum;

    // The object: a box of screen tiles at a seeded place, 8 tiles (4
    // lines) wide as captured, its left edge on a line boundary; and
    // the texture window it maps onto, at a seeded line offset.
    const unsigned tiles_x = params.fbWidth / tilePx;
    const unsigned tiles_y = params.fbHeight / tilePx;
    const unsigned box_w = 8;
    const unsigned box_h = std::min(
        tiles_y, (objectTiles + box_w / 2) / box_w);
    const unsigned box_x =
        2 * static_cast<unsigned>(rng.below((tiles_x - box_w) / 2 + 1));
    const unsigned box_y =
        static_cast<unsigned>(rng.below(tiles_y - box_h + 1));
    const Addr tex_base = textureBase + rng.below(64) * lineBytes;
    // Seeded per-fragment behaviour: texture lines per pixel row and
    // the share of depth writes that read first (Hi-Z misses).
    const double tex_per_row = 2.0 + 0.6 * rng.uniform();
    const double depth_read_prob = 0.06 + 0.1 * rng.uniform();
    // Mean transactions of one tile visit (four warps, below).
    const double visit_txns =
        4 * (1 + 4 * (1 + depth_read_prob) + 4 * tex_per_row + 4);

    emerald::mem::TrafficTraceWriter writer(dir, "perfbench-synthetic",
                                            synthFbBase);
    for (unsigned c = 0; c < params.cores; ++c)
        writer.addClient("gpu.sc" + std::to_string(c));

    std::uint64_t rop_txns = 0;
    for (unsigned f = 0; f < params.frames; ++f) {
        const Tick frame_start = emerald::ticksFromMs(33.0) * f;
        writer.beginFrame(frame_start);
        Tick last = frame_start;
        std::uint64_t frame_txns = 0;
        for (unsigned c = 0; c < params.cores; ++c) {
            const auto budget = static_cast<std::uint64_t>(
                weights[f * params.cores + c] * per_weight);
            std::uint64_t n = 0;
            Tick now = frame_start;
            auto emit = [&](Addr addr, AccessKind kind, bool write) {
                if (n == budget)
                    return;
                now += drawGap(rng);
                writer.record(c, now, lineOf(addr), kind, write);
                last = std::max(last, now);
                ++n;
                ++summary.records;
                summary.writes += write;
                summary.textureReads += kind == AccessKind::Texture;
                rop_txns +=
                    kind == AccessKind::Depth || kind == AccessKind::Color;
            };
            // Six vertex fetches per core and frame, over nine lines in
            // all, as captured.
            for (unsigned v = 0; v < 6; ++v)
                emit(vertexBase + ((2 * c + v) % 9) * lineBytes,
                     AccessKind::Vertex, false);
            // All cores shade the same primitive at a time: each sweeps
            // the box's line-wide (two-tile) columns left to right,
            // twice a frame, visiting random tiles of the current column.
            const unsigned columns = box_w / 2;
            const double visits = static_cast<double>(budget) / visit_txns;
            for (unsigned k = 0; n < budget; ++k) {
                const auto sweep = std::min<unsigned>(
                    static_cast<unsigned>(k * 2 * columns / visits),
                    2 * columns - 1);
                const unsigned bx = 2 * (sweep % columns) +
                                    static_cast<unsigned>(rng.below(2));
                const unsigned by = static_cast<unsigned>(rng.below(box_h));
                unsigned px = (box_x + bx) * tilePx;
                unsigned py = (box_y + by) * tilePx;
                // Four warps of four pixel rows each: an instruction
                // fetch, early depth, texture reads, colour writes.
                for (unsigned row = 0; row < tilePx; row += 4) {
                    // The warp's texture footprint: small 2D steps from
                    // the tile's place in the texture.
                    unsigned u = bx * texLinesPerRow / box_w;
                    unsigned v = (by * tilePx + row) * texRows /
                                 (box_h * tilePx);
                    const Addr inst_line =
                        rng.chance(0.9) ? 0 : 1 + rng.below(2);
                    emit(instBase + inst_line * lineBytes, AccessKind::Inst,
                         false);
                    for (unsigned r = row; r < row + 4; ++r) {
                        Addr pix = (Addr(py + r) * params.fbWidth + px) * 4;
                        if (rng.chance(depth_read_prob))
                            emit(depthBase + pix, AccessKind::Depth, false);
                        emit(depthBase + pix, AccessKind::Depth, true);
                    }
                    unsigned tex = static_cast<unsigned>(
                        4 * tex_per_row + rng.uniform());
                    for (unsigned t = 0; t < tex; ++t) {
                        u = (u + texLinesPerRow + rng.below(3) - 1) %
                            texLinesPerRow;
                        v = (v + texRows + rng.below(3) - 1) % texRows;
                        emit(tex_base + (v * texLinesPerRow + u) * lineBytes,
                             AccessKind::Texture, false);
                    }
                    for (unsigned r = row; r < row + 4; ++r) {
                        Addr pix = (Addr(py + r) * params.fbWidth + px) * 4;
                        emit(synthFbBase + pix, AccessKind::Color, true);
                    }
                }
            }
            frame_txns += n;
        }
        writer.endFrame(last + gpuCycle, static_cast<double>(frame_txns));
    }
    writer.finalize();
    summary.ropShare = summary.records
                           ? static_cast<double>(rop_txns) /
                                 static_cast<double>(summary.records)
                           : 0.0;
    return summary;
}

std::map<std::string, double>
profileTrace(const std::string &dir)
{
    emerald::mem::TrafficTraceReader reader(dir);
    std::map<std::string, double> out;
    const auto records = static_cast<double>(reader.numRecords());
    out["records"] = records;
    out["clients"] = reader.numClients();
    out["frames"] = reader.numFrames();

    constexpr auto numKinds = static_cast<unsigned>(AccessKind::NumKinds);
    std::vector<double> kind_txns(numKinds), kind_writes(numKinds);
    std::vector<std::set<Addr>> kind_lines(numKinds);
    std::vector<double> gaps;
    std::vector<Tick> frame_span(reader.numFrames());
    double writes = 0;
    for (unsigned c = 0; c < reader.numClients(); ++c) {
        const auto &txns = reader.clientTxns(c);
        out[reader.clientName(c) + ".records"] =
            static_cast<double>(txns.size());
        for (std::size_t i = 0; i < txns.size(); ++i) {
            const auto &t = txns[i];
            const auto k = static_cast<unsigned>(t.kind);
            ++kind_txns[k];
            kind_writes[k] += t.write;
            writes += t.write;
            kind_lines[k].insert(lineOf(t.addr));
            frame_span[t.frame] = std::max(frame_span[t.frame], t.offset);
            if (i > 0 && txns[i - 1].frame == t.frame)
                gaps.push_back(
                    static_cast<double>(t.offset - txns[i - 1].offset) /
                    1000.0);
        }
    }
    out["write_share"] = records ? writes / records : 0.0;
    for (unsigned k = 0; k < numKinds; ++k) {
        if (!kind_txns[k])
            continue;
        std::string name =
            std::string("kind.") +
            emerald::accessKindName(static_cast<AccessKind>(k));
        out[name + ".share"] = kind_txns[k] / records;
        out[name + ".write_share"] = kind_writes[k] / kind_txns[k];
        out[name + ".lines"] = static_cast<double>(kind_lines[k].size());
        out[name + ".txns_per_line"] =
            kind_txns[k] / static_cast<double>(kind_lines[k].size());
    }
    if (!gaps.empty()) {
        std::sort(gaps.begin(), gaps.end());
        double sum = 0;
        unsigned zero = 0;
        for (double g : gaps) {
            sum += g;
            zero += g == 0.0;
        }
        out["gap_ns.mean"] = sum / static_cast<double>(gaps.size());
        out["gap_ns.p50"] = gaps[gaps.size() / 2];
        out["gap_ns.p90"] = gaps[gaps.size() * 9 / 10];
        out["gap_ns.zero_share"] = zero / static_cast<double>(gaps.size());
    }
    double span_sum = 0;
    for (Tick s : frame_span)
        span_sum += static_cast<double>(s);
    if (!frame_span.empty())
        out["frame_span_us.mean"] =
            span_sum / static_cast<double>(frame_span.size()) / 1e6;
    return out;
}

} // namespace perfbench
