#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <set>
#include <vector>

#include "core/clipper.hh"
#include "core/framebuffer.hh"
#include "core/hiz.hh"
#include "core/rasterizer.hh"
#include "core/texture.hh"
#include "core/wt_mapping.hh"
#include "sim/random.hh"

using namespace emerald;
using namespace emerald::core;

namespace
{

ScreenVertex
sv(float x, float y, float z = 0.5f, float inv_w = 1.0f)
{
    ScreenVertex v;
    v.x = x;
    v.y = y;
    v.z = z;
    v.invW = inv_w;
    return v;
}

ClipVertex
cv(float x, float y, float z, float w)
{
    ClipVertex v;
    v.pos = {x, y, z, w};
    return v;
}

/** Reference point-in-triangle via barycentric signs. */
bool
refInside(float px, float py, const ScreenVertex v[3])
{
    auto edge = [](float ax, float ay, float bx, float by, float cx,
                   float cy) {
        return (bx - ax) * (cy - ay) - (by - ay) * (cx - ax);
    };
    float d0 = edge(v[0].x, v[0].y, v[1].x, v[1].y, px, py);
    float d1 = edge(v[1].x, v[1].y, v[2].x, v[2].y, px, py);
    float d2 = edge(v[2].x, v[2].y, v[0].x, v[0].y, px, py);
    bool all_pos = d0 > 0 && d1 > 0 && d2 > 0;
    bool all_neg = d0 < 0 && d1 < 0 && d2 < 0;
    return all_pos || all_neg;
}

} // namespace

TEST(Clipper, FullyInsidePassesThrough)
{
    ClipVertex verts[3] = {cv(0, 0, 0, 1), cv(0.5f, 0, 0, 1),
                           cv(0, 0.5f, 0, 1)};
    ClipResult out;
    ASSERT_TRUE(clipTriangle(verts, out));
    EXPECT_EQ(out.count, 1u);
}

TEST(Clipper, TrivialRejectOutsideEachPlane)
{
    // All vertices beyond +x.
    ClipVertex verts[3] = {cv(2, 0, 0, 1), cv(3, 0, 0, 1),
                           cv(2, 1, 0, 1)};
    EXPECT_TRUE(trivialReject(verts));
    ClipResult out;
    EXPECT_FALSE(clipTriangle(verts, out));

    // All vertices behind the near plane.
    ClipVertex behind[3] = {cv(0, 0, -2, 1), cv(1, 0, -3, 1),
                            cv(0, 1, -2, 1)};
    EXPECT_TRUE(trivialReject(behind));
}

TEST(Clipper, NearClipProducesVerticesInFront)
{
    // One vertex behind the near plane -> quad -> 2 triangles.
    ClipVertex verts[3] = {cv(0, 0, -2, 1), cv(1, 0, 0.5f, 1),
                           cv(-1, 0, 0.5f, 1)};
    ClipResult out;
    ASSERT_TRUE(clipTriangle(verts, out));
    EXPECT_EQ(out.count, 2u);
    for (unsigned t = 0; t < out.count; ++t) {
        for (int i = 0; i < 3; ++i) {
            // z + w >= 0 (with epsilon for interpolation rounding).
            EXPECT_GE(out.tris[t][i].pos.z + out.tris[t][i].pos.w,
                      -1e-4f);
        }
    }
}

TEST(Clipper, AttributesInterpolateAcrossClip)
{
    ClipVertex verts[3] = {cv(0, 0, -1, 1), cv(1, 0, 1, 1),
                           cv(-1, 0, 1, 1)};
    verts[0].attrs[0] = 0.0f;
    verts[1].attrs[0] = 1.0f;
    verts[2].attrs[0] = 1.0f;
    ClipResult out;
    ASSERT_TRUE(clipTriangle(verts, out));
    // Every output attr must stay within the input range.
    for (unsigned t = 0; t < out.count; ++t) {
        for (int i = 0; i < 3; ++i) {
            EXPECT_GE(out.tris[t][i].attrs[0], -1e-5f);
            EXPECT_LE(out.tris[t][i].attrs[0], 1.0f + 1e-5f);
        }
    }
}

TEST(Rasterizer, SetupCullsBackfaces)
{
    ScreenVertex ccw[3] = {sv(10, 10), sv(50, 10), sv(10, 50)};
    ScreenVertex cw[3] = {sv(10, 10), sv(10, 50), sv(50, 10)};
    SetupPrim out;
    EXPECT_TRUE(setupPrimitive(ccw, 64, 64, true, out));
    EXPECT_FALSE(setupPrimitive(cw, 64, 64, true, out));
    // With culling off, winding is normalized instead.
    EXPECT_TRUE(setupPrimitive(cw, 64, 64, false, out));
    EXPECT_GT(out.area2, 0.0f);
}

TEST(Rasterizer, DegenerateAndOffscreenRejected)
{
    ScreenVertex degen[3] = {sv(10, 10), sv(20, 20), sv(30, 30)};
    SetupPrim out;
    EXPECT_FALSE(setupPrimitive(degen, 64, 64, false, out));

    ScreenVertex off[3] = {sv(-100, -100), sv(-50, -100),
                           sv(-100, -50)};
    EXPECT_FALSE(setupPrimitive(off, 64, 64, false, out));
}

TEST(Rasterizer, BoundingBoxCoversTriangle)
{
    ScreenVertex verts[3] = {sv(5, 6), sv(20, 9), sv(11, 30)};
    SetupPrim out;
    ASSERT_TRUE(setupPrimitive(verts, 64, 64, false, out));
    EXPECT_EQ(out.tileX0, 1);  // x 5 -> tile 1.
    EXPECT_EQ(out.tileY0, 1);
    EXPECT_EQ(out.tileX1, 5);  // x 20 -> tile 5.
    EXPECT_EQ(out.tileY1, 7);
}

class RasterizerProperty : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(RasterizerProperty, CoverageMatchesReference)
{
    Random rng(GetParam());
    for (int iter = 0; iter < 200; ++iter) {
        ScreenVertex verts[3];
        for (auto &v : verts) {
            v = sv(static_cast<float>(rng.uniform()) * 64.0f,
                   static_cast<float>(rng.uniform()) * 64.0f);
        }
        SetupPrim prim;
        if (!setupPrimitive(verts, 64, 64, false, prim))
            continue;

        for (int ty = prim.tileY0; ty <= prim.tileY1; ++ty) {
            for (int tx = prim.tileX0; tx <= prim.tileX1; ++tx) {
                FragmentTile tile;
                rasterizeTile(prim, tx, ty, 0, 64, 64, tile);
                for (unsigned p = 0; p < rasterTilePixels; ++p) {
                    float px = static_cast<float>(
                                   tx * 4 + static_cast<int>(p % 4)) +
                               0.5f;
                    float py = static_cast<float>(
                                   ty * 4 + static_cast<int>(p / 4)) +
                               0.5f;
                    bool covered = tile.coverMask & (1u << p);
                    bool ref = refInside(px, py, prim.v.data());
                    // Allow edge-rule mismatches only exactly on an
                    // edge; interior/exterior must agree.
                    float e0 = prim.edgeA[0] * px +
                               prim.edgeB[0] * py + prim.edgeC[0];
                    float e1 = prim.edgeA[1] * px +
                               prim.edgeB[1] * py + prim.edgeC[1];
                    float e2 = prim.edgeA[2] * px +
                               prim.edgeB[2] * py + prim.edgeC[2];
                    float eps = 1e-3f * prim.area2;
                    bool near_edge = std::fabs(e0) < eps ||
                                     std::fabs(e1) < eps ||
                                     std::fabs(e2) < eps;
                    if (!near_edge) {
                        EXPECT_EQ(covered, ref);
                    }
                }
            }
        }
    }
}

TEST_P(RasterizerProperty, SharedEdgeNoDoubleCoverNoGap)
{
    // Two triangles sharing an edge: every pixel in the union is
    // covered exactly once (top-left fill rule).
    Random rng(GetParam() + 100);
    for (int iter = 0; iter < 100; ++iter) {
        ScreenVertex a = sv(static_cast<float>(rng.uniform()) * 60.0f,
                            static_cast<float>(rng.uniform()) * 60.0f);
        ScreenVertex b = sv(static_cast<float>(rng.uniform()) * 60.0f,
                            static_cast<float>(rng.uniform()) * 60.0f);
        ScreenVertex c = sv(static_cast<float>(rng.uniform()) * 60.0f,
                            static_cast<float>(rng.uniform()) * 60.0f);
        ScreenVertex d = sv(static_cast<float>(rng.uniform()) * 60.0f,
                            static_cast<float>(rng.uniform()) * 60.0f);
        ScreenVertex t1[3] = {a, b, c};
        ScreenVertex t2[3] = {a, c, d};
        SetupPrim p1, p2;
        if (!setupPrimitive(t1, 64, 64, false, p1))
            continue;
        if (!setupPrimitive(t2, 64, 64, false, p2))
            continue;

        std::vector<int> cover(64 * 64, 0);
        for (const SetupPrim *prim : {&p1, &p2}) {
            for (int ty = prim->tileY0; ty <= prim->tileY1; ++ty) {
                for (int tx = prim->tileX0; tx <= prim->tileX1;
                     ++tx) {
                    FragmentTile tile;
                    rasterizeTile(*prim, tx, ty, 0, 64, 64, tile);
                    for (unsigned p = 0; p < rasterTilePixels; ++p) {
                        if (tile.coverMask & (1u << p)) {
                            int x = tx * 4 + static_cast<int>(p % 4);
                            int y = ty * 4 + static_cast<int>(p / 4);
                            ++cover[y * 64 + x];
                        }
                    }
                }
            }
        }
        // No pixel on the shared edge may be covered twice.
        for (int val : cover)
            EXPECT_LE(val, 2); // 2 only if triangles overlap (d side).
    }
}

TEST_P(RasterizerProperty, DirtyTileMatchesFreshTile)
{
    // The raster stage keeps one tile per job and rasterizes into it
    // again and again without clearing it. Every tile rasterized into
    // the dirty tile must match a freshly zeroed one on coverage and,
    // bit for bit, on z and every varying of each covered pixel.
    // Uncovered slots may differ: nothing downstream reads them. The
    // 62x58 framebuffer cuts the right and bottom tiles short.
    constexpr unsigned fb_w = 62, fb_h = 58;
    Random rng(GetParam() + 200);
    auto unit = [&] { return static_cast<float>(rng.uniform()); };
    FragmentTile dirty;
    int covered_tiles = 0;
    for (int iter = 0; iter < 200; ++iter) {
        ScreenVertex verts[3];
        for (auto &v : verts) {
            v.x = unit() * 64.0f;
            v.y = unit() * 64.0f;
            v.z = unit();
            v.invW = 0.05f + unit();
            for (unsigned i = 0; i < maxVaryings; ++i)
                v.attrsOverW[i] = (unit() * 2.0f - 1.0f) * v.invW;
        }
        SetupPrim prim;
        if (!setupPrimitive(verts, fb_w, fb_h, false, prim))
            continue;

        for (int ty = prim.tileY0; ty <= prim.tileY1; ++ty) {
            for (int tx = prim.tileX0; tx <= prim.tileX1; ++tx) {
                FragmentTile fresh;
                bool covered = rasterizeTile(prim, tx, ty, maxVaryings,
                                             fb_w, fb_h, fresh);
                EXPECT_EQ(rasterizeTile(prim, tx, ty, maxVaryings, fb_w,
                                        fb_h, dirty),
                          covered);
                EXPECT_EQ(dirty.tileX, tx);
                EXPECT_EQ(dirty.tileY, ty);
                ASSERT_EQ(dirty.coverMask, fresh.coverMask)
                    << "tile " << tx << "," << ty;
                covered_tiles += covered;
                for (unsigned p = 0; p < rasterTilePixels; ++p) {
                    if (!(fresh.coverMask & (1u << p)))
                        continue;
                    ASSERT_EQ(std::bit_cast<std::uint32_t>(dirty.z[p]),
                              std::bit_cast<std::uint32_t>(fresh.z[p]))
                        << "tile " << tx << "," << ty << " slot " << p;
                    for (unsigned i = 0; i < maxVaryings; ++i) {
                        ASSERT_EQ(std::bit_cast<std::uint32_t>(
                                      dirty.attrs[p][i]),
                                  std::bit_cast<std::uint32_t>(
                                      fresh.attrs[p][i]))
                            << "tile " << tx << "," << ty << " slot " << p
                            << " varying " << i;
                    }
                }
            }
        }
    }
    EXPECT_GT(covered_tiles, 1000);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RasterizerProperty,
                         ::testing::Values(3u, 17u, 99u));

TEST(Rasterizer, PerspectiveCorrectInterpolation)
{
    // A triangle with very different w: attribute interpolation must
    // be hyperbolic, not linear. At the screen-space midpoint of an
    // edge between attrs 0 and 1 with invW 1 and 0.1, the
    // perspective-correct value is heavily biased toward the near
    // vertex.
    ScreenVertex verts[3] = {sv(0, 0, 0.5f, 1.0f),
                             sv(32, 0, 0.5f, 0.1f),
                             sv(0, 32, 0.5f, 1.0f)};
    verts[0].attrsOverW[0] = 0.0f * 1.0f;
    verts[1].attrsOverW[0] = 1.0f * 0.1f;
    verts[2].attrsOverW[0] = 0.0f * 1.0f;
    SetupPrim prim;
    ASSERT_TRUE(setupPrimitive(verts, 64, 64, false, prim));
    FragmentTile tile;
    // Tile containing pixel (16, 0): tile x=4, y=0.
    ASSERT_TRUE(rasterizeTile(prim, 4, 0, 1, 64, 64, tile));
    // Pixel (16,0) is slot 0 of that tile.
    ASSERT_TRUE(tile.coverMask & 1u);
    float v = tile.attrs[0][0];
    // Linear would give ~0.5; perspective-correct is ~0.085.
    EXPECT_LT(v, 0.2f);
}

TEST(HiZ, ConservativeRejectAndUpdate)
{
    HiZBuffer hiz(64, 64);
    EXPECT_TRUE(hiz.test(0, 0, 0.5f)); // Initially everything passes.

    hiz.update(0, 0, 0.3f);
    EXPECT_FALSE(hiz.test(0, 0, 0.4f)); // Behind the bound.
    EXPECT_TRUE(hiz.test(0, 0, 0.2f));  // In front.

    // Updates only tighten.
    hiz.update(0, 0, 0.9f);
    EXPECT_FLOAT_EQ(hiz.bound(0, 0), 0.3f);

    hiz.clear();
    EXPECT_TRUE(hiz.test(0, 0, 0.99f));
}

TEST(HiZ, NeverCullsVisibleFragment)
{
    // Property: after arbitrary full-tile updates with max-z values,
    // a fragment with z less than every update must still pass.
    HiZBuffer hiz(64, 64);
    Random rng(5);
    float min_update = 1.0f;
    for (int i = 0; i < 100; ++i) {
        float z = 0.2f + static_cast<float>(rng.uniform()) * 0.8f;
        min_update = std::min(min_update, z);
        hiz.update(3, 3, z);
    }
    EXPECT_TRUE(hiz.test(3, 3, min_update - 0.05f));
}

TEST(Framebuffer, DepthTestLess)
{
    Framebuffer fb(16, 16);
    Addr addr = 0;
    EXPECT_TRUE(fb.depthTest(4, 4, 0.5f, addr));
    EXPECT_EQ(addr, fb.depthAddr(4, 4));
    EXPECT_FLOAT_EQ(fb.depthAt(4, 4), 0.5f);
    EXPECT_FALSE(fb.depthTest(4, 4, 0.7f, addr));
    EXPECT_TRUE(fb.depthTest(4, 4, 0.3f, addr));
    EXPECT_FLOAT_EQ(fb.depthAt(4, 4), 0.3f);
}

TEST(Framebuffer, DepthWriteDisable)
{
    Framebuffer fb(16, 16);
    fb.setDepthWrite(false);
    Addr addr = 0;
    EXPECT_TRUE(fb.depthTest(1, 1, 0.5f, addr));
    EXPECT_FLOAT_EQ(fb.depthAt(1, 1), 1.0f); // Unchanged.
}

TEST(Framebuffer, StoreAndBlend)
{
    Framebuffer fb(16, 16);
    Addr addr = 0;
    float red[4] = {1.0f, 0.0f, 0.0f, 1.0f};
    fb.storePixel(2, 3, red, addr);
    EXPECT_EQ(addr, fb.colorAddr(2, 3));
    EXPECT_EQ(fb.pixel(2, 3), 0xff0000ffu);

    // 50% white over red.
    float half_white[4] = {1.0f, 1.0f, 1.0f, 0.5f};
    fb.blendPixel(2, 3, half_white, addr);
    std::uint32_t px = fb.pixel(2, 3);
    EXPECT_NEAR(px & 0xff, 255, 1);          // R stays saturated.
    EXPECT_NEAR((px >> 8) & 0xff, 128, 2);   // G half.
    EXPECT_NEAR((px >> 16) & 0xff, 128, 2);  // B half.
}

TEST(Framebuffer, OutOfBoundsSafe)
{
    Framebuffer fb(16, 16);
    Addr addr = 0;
    EXPECT_FALSE(fb.depthTest(-1, 0, 0.1f, addr));
    EXPECT_FALSE(fb.depthTest(16, 0, 0.1f, addr));
    float c[4] = {1, 1, 1, 1};
    fb.storePixel(-1, -1, c, addr); // Must not crash.
    fb.blendPixel(99, 99, c, addr);
}

TEST(Framebuffer, HashChangesWithContent)
{
    Framebuffer fb(16, 16);
    std::uint64_t h0 = fb.colorHash();
    Addr addr = 0;
    float c[4] = {0.2f, 0.4f, 0.6f, 1.0f};
    fb.storePixel(0, 0, c, addr);
    EXPECT_NE(fb.colorHash(), h0);
}

TEST(Texture, TexelCenterSamplingExact)
{
    Texture tex(8, 8, 0x1000);
    tex.setTexel(2, 3, 0xff0040ffu); // R=255, G=64, B=0.
    TextureSet set;
    set.bind(0, &tex);
    float rgba[4];
    std::vector<Addr> addrs;
    // Texel center (2,3) in uv space: ((2+0.5)/8, (3+0.5)/8).
    set.sample(0, 2.5f / 8.0f, 3.5f / 8.0f, rgba, addrs);
    EXPECT_NEAR(rgba[0], 1.0f, 1e-3f);
    EXPECT_NEAR(rgba[1], 64.0f / 255.0f, 1e-3f);
    EXPECT_NEAR(rgba[2], 0.0f, 1e-3f);
    EXPECT_EQ(addrs.size(), 4u);
}

TEST(Texture, BilinearBlendsNeighbours)
{
    Texture tex(8, 8, 0x1000);
    tex.fillChecker(1, 0xffffffffu, 0xff000000u);
    TextureSet set;
    set.bind(0, &tex);
    float rgba[4];
    std::vector<Addr> addrs;
    // Exactly between two texels horizontally: 50% blend.
    set.sample(0, 3.0f / 8.0f, 2.5f / 8.0f, rgba, addrs);
    EXPECT_NEAR(rgba[0], 0.5f, 1e-2f);
}

TEST(Texture, BlockLinearAddresses)
{
    Texture tex(64, 64, 0x10000);
    // Texels in the same 8x4 block share a 128 B line.
    Addr a = tex.texelAddr(0, 0);
    Addr b = tex.texelAddr(7, 3);
    EXPECT_EQ(a & ~Addr(127), b & ~Addr(127));
    // Next block over differs.
    Addr c = tex.texelAddr(8, 0);
    EXPECT_NE(a & ~Addr(127), c & ~Addr(127));
}

TEST(Texture, MissingUnitReturnsWhite)
{
    TextureSet set;
    float rgba[4];
    std::vector<Addr> addrs;
    set.sample(3, 0.5f, 0.5f, rgba, addrs);
    EXPECT_FLOAT_EQ(rgba[0], 1.0f);
    EXPECT_TRUE(addrs.empty());
}

TEST(WtMapping, Wt1RoundRobinsTcTiles)
{
    WtMapping map(256, 192, 6, 1);
    EXPECT_EQ(map.tcCols(), 32u);
    EXPECT_EQ(map.tcRows(), 24u);
    // Adjacent TC tiles land on different cores at WT=1.
    EXPECT_NE(map.coreOf(0, 0), map.coreOf(1, 0));
}

TEST(WtMapping, LargeWtGroupsNeighbours)
{
    WtMapping map(256, 192, 6, 4);
    unsigned c = map.coreOf(0, 0);
    for (unsigned y = 0; y < 4; ++y)
        for (unsigned x = 0; x < 4; ++x)
            EXPECT_EQ(map.coreOf(x, y), c);
    EXPECT_NE(map.coreOf(4, 0), c);
}

TEST(WtMapping, AllCoresUsedAndBalanced)
{
    for (unsigned wt = 1; wt <= 10; ++wt) {
        WtMapping map(256, 192, 6, wt);
        std::vector<unsigned> counts(6, 0);
        for (unsigned y = 0; y < map.tcRows(); ++y)
            for (unsigned x = 0; x < map.tcCols(); ++x)
                ++counts[map.coreOf(x, y)];
        unsigned total = 0;
        for (unsigned count : counts) {
            EXPECT_GT(count, 0u) << "wt=" << wt;
            total += count;
        }
        EXPECT_EQ(total, map.tcCols() * map.tcRows());
    }
}

TEST(WtMapping, WtColumnCountMultipleOfCoresDegeneratesToStripes)
{
    // The WT columns each core owns tiles in.
    auto wtColumnsPerCore = [](const WtMapping &map) {
        std::vector<std::set<unsigned>> cols(map.numCores());
        for (unsigned y = 0; y < map.tcRows(); ++y)
            for (unsigned x = 0; x < map.tcCols(); ++x)
                cols[map.coreOf(x, y)].insert(x / map.wtSize());
        return cols;
    };
    auto wtCols = [](const WtMapping &map) {
        return (map.tcCols() + map.wtSize() - 1) / map.wtSize();
    };

    // 256x192 at WT 6: 32 TC columns make 6 WT columns, one per core,
    // so round-robin reduces to the WT column and each core owns one
    // full-height stripe (EXPERIMENTS.md, the WT-6 spike of Fig 17/18).
    WtMapping stripes(256, 192, 6, 6);
    EXPECT_EQ(wtCols(stripes), 6u);
    for (unsigned y = 0; y < stripes.tcRows(); ++y)
        for (unsigned x = 0; x < stripes.tcCols(); ++x)
            EXPECT_EQ(stripes.coreOf(x, y), x / 6) << x << "," << y;
    for (const std::set<unsigned> &cols : wtColumnsPerCore(stripes))
        EXPECT_EQ(cols.size(), 1u);

    // 7 WT columns (WT 5) or 22 (1024x768 at WT 6) are not a multiple
    // of the core count: every core owns tiles in several WT columns.
    WtMapping wt5(256, 192, 6, 5);
    WtMapping paperScale(1024, 768, 6, 6);
    EXPECT_EQ(wtCols(wt5), 7u);
    EXPECT_EQ(wtCols(paperScale), 22u);
    for (const WtMapping *map : {&wt5, &paperScale})
        for (const std::set<unsigned> &cols : wtColumnsPerCore(*map))
            EXPECT_GT(cols.size(), 1u) << map->tcCols();
}

TEST(WtMapping, PixelMappingConsistent)
{
    WtMapping map(256, 192, 6, 2);
    EXPECT_EQ(map.coreOfPixel(0, 0), map.coreOf(0, 0));
    EXPECT_EQ(map.coreOfPixel(15, 15), map.coreOf(1, 1));
}

TEST(Rasterizer, TinyTriangleSinglePixel)
{
    // A sub-pixel triangle around one pixel center covers exactly
    // that pixel (micro-primitive case the TC stage exists for).
    ScreenVertex verts[3] = {sv(10.2f, 10.2f), sv(10.9f, 10.3f),
                             sv(10.4f, 10.9f)};
    SetupPrim prim;
    ASSERT_TRUE(setupPrimitive(verts, 64, 64, false, prim));
    unsigned covered = 0;
    for (int ty = prim.tileY0; ty <= prim.tileY1; ++ty) {
        for (int tx = prim.tileX0; tx <= prim.tileX1; ++tx) {
            FragmentTile tile;
            if (rasterizeTile(prim, tx, ty, 0, 64, 64, tile))
                covered += std::popcount(
                    static_cast<unsigned>(tile.coverMask));
        }
    }
    EXPECT_EQ(covered, 1u);
}

TEST(Rasterizer, SliverTriangleMayCoverNothing)
{
    // A degenerate-thin sliver between pixel centers covers zero
    // pixels but must not crash or loop.
    ScreenVertex verts[3] = {sv(5.1f, 5.01f), sv(30.0f, 5.02f),
                             sv(5.1f, 5.03f)};
    SetupPrim prim;
    if (!setupPrimitive(verts, 64, 64, false, prim))
        return; // Degenerate area: rejected at setup - fine.
    for (int ty = prim.tileY0; ty <= prim.tileY1; ++ty) {
        for (int tx = prim.tileX0; tx <= prim.tileX1; ++tx) {
            FragmentTile tile;
            rasterizeTile(prim, tx, ty, 0, 64, 64, tile);
        }
    }
}

TEST(Rasterizer, ClampsToFramebufferEdge)
{
    // Triangle extending past the right/bottom edge: bbox clamps,
    // and no fragment falls outside.
    ScreenVertex verts[3] = {sv(50, 50), sv(100, 55), sv(55, 100)};
    SetupPrim prim;
    ASSERT_TRUE(setupPrimitive(verts, 64, 64, false, prim));
    EXPECT_LE(prim.tileX1, 15);
    EXPECT_LE(prim.tileY1, 15);
    for (int ty = prim.tileY0; ty <= prim.tileY1; ++ty) {
        for (int tx = prim.tileX0; tx <= prim.tileX1; ++tx) {
            FragmentTile tile;
            if (!rasterizeTile(prim, tx, ty, 0, 64, 64, tile))
                continue;
            for (unsigned p = 0; p < rasterTilePixels; ++p) {
                if (tile.coverMask & (1u << p)) {
                    EXPECT_LT(tx * 4 + static_cast<int>(p % 4), 64);
                    EXPECT_LT(ty * 4 + static_cast<int>(p / 4), 64);
                }
            }
        }
    }
}
