#include "core/graphics_pipeline.hh"

#include <algorithm>
#include <bit>

#include "core/clipper.hh"
#include "sim/logging.hh"
#include "sim/serialize/packet_serialize.hh"
#include "sim/serialize/registry.hh"
#include "sim/simulation.hh"

namespace emerald::core
{

using gpu::WarpTask;
using gpu::isa::ThreadContext;
using gpu::isa::warpSize;

GraphicsPipeline::GraphicsPipeline(Simulation &sim,
                                   const std::string &name,
                                   gpu::GpuTop &gpu, unsigned fb_width,
                                   unsigned fb_height,
                                   const GfxParams &params)
    : SimObject(sim, name), Clocked(gpu.coreClock(), name),
      statFrames(*this, "frames", "frames rendered"),
      statVertexWarps(*this, "vertex_warps", "vertex warps launched"),
      statPrimsIn(*this, "prims_in", "primitives assembled"),
      statPrimsCulled(*this, "prims_culled",
                      "primitives culled or clipped away"),
      statRasterTiles(*this, "raster_tiles",
                      "covered raster tiles produced"),
      statHizRejects(*this, "hiz_rejects", "raster tiles killed by Hi-Z"),
      statFragments(*this, "fragments", "fragments shaded"),
      statFragWarps(*this, "frag_warps", "fragment warps issued"),
      statTcFlushes(*this, "tc_flushes", "TC tile flushes"),
      statQuietTicks(*this, "quiet_ticks",
                     "ticks that returned at once because nothing "
                     "they read had changed"),
      _gpu(gpu), _params(params), _fbWidth(fb_width),
      _fbHeight(fb_height)
{
    registerProfileCounters();
    _mapping = std::make_unique<WtMapping>(fb_width, fb_height,
                                           gpu.numCores(), 1);
    _hiz = std::make_unique<HiZBuffer>(fb_width, fb_height);
    _clusters.resize(gpu.numClusters());
    for (auto &cluster : _clusters) {
        cluster.tc = std::make_unique<TcUnit>(
            params.tcEnginesPerCluster, params.tcFlushTimeoutCycles,
            params.tcReadyQueueDepth);
    }
    _tcBusy.assign(std::size_t(_mapping->tcCols()) * _mapping->tcRows(),
                   0);

    noc::LinkParams lp;
    lp.latency = ticksFromNs(4.0);
    lp.bytesPerSec = 32e9;
    lp.queueDepth = 64;
    _l2Link = std::make_unique<noc::Link>(sim, name + ".l2link", lp);
    _l2Link->setTarget(gpu.l2());

    registerCheckpointEvent(tickEvent());
    registerCheckpointRequestor(*this);
}

void
GraphicsPipeline::serialize(CheckpointOut &out) const
{
    // Only reached between frames (checkpointSafe()), so the draw
    // queue, clusters and warp counters are all empty; Hi-Z and the
    // framebuffer are cleared at the next beginFrame() anyway (the
    // displayed framebuffer is checkpointed separately by SocTop).
    panic_if(_frameOpen, "%s: serialize with a frame open",
             name().c_str());
    const CheckpointRegistry &reg = sim().checkpointRegistry();
    out.putU64("wt_size", _mapping->wtSize());
    out.putU64("pending_wt_size", _pendingWtSize);
    out.putU64("seq_counter", _seqCounter);
    out.putU64("next_core_rr", _nextCoreRR);
    out.putBool("l2_blocked", _l2Blocked);
    out.putU64("num_l2_traffic", _l2Traffic.size());
    for (std::size_t i = 0; i < _l2Traffic.size(); ++i)
        putPacket(out, strprintf("l2t%zu", i), *_l2Traffic[i], reg);

    out.putU64("last.cycles", _lastFrame.cycles);
    out.putTick("last.start_tick", _lastFrame.startTick);
    out.putTick("last.end_tick", _lastFrame.endTick);
    out.putU64("last.vertices", _lastFrame.vertices);
    out.putU64("last.prims_in", _lastFrame.primsIn);
    out.putU64("last.prims_culled", _lastFrame.primsCulled);
    out.putU64("last.raster_tiles", _lastFrame.rasterTiles);
    out.putU64("last.hiz_rejects", _lastFrame.hizRejects);
    out.putU64("last.fragments", _lastFrame.fragments);
    out.putU64("last.frag_warps", _lastFrame.fragWarps);
    out.putU64("last.wt_size", _lastFrame.wtSize);
}

void
GraphicsPipeline::unserialize(CheckpointIn &in)
{
    panic_if(_frameOpen, "%s: unserialize with a frame open",
             name().c_str());
    const CheckpointRegistry &reg = sim().checkpointRegistry();
    PacketPool &pool = sim().packetPool();

    _mapping->setWtSize(
        static_cast<unsigned>(in.getU64("wt_size")));
    _pendingWtSize =
        static_cast<unsigned>(in.getU64("pending_wt_size"));
    _seqCounter = in.getU64("seq_counter");
    _nextCoreRR = static_cast<unsigned>(in.getU64("next_core_rr"));
    _l2Blocked = in.getBool("l2_blocked");
    std::uint64_t num_l2 = in.getU64("num_l2_traffic");
    for (std::uint64_t i = 0; i < num_l2; ++i) {
        _l2Traffic.push_back(
            getPacket(in, strprintf("l2t%llu", (unsigned long long)i),
                      pool, reg));
    }

    _lastFrame.cycles = in.getU64("last.cycles");
    _lastFrame.startTick = in.getTick("last.start_tick");
    _lastFrame.endTick = in.getTick("last.end_tick");
    _lastFrame.vertices = in.getU64("last.vertices");
    _lastFrame.primsIn = in.getU64("last.prims_in");
    _lastFrame.primsCulled = in.getU64("last.prims_culled");
    _lastFrame.rasterTiles = in.getU64("last.raster_tiles");
    _lastFrame.hizRejects = in.getU64("last.hiz_rejects");
    _lastFrame.fragments = in.getU64("last.fragments");
    _lastFrame.fragWarps = in.getU64("last.frag_warps");
    _lastFrame.wtSize =
        static_cast<unsigned>(in.getU64("last.wt_size"));
}

void
GraphicsPipeline::beginFrame(Framebuffer *fb)
{
    panic_if(_frameOpen, "beginFrame with a frame already open");
    panic_if(fb->width() != _fbWidth || fb->height() != _fbHeight,
             "framebuffer size mismatch");
    _fb = fb;
    _fb->clear();
    if (_pendingWtSize != 0) {
        _mapping->setWtSize(_pendingWtSize);
        _pendingWtSize = 0;
    }
    _hiz->clear();
    _frameOpen = true;
    _endRequested = false;
    _frame = FrameStats{};
    _frame.startTick = curTick();
    _frame.wtSize = _mapping->wtSize();
    wake();
}

void
GraphicsPipeline::submitDraw(DrawCall draw)
{
    panic_if(!_frameOpen, "submitDraw without beginFrame");
    panic_if(!draw.vertexProgram || !draw.fragmentProgram,
             "draw call missing shader programs");
    panic_if(draw.numVaryings > maxVaryings, "too many varyings");
    _drawQueue.push_back(std::move(draw));
    wake();
}

void
GraphicsPipeline::endFrame(std::function<void(const FrameStats &)> cb)
{
    panic_if(!_frameOpen, "endFrame without beginFrame");
    _endRequested = true;
    _frameCallback = std::move(cb);
    wake();
}

void
GraphicsPipeline::startNextDraw()
{
    _activeDraw.emplace(std::move(_drawQueue.front()));
    _drawQueue.pop_front();
    _seqCounter = 0;
    _nextPrim = 0;
    for (auto &cluster : _clusters)
        cluster.pmrb.reset();
    _maskConsumeRemaining.clear();
    _fb->setDepthWrite(_activeDraw->state.depthTest &&
                       _activeDraw->state.depthWrite);
}

bool
GraphicsPipeline::drawFullyDrained() const
{
    if (!_activeDraw)
        return true;
    if (_nextPrim < _activeDraw->primitiveCount())
        return false;
    if (_vertexWarpsOutstanding > 0 || _vertexWarpsInFlight > 0)
        return false;
    for (const auto &cluster : _clusters) {
        if (!cluster.pmrb.empty() || !cluster.setupQueue.empty() ||
            cluster.raster || !cluster.fineQueue.empty() ||
            !cluster.tc->empty()) {
            return false;
        }
    }
    return _fragWarpsOutstanding == 0;
}

void
GraphicsPipeline::pushL2Read(Addr addr, AccessKind kind)
{
    _l2Traffic.push_back(sim().packetPool().alloc(
        addr & ~Addr(127), 128, false, TrafficClass::Gpu, kind,
        gpu::gpuRequestorId, nullptr));
}

void
GraphicsPipeline::pushL2Write(Addr addr, AccessKind kind)
{
    _l2Traffic.push_back(sim().packetPool().alloc(
        addr & ~Addr(127), 128, true, TrafficClass::Gpu, kind,
        gpu::gpuRequestorId, nullptr));
}

bool
GraphicsPipeline::drainL2Traffic()
{
    if (_l2Blocked || _l2Traffic.empty())
        return false;
    while (!_l2Traffic.empty()) {
        if (!_l2Link->offer(_l2Traffic.front(), *this)) {
            _l2Blocked = true;
            return true;
        }
        _l2Traffic.pop_front();
    }
    return true;
}

void
GraphicsPipeline::retryRequest()
{
    _l2Blocked = false;
    drainL2Traffic();
    wake();
}

bool
GraphicsPipeline::launchVertexWarp()
{
    DrawCall &draw = *_activeDraw;
    const bool strips =
        draw.primType == PrimitiveType::TriangleStrip;
    const unsigned total_prims = draw.primitiveCount();
    // Overlapped vertex warps (Section 3.3.3): strips share two
    // vertices between consecutive primitives, so a 32-vertex warp
    // carries 30 primitives; independent triangles carry 10.
    const unsigned cap = strips ? warpSize - 2 : warpSize / 3;

    unsigned base_prim = _nextPrim;
    unsigned prim_count = std::min(cap, total_prims - base_prim);
    unsigned first_vert = strips ? base_prim : base_prim * 3;
    unsigned vert_count =
        strips ? prim_count + 2 : prim_count * 3;
    std::uint64_t first_seq = _seqCounter;

    WarpTask task;
    task.type = gpu::WarpTaskType::Vertex;
    task.program = draw.vertexProgram;
    task.env.global = draw.memory;
    task.env.constants = draw.constants.data();
    task.env.numConstants =
        static_cast<unsigned>(draw.constants.size());
    task.env.textures = draw.textures;

    std::uint32_t mask = 0;
    for (unsigned lane = 0; lane < vert_count && lane < warpSize;
         ++lane) {
        mask |= 1u << lane;
        ThreadContext &t = task.threads[lane];
        unsigned vid = first_vert + lane;
        t.vertexId = vid;
        // Functional attribute fetch.
        unsigned n = std::min(draw.floatsPerVertex,
                              gpu::isa::maxAttrs);
        if (draw.memory) {
            draw.memory->read(draw.vertexBufferAddr +
                                  Addr(vid) * draw.strideBytes(),
                              t.a, n * 4);
        }
        // Timing: vertex fetch traffic (64 B granules over the
        // vertex's extent).
        Addr vaddr = draw.vertexBufferAddr +
                     Addr(vid) * draw.strideBytes();
        for (unsigned off = 0; off < draw.strideBytes(); off += 64) {
            task.initFetch.push_back(
                {vaddr + off, 4, false});
        }
    }
    task.activeMask = mask;
    task.initFetchKind = AccessKind::Vertex;

    task.onComplete = [this, first_seq, base_prim, prim_count,
                       first_vert, vert_count](WarpTask &,
                                               ThreadContext *threads) {
        assembleVertexWarp(first_seq, base_prim, prim_count, first_vert,
                           vert_count, threads);
    };

    // Round-robin core placement.
    bool placed = false;
    for (unsigned attempt = 0; attempt < _gpu.numCores(); ++attempt) {
        unsigned idx = (_nextCoreRR + attempt) % _gpu.numCores();
        // Copy the task only on success: tryAddTask moves it.
        if (_gpu.core(idx).tryAddTask(WarpTask(task))) {
            _nextCoreRR = (idx + 1) % _gpu.numCores();
            placed = true;
            break;
        }
    }
    if (!placed)
        return false; // All cores busy; retry next cycle.

    _nextPrim += prim_count;
    _seqCounter += prim_count;
    ++_vertexWarpsInFlight;
    ++_vertexWarpsOutstanding;
    ++statVertexWarps;
    _frame.vertices += vert_count;
    return true;
}

void
GraphicsPipeline::assembleVertexWarp(std::uint64_t first_seq,
                                     unsigned base_prim,
                                     unsigned prim_count, unsigned,
                                     unsigned vert_count,
                                     isa_threads_t threads)
{
    DrawCall &draw = *_activeDraw;
    const bool strips =
        draw.primType == PrimitiveType::TriangleStrip;
    const unsigned nv = draw.numVaryings;

    auto prims = std::make_shared<std::vector<PrimRecord>>(prim_count);

    for (unsigned p = 0; p < prim_count; ++p) {
        PrimRecord &rec = (*prims)[p];
        rec.seq = first_seq + p;

        unsigned lanes[3];
        if (strips) {
            unsigned global_prim = base_prim + p;
            if (global_prim & 1) {
                lanes[0] = p + 1;
                lanes[1] = p;
                lanes[2] = p + 2;
            } else {
                lanes[0] = p;
                lanes[1] = p + 1;
                lanes[2] = p + 2;
            }
        } else {
            lanes[0] = p * 3;
            lanes[1] = p * 3 + 1;
            lanes[2] = p * 3 + 2;
        }

        ClipVertex cv[3];
        bool lane_ok = true;
        for (int i = 0; i < 3; ++i) {
            if (lanes[i] >= vert_count) {
                lane_ok = false;
                break;
            }
            const ThreadContext &t = threads[lanes[i]];
            cv[i].pos = {t.o[0], t.o[1], t.o[2], t.o[3]};
            for (unsigned a = 0; a < nv && a < maxVaryings; ++a)
                cv[i].attrs[a] = t.o[4 + a];
        }
        ++statPrimsIn;
        ++_frame.primsIn;
        if (!lane_ok) {
            ++statPrimsCulled;
            ++_frame.primsCulled;
            continue;
        }

        ClipResult clipped;
        if (!clipTriangle(cv, clipped)) {
            ++statPrimsCulled;
            ++_frame.primsCulled;
            continue;
        }

        for (unsigned ct = 0; ct < clipped.count; ++ct) {
            ScreenVertex sv[3];
            for (int i = 0; i < 3; ++i) {
                const ClipVertex &v = clipped.tris[ct][i];
                sv[i] = viewportTransform(v.pos, v.attrs.data(), nv,
                                          _fbWidth, _fbHeight);
            }
            SetupPrim setup;
            if (!setupPrimitive(sv, _fbWidth, _fbHeight,
                                draw.state.cullBackface, setup)) {
                continue;
            }
            if (rec.tris.empty()) {
                rec.tcX0 = setup.tileX0 /
                           static_cast<int>(tcTileRasterTiles);
                rec.tcY0 = setup.tileY0 /
                           static_cast<int>(tcTileRasterTiles);
                rec.tcX1 = setup.tileX1 /
                           static_cast<int>(tcTileRasterTiles);
                rec.tcY1 = setup.tileY1 /
                           static_cast<int>(tcTileRasterTiles);
            } else {
                rec.tcX0 = std::min(
                    rec.tcX0,
                    setup.tileX0 / static_cast<int>(tcTileRasterTiles));
                rec.tcY0 = std::min(
                    rec.tcY0,
                    setup.tileY0 / static_cast<int>(tcTileRasterTiles));
                rec.tcX1 = std::max(
                    rec.tcX1,
                    setup.tileX1 / static_cast<int>(tcTileRasterTiles));
                rec.tcY1 = std::max(
                    rec.tcY1,
                    setup.tileY1 / static_cast<int>(tcTileRasterTiles));
            }
            rec.tris.push_back(setup);
        }
        if (rec.tris.empty()) {
            ++statPrimsCulled;
            ++_frame.primsCulled;
        }
    }

    // OVB write traffic: shaded vertex outputs spill to L2.
    Addr ovb_first = _params.ovbBase +
                     (first_seq % 4096) * _params.ovbVertexBytes * 3;
    for (unsigned off = 0;
         off < vert_count * _params.ovbVertexBytes; off += 128) {
        pushL2Write(ovb_first + off, AccessKind::Vertex);
    }

    // VPO: cluster masks and PMRB delivery (paper Fig. 6).
    std::vector<std::uint32_t> masks = computeClusterMasks(
        *prims, *_mapping, _gpu.coresPerCluster(), _gpu.numClusters());

    for (unsigned c = 0; c < _clusters.size(); ++c) {
        PrimitiveMask mask;
        mask.firstSeq = first_seq;
        mask.count = prim_count;
        mask.bits = masks[c];
        mask.prims = prims;
        _clusters[c].pmrb.insert(std::move(mask));
    }
    _maskConsumeRemaining[first_seq] =
        static_cast<unsigned>(_clusters.size());

    panic_if(_vertexWarpsOutstanding == 0,
             "vertex warp over-completion");
    --_vertexWarpsOutstanding;
    wake();
}

bool
GraphicsPipeline::tickVertexDistribution()
{
    if (!_activeDraw)
        return false;
    if (_nextPrim >= _activeDraw->primitiveCount())
        return false;
    if (_vertexWarpsInFlight >= _params.maxVertexWarpsInFlight)
        return false;
    return launchVertexWarp();
}

bool
GraphicsPipeline::tickClusterPmrb(ClusterState &cluster)
{
    // Out-of-order release is safe only for depth-tested,
    // non-blended draws (paper Section 3.3.6).
    bool ooo = _params.oooPrimitives && _activeDraw &&
               _activeDraw->state.depthTest &&
               !_activeDraw->state.blend;
    bool moved = false;
    while (ooo ? cluster.pmrb.anyReady() : cluster.pmrb.headReady()) {
        if (cluster.setupQueue.size() >= _params.setupQueueDepth)
            return moved;
        moved = true;

        PrimitiveMask mask =
            ooo ? cluster.pmrb.popAnyReady() : cluster.pmrb.popHead();
        std::uint32_t bits = mask.bits;
        for (unsigned slot = 0; slot < mask.count; ++slot) {
            if (!(bits & (1u << slot)))
                continue;
            const PrimRecord &rec = (*mask.prims)[slot];
            if (rec.culled())
                continue;
            cluster.setupQueue.push_back({mask.prims, &rec});
        }

        auto it = _maskConsumeRemaining.find(mask.firstSeq);
        panic_if(it == _maskConsumeRemaining.end(),
                 "unknown mask consume record");
        if (--it->second == 0) {
            _maskConsumeRemaining.erase(it);
            panic_if(_vertexWarpsInFlight == 0,
                     "vertex warp credit underflow");
            --_vertexWarpsInFlight;
        }
    }
    return moved;
}

bool
GraphicsPipeline::tickClusterSetup(ClusterState &cluster)
{
    if (cluster.raster || cluster.setupQueue.empty())
        return false;
    SetupItem item = std::move(cluster.setupQueue.front());
    cluster.setupQueue.pop_front();

    // Setup fetches the three shaded vertices from L2 (paper: the
    // setup stage uses primitive IDs to fetch vertex data from L2).
    Addr base = _params.ovbBase +
                (item.prim->seq % 4096) * _params.ovbVertexBytes * 3;
    for (unsigned v = 0; v < 3; ++v)
        pushL2Read(base + v * _params.ovbVertexBytes,
                   AccessKind::Vertex);

    RasterJob &job = cluster.raster.emplace();
    job.holder = std::move(item.holder);
    job.prim = item.prim;
    job.tx = item.prim->tris.empty() ? 0 : item.prim->tris[0].tileX0;
    job.ty = item.prim->tris.empty() ? 0 : item.prim->tris[0].tileY0;
    return true;
}

bool
GraphicsPipeline::tickClusterRaster(unsigned cluster_idx,
                                    ClusterState &cluster)
{
    if (!cluster.raster)
        return false;
    RasterJob &job = *cluster.raster;
    const DrawCall &draw = *_activeDraw;
    const std::size_t entry_tri = job.tri;
    const int entry_tx = job.tx;
    const int entry_ty = job.ty;

    unsigned covered_budget = _params.coveredTilesPerCycle;
    unsigned skip_budget = _params.coarseSkipPerCycle;

    while (covered_budget > 0 && skip_budget > 0) {
        if (job.tri >= job.prim->tris.size()) {
            cluster.raster.reset();
            return true;
        }
        const SetupPrim &prim = job.prim->tris[job.tri];

        if (job.ty > prim.tileY1) {
            // Triangle finished; move to the next clipped triangle.
            ++job.tri;
            if (job.tri < job.prim->tris.size()) {
                job.tx = job.prim->tris[job.tri].tileX0;
                job.ty = job.prim->tris[job.tri].tileY0;
            }
            continue;
        }

        int tx = job.tx;
        int ty = job.ty;
        // Advance the scan position.
        if (++job.tx > prim.tileX1) {
            job.tx = prim.tileX0;
            ++job.ty;
        }

        // Coarse raster: only tiles owned by this cluster.
        unsigned tc_x = static_cast<unsigned>(tx) / tcTileRasterTiles;
        unsigned tc_y = static_cast<unsigned>(ty) / tcTileRasterTiles;
        unsigned owner_core = _mapping->coreOf(tc_x, tc_y);
        if (owner_core / _gpu.coresPerCluster() != cluster_idx) {
            --skip_budget;
            continue;
        }

        // Fine raster, once per tile: a stall below rewinds the scan
        // to this tile, and the next visit takes it from the job.
        FragmentTile &tile = job.tile;
        if (job.tileTri != job.tri || tile.tileX != tx ||
            tile.tileY != ty) {
            job.tileTri = job.tri;
            rasterizeTile(prim, tx, ty, draw.numVaryings, _fbWidth,
                          _fbHeight, tile);
            job.minZ = 1.0f;
            job.maxZ = 0.0f;
            for (unsigned p = 0; p < rasterTilePixels; ++p) {
                if (tile.coverMask & (1u << p)) {
                    job.minZ = std::min(job.minZ, tile.z[p]);
                    job.maxZ = std::max(job.maxZ, tile.z[p]);
                }
            }
        }
        if (tile.coverMask == 0) {
            --skip_budget;
            continue;
        }

        // Hi-Z (paper Fig. 3 stage J).
        if (_params.hizEnabled && draw.state.depthTest) {
            if (!_hiz->test(tx, ty, job.minZ)) {
                _hiz->noteRejected();
                ++statHizRejects;
                ++_frame.hizRejects;
                --covered_budget;
                continue;
            }
            if (tile.fullyCovered() && draw.state.depthWrite &&
                !draw.fragmentProgram->usesDiscard) {
                _hiz->update(tx, ty, job.maxZ);
            }
        }

        if (cluster.fineQueue.size() >= _params.fineQueueDepth) {
            // Back-pressure: rewind the scan position and stall. A
            // stall on the tile the tick began at is a fixed point,
            // not movement: the next visit takes the tile from the
            // job, passes Hi-Z again (its own update left the bound
            // >= minZ) and stalls the same way (docs/scheduling.md).
            job.tx = tx;
            job.ty = ty;
            return job.tri != entry_tri || tx != entry_tx ||
                   ty != entry_ty;
        }
        cluster.fineQueue.push_back(tile);
        ++statRasterTiles;
        ++_frame.rasterTiles;
        --covered_budget;
    }
    return true;
}

void
GraphicsPipeline::issueInstance(TcInstance &&instance)
{
    const DrawCall &draw = *_activeDraw;
    unsigned tc_idx = _mapping->tcIndex(instance.tcX, instance.tcY);
    unsigned core_idx = _mapping->coreOf(instance.tcX, instance.tcY);

    // Gather fragments.
    struct Frag
    {
        int x, y;
        float z;
        const std::array<float, maxVaryings> *attrs;
    };
    std::vector<Frag> frags;
    frags.reserve(tcTilePx * tcTilePx);
    for (const auto &tile : instance.tiles) {
        if (!tile)
            continue;
        int base_x = tile->tileX * static_cast<int>(rasterTilePx);
        int base_y = tile->tileY * static_cast<int>(rasterTilePx);
        for (unsigned p = 0; p < rasterTilePixels; ++p) {
            if (!(tile->coverMask & (1u << p)))
                continue;
            int x = base_x + static_cast<int>(p % rasterTilePx);
            int y = base_y + static_cast<int>(p / rasterTilePx);
            frags.push_back({x, y, tile->z[p], &tile->attrs[p]});
        }
    }
    panic_if(frags.empty(), "empty TC instance issued");

    unsigned warps = static_cast<unsigned>(
        divCeil(frags.size(), warpSize));
    auto remaining = std::make_shared<unsigned>(warps);

    for (unsigned w = 0; w < warps; ++w) {
        WarpTask task;
        task.type = gpu::WarpTaskType::Fragment;
        task.program = draw.fragmentProgram;
        task.env.textures = draw.textures;
        task.env.rop = _fb;
        task.env.global = draw.memory;
        task.env.constants = draw.constants.data();
        task.env.numConstants =
            static_cast<unsigned>(draw.constants.size());

        std::uint32_t mask = 0;
        for (unsigned lane = 0; lane < warpSize; ++lane) {
            std::size_t f = std::size_t(w) * warpSize + lane;
            if (f >= frags.size())
                break;
            mask |= 1u << lane;
            ThreadContext &t = task.threads[lane];
            t.fragX = frags[f].x;
            t.fragY = frags[f].y;
            t.fragZ = frags[f].z;
            unsigned nv = draw.numVaryings;
            for (unsigned a = 0; a < nv && a < maxVaryings; ++a)
                t.a[a] = (*frags[f].attrs)[a];
        }
        task.activeMask = mask;
        task.tag = tc_idx;

        task.onComplete = [this, remaining, tc_idx](
                              WarpTask &, ThreadContext *) {
            panic_if(_fragWarpsOutstanding == 0,
                     "fragment warp over-completion");
            --_fragWarpsOutstanding;
            if (--*remaining == 0)
                _tcBusy[tc_idx] = 0;
            wake();
        };

        bool ok = _gpu.core(core_idx).tryAddTask(std::move(task));
        panic_if(!ok, "core rejected fragment warp after space check");
    }

    _tcBusy[tc_idx] = 1;
    _fragWarpsOutstanding += warps;
    statFragWarps += warps;
    _frame.fragWarps += warps;
    statFragments += static_cast<double>(frags.size());
    _frame.fragments += frags.size();
    if (_progressListener)
        _progressListener(_frame.fragments);
}

bool
GraphicsPipeline::tickClusterTc(unsigned, ClusterState &cluster)
{
    // Stage raster tiles into TC engines (up to 2 per cycle). A
    // refused tile leaves the unit as it was.
    bool moved = false;
    for (int n = 0; n < 2 && !cluster.fineQueue.empty(); ++n) {
        if (!cluster.tc->tryAdd(cluster.fineQueue.front(), curCycle()))
            break;
        cluster.fineQueue.pop_front();
        moved = true;
    }
    moved |= cluster.tc->tickTimeouts(curCycle());

    // Issue at most one coalesced instance per cycle, gated by the
    // per-position interlock and the target core's queue space.
    if (!cluster.tc->hasReady())
        return moved;
    const TcInstance &head = cluster.tc->peekReady();
    unsigned tc_idx = _mapping->tcIndex(head.tcX, head.tcY);
    if (_tcBusy[tc_idx])
        return moved;
    unsigned core_idx = _mapping->coreOf(head.tcX, head.tcY);
    unsigned warps = static_cast<unsigned>(
        divCeil(head.fragmentCount(), warpSize));
    gpu::SimtCore &core = _gpu.core(core_idx);
    if (core.queuedTasks() + warps > core.params().taskQueueDepth)
        return moved;
    TcInstance instance = cluster.tc->popReady();
    ++statTcFlushes;
    issueInstance(std::move(instance));
    return true;
}

bool
GraphicsPipeline::tickCluster(unsigned cluster_idx)
{
    ClusterState &cluster = _clusters[cluster_idx];
    bool moved = tickClusterTc(cluster_idx, cluster);
    moved |= tickClusterRaster(cluster_idx, cluster);
    moved |= tickClusterSetup(cluster);
    moved |= tickClusterPmrb(cluster);

    // Draw drain: flush partially staged TC tiles once upstream is
    // dry for this cluster.
    if (_activeDraw && _nextPrim >= _activeDraw->primitiveCount() &&
        _vertexWarpsOutstanding == 0 && cluster.pmrb.empty() &&
        cluster.setupQueue.empty() && !cluster.raster &&
        cluster.fineQueue.empty()) {
        moved |= cluster.tc->drain();
    }
    return moved;
}

bool
GraphicsPipeline::maybeFinishFrame()
{
    bool moved = false;
    if (_activeDraw && drawFullyDrained()) {
        _activeDraw.reset();
        moved = true;
    }
    if (!_activeDraw && !_drawQueue.empty()) {
        startNextDraw();
        moved = true;
    }

    if (_endRequested && !_activeDraw && _drawQueue.empty() &&
        _fragWarpsOutstanding == 0) {
        _frameOpen = false;
        _endRequested = false;
        _frame.endTick = curTick();
        _frame.cycles = (_frame.endTick - _frame.startTick) /
                        clockDomain().period();
        ++statFrames;
        _lastFrame = _frame;
        if (_frameCallback) {
            auto cb = std::move(_frameCallback);
            _frameCallback = nullptr;
            cb(_lastFrame);
        }
        return true;
    }
    return moved;
}

void
GraphicsPipeline::wake()
{
    _quiet = false;
    activate();
}

std::uint64_t
GraphicsPipeline::tasksLaunched()
{
    std::uint64_t launched = 0;
    for (unsigned i = 0; i < _gpu.numCores(); ++i)
        launched += _gpu.core(i).tasksLaunched();
    return launched;
}

bool
GraphicsPipeline::tick()
{
    if (!_frameOpen)
        return false;

    // A quiet tick: the last full tick moved nothing and no input has
    // changed since, so this one would move nothing either. Checked
    // builds run it in full and panic if it moves.
    const bool quiet = _quiet && curCycle() < _quietUntil &&
                       tasksLaunched() == _quietLaunches;
    if (quiet) {
        ++statQuietTicks;
#ifndef EMERALD_CHECKS
        return true;
#endif
    }

    // Set before the stages run, so a wake() from inside them wins.
    _quiet = true;
    bool moved = false;
    for (unsigned c = 0; c < _clusters.size(); ++c)
        moved |= tickCluster(c);
    moved |= tickVertexDistribution();
    moved |= drainL2Traffic();
    moved |= maybeFinishFrame();

    const bool more = _frameOpen && stayAwake();
    panic_if(quiet && (moved || !more), "%s: quiet tick moved",
             name().c_str());
    _quiet = _quiet && !moved && more;
    if (_quiet) {
        _quietUntil = TcUnit::neverCycle;
        for (const ClusterState &cluster : _clusters) {
            _quietUntil =
                std::min(_quietUntil, cluster.tc->nextTimeoutCycle());
        }
        _quietLaunches = tasksLaunched();
    }
    return more;
}

bool
GraphicsPipeline::stayAwake() const
{
    // Sleep while the only possible progress is a warp completion
    // (vertex assembly or fragment retirement), both of which call
    // wake(). Any live fixed-function work keeps us ticking.
    bool ooo = _params.oooPrimitives && _activeDraw &&
               _activeDraw->state.depthTest &&
               !_activeDraw->state.blend;
    for (const ClusterState &cluster : _clusters) {
        if (!cluster.setupQueue.empty() || cluster.raster ||
            !cluster.fineQueue.empty() || !cluster.tc->empty() ||
            (ooo ? cluster.pmrb.anyReady()
                 : cluster.pmrb.headReady())) {
            return true;
        }
    }
    if (!_l2Traffic.empty() && !_l2Blocked)
        return true;
    if (_activeDraw && _nextPrim < _activeDraw->primitiveCount() &&
        _vertexWarpsInFlight < _params.maxVertexWarpsInFlight) {
        return true;
    }
    if (!_activeDraw && !_drawQueue.empty())
        return true;
    return false;
}

} // namespace emerald::core
