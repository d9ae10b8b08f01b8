/**
 * @file
 * The Emerald graphics pipeline (paper Fig. 3), mapped onto the SIMT
 * cores of a GpuTop:
 *
 *   A-C  vertex distribution: overlapped vertex warp batches issued
 *        round-robin to SIMT cores (Section 3.3.3)
 *   D-E  primitive assembly + clipping/culling on warp completion
 *   F    VPO: bounding boxes -> per-cluster primitive masks -> PMRB
 *   G    per-cluster setup (+ vertex data fetch from L2)
 *   H-I  coarse + fine rasterization (1 raster tile/cycle)
 *   J    Hi-Z rejection
 *   K    TC stage: tile coalescing, per-position interlock
 *   L-N  in-shader ROP (ZTEST/BLEND/STFB woven by ShaderBuilder)
 *   O    framebuffer commit
 *
 * Work-tile granularity (WT) controls the TC-tile-to-core mapping;
 * DFSL (case study II) retunes it between frames.
 */

#ifndef EMERALD_CORE_GRAPHICS_PIPELINE_HH
#define EMERALD_CORE_GRAPHICS_PIPELINE_HH

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "core/draw_call.hh"
#include "core/framebuffer.hh"
#include "core/hiz.hh"
#include "core/tc_stage.hh"
#include "core/vpo_unit.hh"
#include "core/wt_mapping.hh"
#include "gpu/gpu_top.hh"
#include "noc/link.hh"
#include "sim/sim_object.hh"

namespace emerald::core
{

/** Fixed-function pipeline configuration (paper Table 7 defaults). */
struct GfxParams
{
    unsigned setupQueueDepth = 8;
    unsigned fineQueueDepth = 8;
    /** Covered raster tiles emitted per cluster per cycle. */
    unsigned coveredTilesPerCycle = 1;
    /** Empty candidate raster tiles skipped per cluster per cycle. */
    unsigned coarseSkipPerCycle = 32;
    bool hizEnabled = true;
    unsigned tcEnginesPerCluster = 2;
    unsigned tcReadyQueueDepth = 8;
    unsigned tcFlushTimeoutCycles = 32;
    unsigned maxVertexWarpsInFlight = 8;
    /**
     * Out-of-order primitive rendering (paper Section 3.3.6,
     * implemented here as an extension): when a draw has depth
     * testing enabled and blending disabled, the PMRB may release
     * buffered primitives without waiting for earlier vertex warps.
     */
    bool oooPrimitives = false;
    /** Output vertex buffer address range (timing only). */
    Addr ovbBase = 0xA0000000ULL;
    unsigned ovbVertexBytes = 48;
};

/** Per-frame result counters. */
struct FrameStats
{
    std::uint64_t cycles = 0;
    Tick startTick = 0;
    Tick endTick = 0;
    std::uint64_t vertices = 0;
    std::uint64_t primsIn = 0;
    std::uint64_t primsCulled = 0;
    std::uint64_t rasterTiles = 0;
    std::uint64_t hizRejects = 0;
    std::uint64_t fragments = 0;
    std::uint64_t fragWarps = 0;
    unsigned wtSize = 1;
};

class GraphicsPipeline : public SimObject,
                         public Clocked,
                         public MemRequestor
{
  public:
    GraphicsPipeline(Simulation &sim, const std::string &name,
                     gpu::GpuTop &gpu, unsigned fb_width,
                     unsigned fb_height, const GfxParams &params);

    /** Change WT granularity (takes effect at the next frame). */
    void setWtSize(unsigned wt_size) { _pendingWtSize = wt_size; }
    unsigned wtSize() const { return _mapping->wtSize(); }

    /** Start a frame targeting @p fb (cleared functionally). */
    void beginFrame(Framebuffer *fb);

    void submitDraw(DrawCall draw);

    /**
     * Mark the frame complete; @p on_done fires when every draw has
     * fully drained through fragment shading.
     */
    void endFrame(std::function<void(const FrameStats &)> on_done);

    bool frameOpen() const { return _frameOpen; }
    const FrameStats &lastFrame() const { return _lastFrame; }

    /** The L2 link has room again; resume draining fixed-function
     * traffic. */
    void retryRequest() override;
    std::string requestorName() const override { return name(); }
    WtMapping &mapping() { return *_mapping; }
    unsigned fbWidth() const { return _fbWidth; }
    unsigned fbHeight() const { return _fbHeight; }

    /** Fragments shaded so far in the open frame (DASH progress). */
    std::uint64_t
    currentFrameFragments() const
    {
        return _frame.fragments;
    }

    /**
     * Register a fine-grained progress listener, invoked whenever
     * fragment work is issued (drives DASH deadline tracking).
     */
    void
    setProgressListener(std::function<void(std::uint64_t)> listener)
    {
        _progressListener = std::move(listener);
    }

    void serialize(CheckpointOut &out) const override;
    void unserialize(CheckpointIn &in) override;
    /** An open frame's in-flight pipeline state does not round-trip. */
    bool checkpointSafe() const override { return !_frameOpen; }

    /** @{ Statistics. */
    Scalar statFrames;
    Scalar statVertexWarps;
    Scalar statPrimsIn;
    Scalar statPrimsCulled;
    Scalar statRasterTiles;
    Scalar statHizRejects;
    Scalar statFragments;
    Scalar statFragWarps;
    Scalar statTcFlushes;
    /** @} */

  protected:
    bool tick() override;

  private:
    using PrimVec = std::shared_ptr<std::vector<PrimRecord>>;
    using isa_threads_t = gpu::isa::ThreadContext *;

    struct SetupItem
    {
        PrimVec holder;
        const PrimRecord *prim;
    };

    struct RasterJob
    {
        PrimVec holder;
        const PrimRecord *prim = nullptr;
        std::size_t tri = 0;
        int tx = 0;
        int ty = 0;
        /**
         * The last tile rasterized (of triangle tileTri) and the
         * min/max z over its covered pixels. A tile that fine-queue
         * backpressure turned away is reused when the scan returns
         * to it; rasterizeTile() is a pure function of its inputs.
         * Uncovered slots hold stale values and are never read.
         */
        FragmentTile tile;
        std::size_t tileTri = ~std::size_t(0);
        float minZ = 1.0f;
        float maxZ = 0.0f;
    };

    struct ClusterState
    {
        Pmrb pmrb;
        std::deque<SetupItem> setupQueue;
        std::optional<RasterJob> raster;
        std::deque<FragmentTile> fineQueue;
        std::unique_ptr<TcUnit> tc;
    };

    void startNextDraw();
    bool drawFullyDrained() const;
    void tickVertexDistribution();
    void launchVertexWarp();
    void assembleVertexWarp(std::uint64_t first_seq, unsigned base_prim,
                            unsigned prim_count, unsigned first_vert,
                            unsigned vert_count,
                            isa_threads_t threads);
    void tickCluster(unsigned cluster_idx);
    void tickClusterPmrb(ClusterState &cluster);
    void tickClusterSetup(ClusterState &cluster);
    void tickClusterRaster(unsigned cluster_idx, ClusterState &cluster);
    void tickClusterTc(unsigned cluster_idx, ClusterState &cluster);
    void issueInstance(TcInstance &&instance);
    void pushL2Read(Addr addr, AccessKind kind);
    void pushL2Write(Addr addr, AccessKind kind);
    void drainL2Traffic();
    void maybeFinishFrame();

    gpu::GpuTop &_gpu;
    GfxParams _params;
    unsigned _fbWidth;
    unsigned _fbHeight;

    std::unique_ptr<WtMapping> _mapping;
    unsigned _pendingWtSize = 0;
    std::unique_ptr<HiZBuffer> _hiz;
    Framebuffer *_fb = nullptr;

    std::deque<DrawCall> _drawQueue;
    std::optional<DrawCall> _activeDraw;
    bool _frameOpen = false;
    bool _endRequested = false;
    std::function<void(const FrameStats &)> _frameCallback;
    FrameStats _frame;
    FrameStats _lastFrame;

    /** Draw-local primitive sequence numbering. */
    std::uint64_t _seqCounter = 0;
    unsigned _nextPrim = 0;
    unsigned _vertexWarpsInFlight = 0;
    unsigned _vertexWarpsOutstanding = 0;
    unsigned _nextCoreRR = 0;
    std::uint64_t _fragWarpsOutstanding = 0;

    /** firstSeq -> clusters that still must consume the mask. */
    std::map<std::uint64_t, unsigned> _maskConsumeRemaining;

    std::vector<ClusterState> _clusters;

    /** Per-TC-position busy flags (Fig. 7 element 7). */
    std::vector<char> _tcBusy;

    std::unique_ptr<noc::Link> _l2Link;
    std::deque<MemPacket *> _l2Traffic;
    /** Head of _l2Traffic was rejected; wait for retryRequest(). */
    bool _l2Blocked = false;

    std::function<void(std::uint64_t)> _progressListener;
};

} // namespace emerald::core

#endif // EMERALD_CORE_GRAPHICS_PIPELINE_HH
