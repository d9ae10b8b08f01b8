/**
 * @file
 * Draw-call trace recording and replay.
 *
 * The paper's standalone mode plays APITrace captures through the
 * simulator, and its full-system graphics checkpointing "works by
 * recording all draw calls sent by the system" and replaying them to
 * restore graphics state (Section 4). This module provides the
 * equivalent facility natively: a Trace captures complete frames
 * (shader sources, render state, vertex data, constants, textures),
 * saves to a directory in the checkpoint codec's container
 * (sim/serialize/serialize.hh: typed records, per-section CRC-32), and
 * a TracePlayer replays frames through any GraphicsPipeline,
 * bit-identically to the original submission.
 */

#ifndef EMERALD_CORE_TRACE_HH
#define EMERALD_CORE_TRACE_HH

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/graphics_pipeline.hh"
#include "core/shader_builder.hh"

namespace emerald::core
{

/** A texture binding captured in a trace. */
struct TraceTexture
{
    int unit = 0;
    unsigned width = 0;
    unsigned height = 0;
    std::vector<std::uint32_t> texels;
};

/** One recorded draw call, self-contained. */
struct TraceDraw
{
    std::string vsSource;
    /** User fragment source (ROP is rebuilt from the state). */
    std::string fsSource;
    PrimitiveType primType = PrimitiveType::Triangles;
    RenderState state;
    unsigned floatsPerVertex = 0;
    unsigned numVaryings = 0;
    std::vector<float> vertexData;
    std::vector<float> constants;
    std::vector<TraceTexture> textures;

    unsigned
    vertexCount() const
    {
        return floatsPerVertex
                   ? static_cast<unsigned>(vertexData.size() /
                                           floatsPerVertex)
                   : 0;
    }
};

/** A recorded stream of frames. */
struct Trace
{
    unsigned fbWidth = 0;
    unsigned fbHeight = 0;
    std::vector<std::vector<TraceDraw>> frames;

    void beginFrame() { frames.emplace_back(); }
    void
    recordDraw(TraceDraw draw)
    {
        frames.back().push_back(std::move(draw));
    }
};

/** Write @p trace to directory @p dir (fatal on I/O failure). */
void saveTrace(const std::string &dir, const Trace &trace);

/**
 * Load the trace in directory @p dir. A directory that fails the
 * codec's integrity probe (missing, truncated, CRC mismatch) or holds
 * no draw-call trace of this format comes back empty, with a warning.
 */
std::optional<Trace> loadTrace(const std::string &dir);

/**
 * Replays a loaded trace through a pipeline: uploads vertex data,
 * rebuilds textures and shader programs (cached across draws), and
 * submits frames on demand.
 */
class TracePlayer
{
  public:
    TracePlayer(GraphicsPipeline &pipeline, Trace trace,
                mem::FunctionalMemory &memory);

    unsigned
    frameCount() const
    {
        return static_cast<unsigned>(_trace.frames.size());
    }

    /** Submit frame @p idx; @p on_done fires when it drains. */
    void playFrame(unsigned idx,
                   std::function<void(const FrameStats &)> on_done);

    Framebuffer &framebuffer() { return *_fb; }

  private:
    struct DrawAssets
    {
        Addr vertexBuffer = 0;
        const gpu::isa::Program *vs = nullptr;
        const gpu::isa::Program *fs = nullptr;
        std::unique_ptr<TextureSet> textures;
        std::vector<std::unique_ptr<Texture>> textureObjs;
    };

    DrawAssets &assetsFor(unsigned frame, unsigned draw_idx);

    GraphicsPipeline &_pipeline;
    Trace _trace;
    mem::FunctionalMemory &_memory;
    std::unique_ptr<Framebuffer> _fb;
    ShaderBuilder _shaders;
    /** (frame, draw) -> uploaded assets. */
    std::map<std::pair<unsigned, unsigned>, DrawAssets> _assets;
    /** Program cache keyed by source+state signature. */
    std::map<std::string, const gpu::isa::Program *> _programCache;
};

} // namespace emerald::core

#endif // EMERALD_CORE_TRACE_HH
