#include "core/trace.hh"

#include "sim/logging.hh"
#include "sim/serialize/checkpoint_io.hh"

namespace emerald::core
{

namespace
{

/** Bump on any incompatible change to the sections below. */
constexpr std::uint64_t traceFormatVersion = 2;

/** One draw's section: sources, render state, buffers, textures. */
void
listDraw(CheckpointIo &io, TraceDraw &draw)
{
    io.scalar("vs", draw.vsSource);
    io.scalar("fs", draw.fsSource);
    io.scalar<std::uint64_t>("prim_type", draw.primType);
    io.scalar("depth_test", draw.state.depthTest);
    io.scalar("depth_write", draw.state.depthWrite);
    io.scalar("blend", draw.state.blend);
    io.scalar("cull_backface", draw.state.cullBackface);
    io.scalar("floats_per_vertex", draw.floatsPerVertex);
    io.scalar("num_varyings", draw.numVaryings);
    io.blob("vertex_data", draw.vertexData);
    io.blob("constants", draw.constants);
    io.sequence("num_textures", "tex", draw.textures,
                [&io](const std::string &key, TraceTexture &tex) {
                    io.scalar(key + ".unit", tex.unit);
                    io.scalar(key + ".width", tex.width);
                    io.scalar(key + ".height", tex.height);
                    io.blob(key + ".texels", tex.texels);
                });
}

/**
 * The whole trace, listed once: the "trace" section (format version,
 * framebuffer size, draws per frame), then a "draw<i>" section per
 * draw in submission order. False when loading another format
 * version.
 */
bool
listTrace(const std::string &dir, Trace &trace, const OpenSection &open)
{
    CheckpointIo meta = open("trace");
    std::uint64_t version = traceFormatVersion;
    meta.scalar("trace_version", version);
    if (version != traceFormatVersion) {
        warn("draw-call trace '%s' has format version %llu, this build "
             "reads %llu", dir.c_str(), (unsigned long long)version,
             (unsigned long long)traceFormatVersion);
        return false;
    }
    meta.scalar("fb_width", trace.fbWidth);
    meta.scalar("fb_height", trace.fbHeight);
    std::vector<std::uint64_t> frame_draws;
    for (const auto &frame : trace.frames)
        frame_draws.push_back(frame.size());
    meta.vector("frame_draws", frame_draws);
    trace.frames.resize(frame_draws.size());

    std::size_t idx = 0;
    for (std::size_t f = 0; f < frame_draws.size(); ++f) {
        for (std::size_t d = 0; d < frame_draws[f]; ++d) {
            // A count past the recorded draws fails on the missing
            // section, before anything is allocated for it.
            CheckpointIo sec = open(strprintf("draw%zu", idx++));
            if (sec.loading())
                trace.frames[f].emplace_back();
            listDraw(sec, trace.frames[f][d]);
        }
    }
    return true;
}

} // namespace

void
saveTrace(const std::string &dir, const Trace &trace)
{
    // Fingerprint 0: a draw-call trace replays under any
    // configuration whose framebuffer matches.
    CheckpointWriter writer(dir, 0, 0, 0);
    // Saving, the listing only reads the trace.
    listTrace(dir, const_cast<Trace &>(trace),
              [&writer](const std::string &name) {
                  return CheckpointIo(writer.section(name));
              });
    writer.finalize();
}

std::optional<Trace>
loadTrace(const std::string &dir)
{
    CkptProbe probe;
    std::optional<CheckpointReader> reader =
        CheckpointReader::open(dir, probe);
    if (!reader) {
        warn("draw-call trace '%s' refused: %s (%s)", dir.c_str(),
             ckptIntegrityName(probe.status), probe.detail.c_str());
        return std::nullopt;
    }
    if (!reader->hasSection("trace")) {
        warn("'%s' is not a draw-call trace", dir.c_str());
        return std::nullopt;
    }
    Trace trace;
    if (!listTrace(dir, trace, [&reader](const std::string &name) {
            return CheckpointIo(reader->section(name));
        }))
        return std::nullopt;
    return trace;
}

TracePlayer::TracePlayer(GraphicsPipeline &pipeline, Trace trace,
                         mem::FunctionalMemory &memory)
    : _pipeline(pipeline), _trace(std::move(trace)), _memory(memory)
{
    fatal_if(_trace.fbWidth != pipeline.fbWidth() ||
                 _trace.fbHeight != pipeline.fbHeight(),
             "trace resolution %ux%u does not match the pipeline",
             _trace.fbWidth, _trace.fbHeight);
    _fb = std::make_unique<Framebuffer>(_trace.fbWidth,
                                        _trace.fbHeight);
}

TracePlayer::DrawAssets &
TracePlayer::assetsFor(unsigned frame, unsigned draw_idx)
{
    auto key = std::make_pair(frame, draw_idx);
    auto it = _assets.find(key);
    if (it != _assets.end())
        return it->second;

    const TraceDraw &draw = _trace.frames[frame][draw_idx];
    DrawAssets assets;

    assets.vertexBuffer =
        _memory.allocate(draw.vertexData.size() * 4, 128);
    _memory.write(assets.vertexBuffer, draw.vertexData.data(),
                  draw.vertexData.size() * 4);

    // Programs are cached on (source, ROP-relevant state).
    std::string vs_key = "V\x01" + draw.vsSource;
    auto vs_it = _programCache.find(vs_key);
    if (vs_it == _programCache.end()) {
        vs_it = _programCache
                    .emplace(vs_key, _shaders.buildVertex(
                                         "trace.vs", draw.vsSource))
                    .first;
    }
    assets.vs = vs_it->second;

    std::string fs_key =
        strprintf("F\x01%d%d%d\x01", draw.state.depthTest ? 1 : 0,
                  draw.state.depthWrite ? 1 : 0,
                  draw.state.blend ? 1 : 0) +
        draw.fsSource;
    auto fs_it = _programCache.find(fs_key);
    if (fs_it == _programCache.end()) {
        fs_it = _programCache
                    .emplace(fs_key,
                             _shaders.buildFragment("trace.fs",
                                                    draw.fsSource,
                                                    draw.state))
                    .first;
    }
    assets.fs = fs_it->second;

    assets.textures = std::make_unique<TextureSet>();
    for (const TraceTexture &tex : draw.textures) {
        auto texture = std::make_unique<Texture>(
            tex.width, tex.height,
            _memory.allocate(std::uint64_t(tex.width) * tex.height * 4,
                             128));
        for (unsigned y = 0; y < tex.height; ++y)
            for (unsigned x = 0; x < tex.width; ++x)
                texture->setTexel(x, y,
                                  tex.texels[std::size_t(y) *
                                                 tex.width +
                                             x]);
        assets.textures->bind(tex.unit, texture.get());
        assets.textureObjs.push_back(std::move(texture));
    }

    return _assets.emplace(key, std::move(assets)).first->second;
}

void
TracePlayer::playFrame(unsigned idx,
                       std::function<void(const FrameStats &)> on_done)
{
    fatal_if(idx >= frameCount(), "trace frame %u out of range", idx);
    _pipeline.beginFrame(_fb.get());
    const auto &frame = _trace.frames[idx];
    for (unsigned d = 0; d < frame.size(); ++d) {
        const TraceDraw &src = frame[d];
        DrawAssets &assets = assetsFor(idx, d);
        DrawCall draw;
        draw.vertexProgram = assets.vs;
        draw.fragmentProgram = assets.fs;
        draw.primType = src.primType;
        draw.vertexCount = src.vertexCount();
        draw.vertexBufferAddr = assets.vertexBuffer;
        draw.floatsPerVertex = src.floatsPerVertex;
        draw.numVaryings = src.numVaryings;
        draw.constants = src.constants;
        draw.textures = assets.textures.get();
        draw.memory = &_memory;
        draw.state = src.state;
        _pipeline.submitDraw(std::move(draw));
    }
    _pipeline.endFrame(std::move(on_done));
}

} // namespace emerald::core
