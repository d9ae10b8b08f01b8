#include "core/trace.hh"

#include <cstring>

#include "sim/logging.hh"
#include "sim/serialize/serialize.hh"

namespace emerald::core
{

namespace
{

/** Bump on any incompatible change to the sections below. */
constexpr std::uint64_t traceFormatVersion = 2;

std::string
drawSectionName(std::size_t idx)
{
    return strprintf("draw%zu", idx);
}

template <typename T>
void
putArray(CheckpointOut &out, const std::string &key,
         const std::vector<T> &v)
{
    out.putBlob(key, v.data(), v.size() * sizeof(T));
}

template <typename T>
std::vector<T>
getArray(const CheckpointIn &in, const std::string &key)
{
    const std::string &bytes = in.getBlob(key);
    std::vector<T> v(bytes.size() / sizeof(T));
    if (!v.empty())
        std::memcpy(v.data(), bytes.data(), v.size() * sizeof(T));
    return v;
}

} // namespace

void
saveTrace(const std::string &dir, const Trace &trace)
{
    // Fingerprint 0: a draw-call trace replays under any
    // configuration whose framebuffer matches.
    CheckpointWriter writer(dir, 0, 0, 0);
    CheckpointOut &meta = writer.section("trace");
    meta.putU64("trace_version", traceFormatVersion);
    meta.putU64("fb_width", trace.fbWidth);
    meta.putU64("fb_height", trace.fbHeight);
    std::vector<std::uint64_t> frame_draws;
    std::size_t idx = 0;
    for (const auto &frame : trace.frames) {
        frame_draws.push_back(frame.size());
        for (const TraceDraw &draw : frame) {
            CheckpointOut &sec = writer.section(drawSectionName(idx++));
            sec.putStr("vs", draw.vsSource);
            sec.putStr("fs", draw.fsSource);
            sec.putU64("prim_type",
                       static_cast<std::uint64_t>(draw.primType));
            sec.putBool("depth_test", draw.state.depthTest);
            sec.putBool("depth_write", draw.state.depthWrite);
            sec.putBool("blend", draw.state.blend);
            sec.putBool("cull_backface", draw.state.cullBackface);
            sec.putU64("floats_per_vertex", draw.floatsPerVertex);
            sec.putU64("num_varyings", draw.numVaryings);
            putArray(sec, "vertex_data", draw.vertexData);
            putArray(sec, "constants", draw.constants);
            sec.putU64("num_textures", draw.textures.size());
            for (std::size_t t = 0; t < draw.textures.size(); ++t) {
                const TraceTexture &tex = draw.textures[t];
                std::string key = strprintf("tex%zu.", t);
                sec.putI64(key + "unit", tex.unit);
                sec.putU64(key + "width", tex.width);
                sec.putU64(key + "height", tex.height);
                putArray(sec, key + "texels", tex.texels);
            }
        }
    }
    // Sections stay put as later ones open, so the header can take
    // the frame table last.
    meta.putU64Vec("frame_draws", frame_draws);
    writer.finalize();
}

std::optional<Trace>
loadTrace(const std::string &dir)
{
    CkptProbe probe = probeCheckpoint(dir);
    if (!probe.ok()) {
        warn("draw-call trace '%s' refused: %s (%s)", dir.c_str(),
             ckptIntegrityName(probe.status), probe.detail.c_str());
        return std::nullopt;
    }
    CheckpointReader reader(dir);
    if (!reader.hasSection("trace")) {
        warn("'%s' is not a draw-call trace", dir.c_str());
        return std::nullopt;
    }
    CheckpointIn meta = reader.section("trace");
    std::uint64_t version = meta.getU64("trace_version");
    if (version != traceFormatVersion) {
        warn("draw-call trace '%s' has format version %llu, this build "
             "reads %llu", dir.c_str(), (unsigned long long)version,
             (unsigned long long)traceFormatVersion);
        return std::nullopt;
    }
    Trace trace;
    trace.fbWidth = static_cast<unsigned>(meta.getU64("fb_width"));
    trace.fbHeight = static_cast<unsigned>(meta.getU64("fb_height"));
    std::size_t idx = 0;
    for (std::uint64_t n_draws : meta.getU64Vec("frame_draws")) {
        trace.beginFrame();
        for (std::uint64_t d = 0; d < n_draws; ++d) {
            CheckpointIn sec = reader.section(drawSectionName(idx++));
            TraceDraw draw;
            draw.vsSource = sec.getStr("vs");
            draw.fsSource = sec.getStr("fs");
            draw.primType =
                static_cast<PrimitiveType>(sec.getU64("prim_type"));
            draw.state.depthTest = sec.getBool("depth_test");
            draw.state.depthWrite = sec.getBool("depth_write");
            draw.state.blend = sec.getBool("blend");
            draw.state.cullBackface = sec.getBool("cull_backface");
            draw.floatsPerVertex =
                static_cast<unsigned>(sec.getU64("floats_per_vertex"));
            draw.numVaryings =
                static_cast<unsigned>(sec.getU64("num_varyings"));
            draw.vertexData = getArray<float>(sec, "vertex_data");
            draw.constants = getArray<float>(sec, "constants");
            // A count past the recorded textures fails on the first
            // missing key, before anything is allocated for it.
            std::uint64_t n_tex = sec.getU64("num_textures");
            for (std::uint64_t t = 0; t < n_tex; ++t) {
                TraceTexture tex;
                std::string key =
                    strprintf("tex%llu.", (unsigned long long)t);
                tex.unit = static_cast<int>(sec.getI64(key + "unit"));
                tex.width = static_cast<unsigned>(
                    sec.getU64(key + "width"));
                tex.height = static_cast<unsigned>(
                    sec.getU64(key + "height"));
                tex.texels =
                    getArray<std::uint32_t>(sec, key + "texels");
                draw.textures.push_back(std::move(tex));
            }
            trace.recordDraw(std::move(draw));
        }
    }
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
