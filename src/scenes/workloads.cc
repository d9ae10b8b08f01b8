#include "scenes/workloads.hh"

#include "scenes/procedural.hh"
#include "scenes/shaders.hh"
#include "sim/logging.hh"

namespace emerald::scenes
{

using core::Mat4;

const char *
workloadName(WorkloadId id)
{
    switch (id) {
      case WorkloadId::W1_Sibenik: return "W1-sibenik";
      case WorkloadId::W2_Spot: return "W2-spot";
      case WorkloadId::W3_Cube: return "W3-cube";
      case WorkloadId::W4_Suzanne: return "W4-suzanne";
      case WorkloadId::W5_SuzanneAlpha: return "W5-suzanne-alpha";
      case WorkloadId::W6_Teapot: return "W6-teapot";
      case WorkloadId::M1_Chair: return "M1-chair";
      case WorkloadId::M2_Cube: return "M2-cube";
      case WorkloadId::M3_Mask: return "M3-mask";
      case WorkloadId::M4_Triangles: return "M4-triangles";
      default: return "unknown";
    }
}

WorkloadId
workloadFromName(const std::string &name)
{
    std::string valid;
    for (int i = 0; i <= static_cast<int>(WorkloadId::M4_Triangles); ++i) {
        auto id = static_cast<WorkloadId>(i);
        if (name == workloadName(id))
            return id;
        valid += std::string(i ? ", " : "") + workloadName(id);
    }
    fatal("unknown workload '%s' (valid: %s)", name.c_str(),
          valid.c_str());
}

Workload
makeWorkload(WorkloadId id)
{
    Workload w;
    w.name = workloadName(id);
    switch (id) {
      case WorkloadId::W1_Sibenik:
        // Cathedral interior: camera inside, geometry concentrated
        // around the column rows -> strong load imbalance.
        w.mesh = makeInterior(6, 20);
        w.textureSize = 256;
        w.camera.center = {0.0f, 2.6f, 0.0f};
        w.camera.radius = 6.0f;
        w.camera.height = 0.4f;
        w.camera.fovyRadians = 1.25f;
        break;
      case WorkloadId::W2_Spot:
        w.mesh = makeSpotish(40, 28);
        w.textureSize = 256;
        w.camera.center = {0.0f, -0.1f, 0.0f};
        w.camera.radius = 3.4f;
        break;
      case WorkloadId::W3_Cube:
        w.mesh = makeBox(1.6f, 1.6f, 1.6f);
        w.textureSize = 256;
        w.camera.center = {0.0f, 0.0f, 0.0f};
        w.camera.radius = 3.6f;
        break;
      case WorkloadId::W4_Suzanne:
        w.mesh = makeBlobHead(1.0f, 48, 32, 0.22f, 11);
        w.textureSize = 256;
        w.camera.center = {0.0f, 0.0f, 0.0f};
        w.camera.radius = 3.2f;
        break;
      case WorkloadId::W5_SuzanneAlpha:
        w.mesh = makeBlobHead(1.0f, 48, 32, 0.22f, 11);
        w.translucent = true;
        w.textureSize = 256;
        w.camera.center = {0.0f, 0.0f, 0.0f};
        w.camera.radius = 3.2f;
        break;
      case WorkloadId::W6_Teapot:
        w.mesh = makeTeapotish(48, 32);
        w.textureSize = 256;
        w.camera.center = {0.0f, 0.6f, 0.0f};
        w.camera.radius = 3.0f;
        w.camera.height = 1.0f;
        break;
      case WorkloadId::M1_Chair:
        w.mesh = makeChair(24);
        w.textureSize = 512;
        w.heavyShader = true;
        w.camera.center = {0.0f, 0.9f, 0.0f};
        w.camera.radius = 3.4f;
        break;
      case WorkloadId::M2_Cube:
        w.mesh = makeBox(1.6f, 1.6f, 1.6f);
        w.textureSize = 128;
        w.camera.center = {0.0f, 0.0f, 0.0f};
        w.camera.radius = 3.6f;
        break;
      case WorkloadId::M3_Mask:
        w.mesh = makeBlobHead(1.15f, 64, 44, 0.3f, 23);
        w.textureSize = 512;
        w.heavyShader = true;
        w.camera.center = {0.0f, 0.0f, 0.0f};
        w.camera.radius = 2.9f;
        break;
      case WorkloadId::M4_Triangles:
        w.mesh = makeTriangleField(160, 5);
        w.textureSize = 64;
        w.camera.center = {0.0f, 0.0f, 0.0f};
        w.camera.radius = 6.5f;
        break;
    }
    return w;
}

SceneRenderer::SceneRenderer(core::GraphicsPipeline &pipeline,
                             Workload workload,
                             mem::FunctionalMemory &memory)
    : _pipeline(pipeline), _workload(std::move(workload)),
      _memory(memory)
{
    // Upload vertex data.
    const auto &data = _workload.mesh.data();
    fatal_if(data.empty(), "workload %s has no geometry",
             _workload.name.c_str());
    _vertexBuffer = _memory.allocate(data.size() * 4, 128);
    _memory.write(_vertexBuffer, data.data(), data.size() * 4);

    _fb = std::make_unique<core::Framebuffer>(pipeline.fbWidth(),
                                              pipeline.fbHeight());

    // Textures: albedo (checker) and detail (noise) for the heavy
    // shader.
    unsigned ts = _workload.textureSize;
    auto albedo = std::make_unique<core::Texture>(
        ts, ts, _memory.allocate(std::uint64_t(ts) * ts * 4, 128));
    albedo->fillChecker(ts / 8, 0xffe0e0e0u, 0xff508ad0u);
    _textures.bind(0, albedo.get());
    _textureObjs.push_back(std::move(albedo));

    auto detail = std::make_unique<core::Texture>(
        ts, ts, _memory.allocate(std::uint64_t(ts) * ts * 4, 128));
    detail->fillNoise(97);
    _textures.bind(1, detail.get());
    _textureObjs.push_back(std::move(detail));

    _state.depthTest = true;
    _state.depthWrite = !_workload.translucent;
    _state.blend = _workload.translucent;
    _state.cullBackface = false;

    _vs = _shaders.buildVertex(_workload.name + ".vs",
                               vertexShaderSource());
    const std::string &fs_src =
        _workload.translucent
            ? fragmentTranslucentSource()
            : (_workload.heavyShader ? fragmentHeavySource()
                                     : fragmentTexturedSource());
    _fs = _shaders.buildFragment(_workload.name + ".fs", fs_src,
                                 _state);
}

void
SceneRenderer::renderFrame(
    unsigned frame_idx,
    std::function<void(const core::FrameStats &)> on_done)
{
    core::DrawCall draw;
    draw.vertexProgram = _vs;
    draw.fragmentProgram = _fs;
    draw.primType = core::PrimitiveType::Triangles;
    draw.vertexCount = _workload.mesh.vertexCount();
    draw.vertexBufferAddr = _vertexBuffer;
    draw.floatsPerVertex = vertexFloats;
    draw.numVaryings = standardVaryings;
    draw.textures = &_textures;
    draw.memory = &_memory;
    draw.state = _state;

    float aspect = static_cast<float>(_pipeline.fbWidth()) /
                   static_cast<float>(_pipeline.fbHeight());
    Mat4 vp = _workload.camera.viewProj(frame_idx, aspect);
    draw.constants.resize(24, 0.0f);
    vp.toColumnMajor(draw.constants.data());
    // Light direction (normalized-ish) and ambient.
    draw.constants[16] = 0.45f;
    draw.constants[17] = 0.7f;
    draw.constants[18] = 0.55f;
    draw.constants[19] = 0.25f;
    draw.constants[20] = 0.55f; // Translucent alpha.

    _pipeline.beginFrame(_fb.get());
    _pipeline.submitDraw(std::move(draw));
    _pipeline.endFrame(std::move(on_done));
}

} // namespace emerald::scenes
