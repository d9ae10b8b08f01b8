/**
 * @file
 * The workload library (paper Tables 6 and 8) and the SceneRenderer
 * harness that drives a GraphicsPipeline through animated frames.
 *
 * Case study II workloads: W1 Sibenik, W2 Spot, W3 Cube, W4 Suzanne,
 * W5 Suzanne-transparent, W6 Teapot. Case study I models: M1 Chair,
 * M2 Cube, M3 Mask, M4 Triangles. All are procedural stand-ins (see
 * procedural.hh).
 */

#ifndef EMERALD_SCENES_WORKLOADS_HH
#define EMERALD_SCENES_WORKLOADS_HH

#include <functional>
#include <memory>
#include <string>

#include "core/framebuffer.hh"
#include "core/graphics_pipeline.hh"
#include "core/shader_builder.hh"
#include "scenes/camera.hh"
#include "scenes/mesh.hh"

namespace emerald::scenes
{

enum class WorkloadId
{
    W1_Sibenik,
    W2_Spot,
    W3_Cube,
    W4_Suzanne,
    W5_SuzanneAlpha,
    W6_Teapot,
    M1_Chair,
    M2_Cube,
    M3_Mask,
    M4_Triangles,
};

const char *workloadName(WorkloadId id);

/**
 * The workload workloadName() spells @p name ("W5-suzanne-alpha",
 * "M3-mask"); any other spelling is fatal, naming the valid ones.
 */
WorkloadId workloadFromName(const std::string &name);

/** A renderable workload: geometry, material, camera. */
struct Workload
{
    std::string name;
    Mesh mesh;
    bool translucent = false;
    bool heavyShader = false;
    unsigned textureSize = 128;
    OrbitCamera camera;
};

Workload makeWorkload(WorkloadId id);

/**
 * Owns everything one workload needs to render frames through a
 * pipeline: vertex buffer upload, textures, shader programs, the
 * framebuffer, and per-frame camera animation.
 */
class SceneRenderer
{
  public:
    SceneRenderer(core::GraphicsPipeline &pipeline, Workload workload,
                  mem::FunctionalMemory &memory);

    /**
     * Render frame @p frame_idx (camera advances with the index);
     * @p on_done fires with the frame's stats when it drains.
     */
    void renderFrame(unsigned frame_idx,
                     std::function<void(const core::FrameStats &)>
                         on_done);

    core::Framebuffer &framebuffer() { return *_fb; }
    core::GraphicsPipeline &pipeline() { return _pipeline; }
    const Workload &workload() const { return _workload; }
    unsigned triangleCount() const
    {
        return _workload.mesh.triangleCount();
    }

  private:
    core::GraphicsPipeline &_pipeline;
    Workload _workload;
    mem::FunctionalMemory &_memory;

    Addr _vertexBuffer = 0;
    std::unique_ptr<core::Framebuffer> _fb;
    core::TextureSet _textures;
    std::vector<std::unique_ptr<core::Texture>> _textureObjs;
    core::ShaderBuilder _shaders;
    const gpu::isa::Program *_vs = nullptr;
    const gpu::isa::Program *_fs = nullptr;
    core::RenderState _state;
};

} // namespace emerald::scenes

#endif // EMERALD_SCENES_WORKLOADS_HH
