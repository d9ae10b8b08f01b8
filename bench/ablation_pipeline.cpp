/**
 * @file
 * Ablation study of Emerald's pipeline design choices (extension
 * beyond the paper's figures, probing the mechanisms DESIGN.md calls
 * out):
 *
 *  1. Hi-Z on/off — stage J's value on depth-complex scenes.
 *  2. TC coalescing strength — the TC stage (Fig. 7) exists to pack
 *     fragments of micro-primitives into full warps; 1 engine with a
 *     1-cycle timeout approximates "no coalescing".
 *  3. Early-Z vs forced late-Z — in-shader ROP placement (stages
 *     L vs N).
 */

#include "core/shader_builder.hh"
#include "harness.hh"
#include "registry.hh"
#include "scenes/shaders.hh"

using namespace emerald;
using namespace emerald::bench;

namespace
{

/** Render frames of a workload under a custom pipeline config. */
double
runConfig(const SimulationBuilder &builder, scenes::WorkloadId id,
          const core::GfxParams &gfx, bool allow_early_z,
          unsigned frames, std::uint64_t *hiz_rejects = nullptr,
          double *frags_per_warp = nullptr)
{
    soc::StandaloneGpu base(256, 192, soc::caseStudy2GpuParams(),
                            soc::caseStudy2MemParams(), builder);
    core::GraphicsPipeline pipe(base.sim(), "gfx_ablate", base.gpu(),
                                256, 192, gfx);

    // Build the scene manually so the early-Z knob is reachable.
    scenes::Workload w = scenes::makeWorkload(id);
    mem::FunctionalMemory &fmem = base.functionalMemory();

    core::ShaderBuilder shaders;
    const auto *vs = shaders.buildVertex("vs",
                                         scenes::vertexShaderSource());
    core::RenderState state;
    state.cullBackface = false;
    state.blend = w.translucent;
    state.depthWrite = !w.translucent;
    const std::string &fs_src =
        w.translucent ? scenes::fragmentTranslucentSource()
                      : scenes::fragmentTexturedSource();
    const auto *fs =
        shaders.buildFragment("fs", fs_src, state, allow_early_z);

    Addr vb = fmem.allocate(w.mesh.data().size() * 4, 128);
    fmem.write(vb, w.mesh.data().data(), w.mesh.data().size() * 4);
    core::TextureSet textures;
    core::Texture albedo(w.textureSize, w.textureSize,
                         fmem.allocate(std::uint64_t(w.textureSize) *
                                       w.textureSize * 4));
    albedo.fillChecker(w.textureSize / 8, 0xffe0e0e0u, 0xff508ad0u);
    textures.bind(0, &albedo);

    core::Framebuffer fb(256, 192);
    double total = 0.0;
    for (unsigned f = 0; f <= frames; ++f) {
        core::DrawCall draw;
        draw.vertexProgram = vs;
        draw.fragmentProgram = fs;
        draw.vertexCount = w.mesh.vertexCount();
        draw.vertexBufferAddr = vb;
        draw.floatsPerVertex = scenes::vertexFloats;
        draw.numVaryings = scenes::standardVaryings;
        draw.textures = &textures;
        draw.memory = &fmem;
        draw.state = state;
        draw.constants.resize(24, 0.0f);
        w.camera.viewProj(f, 256.0f / 192.0f)
            .toColumnMajor(draw.constants.data());
        draw.constants[16] = 0.45f;
        draw.constants[17] = 0.7f;
        draw.constants[18] = 0.55f;
        draw.constants[19] = 0.25f;
        draw.constants[20] = 0.55f;

        bool done = false;
        core::FrameStats stats;
        pipe.beginFrame(&fb);
        pipe.submitDraw(std::move(draw));
        pipe.endFrame([&](const core::FrameStats &s) {
            stats = s;
            done = true;
        });
        if (!base.runUntil([&] { return done; }))
            fatal("ablation frame stalled");
        if (f > 0) { // Skip warm-up.
            total += static_cast<double>(stats.cycles);
            if (hiz_rejects)
                *hiz_rejects += stats.hizRejects;
            if (frags_per_warp && stats.fragWarps > 0) {
                *frags_per_warp +=
                    static_cast<double>(stats.fragments) /
                    static_cast<double>(stats.fragWarps);
            }
        }
    }
    return total / frames;
}

} // namespace

namespace
{

int
runScenario(int argc, char **argv)
{
    BenchHarness harness(argc, argv, "ablation_pipeline");
    unsigned frames = harness.count("frames", 2);

    std::printf("=== Ablation: pipeline design choices ===\n\n");

    // 1. Hi-Z on the depth-complex interior scene.
    {
        core::GfxParams on;
        core::GfxParams off;
        off.hizEnabled = false;
        std::uint64_t rejects = 0;
        double t_on = runConfig(harness.builderFor("hiz.on"),
                                scenes::WorkloadId::W1_Sibenik, on,
                                true, frames, &rejects);
        double t_off = runConfig(harness.builderFor("hiz.off"),
                                 scenes::WorkloadId::W1_Sibenik, off,
                                 true, frames);
        harness.record("hiz.on_cycles", t_on);
        harness.record("hiz.off_cycles", t_off);
        harness.record("hiz.saved_frac", (t_off - t_on) / t_off);
        harness.record("hiz.tiles_rejected",
                       static_cast<double>(rejects));
        std::printf("Hi-Z (W1-sibenik):  on %.0f cy, off %.0f cy -> "
                    "%.1f%% saved; %llu tiles rejected\n",
                    t_on, t_off, (t_off - t_on) / t_off * 100.0,
                    (unsigned long long)rejects);
    }

    // 2. TC coalescing on the micro-primitive-heavy blob.
    {
        core::GfxParams full;
        core::GfxParams weak;
        weak.tcEnginesPerCluster = 1;
        weak.tcFlushTimeoutCycles = 1;
        double fpw_full = 0, fpw_weak = 0;
        double t_full = runConfig(harness.builderFor("tc.full"),
                                  scenes::WorkloadId::W4_Suzanne, full,
                                  true, frames, nullptr, &fpw_full);
        double t_weak = runConfig(harness.builderFor("tc.weak"),
                                  scenes::WorkloadId::W4_Suzanne, weak,
                                  true, frames, nullptr, &fpw_weak);
        harness.record("tc.full_cycles", t_full);
        harness.record("tc.weak_cycles", t_weak);
        harness.record("tc.full_frag_per_warp", fpw_full / frames);
        harness.record("tc.weak_frag_per_warp", fpw_weak / frames);
        std::printf("TC coalescing (W4): full %.0f cy (%.1f frag/"
                    "warp), weak %.0f cy (%.1f frag/warp)\n",
                    t_full, fpw_full / frames, t_weak,
                    fpw_weak / frames);
    }

    // 3. Early-Z vs forced late-Z.
    {
        core::GfxParams gfx;
        double t_early = runConfig(harness.builderFor("rop.early"),
                                   scenes::WorkloadId::W6_Teapot, gfx,
                                   true, frames);
        double t_late = runConfig(harness.builderFor("rop.late"),
                                  scenes::WorkloadId::W6_Teapot, gfx,
                                  false, frames);
        harness.record("rop.early_cycles", t_early);
        harness.record("rop.late_cycles", t_late);
        harness.record("rop.saved_frac", (t_late - t_early) / t_late);
        std::printf("ROP placement (W6): early-Z %.0f cy, late-Z "
                    "%.0f cy -> %.1f%% saved by early-Z\n",
                    t_early, t_late,
                    (t_late - t_early) / t_late * 100.0);
    }
    return 0;
}

const RegisterScenario reg{{
    .name = "ablation_pipeline",
    .desc = "Ablation: Hi-Z, TC coalescing and early-Z pipeline choices",
    .run = runScenario,
    .kind = ScenarioKind::Figure,
}};

} // namespace
