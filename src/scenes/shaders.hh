/**
 * @file
 * The shader library: Emerald-ISA sources for the standard workload
 * shaders (the TGSItoPTX outputs of the paper's flow, hand-written
 * here) plus the GPGPU kernels gpgpu_compute and the tests run.
 *
 * Conventions (see core/draw_call.hh):
 *   vertex inputs   a[0..2] position, a[3..5] normal, a[6..7] uv
 *   vertex consts   c[0..15] view-projection (column major),
 *                   c[16..18] light direction, c[19] ambient,
 *                   c[20] alpha
 *   vertex outputs  o[0..3] clip position, o[4..6] lit color,
 *                   o[7..8] uv
 *   fragment inputs a[0..2] lit color, a[3..4] uv
 *   fragment output o[0..3] RGBA (the ShaderBuilder adds ROP)
 */

#ifndef EMERALD_SCENES_SHADERS_HH
#define EMERALD_SCENES_SHADERS_HH

#include <string>

namespace emerald::scenes
{

/** Number of varyings the standard shaders interpolate. */
constexpr unsigned standardVaryings = 5;

/** Standard Gouraud-lit vertex shader. */
const std::string &vertexShaderSource();

/** Textured fragment shader (modulates lit color). */
const std::string &fragmentTexturedSource();

/** Textured fragment shader with constant alpha (translucent). */
const std::string &fragmentTranslucentSource();

/** Flat-color fragment shader (no texture). */
const std::string &fragmentFlatSource();

/** Heavier fragment shader: two texture taps + specular-ish math. */
const std::string &fragmentHeavySource();

/** GPGPU: c = a + b over float arrays (params in c[0..2]). */
const std::string &kernelVecAddSource();

/** GPGPU: block-wise sum reduction using shared memory. */
const std::string &kernelReduceSource();

/** GPGPU: SAXPY with a divergent guard (tests SIMT divergence). */
const std::string &kernelSaxpyBranchySource();

} // namespace emerald::scenes

#endif // EMERALD_SCENES_SHADERS_HH
