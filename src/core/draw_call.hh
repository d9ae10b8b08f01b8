/**
 * @file
 * Draw calls and render state: the unit of work an application
 * submits to the Emerald graphics pipeline (paper Fig. 2, step 1).
 *
 * Vertex data convention: the vertex buffer holds floatsPerVertex
 * floats per vertex, position .xyz first; all of them are loaded into
 * the vertex shader's a[0..] attribute registers at warp launch.
 * The vertex shader writes clip-space position to o[0..3] and up to
 * numVaryings varyings to o[4..]; fragments receive the interpolated
 * varyings in a[0..numVaryings-1].
 */

#ifndef EMERALD_CORE_DRAW_CALL_HH
#define EMERALD_CORE_DRAW_CALL_HH

#include <vector>

#include "core/texture.hh"
#include "gpu/isa/instruction.hh"
#include "mem/functional_memory.hh"
#include "sim/types.hh"

namespace emerald::core
{

enum class PrimitiveType { Triangles, TriangleStrip };

/** Fixed-function state for one draw. */
struct RenderState
{
    bool depthTest = true;
    bool depthWrite = true;
    bool blend = false;
    bool cullBackface = true;
};

/** Upper bound on interpolated varyings per fragment. */
constexpr unsigned maxVaryings = 12;

struct DrawCall
{
    const gpu::isa::Program *vertexProgram = nullptr;
    /** Fragment program already extended with ROP by ShaderBuilder. */
    const gpu::isa::Program *fragmentProgram = nullptr;

    PrimitiveType primType = PrimitiveType::Triangles;
    unsigned vertexCount = 0;

    Addr vertexBufferAddr = 0;
    unsigned floatsPerVertex = 0;
    unsigned numVaryings = 0;

    std::vector<float> constants;
    TextureSet *textures = nullptr;
    mem::FunctionalMemory *memory = nullptr;

    RenderState state;

    unsigned
    strideBytes() const
    {
        return floatsPerVertex * 4;
    }

    /** Number of base primitives this draw produces. */
    unsigned
    primitiveCount() const
    {
        if (primType == PrimitiveType::Triangles)
            return vertexCount / 3;
        return vertexCount < 3 ? 0 : vertexCount - 2;
    }
};

} // namespace emerald::core

#endif // EMERALD_CORE_DRAW_CALL_HH
