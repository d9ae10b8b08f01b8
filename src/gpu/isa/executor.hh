/**
 * @file
 * Functional execution of Emerald ISA instructions.
 *
 * The executor operates on whole warps: one call executes one
 * instruction for every active thread, updating the warp's state and
 * reporting the memory accesses the timing model must charge.
 * Function and timing are decoupled (see sim/packet.hh): functional
 * effects happen here at issue time; the SIMT core turns the reported
 * accesses into coalesced timing traffic.
 */

#ifndef EMERALD_GPU_ISA_EXECUTOR_HH
#define EMERALD_GPU_ISA_EXECUTOR_HH

#include <cstdint>
#include <vector>

#include "gpu/isa/instruction.hh"
#include "mem/functional_memory.hh"
#include "sim/packet.hh"

namespace emerald::gpu::isa
{

/**
 * Architectural state of one warp's threads (docs/ISA.md, "Registers
 * and state"), stored lane-major: every register, attribute, output
 * and input is one array indexed by lane, and every predicate
 * register, alive and killed is a lane mask (bit i is lane i). A
 * warp's state lives on the heap and moves by pointer
 * (WarpTask::state).
 */
struct WarpState
{
    std::uint32_t r[maxRegs][warpSize] = {};
    std::uint32_t p[maxPreds] = {};
    float a[maxAttrs][warpSize] = {};
    float o[maxOutputs][warpSize] = {};

    // Fragment inputs.
    int fragX[warpSize] = {};
    int fragY[warpSize] = {};
    float fragZ[warpSize] = {};
    // Vertex input.
    std::uint32_t vertexId[warpSize] = {};
    // Compute inputs; ntidX and ntidY start at 1.
    std::uint32_t tidX[warpSize] = {};
    std::uint32_t tidY[warpSize] = {};
    std::uint32_t ctaIdX[warpSize] = {};
    std::uint32_t ctaIdY[warpSize] = {};
    std::uint32_t ntidX[warpSize];
    std::uint32_t ntidY[warpSize];

    /** Lanes not yet retired by EXIT, DISCARD or a failed ZTEST. */
    std::uint32_t alive = ~0u;
    /** Lanes whose fragment was killed (discard or depth fail). */
    std::uint32_t killed = 0;

    WarpState();
};

/** Texture sampling callback; implemented by core::TextureSet. */
class TextureSamplerIface
{
  public:
    virtual ~TextureSamplerIface() = default;

    /**
     * Bilinearly sample texture @p unit at (u, v) into @p rgba and
     * append the texel addresses touched to @p texel_addrs.
     */
    virtual void sample(int unit, float u, float v, float rgba[4],
                        std::vector<Addr> &texel_addrs) = 0;
};

/** Raster-operation callbacks; implemented by core::Framebuffer. */
class RopIface
{
  public:
    virtual ~RopIface() = default;

    /**
     * Depth test (and write on pass) at pixel (x, y).
     * @param addr receives the depth buffer address for timing.
     * @return true when the fragment survives.
     */
    virtual bool depthTest(int x, int y, float z, Addr &addr) = 0;

    /** Read-modify-write alpha blend at (x, y). */
    virtual void blendPixel(int x, int y, const float rgba[4],
                            Addr &addr) = 0;

    /** Opaque color write at (x, y). */
    virtual void storePixel(int x, int y, const float rgba[4],
                            Addr &addr) = 0;
};

/** Execution environment shared by the threads of one warp. */
struct ExecEnv
{
    mem::FunctionalMemory *global = nullptr;
    TextureSamplerIface *textures = nullptr;
    RopIface *rop = nullptr;
    const float *constants = nullptr;
    unsigned numConstants = 0;
    /** Per-CTA shared memory backing store (compute only). */
    std::uint8_t *sharedMem = nullptr;
    unsigned sharedSize = 0;
};

/** One thread's memory access, pre-coalescing. */
struct ThreadMemAccess
{
    Addr addr = 0;
    std::uint16_t size = 0;
    bool write = false;
};

/** Side effects of executing one instruction across a warp. */
struct StepEffects
{
    /** Memory accesses to charge, tagged with their stream kind. */
    std::vector<ThreadMemAccess> accesses;
    AccessKind kind = AccessKind::GlobalData;
    /** Lanes whose branch was taken (BRA only). */
    std::uint32_t takenMask = 0;
    /** Lanes that passed their guard and executed. */
    std::uint32_t execMask = 0;
    /**
     * TEX's reused buffer for one lane's texel addresses, kept here so
     * sampling does not allocate; not an effect.
     */
    std::vector<Addr> texels;

    void
    clear()
    {
        accesses.clear();
        kind = AccessKind::GlobalData;
        takenMask = 0;
        execMask = 0;
    }
};

/**
 * Execute @p instr for all lanes set in @p active_mask that are alive
 * and pass the guard. Operands and the opcode are decoded once; lanes
 * run in ascending order, so every side effect (texture samples,
 * depth tests, blends, stores, memory accesses) happens in lane
 * order. Branch direction is reported through @p effects; pc
 * management is the caller's job (see Warp / SimtStack).
 */
void executeWarpInstruction(const Instruction &instr,
                            std::uint32_t active_mask, WarpState &state,
                            ExecEnv &env, StepEffects &effects);

} // namespace emerald::gpu::isa

#endif // EMERALD_GPU_ISA_EXECUTOR_HH
