/**
 * @file
 * The per-thread executor that the lane-major one in
 * src/gpu/isa/executor.cc replaced, kept as the reference that
 * test_isa_differential.cc compares it against: one ThreadContext
 * per lane, each operand and opcode decoded again for every lane.
 * ThreadContext and executeWarpInstruction below are the replaced
 * code, moved here unchanged except for their namespace.
 */

#ifndef EMERALD_TESTS_REFERENCE_EXECUTOR_HH
#define EMERALD_TESTS_REFERENCE_EXECUTOR_HH

#include <cstdint>

#include "gpu/isa/executor.hh"

namespace emerald::gpu::isa::reference
{

/** Per-thread architectural state. */
struct ThreadContext
{
    std::uint32_t r[maxRegs] = {};
    bool p[maxPreds] = {};
    float a[maxAttrs] = {};
    float o[maxOutputs] = {};

    // Fragment inputs.
    int fragX = 0;
    int fragY = 0;
    float fragZ = 0.0f;
    // Vertex input.
    std::uint32_t vertexId = 0;
    // Compute inputs.
    std::uint32_t tidX = 0, tidY = 0;
    std::uint32_t ctaIdX = 0, ctaIdY = 0;
    std::uint32_t ntidX = 1, ntidY = 1;

    /** Cleared by EXIT, DISCARD, or a failed ZTEST. */
    bool alive = true;
    /** Set when the fragment was killed (discard or depth fail). */
    bool killed = false;
};

/**
 * Execute @p instr for all lanes set in @p active_mask.
 * Branch direction is reported through @p effects; pc management is
 * the caller's job (see Warp / SimtStack).
 */
void executeWarpInstruction(const Instruction &instr,
                            std::uint32_t active_mask,
                            ThreadContext *threads, ExecEnv &env,
                            StepEffects &effects);

} // namespace emerald::gpu::isa::reference

#endif // EMERALD_TESTS_REFERENCE_EXECUTOR_HH
