/**
 * @file
 * The Emerald shader ISA.
 *
 * A small PTX-like, scalar, register ISA executed by the SIMT cores.
 * It is shared by GPGPU kernels and graphics shaders (the paper's
 * unified shader model); graphics adds attribute registers, texture
 * sampling, and the in-shader raster operation instructions
 * (ZTEST / BLEND / STFB / DISCARD) that implement the paper's
 * programmable ROP stages (Fig. 3, L-N).
 *
 * The paper's TGSItoPTX tool compiles Mesa TGSI into extended PTX;
 * here the equivalent ISA is defined directly and shaders are written
 * in its assembly (see scenes/shaders.cc).
 */

#ifndef EMERALD_GPU_ISA_INSTRUCTION_HH
#define EMERALD_GPU_ISA_INSTRUCTION_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace emerald::gpu::isa
{

constexpr unsigned warpSize = 32;
constexpr unsigned maxRegs = 64;
constexpr unsigned maxPreds = 8;
constexpr unsigned maxAttrs = 16;
constexpr unsigned maxOutputs = 16;

enum class Opcode : std::uint8_t
{
    NOP,
    // ALU
    MOV, ADD, SUB, MUL, DIV, MAD, MIN, MAX, ABS, NEG, FLR, FRC,
    AND, OR, XOR, NOT, SHL, SHR,
    CVT, SETP, SELP,
    // SFU (special function unit)
    RCP, RSQ, SQRT, EX2, LG2, SIN, COS, POW,
    // Memory
    LDG, STG, LDS, STS,
    // Texture
    TEX,
    // Graphics
    STO, ZTEST, BLEND, STFB, DISCARD,
    // Control
    BRA, BAR, EXIT,
};

enum class DataType : std::uint8_t { F32, S32, U32 };

enum class CmpOp : std::uint8_t { EQ, NE, LT, LE, GT, GE };

/** Thread-private special input registers. */
enum class SpecialReg : std::uint8_t
{
    FragX,   ///< %x fragment screen x
    FragY,   ///< %y fragment screen y
    FragZ,   ///< %z interpolated depth in [0,1]
    VertId,  ///< %vid vertex index within the draw
    TidX,    ///< %tid.x
    TidY,    ///< %tid.y
    CtaIdX,  ///< %ctaid.x
    CtaIdY,  ///< %ctaid.y
    NTidX,   ///< %ntid.x
    NTidY,   ///< %ntid.y
};

/** One instruction operand. */
struct Operand
{
    enum class Kind : std::uint8_t
    {
        None,
        Reg,     ///< rN, 32-bit general register
        Pred,    ///< pN predicate register
        Imm,     ///< literal (float or integer by DataType)
        Const,   ///< c[N] constant bank entry
        Attr,    ///< a[N] input attribute
        Out,     ///< o[N] output attribute (STO destination)
        Special, ///< %x, %tid.x, ...
    };

    Kind kind = Kind::None;
    int index = 0;
    union
    {
        float f;
        std::int32_t i;
        std::uint32_t u;
    } imm = {0.0f};
    SpecialReg special = SpecialReg::FragX;
};

/** Unit that executes an instruction, for issue/latency modelling. */
enum class LatencyClass : std::uint8_t
{
    Alu,
    Sfu,
    MemGlobal,
    MemShared,
    Tex,
    Rop,     ///< ZTEST / BLEND / STFB memory ops
    Control,
};

/** A fully decoded instruction. */
struct Instruction
{
    Opcode op = Opcode::NOP;
    DataType type = DataType::F32;
    /** Source type for CVT. */
    DataType srcType = DataType::F32;
    CmpOp cmp = CmpOp::EQ;

    /** Guard predicate index, -1 when unguarded. */
    int guard = -1;
    bool guardNegate = false;

    Operand dst;
    Operand src[3];

    /** Branch target pc (BRA). */
    int target = -1;
    /** Reconvergence pc, filled by post-dominator analysis (BRA). */
    int reconvergePc = -1;

    /** Texture unit for TEX. */
    int texUnit = 0;
    /** Address offset for LDG/STG/LDS/STS. */
    std::int32_t memOffset = 0;

    LatencyClass latencyClass() const;
    bool isBranch() const { return op == Opcode::BRA; }
    std::string toString() const;
};

const char *opcodeName(Opcode op);

/** An assembled program. */
struct Program
{
    std::string name;
    std::vector<Instruction> code;

    /** Highest register index used + 1. */
    unsigned numRegs = 0;
    unsigned numPreds = 0;

    /** True when any path can DISCARD (disables early-Z). */
    bool usesDiscard = false;
    /** True when the shader contains an explicit ZTEST. */
    bool usesZTest = false;

    std::size_t size() const { return code.size(); }
};

} // namespace emerald::gpu::isa

#endif // EMERALD_GPU_ISA_INSTRUCTION_HH
