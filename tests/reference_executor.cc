#include "reference_executor.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>

#include "sim/logging.hh"

namespace emerald::gpu::isa::reference
{

namespace
{

float
asFloat(std::uint32_t bits)
{
    return std::bit_cast<float>(bits);
}

std::uint32_t
asBits(float value)
{
    return std::bit_cast<std::uint32_t>(value);
}

/** Read an operand as raw 32-bit value for thread @p t. */
std::uint32_t
readRaw(const Operand &op, const ThreadContext &t, const ExecEnv &env,
        DataType type)
{
    switch (op.kind) {
      case Operand::Kind::Reg:
        return t.r[op.index];
      case Operand::Kind::Imm:
        return op.imm.u;
      case Operand::Kind::Const:
        if (env.constants &&
            op.index < static_cast<int>(env.numConstants)) {
            return asBits(env.constants[op.index]);
        }
        return 0;
      case Operand::Kind::Attr:
        return asBits(t.a[op.index]);
      case Operand::Kind::Out:
        return asBits(t.o[op.index]);
      case Operand::Kind::Special:
        switch (op.special) {
          case SpecialReg::FragX:
            return type == DataType::F32
                       ? asBits(static_cast<float>(t.fragX))
                       : static_cast<std::uint32_t>(t.fragX);
          case SpecialReg::FragY:
            return type == DataType::F32
                       ? asBits(static_cast<float>(t.fragY))
                       : static_cast<std::uint32_t>(t.fragY);
          case SpecialReg::FragZ:
            return asBits(t.fragZ);
          case SpecialReg::VertId:
            return type == DataType::F32
                       ? asBits(static_cast<float>(t.vertexId))
                       : t.vertexId;
          case SpecialReg::TidX: return t.tidX;
          case SpecialReg::TidY: return t.tidY;
          case SpecialReg::CtaIdX: return t.ctaIdX;
          case SpecialReg::CtaIdY: return t.ctaIdY;
          case SpecialReg::NTidX: return t.ntidX;
          case SpecialReg::NTidY: return t.ntidY;
        }
        return 0;
      default:
        panic("bad source operand kind");
    }
}

float
readF(const Operand &op, const ThreadContext &t, const ExecEnv &env)
{
    return asFloat(readRaw(op, t, env, DataType::F32));
}

bool
compare(CmpOp cmp, DataType type, std::uint32_t a, std::uint32_t b)
{
    if (type == DataType::F32) {
        float x = asFloat(a);
        float y = asFloat(b);
        switch (cmp) {
          case CmpOp::EQ: return x == y;
          case CmpOp::NE: return x != y;
          case CmpOp::LT: return x < y;
          case CmpOp::LE: return x <= y;
          case CmpOp::GT: return x > y;
          case CmpOp::GE: return x >= y;
        }
    } else if (type == DataType::S32) {
        auto x = static_cast<std::int32_t>(a);
        auto y = static_cast<std::int32_t>(b);
        switch (cmp) {
          case CmpOp::EQ: return x == y;
          case CmpOp::NE: return x != y;
          case CmpOp::LT: return x < y;
          case CmpOp::LE: return x <= y;
          case CmpOp::GT: return x > y;
          case CmpOp::GE: return x >= y;
        }
    } else {
        switch (cmp) {
          case CmpOp::EQ: return a == b;
          case CmpOp::NE: return a != b;
          case CmpOp::LT: return a < b;
          case CmpOp::LE: return a <= b;
          case CmpOp::GT: return a > b;
          case CmpOp::GE: return a >= b;
        }
    }
    return false;
}

std::uint32_t
aluOp(const Instruction &instr, const ThreadContext &t,
      const ExecEnv &env)
{
    const DataType type = instr.type;
    std::uint32_t ra = readRaw(instr.src[0], t, env, type);
    std::uint32_t rb = instr.src[1].kind == Operand::Kind::None
                           ? 0
                           : readRaw(instr.src[1], t, env, type);
    std::uint32_t rc = instr.src[2].kind == Operand::Kind::None
                           ? 0
                           : readRaw(instr.src[2], t, env, type);

    if (type == DataType::F32) {
        float a = asFloat(ra);
        float b = asFloat(rb);
        float c = asFloat(rc);
        switch (instr.op) {
          case Opcode::MOV: return ra;
          case Opcode::ADD: return asBits(a + b);
          case Opcode::SUB: return asBits(a - b);
          case Opcode::MUL: return asBits(a * b);
          case Opcode::DIV: return asBits(a / b);
          case Opcode::MAD: return asBits(a * b + c);
          case Opcode::MIN: return asBits(std::fmin(a, b));
          case Opcode::MAX: return asBits(std::fmax(a, b));
          case Opcode::ABS: return asBits(std::fabs(a));
          case Opcode::NEG: return asBits(-a);
          case Opcode::FLR: return asBits(std::floor(a));
          case Opcode::FRC: return asBits(a - std::floor(a));
          case Opcode::RCP: return asBits(1.0f / a);
          case Opcode::RSQ: return asBits(1.0f / std::sqrt(a));
          case Opcode::SQRT: return asBits(std::sqrt(a));
          case Opcode::EX2: return asBits(std::exp2(a));
          case Opcode::LG2: return asBits(std::log2(a));
          case Opcode::SIN: return asBits(std::sin(a));
          case Opcode::COS: return asBits(std::cos(a));
          case Opcode::POW: return asBits(std::pow(a, b));
          default: break;
        }
    } else {
        auto sa = static_cast<std::int32_t>(ra);
        auto sb = static_cast<std::int32_t>(rb);
        auto sc = static_cast<std::int32_t>(rc);
        switch (instr.op) {
          case Opcode::MOV: return ra;
          case Opcode::ADD: return static_cast<std::uint32_t>(sa + sb);
          case Opcode::SUB: return static_cast<std::uint32_t>(sa - sb);
          case Opcode::MUL: return static_cast<std::uint32_t>(sa * sb);
          case Opcode::DIV:
            if (rb == 0)
                return 0;
            if (type == DataType::U32)
                return ra / rb;
            if (sa == std::numeric_limits<std::int32_t>::min() && sb == -1)
                return ra;
            return static_cast<std::uint32_t>(sa / sb);
          case Opcode::MAD:
            return static_cast<std::uint32_t>(sa * sb + sc);
          case Opcode::MIN:
            return type == DataType::U32
                       ? std::min(ra, rb)
                       : static_cast<std::uint32_t>(std::min(sa, sb));
          case Opcode::MAX:
            return type == DataType::U32
                       ? std::max(ra, rb)
                       : static_cast<std::uint32_t>(std::max(sa, sb));
          case Opcode::ABS:
            return static_cast<std::uint32_t>(std::abs(sa));
          case Opcode::NEG: return static_cast<std::uint32_t>(-sa);
          case Opcode::AND: return ra & rb;
          case Opcode::OR: return ra | rb;
          case Opcode::XOR: return ra ^ rb;
          case Opcode::NOT: return ~ra;
          case Opcode::SHL: return ra << (rb & 31);
          case Opcode::SHR:
            return instr.type == DataType::S32
                       ? static_cast<std::uint32_t>(sa >> (rb & 31))
                       : ra >> (rb & 31);
          default: break;
        }
    }
    panic("unhandled ALU op %s for type", opcodeName(instr.op));
}

std::uint32_t
convert(const Instruction &instr, std::uint32_t raw)
{
    if (instr.type == instr.srcType)
        return raw;
    if (instr.type == DataType::F32) {
        if (instr.srcType == DataType::S32) {
            return asBits(
                static_cast<float>(static_cast<std::int32_t>(raw)));
        }
        return asBits(static_cast<float>(raw));
    }
    if (instr.srcType != DataType::F32)
        return raw; // Integer to integer keeps the bits.
    // Float to integer: truncate, saturate, NaN to 0 (in double, where
    // every bound is exact).
    double f = asFloat(raw);
    if (std::isnan(f))
        return 0;
    if (instr.type == DataType::S32) {
        f = std::clamp(f, -2147483648.0, 2147483647.0);
        return static_cast<std::uint32_t>(static_cast<std::int32_t>(f));
    }
    return static_cast<std::uint32_t>(std::clamp(f, 0.0, 4294967295.0));
}

} // namespace

void
executeWarpInstruction(const Instruction &instr,
                       std::uint32_t active_mask, ThreadContext *threads,
                       ExecEnv &env, StepEffects &effects)
{
    effects.clear();

    for (unsigned lane = 0; lane < warpSize; ++lane) {
        if (!(active_mask & (1u << lane)))
            continue;
        ThreadContext &t = threads[lane];
        if (!t.alive)
            continue;

        // Guard predicate.
        if (instr.guard >= 0) {
            bool g = t.p[instr.guard];
            if (instr.guardNegate)
                g = !g;
            if (!g)
                continue;
        }
        effects.execMask |= 1u << lane;

        switch (instr.op) {
          case Opcode::NOP:
          case Opcode::BAR:
            break;

          case Opcode::EXIT:
            t.alive = false;
            break;

          case Opcode::DISCARD:
            t.alive = false;
            t.killed = true;
            break;

          case Opcode::BRA:
            effects.takenMask |= 1u << lane;
            break;

          case Opcode::SETP: {
            std::uint32_t a = readRaw(instr.src[0], t, env, instr.type);
            std::uint32_t b = readRaw(instr.src[1], t, env, instr.type);
            t.p[instr.dst.index] = compare(instr.cmp, instr.type, a, b);
            break;
          }

          case Opcode::SELP: {
            bool sel = t.p[instr.src[2].index];
            std::uint32_t a = readRaw(instr.src[0], t, env, instr.type);
            std::uint32_t b = readRaw(instr.src[1], t, env, instr.type);
            t.r[instr.dst.index] = sel ? a : b;
            break;
          }

          case Opcode::CVT: {
            std::uint32_t raw =
                readRaw(instr.src[0], t, env, instr.srcType);
            t.r[instr.dst.index] = convert(instr, raw);
            break;
          }

          case Opcode::LDG: {
            Addr addr = t.r[instr.src[0].index] + instr.memOffset;
            t.r[instr.dst.index] = env.global ? env.global->read32(addr)
                                              : 0;
            effects.accesses.push_back({addr, 4, false});
            effects.kind = AccessKind::GlobalData;
            break;
          }

          case Opcode::STG: {
            Addr addr = t.r[instr.src[0].index] + instr.memOffset;
            std::uint32_t v =
                readRaw(instr.src[1], t, env, instr.type);
            if (env.global)
                env.global->write32(addr, v);
            effects.accesses.push_back({addr, 4, true});
            effects.kind = AccessKind::GlobalData;
            break;
          }

          case Opcode::LDS: {
            Addr addr = t.r[instr.src[0].index] + instr.memOffset;
            std::uint32_t v = 0;
            if (env.sharedMem && addr + 4 <= env.sharedSize)
                std::memcpy(&v, env.sharedMem + addr, 4);
            t.r[instr.dst.index] = v;
            break;
          }

          case Opcode::STS: {
            Addr addr = t.r[instr.src[0].index] + instr.memOffset;
            std::uint32_t v =
                readRaw(instr.src[1], t, env, instr.type);
            if (env.sharedMem && addr + 4 <= env.sharedSize)
                std::memcpy(env.sharedMem + addr, &v, 4);
            break;
          }

          case Opcode::TEX: {
            panic_if(!env.textures, "TEX without bound textures");
            float u = readF(instr.src[0], t, env);
            float v = readF(instr.src[1], t, env);
            float rgba[4];
            std::vector<Addr> texels;
            env.textures->sample(instr.texUnit, u, v, rgba, texels);
            for (int i = 0; i < 4; ++i)
                t.r[instr.dst.index + i] = asBits(rgba[i]);
            for (Addr a : texels)
                effects.accesses.push_back({a, 4, false});
            effects.kind = AccessKind::Texture;
            break;
          }

          case Opcode::STO: {
            float v = readF(instr.src[0], t, env);
            t.o[instr.dst.index] = v;
            break;
          }

          case Opcode::ZTEST: {
            panic_if(!env.rop, "ZTEST without a framebuffer");
            float z = readF(instr.src[0], t, env);
            Addr addr = 0;
            bool pass = env.rop->depthTest(t.fragX, t.fragY, z, addr);
            effects.accesses.push_back({addr, 4, pass});
            effects.kind = AccessKind::Depth;
            if (!pass) {
                t.alive = false;
                t.killed = true;
            }
            break;
          }

          case Opcode::BLEND: {
            panic_if(!env.rop, "BLEND without a framebuffer");
            float rgba[4];
            for (int i = 0; i < 4; ++i)
                rgba[i] = asFloat(t.r[instr.src[0].index + i]);
            Addr addr = 0;
            env.rop->blendPixel(t.fragX, t.fragY, rgba, addr);
            // Read-modify-write of the destination pixel.
            effects.accesses.push_back({addr, 4, false});
            effects.accesses.push_back({addr, 4, true});
            effects.kind = AccessKind::Color;
            break;
          }

          case Opcode::STFB: {
            panic_if(!env.rop, "STFB without a framebuffer");
            float rgba[4];
            for (int i = 0; i < 4; ++i)
                rgba[i] = asFloat(t.r[instr.src[0].index + i]);
            Addr addr = 0;
            env.rop->storePixel(t.fragX, t.fragY, rgba, addr);
            effects.accesses.push_back({addr, 4, true});
            effects.kind = AccessKind::Color;
            break;
          }

          default:
            t.r[instr.dst.index] = aluOp(instr, t, env);
            break;
        }
    }
}

} // namespace emerald::gpu::isa::reference
