#include "gpu/isa/executor.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <functional>
#include <iterator>
#include <type_traits>

#include "sim/logging.hh"

namespace emerald::gpu::isa
{

WarpState::WarpState()
{
    std::fill(std::begin(ntidX), std::end(ntidX), 1u);
    std::fill(std::begin(ntidY), std::end(ntidY), 1u);
}

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

/** Call @p f(lane) for every lane set in @p mask, lowest lane first. */
template <typename F>
void
forLanes(std::uint32_t mask, F &&f)
{
    for (; mask != 0; mask &= mask - 1)
        f(static_cast<unsigned>(std::countr_zero(mask)));
}

/** Lane array of an absent ALU operand, which reads 0. */
constexpr std::uint32_t zeroLanes[warpSize] = {};

/**
 * A source operand resolved once per warp instruction into one lane
 * array: a register or compute-input row of the state itself, or a
 * local copy holding a uniform value (immediate, constant) or the
 * 32-bit image of a float or converted input. A copy holds only the
 * executing lanes, the only ones read.
 */
class Src
{
  public:
    Src(const Operand &op, const WarpState &s, const ExecEnv &env,
        DataType type, std::uint32_t exec)
    {
        switch (op.kind) {
          case Operand::Kind::None:
            _lanes = zeroLanes;
            return;
          case Operand::Kind::Reg:
            _lanes = s.r[op.index];
            return;
          case Operand::Kind::Imm:
            uniform(op.imm.u);
            return;
          case Operand::Kind::Const:
            uniform(env.constants &&
                            op.index < static_cast<int>(env.numConstants)
                        ? asBits(env.constants[op.index])
                        : 0);
            return;
          case Operand::Kind::Attr:
            convert(s.a[op.index], exec, asBits);
            return;
          case Operand::Kind::Out:
            convert(s.o[op.index], exec, asBits);
            return;
          case Operand::Kind::Special:
            special(op.special, s, type, exec);
            return;
          default:
            panic("bad source operand kind");
        }
    }

    Src(const Src &) = delete;
    Src &operator=(const Src &) = delete;

    std::uint32_t operator[](unsigned lane) const { return _lanes[lane]; }
    float f(unsigned lane) const { return asFloat(_lanes[lane]); }

  private:
    void
    uniform(std::uint32_t value)
    {
        std::fill(std::begin(_copy), std::end(_copy), value);
        _lanes = _copy;
    }

    template <typename T, typename F>
    void
    convert(const T *in, std::uint32_t exec, F to_bits)
    {
        forLanes(exec, [&](unsigned l) { _copy[l] = to_bits(in[l]); });
        _lanes = _copy;
    }

    void
    special(SpecialReg reg, const WarpState &s, DataType type,
            std::uint32_t exec)
    {
        const bool f32 = type == DataType::F32;
        auto int_lanes = [&](const int *in) {
            if (f32) {
                convert(in, exec, [](int v) {
                    return asBits(static_cast<float>(v));
                });
            } else {
                convert(in, exec, [](int v) {
                    return static_cast<std::uint32_t>(v);
                });
            }
        };
        switch (reg) {
          case SpecialReg::FragX: int_lanes(s.fragX); return;
          case SpecialReg::FragY: int_lanes(s.fragY); return;
          case SpecialReg::FragZ: convert(s.fragZ, exec, asBits); return;
          case SpecialReg::VertId:
            if (f32) {
                convert(s.vertexId, exec, [](std::uint32_t v) {
                    return asBits(static_cast<float>(v));
                });
            } else {
                _lanes = s.vertexId;
            }
            return;
          case SpecialReg::TidX: _lanes = s.tidX; return;
          case SpecialReg::TidY: _lanes = s.tidY; return;
          case SpecialReg::CtaIdX: _lanes = s.ctaIdX; return;
          case SpecialReg::CtaIdY: _lanes = s.ctaIdY; return;
          case SpecialReg::NTidX: _lanes = s.ntidX; return;
          case SpecialReg::NTidY: _lanes = s.ntidY; return;
        }
        uniform(0);
    }

    const std::uint32_t *_lanes = nullptr;
    std::uint32_t _copy[warpSize];
};

/** A lane's 32 bits read as the comparison's operand type. */
template <typename T>
T
laneAs(std::uint32_t bits)
{
    if constexpr (std::is_same_v<T, float>)
        return asFloat(bits);
    else
        return static_cast<T>(bits);
}

template <typename T, typename Cmp>
std::uint32_t
compareLanes(std::uint32_t exec, const Src &a, const Src &b, Cmp cmp)
{
    std::uint32_t out = 0;
    forLanes(exec, [&](unsigned l) {
        if (cmp(laneAs<T>(a[l]), laneAs<T>(b[l])))
            out |= 1u << l;
    });
    return out;
}

/** Lanes of @p exec for which `a cmp b` holds, compared as T. */
template <typename T>
std::uint32_t
compareMask(CmpOp cmp, std::uint32_t exec, const Src &a, const Src &b)
{
    switch (cmp) {
      case CmpOp::EQ: return compareLanes<T>(exec, a, b, std::equal_to<T>());
      case CmpOp::NE:
        return compareLanes<T>(exec, a, b, std::not_equal_to<T>());
      case CmpOp::LT: return compareLanes<T>(exec, a, b, std::less<T>());
      case CmpOp::LE:
        return compareLanes<T>(exec, a, b, std::less_equal<T>());
      case CmpOp::GT: return compareLanes<T>(exec, a, b, std::greater<T>());
      case CmpOp::GE:
        return compareLanes<T>(exec, a, b, std::greater_equal<T>());
    }
    return 0;
}

/**
 * cvt: an integer-to-integer conversion keeps the bits; a
 * float-to-integer one truncates toward zero and saturates to the
 * destination's range, with NaN giving 0.
 */
std::uint32_t
convert(const Instruction &instr, std::uint32_t raw)
{
    if (instr.type == DataType::F32 && instr.srcType == DataType::S32)
        return asBits(static_cast<float>(static_cast<std::int32_t>(raw)));
    if (instr.type == DataType::F32 && instr.srcType == DataType::U32)
        return asBits(static_cast<float>(raw));
    if (instr.type == DataType::F32 || instr.srcType != DataType::F32)
        return raw;
    float f = asFloat(raw);
    if (std::isnan(f))
        return 0;
    if (instr.type == DataType::S32) {
        if (f <= -2147483648.0f)
            return 0x80000000u;
        if (f >= 2147483648.0f)
            return 0x7fffffffu;
        return static_cast<std::uint32_t>(static_cast<std::int32_t>(f));
    }
    if (f <= 0.0f)
        return 0;
    if (f >= 4294967296.0f)
        return 0xffffffffu;
    return static_cast<std::uint32_t>(f);
}

std::int32_t
s32(std::uint32_t bits)
{
    return static_cast<std::int32_t>(bits);
}

/**
 * The ALU and SFU ops. Add, subtract, multiply, mad and negate wrap
 * modulo 2^32; division, min and max compare and divide as the
 * instruction's type (S32 signed, U32 unsigned), and SHR of S32 is
 * arithmetic. Integer division by zero gives 0, and S32 INT_MIN / -1
 * wraps to INT_MIN.
 */
void
aluOp(const Instruction &instr, WarpState &s, const ExecEnv &env,
      std::uint32_t exec)
{
    const DataType type = instr.type;
    Src a(instr.src[0], s, env, type, exec);
    Src b(instr.src[1], s, env, type, exec);
    Src c(instr.src[2], s, env, type, exec);
    std::uint32_t *d = s.r[instr.dst.index];

    auto lanes = [&](auto op) {
        forLanes(exec, [&](unsigned l) { d[l] = op(l); });
    };
    auto f1 = [&](auto op) {
        lanes([&](unsigned l) { return asBits(op(a.f(l))); });
    };
    auto f2 = [&](auto op) {
        lanes([&](unsigned l) { return asBits(op(a.f(l), b.f(l))); });
    };
    auto i2 = [&](auto op) {
        lanes([&](unsigned l) { return op(a[l], b[l]); });
    };

    if (instr.op == Opcode::MOV) {
        lanes([&](unsigned l) { return a[l]; });
        return;
    }
    if (type == DataType::F32) {
        switch (instr.op) {
          case Opcode::ADD: return f2([](float x, float y) { return x + y; });
          case Opcode::SUB: return f2([](float x, float y) { return x - y; });
          case Opcode::MUL: return f2([](float x, float y) { return x * y; });
          case Opcode::DIV: return f2([](float x, float y) { return x / y; });
          case Opcode::MAD:
            return lanes([&](unsigned l) {
                return asBits(a.f(l) * b.f(l) + c.f(l));
            });
          case Opcode::MIN:
            return f2([](float x, float y) { return std::fmin(x, y); });
          case Opcode::MAX:
            return f2([](float x, float y) { return std::fmax(x, y); });
          case Opcode::ABS: return f1([](float x) { return std::fabs(x); });
          case Opcode::NEG: return f1([](float x) { return -x; });
          case Opcode::FLR: return f1([](float x) { return std::floor(x); });
          case Opcode::FRC:
            return f1([](float x) { return x - std::floor(x); });
          case Opcode::RCP: return f1([](float x) { return 1.0f / x; });
          case Opcode::RSQ:
            return f1([](float x) { return 1.0f / std::sqrt(x); });
          case Opcode::SQRT: return f1([](float x) { return std::sqrt(x); });
          case Opcode::EX2: return f1([](float x) { return std::exp2(x); });
          case Opcode::LG2: return f1([](float x) { return std::log2(x); });
          case Opcode::SIN: return f1([](float x) { return std::sin(x); });
          case Opcode::COS: return f1([](float x) { return std::cos(x); });
          case Opcode::POW:
            return f2([](float x, float y) { return std::pow(x, y); });
          default: break;
        }
    } else {
        using U = std::uint32_t;
        switch (instr.op) {
          case Opcode::ADD: return i2([](U x, U y) { return x + y; });
          case Opcode::SUB: return i2([](U x, U y) { return x - y; });
          case Opcode::MUL: return i2([](U x, U y) { return x * y; });
          case Opcode::DIV:
            if (type == DataType::U32)
                return i2([](U x, U y) { return y == 0 ? 0u : x / y; });
            return i2([](U x, U y) {
                if (y == 0)
                    return 0u;
                if (s32(y) == -1) // INT_MIN / -1 wraps, as negation.
                    return 0u - x;
                return static_cast<U>(s32(x) / s32(y));
            });
          case Opcode::MAD:
            return lanes([&](unsigned l) { return a[l] * b[l] + c[l]; });
          case Opcode::MIN:
            if (type == DataType::U32)
                return i2([](U x, U y) { return std::min(x, y); });
            return i2([](U x, U y) {
                return static_cast<U>(std::min(s32(x), s32(y)));
            });
          case Opcode::MAX:
            if (type == DataType::U32)
                return i2([](U x, U y) { return std::max(x, y); });
            return i2([](U x, U y) {
                return static_cast<U>(std::max(s32(x), s32(y)));
            });
          case Opcode::ABS:
            return lanes([&](unsigned l) {
                return s32(a[l]) < 0 ? 0u - a[l] : a[l];
            });
          case Opcode::NEG:
            return lanes([&](unsigned l) { return 0u - a[l]; });
          case Opcode::AND: return i2([](U x, U y) { return x & y; });
          case Opcode::OR: return i2([](U x, U y) { return x | y; });
          case Opcode::XOR: return i2([](U x, U y) { return x ^ y; });
          case Opcode::NOT: return lanes([&](unsigned l) { return ~a[l]; });
          case Opcode::SHL:
            return i2([](U x, U y) { return x << (y & 31); });
          case Opcode::SHR:
            if (type == DataType::S32) {
                return i2([](U x, U y) {
                    return static_cast<U>(s32(x) >> (y & 31));
                });
            }
            return i2([](U x, U y) { return x >> (y & 31); });
          default: break;
        }
    }
    panic("unhandled ALU op %s for type", opcodeName(instr.op));
}

} // namespace

void
executeWarpInstruction(const Instruction &instr,
                       std::uint32_t active_mask, WarpState &s,
                       ExecEnv &env, StepEffects &effects)
{
    effects.clear();

    std::uint32_t exec = active_mask & s.alive;
    if (instr.guard >= 0) {
        std::uint32_t guard = s.p[instr.guard];
        exec &= instr.guardNegate ? ~guard : guard;
    }
    effects.execMask = exec;
    if (exec == 0)
        return;

    switch (instr.op) {
      case Opcode::NOP:
      case Opcode::BAR:
        break;

      case Opcode::EXIT:
        s.alive &= ~exec;
        break;

      case Opcode::DISCARD:
        s.alive &= ~exec;
        s.killed |= exec;
        break;

      case Opcode::BRA:
        effects.takenMask = exec;
        break;

      case Opcode::SETP: {
        Src a(instr.src[0], s, env, instr.type, exec);
        Src b(instr.src[1], s, env, instr.type, exec);
        std::uint32_t set;
        if (instr.type == DataType::F32)
            set = compareMask<float>(instr.cmp, exec, a, b);
        else if (instr.type == DataType::S32)
            set = compareMask<std::int32_t>(instr.cmp, exec, a, b);
        else
            set = compareMask<std::uint32_t>(instr.cmp, exec, a, b);
        std::uint32_t &p = s.p[instr.dst.index];
        p = (p & ~exec) | set;
        break;
      }

      case Opcode::SELP: {
        std::uint32_t sel = s.p[instr.src[2].index];
        Src a(instr.src[0], s, env, instr.type, exec);
        Src b(instr.src[1], s, env, instr.type, exec);
        std::uint32_t *d = s.r[instr.dst.index];
        forLanes(exec, [&](unsigned l) {
            d[l] = (sel >> l) & 1u ? a[l] : b[l];
        });
        break;
      }

      case Opcode::CVT: {
        Src a(instr.src[0], s, env, instr.srcType, exec);
        std::uint32_t *d = s.r[instr.dst.index];
        forLanes(exec, [&](unsigned l) { d[l] = convert(instr, a[l]); });
        break;
      }

      case Opcode::LDG: {
        const std::uint32_t *base = s.r[instr.src[0].index];
        std::uint32_t *d = s.r[instr.dst.index];
        forLanes(exec, [&](unsigned l) {
            Addr addr = base[l] + instr.memOffset;
            d[l] = env.global ? env.global->read32(addr) : 0;
            effects.accesses.push_back({addr, 4, false});
        });
        effects.kind = AccessKind::GlobalData;
        break;
      }

      case Opcode::STG: {
        const std::uint32_t *base = s.r[instr.src[0].index];
        Src v(instr.src[1], s, env, instr.type, exec);
        forLanes(exec, [&](unsigned l) {
            Addr addr = base[l] + instr.memOffset;
            if (env.global)
                env.global->write32(addr, v[l]);
            effects.accesses.push_back({addr, 4, true});
        });
        effects.kind = AccessKind::GlobalData;
        break;
      }

      case Opcode::LDS: {
        const std::uint32_t *base = s.r[instr.src[0].index];
        std::uint32_t *d = s.r[instr.dst.index];
        forLanes(exec, [&](unsigned l) {
            Addr addr = base[l] + instr.memOffset;
            std::uint32_t v = 0;
            if (env.sharedMem && addr + 4 <= env.sharedSize)
                std::memcpy(&v, env.sharedMem + addr, 4);
            d[l] = v;
        });
        break;
      }

      case Opcode::STS: {
        const std::uint32_t *base = s.r[instr.src[0].index];
        Src v(instr.src[1], s, env, instr.type, exec);
        forLanes(exec, [&](unsigned l) {
            Addr addr = base[l] + instr.memOffset;
            std::uint32_t value = v[l];
            if (env.sharedMem && addr + 4 <= env.sharedSize)
                std::memcpy(env.sharedMem + addr, &value, 4);
        });
        break;
      }

      case Opcode::TEX: {
        panic_if(!env.textures, "TEX without bound textures");
        Src u(instr.src[0], s, env, DataType::F32, exec);
        Src v(instr.src[1], s, env, DataType::F32, exec);
        forLanes(exec, [&](unsigned l) {
            float rgba[4];
            effects.texels.clear();
            env.textures->sample(instr.texUnit, u.f(l), v.f(l), rgba,
                                 effects.texels);
            for (int i = 0; i < 4; ++i)
                s.r[instr.dst.index + i][l] = asBits(rgba[i]);
            for (Addr a : effects.texels)
                effects.accesses.push_back({a, 4, false});
        });
        effects.kind = AccessKind::Texture;
        break;
      }

      case Opcode::STO: {
        Src v(instr.src[0], s, env, DataType::F32, exec);
        float *o = s.o[instr.dst.index];
        forLanes(exec, [&](unsigned l) { o[l] = v.f(l); });
        break;
      }

      case Opcode::ZTEST: {
        panic_if(!env.rop, "ZTEST without a framebuffer");
        Src z(instr.src[0], s, env, DataType::F32, exec);
        forLanes(exec, [&](unsigned l) {
            Addr addr = 0;
            bool pass =
                env.rop->depthTest(s.fragX[l], s.fragY[l], z.f(l), addr);
            effects.accesses.push_back({addr, 4, pass});
            if (!pass) {
                s.alive &= ~(1u << l);
                s.killed |= 1u << l;
            }
        });
        effects.kind = AccessKind::Depth;
        break;
      }

      case Opcode::BLEND: {
        panic_if(!env.rop, "BLEND without a framebuffer");
        forLanes(exec, [&](unsigned l) {
            float rgba[4];
            for (int i = 0; i < 4; ++i)
                rgba[i] = asFloat(s.r[instr.src[0].index + i][l]);
            Addr addr = 0;
            env.rop->blendPixel(s.fragX[l], s.fragY[l], rgba, addr);
            // Read-modify-write of the destination pixel.
            effects.accesses.push_back({addr, 4, false});
            effects.accesses.push_back({addr, 4, true});
        });
        effects.kind = AccessKind::Color;
        break;
      }

      case Opcode::STFB: {
        panic_if(!env.rop, "STFB without a framebuffer");
        forLanes(exec, [&](unsigned l) {
            float rgba[4];
            for (int i = 0; i < 4; ++i)
                rgba[i] = asFloat(s.r[instr.src[0].index + i][l]);
            Addr addr = 0;
            env.rop->storePixel(s.fragX[l], s.fragY[l], rgba, addr);
            effects.accesses.push_back({addr, 4, true});
        });
        effects.kind = AccessKind::Color;
        break;
      }

      default:
        aluOp(instr, s, env, exec);
        break;
    }
}

} // namespace emerald::gpu::isa
