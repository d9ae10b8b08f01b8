// The lane-major executor (src/gpu/isa/executor.cc) against the
// per-thread executor it replaced (reference_executor.cc): generated
// programs covering every opcode, every operand kind and every
// special register, plain and negated guards, partial active masks,
// and lanes killed mid-program by exit, discard and ztest run through
// both. After every instruction the registers, predicates, outputs,
// alive and killed lanes and the StepEffects must agree lane by lane;
// at the end, so must the order of every texture and ROP call and the
// global and shared memory they wrote.

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "gpu/isa/executor.hh"
#include "mem/functional_memory.hh"
#include "reference_executor.hh"
#include "sim/random.hh"

using namespace emerald;
using namespace emerald::gpu::isa;

namespace
{

// Register roles. Integer add, subtract, multiply, divide, negate and
// absolute value overflow (undefined behaviour in the reference) only
// on large operands, and float-to-int conversion only on out-of-range
// floats, so those read only the read-only small registers below.
constexpr int smallIntRegs = 0;   // r0..r7: ints in [-64, 64]
constexpr int smallFloatRegs = 8; // r8..r15: floats in [-100, 100]
constexpr int addrRegs = 16;      // r16..r19: byte addresses
constexpr int firstScratch = 20;  // r20..r63: anything; written
constexpr unsigned numConstants = 6; // c[6], c[7] read 0
constexpr unsigned sharedBytes = 256;
constexpr Addr globalBase = 0x1000;

std::uint32_t
bits(float f)
{
    return std::bit_cast<std::uint32_t>(f);
}

/** Every call the fake units receive, in order, with its inputs. */
using CallLog = std::vector<std::uint32_t>;

/**
 * Texture sampler whose result and texel addresses (one to four) are
 * a function of its inputs; it logs each call.
 */
class FakeTextures final : public TextureSamplerIface
{
  public:
    void
    sample(int unit, float u, float v, float rgba[4],
           std::vector<Addr> &texel_addrs) override
    {
        log.insert(log.end(), {0xAu, static_cast<std::uint32_t>(unit),
                               bits(u), bits(v)});
        rgba[0] = u * 0.5f;
        rgba[1] = v + static_cast<float>(unit);
        rgba[2] = u - v;
        rgba[3] = 1.0f;
        const std::uint32_t h = bits(u) * 31u ^ bits(v);
        for (std::uint32_t i = 0; i <= h % 4; ++i)
            texel_addrs.push_back(0x100000 + (h >> 20) * 4 + i * 64);
    }

    CallLog log;
};

/**
 * ROP over an 8x8 depth and colour buffer: a fragment passes the depth
 * test when nearer than the stored depth and then replaces it, and
 * blends accumulate, so lanes that share a pixel see each other in
 * lane order. It logs each call.
 */
class FakeRop final : public RopIface
{
  public:
    FakeRop() { depth.fill(1.0f); }

    bool
    depthTest(int x, int y, float z, Addr &addr) override
    {
        log.insert(log.end(), {0xBu, static_cast<std::uint32_t>(x),
                               static_cast<std::uint32_t>(y), bits(z)});
        addr = pixelAddr(x, y);
        float &stored = depth[pixel(x, y)];
        if (!(z < stored))
            return false;
        stored = z;
        return true;
    }

    void
    blendPixel(int x, int y, const float rgba[4], Addr &addr) override
    {
        logColour(0xCu, x, y, rgba);
        addr = pixelAddr(x, y);
        colour[pixel(x, y)] += rgba[0] * rgba[3];
    }

    void
    storePixel(int x, int y, const float rgba[4], Addr &addr) override
    {
        logColour(0xDu, x, y, rgba);
        addr = pixelAddr(x, y) + 0x40000;
        colour[pixel(x, y)] = rgba[1];
    }

    CallLog log;

  private:
    static std::size_t
    pixel(int x, int y)
    {
        return static_cast<std::size_t>((y & 7) * 8 + (x & 7));
    }

    static Addr
    pixelAddr(int x, int y)
    {
        return 0x200000 + pixel(x, y) * 4;
    }

    void
    logColour(std::uint32_t tag, int x, int y, const float rgba[4])
    {
        log.insert(log.end(), {tag, static_cast<std::uint32_t>(x),
                               static_cast<std::uint32_t>(y),
                               bits(rgba[0]), bits(rgba[1]),
                               bits(rgba[2]), bits(rgba[3])});
    }

    std::array<float, 64> depth;
    std::array<float, 64> colour = {};
};

/** One executor's world: its state, memories and fake units. */
struct Side
{
    mem::FunctionalMemory global;
    std::array<std::uint8_t, sharedBytes> shared = {};
    FakeTextures textures;
    FakeRop rop;
    ExecEnv env;
    StepEffects effects;

    explicit Side(const float *constants)
    {
        env.global = &global;
        env.textures = &textures;
        env.rop = &rop;
        env.constants = constants;
        env.numConstants = numConstants;
        env.sharedMem = shared.data();
        env.sharedSize = sharedBytes;
    }
};

/** Draws operands and instructions for one program. */
class Generator
{
  public:
    explicit Generator(std::uint64_t seed) : _rng(seed) {}

    Random &rng() { return _rng; }

    int
    pick(int lo, int hi)
    {
        return static_cast<int>(_rng.between(lo, hi));
    }

    float
    smallFloat()
    {
        return static_cast<float>(_rng.uniform() * 200.0 - 100.0);
    }

    /** Any 32-bit pattern; mostly plain floats, sometimes raw bits. */
    std::uint32_t
    anyBits()
    {
        return _rng.chance(0.25) ? static_cast<std::uint32_t>(_rng.next())
                                 : bits(smallFloat());
    }

    static Operand
    reg(int index)
    {
        Operand op;
        op.kind = Operand::Kind::Reg;
        op.index = index;
        return op;
    }

    static Operand
    kind(Operand::Kind k, int index)
    {
        Operand op;
        op.kind = k;
        op.index = index;
        return op;
    }

    static Operand
    special(SpecialReg reg)
    {
        Operand op;
        op.kind = Operand::Kind::Special;
        op.special = reg;
        return op;
    }

    Operand
    imm(std::uint32_t value)
    {
        Operand op;
        op.kind = Operand::Kind::Imm;
        op.imm.u = value;
        return op;
    }

    SpecialReg
    anySpecial()
    {
        return static_cast<SpecialReg>(pick(0, 9));
    }

    /** Any source operand of any kind. */
    Operand
    anySrc()
    {
        switch (pick(0, 5)) {
          case 0: return reg(pick(0, maxRegs - 1));
          case 1: return imm(anyBits());
          case 2: return kind(Operand::Kind::Const, pick(0, 7));
          case 3: return kind(Operand::Kind::Attr, pick(0, maxAttrs - 1));
          case 4: return kind(Operand::Kind::Out, pick(0, maxOutputs - 1));
          default: return special(anySpecial());
        }
    }

    /** A source whose value, read as an integer, lies in [-64, 64]. */
    Operand
    smallIntSrc()
    {
        switch (pick(0, 4)) {
          case 0: return reg(smallIntRegs + pick(0, 7));
          case 1:
            return imm(static_cast<std::uint32_t>(pick(-64, 64)));
          case 2: return kind(Operand::Kind::Const, pick(4, 7));
          case 3: return kind(Operand::Kind::Attr, pick(12, 15));
          default: {
            // Every special register is small read as an integer;
            // %z's float bits are not.
            SpecialReg r = anySpecial();
            return special(r == SpecialReg::FragZ ? SpecialReg::TidX
                                                  : r);
          }
        }
    }

    DataType
    anyType()
    {
        return static_cast<DataType>(pick(0, 2));
    }

    DataType
    intType()
    {
        return _rng.chance(0.5) ? DataType::S32 : DataType::U32;
    }

    Instruction
    next()
    {
        Instruction in;
        in.op = static_cast<Opcode>(pick(0, static_cast<int>(Opcode::EXIT)));
        if (_rng.chance(0.6)) {
            in.guard = pick(0, maxPreds - 1);
            in.guardNegate = _rng.chance(0.5);
        }
        in.dst = reg(pick(firstScratch, maxRegs - 1));
        switch (in.op) {
          case Opcode::NOP:
          case Opcode::BAR:
          case Opcode::EXIT:
          case Opcode::DISCARD:
            break;
          case Opcode::BRA:
            in.target = pick(0, 40);
            break;
          case Opcode::MOV:
            in.type = anyType();
            in.src[0] = anySrc();
            break;
          case Opcode::AND: case Opcode::OR: case Opcode::XOR:
          case Opcode::SHL: case Opcode::SHR:
            in.type = intType();
            in.src[0] = anySrc();
            in.src[1] = anySrc();
            break;
          case Opcode::NOT:
            in.type = intType();
            in.src[0] = anySrc();
            break;
          case Opcode::CVT:
            // Every conversion is defined on every input (docs/ISA.md),
            // NaN and out-of-range floats included.
            in.type = anyType();
            in.srcType = anyType();
            in.src[0] = anySrc();
            break;
          case Opcode::SETP:
            in.type = anyType();
            in.cmp = static_cast<CmpOp>(pick(0, 5));
            in.dst = kind(Operand::Kind::Pred, pick(0, maxPreds - 1));
            in.src[0] = anySrc();
            in.src[1] = anySrc();
            break;
          case Opcode::SELP:
            in.type = anyType();
            in.src[0] = anySrc();
            in.src[1] = anySrc();
            in.src[2] = kind(Operand::Kind::Pred, pick(0, maxPreds - 1));
            break;
          case Opcode::LDG:
          case Opcode::LDS:
            in.src[0] = reg(addrRegs + pick(0, 3));
            in.memOffset = pick(-4, 8) * 4;
            break;
          case Opcode::STG:
          case Opcode::STS:
            in.type = anyType();
            in.src[0] = reg(addrRegs + pick(0, 3));
            in.src[1] = anySrc();
            in.memOffset = pick(-4, 8) * 4;
            break;
          case Opcode::TEX:
            in.dst = reg(pick(firstScratch, maxRegs - 4));
            in.texUnit = pick(0, 3);
            in.src[0] = anySrc();
            in.src[1] = anySrc();
            break;
          case Opcode::STO:
            in.dst = kind(Operand::Kind::Out, pick(0, maxOutputs - 1));
            in.src[0] = anySrc();
            break;
          case Opcode::ZTEST:
            // Mostly depths in [0, 1), so some pass and some fail.
            in.src[0] = _rng.chance(0.7) ? special(SpecialReg::FragZ)
                                         : anySrc();
            break;
          case Opcode::BLEND:
          case Opcode::STFB:
            in.src[0] = reg(pick(0, maxRegs - 4));
            break;
          default: {
            // The other ALU ops and the SFU ops: F32 over any
            // operands, integers over small ones.
            const bool float_only = in.op == Opcode::FLR ||
                                    in.op == Opcode::FRC ||
                                    in.op >= Opcode::RCP;
            in.type = float_only || _rng.chance(0.5) ? DataType::F32
                                                     : intType();
            const bool unary = in.op == Opcode::ABS ||
                               in.op == Opcode::NEG ||
                               in.op == Opcode::FLR ||
                               in.op == Opcode::FRC ||
                               (in.op >= Opcode::RCP &&
                                in.op <= Opcode::COS);
            const int arity = in.op == Opcode::MAD ? 3 : unary ? 1 : 2;
            for (int i = 0; i < arity; ++i) {
                in.src[i] = in.type == DataType::F32 ? anySrc()
                                                     : smallIntSrc();
            }
            break;
          }
        }
        return in;
    }

    /** Active mask: full, empty, a prefix, or any lanes. */
    std::uint32_t
    activeMask()
    {
        switch (pick(0, 5)) {
          case 0: return 0xffffffffu;
          case 1: return 0;
          case 2: return (1u << pick(1, 31)) - 1u;
          default: return static_cast<std::uint32_t>(_rng.next());
        }
    }

  private:
    Random _rng;
};

/** Both executors' states, initialised to the same random values. */
void
initState(Generator &gen, reference::ThreadContext *ref, WarpState &s)
{
    Random &rng = gen.rng();
    for (unsigned lane = 0; lane < warpSize; ++lane) {
        reference::ThreadContext &t = ref[lane];
        for (int r = 0; r < static_cast<int>(maxRegs); ++r) {
            std::uint32_t v;
            if (r < smallFloatRegs)
                v = static_cast<std::uint32_t>(gen.pick(-64, 64));
            else if (r < addrRegs)
                v = bits(gen.smallFloat());
            else if (r < firstScratch) {
                // Global window, shared window and beyond, with lanes
                // colliding on the same words.
                v = static_cast<std::uint32_t>(
                    r == addrRegs ? globalBase + 4 * gen.pick(0, 15)
                    : r == addrRegs + 1
                        ? globalBase + 4 * gen.pick(0, 120)
                    : r == addrRegs + 2 ? 4 * gen.pick(0, 70)
                                        : 4 * gen.pick(0, 16));
            } else {
                v = gen.anyBits();
            }
            t.r[r] = v;
            s.r[r][lane] = v;
        }
        for (unsigned p = 0; p < maxPreds; ++p) {
            t.p[p] = rng.chance(0.5);
            if (t.p[p])
                s.p[p] |= 1u << lane;
        }
        for (unsigned a = 0; a < maxAttrs; ++a) {
            // a[12..15] hold small integers' bit patterns.
            float v = a < 12 ? gen.smallFloat()
                             : std::bit_cast<float>(static_cast<std::uint32_t>(
                                   gen.pick(0, 64)));
            t.a[a] = v;
            s.a[a][lane] = v;
        }
        for (unsigned o = 0; o < maxOutputs; ++o) {
            float v = std::bit_cast<float>(gen.anyBits());
            t.o[o] = v;
            s.o[o][lane] = v;
        }
        t.fragX = s.fragX[lane] = gen.pick(0, 7);
        t.fragY = s.fragY[lane] = gen.pick(0, 7);
        t.fragZ = s.fragZ[lane] = static_cast<float>(rng.uniform());
        auto small = [&] {
            return static_cast<std::uint32_t>(gen.pick(0, 64));
        };
        t.vertexId = s.vertexId[lane] = small();
        t.tidX = s.tidX[lane] = small();
        t.tidY = s.tidY[lane] = small();
        t.ctaIdX = s.ctaIdX[lane] = small();
        t.ctaIdY = s.ctaIdY[lane] = small();
        if (rng.chance(0.5)) { // Else both keep the default of 1.
            t.ntidX = s.ntidX[lane] = small();
            t.ntidY = s.ntidY[lane] = small();
        }
    }
}

::testing::AssertionResult
sameState(const reference::ThreadContext *ref, const WarpState &s)
{
    for (unsigned lane = 0; lane < warpSize; ++lane) {
        const reference::ThreadContext &t = ref[lane];
        const std::uint32_t bit = 1u << lane;
        auto fail = [&](const char *what, unsigned index) {
            return ::testing::AssertionFailure()
                   << what << "[" << index << "] differs on lane " << lane;
        };
        for (unsigned r = 0; r < maxRegs; ++r) {
            if (t.r[r] != s.r[r][lane])
                return fail("r", r);
        }
        for (unsigned p = 0; p < maxPreds; ++p) {
            if (t.p[p] != ((s.p[p] & bit) != 0))
                return fail("p", p);
        }
        for (unsigned o = 0; o < maxOutputs; ++o) {
            if (bits(t.o[o]) != bits(s.o[o][lane]))
                return fail("o", o);
        }
        for (unsigned a = 0; a < maxAttrs; ++a) {
            if (bits(t.a[a]) != bits(s.a[a][lane]))
                return fail("a", a);
        }
        if (t.alive != ((s.alive & bit) != 0))
            return fail("alive", 0);
        if (t.killed != ((s.killed & bit) != 0))
            return fail("killed", 0);
    }
    return ::testing::AssertionSuccess();
}

::testing::AssertionResult
sameEffects(const StepEffects &ref, const StepEffects &fx)
{
    if (ref.execMask != fx.execMask)
        return ::testing::AssertionFailure() << "execMask differs";
    if (ref.takenMask != fx.takenMask)
        return ::testing::AssertionFailure() << "takenMask differs";
    if (ref.kind != fx.kind)
        return ::testing::AssertionFailure() << "kind differs";
    if (ref.accesses.size() != fx.accesses.size()) {
        return ::testing::AssertionFailure()
               << ref.accesses.size() << " accesses against "
               << fx.accesses.size();
    }
    for (std::size_t i = 0; i < ref.accesses.size(); ++i) {
        const ThreadMemAccess &x = ref.accesses[i];
        const ThreadMemAccess &y = fx.accesses[i];
        if (x.addr != y.addr || x.size != y.size || x.write != y.write)
            return ::testing::AssertionFailure() << "access " << i;
    }
    // StepEffects::texels is the executor's reused buffer, not an effect.
    return ::testing::AssertionSuccess();
}

} // namespace

TEST(IsaDifferential, LaneMajorMatchesPerThreadReference)
{
    const float constants[numConstants] = {
        1.5f, -2.25f, 0.5f, 3.0f,
        // Small integers' bit patterns.
        std::bit_cast<float>(5u), std::bit_cast<float>(60u)};

    std::set<Opcode> executed;
    std::set<Operand::Kind> read_kinds;
    std::set<SpecialReg> specials;
    unsigned negated_guards = 0, plain_guards = 0, partial_masks = 0;
    std::map<Opcode, unsigned> kills;

    for (std::uint64_t seed = 1; seed <= 250; ++seed) {
        Generator gen(seed);
        std::vector<reference::ThreadContext> ref(warpSize);
        auto state = std::make_unique<WarpState>();
        initState(gen, ref.data(), *state);
        ASSERT_TRUE(sameState(ref.data(), *state)) << "seed " << seed;

        Side a(constants), b(constants);
        std::set<Addr> touched;
        for (int step = 0; step < 48; ++step) {
            const Instruction in = gen.next();
            const std::uint32_t active = gen.activeMask();
            const std::uint32_t alive_before = state->alive;
            reference::executeWarpInstruction(in, active, ref.data(),
                                              a.env, a.effects);
            executeWarpInstruction(in, active, *state, b.env, b.effects);
            ASSERT_TRUE(sameState(ref.data(), *state))
                << "seed " << seed << " step " << step << ": "
                << in.toString();
            ASSERT_TRUE(sameEffects(a.effects, b.effects))
                << "seed " << seed << " step " << step << ": "
                << in.toString();

            if (b.effects.execMask == 0)
                continue;
            if (b.effects.kind == AccessKind::GlobalData) {
                for (const ThreadMemAccess &m : b.effects.accesses)
                    touched.insert(m.addr);
            }
            executed.insert(in.op);
            for (const Operand &src : in.src) {
                read_kinds.insert(src.kind);
                if (src.kind == Operand::Kind::Special)
                    specials.insert(src.special);
            }
            if (in.guard >= 0)
                ++(in.guardNegate ? negated_guards : plain_guards);
            if (active != 0xffffffffu)
                ++partial_masks;
            if (state->alive != alive_before)
                ++kills[in.op];
        }
        ASSERT_EQ(a.textures.log, b.textures.log) << "seed " << seed;
        ASSERT_EQ(a.rop.log, b.rop.log) << "seed " << seed;
        ASSERT_EQ(a.shared, b.shared) << "seed " << seed;
        for (Addr addr : touched) {
            ASSERT_EQ(a.global.read32(addr), b.global.read32(addr))
                << "seed " << seed << " addr " << addr;
        }
    }

    // The programs reached what the comparison is meant to cover.
    EXPECT_EQ(executed.size(), static_cast<std::size_t>(Opcode::EXIT) + 1);
    for (Operand::Kind k :
         {Operand::Kind::Reg, Operand::Kind::Imm, Operand::Kind::Const,
          Operand::Kind::Attr, Operand::Kind::Out,
          Operand::Kind::Special, Operand::Kind::Pred}) {
        EXPECT_TRUE(read_kinds.count(k))
            << "operand kind " << static_cast<int>(k);
    }
    EXPECT_EQ(specials.size(), 10u);
    EXPECT_GT(plain_guards, 0u);
    EXPECT_GT(negated_guards, 0u);
    EXPECT_GT(partial_masks, 0u);
    EXPECT_GT(kills[Opcode::EXIT], 0u);
    EXPECT_GT(kills[Opcode::DISCARD], 0u);
    EXPECT_GT(kills[Opcode::ZTEST], 0u);
}
