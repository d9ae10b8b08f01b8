#include "gpu/isa/instruction.hh"

#include "sim/logging.hh"

namespace emerald::gpu::isa
{

const char *
opcodeName(Opcode op)
{
    switch (op) {
      case Opcode::NOP: return "nop";
      case Opcode::MOV: return "mov";
      case Opcode::ADD: return "add";
      case Opcode::SUB: return "sub";
      case Opcode::MUL: return "mul";
      case Opcode::DIV: return "div";
      case Opcode::MAD: return "mad";
      case Opcode::MIN: return "min";
      case Opcode::MAX: return "max";
      case Opcode::ABS: return "abs";
      case Opcode::NEG: return "neg";
      case Opcode::FLR: return "flr";
      case Opcode::FRC: return "frc";
      case Opcode::AND: return "and";
      case Opcode::OR: return "or";
      case Opcode::XOR: return "xor";
      case Opcode::NOT: return "not";
      case Opcode::SHL: return "shl";
      case Opcode::SHR: return "shr";
      case Opcode::CVT: return "cvt";
      case Opcode::SETP: return "setp";
      case Opcode::SELP: return "selp";
      case Opcode::RCP: return "rcp";
      case Opcode::RSQ: return "rsq";
      case Opcode::SQRT: return "sqrt";
      case Opcode::EX2: return "ex2";
      case Opcode::LG2: return "lg2";
      case Opcode::SIN: return "sin";
      case Opcode::COS: return "cos";
      case Opcode::POW: return "pow";
      case Opcode::LDG: return "ldg";
      case Opcode::STG: return "stg";
      case Opcode::LDS: return "lds";
      case Opcode::STS: return "sts";
      case Opcode::TEX: return "tex";
      case Opcode::STO: return "sto";
      case Opcode::ZTEST: return "ztest";
      case Opcode::BLEND: return "blend";
      case Opcode::STFB: return "stfb";
      case Opcode::DISCARD: return "discard";
      case Opcode::BRA: return "bra";
      case Opcode::BAR: return "bar";
      case Opcode::EXIT: return "exit";
      default: return "unknown";
    }
}

LatencyClass
Instruction::latencyClass() const
{
    switch (op) {
      case Opcode::RCP:
      case Opcode::RSQ:
      case Opcode::SQRT:
      case Opcode::EX2:
      case Opcode::LG2:
      case Opcode::SIN:
      case Opcode::COS:
      case Opcode::POW:
      case Opcode::DIV:
        return LatencyClass::Sfu;
      case Opcode::LDG:
      case Opcode::STG:
        return LatencyClass::MemGlobal;
      case Opcode::LDS:
      case Opcode::STS:
        return LatencyClass::MemShared;
      case Opcode::TEX:
        return LatencyClass::Tex;
      case Opcode::ZTEST:
      case Opcode::BLEND:
      case Opcode::STFB:
        return LatencyClass::Rop;
      case Opcode::BRA:
      case Opcode::BAR:
      case Opcode::EXIT:
      case Opcode::DISCARD:
        return LatencyClass::Control;
      default:
        return LatencyClass::Alu;
    }
}

std::string
Instruction::toString() const
{
    std::string out = opcodeName(op);
    if (op == Opcode::BRA)
        out += strprintf(" -> %d (rpc %d)", target, reconvergePc);
    return out;
}

} // namespace emerald::gpu::isa
