// RV64IM base-ISA operations: the one definition of each ALU op's
// result, each branch's condition and each op's functional-unit cost.
// Every tier uses it: the interpreter's exec() switch, the translator
// (SbKind, kind_for, static cycles, the rd == x0 fold), the dispatcher's
// computed-goto labels and the JIT's helper call-outs. Each of those
// expands the tables below with a compile-time opcode, so a case or
// label still compiles to its own specialised body. The JIT's native
// x86 templates and tests/fuzz_isa_test.cpp's host evaluator stay
// independent restatements; the tier differential tests and the ISA
// fuzzer hold them to these kernels.
#pragma once

#include <limits>

#include "common/bitops.hpp"
#include "riscv/opcode.hpp"

namespace hwst::sim {

using common::i32;
using common::i64;
using common::u32;
using common::u64;
using riscv::Opcode;

/// Cycle costs of the in-order 5-stage pipeline (Rocket-like).
struct TimingConfig {
    unsigned branch_taken_penalty = 3; ///< Rocket resolves in MEM
    unsigned load_use_stall = 1;       ///< consumer right after a load
    unsigned mul_extra = 3;            ///< iterative multiplier
    unsigned div_extra = 24;
    unsigned csr_extra = 1;
    unsigned ecall_cost = 140; ///< proxy-kernel round trip
};

/// Second ALU operand: rs2's value or the immediate.
enum class AluSrc : common::u8 { Rs2, Imm };

/// Functional unit an ALU op occupies beyond the base cycle.
enum class FuClass : common::u8 { None, Mul, Div };

// The 41 RV64IM ALU ops: name, second operand, functional unit.
// clang-format off
#define HWST_RV64IM_ALU_LIST(X) \
    X(ADDI,   Imm, None) X(SLTI,  Imm, None) X(SLTIU, Imm, None) \
    X(XORI,   Imm, None) X(ORI,   Imm, None) X(ANDI,  Imm, None) \
    X(SLLI,   Imm, None) X(SRLI,  Imm, None) X(SRAI,  Imm, None) \
    X(ADDIW,  Imm, None) X(SLLIW, Imm, None) X(SRLIW, Imm, None) \
    X(SRAIW,  Imm, None)                                         \
    X(ADD,    Rs2, None) X(SUB,   Rs2, None) X(SLL,   Rs2, None) \
    X(SLT,    Rs2, None) X(SLTU,  Rs2, None) X(XOR,   Rs2, None) \
    X(SRL,    Rs2, None) X(SRA,   Rs2, None) X(OR,    Rs2, None) \
    X(AND,    Rs2, None)                                         \
    X(ADDW,   Rs2, None) X(SUBW,  Rs2, None) X(SLLW,  Rs2, None) \
    X(SRLW,   Rs2, None) X(SRAW,  Rs2, None)                     \
    X(MUL,    Rs2, Mul)  X(MULH,  Rs2, Mul)  X(MULHSU, Rs2, Mul) \
    X(MULHU,  Rs2, Mul)  X(MULW,  Rs2, Mul)                      \
    X(DIV,    Rs2, Div)  X(DIVU,  Rs2, Div)  X(REM,   Rs2, Div)  \
    X(REMU,   Rs2, Div)  X(DIVW,  Rs2, Div)  X(DIVUW, Rs2, Div)  \
    X(REMW,   Rs2, Div)  X(REMUW, Rs2, Div)

// The 6 conditional branches.
#define HWST_RV64I_BRANCH_LIST(X) \
    X(BEQ) X(BNE) X(BLT) X(BGE) X(BLTU) X(BGEU)
// clang-format on

#define HWST_RV64IM_CASE(name, ...) case Opcode::name:

constexpr bool is_alu(Opcode op)
{
    switch (op) {
    HWST_RV64IM_ALU_LIST(HWST_RV64IM_CASE)
        return true;
    default:
        return false;
    }
}

constexpr AluSrc alu_src(Opcode op)
{
    switch (op) {
#define HWST_RV64IM_SRC(name, src, fu) \
    case Opcode::name: return AluSrc::src;
        HWST_RV64IM_ALU_LIST(HWST_RV64IM_SRC)
#undef HWST_RV64IM_SRC
    default:
        return AluSrc::Rs2;
    }
}

constexpr FuClass fu_class(Opcode op)
{
    switch (op) {
#define HWST_RV64IM_FU(name, src, fu) \
    case Opcode::name: return FuClass::fu;
        HWST_RV64IM_ALU_LIST(HWST_RV64IM_FU)
#undef HWST_RV64IM_FU
    default:
        return FuClass::None;
    }
}

#undef HWST_RV64IM_CASE

/// Cycles `op` spends in its functional unit on top of the base cycle;
/// paid unconditionally, so the translator folds it into a block's
/// static cycles.
constexpr unsigned fu_extra(Opcode op, const TimingConfig& t)
{
    switch (fu_class(op)) {
    case FuClass::Mul: return t.mul_extra;
    case FuClass::Div: return t.div_extra;
    default: return 0;
    }
}

/// Pointer arithmetic (paper Fig. 1-b): ADDI/ADD/SUB carry shadow-
/// register metadata to rd (Machine::srf_arith); every other ALU op
/// clears rd's metadata.
constexpr bool is_pointer_arith(Opcode op)
{
    return op == Opcode::ADDI || op == Opcode::ADD || op == Opcode::SUB;
}

/// True for ALU ops that have no architectural effect when rd is x0:
/// the register write is dropped and the metadata clear is guarded by
/// rd != x0, so translation folds them to Nop. ADD/SUB are not: their
/// srf rule ends in an unguarded clear(rd), which mutates SRF entry 0.
constexpr bool folds_when_rd_zero(Opcode op)
{
    return is_alu(op) && (op == Opcode::ADDI || !is_pointer_arith(op));
}

[[gnu::always_inline]] constexpr u64 sext32(u64 v)
{
    return static_cast<u64>(static_cast<i64>(static_cast<i32>(v)));
}

/// Result of ALU op `Op` given rs1's and rs2's values and the immediate
/// (the op's AluSrc picks its second operand). Division follows the
/// RISC-V rules: x/0 = -1, x%0 = x, and MIN/-1 = MIN, MIN%-1 = 0.
template <Opcode Op>
[[gnu::always_inline]] constexpr u64 alu(u64 rs1, u64 rs2, i64 imm)
{
    static_assert(is_alu(Op), "not an RV64IM ALU op");
    const u64 a = rs1;
    const u64 b = alu_src(Op) == AluSrc::Imm ? static_cast<u64>(imm) : rs2;
    const i64 sa = static_cast<i64>(a), sb = static_cast<i64>(b);
    const i32 wa = static_cast<i32>(a), wb = static_cast<i32>(b);
    const u32 ua = static_cast<u32>(a), ub = static_cast<u32>(b);
    constexpr i64 kMin64 = std::numeric_limits<i64>::min();
    constexpr i32 kMin32 = std::numeric_limits<i32>::min();
    using enum Opcode;
    switch (Op) {
    case ADD: case ADDI: return a + b;
    case SUB: return a - b;
    case SLL: case SLLI: return a << (b & 63);
    case SLT: case SLTI: return sa < sb;
    case SLTU: case SLTIU: return a < b;
    case XOR: case XORI: return a ^ b;
    case OR: case ORI: return a | b;
    case AND: case ANDI: return a & b;
    case SRL: case SRLI: return a >> (b & 63);
    case SRA: case SRAI: return static_cast<u64>(sa >> (b & 63));
    case ADDW: case ADDIW: return sext32(a + b);
    case SUBW: return sext32(a - b);
    case SLLW: case SLLIW: return sext32(a << (b & 31));
    case SRLW: case SRLIW: return sext32(ua >> (b & 31));
    case SRAW: case SRAIW: return sext32(static_cast<u64>(wa >> (b & 31)));
    case MUL: return a * b;
    case MULH:
        return static_cast<u64>((static_cast<__int128>(sa) * sb) >> 64);
    case MULHSU:
        return static_cast<u64>((static_cast<__int128>(sa) *
                                 static_cast<unsigned __int128>(b)) >>
                                64);
    case MULHU:
        return static_cast<u64>((static_cast<unsigned __int128>(a) * b) >>
                                64);
    case MULW: return sext32(a * b);
    case DIV:
        return b == 0                      ? ~u64{0}
               : sa == kMin64 && sb == -1 ? a
                                          : static_cast<u64>(sa / sb);
    case DIVU: return b == 0 ? ~u64{0} : a / b;
    case REM:
        return b == 0                      ? a
               : sa == kMin64 && sb == -1 ? 0
                                          : static_cast<u64>(sa % sb);
    case REMU: return b == 0 ? a : a % b;
    case DIVW:
        return wb == 0                      ? ~u64{0}
               : wa == kMin32 && wb == -1 ? sext32(ua)
                                          : sext32(static_cast<u32>(wa / wb));
    case DIVUW: return ub == 0 ? ~u64{0} : sext32(ua / ub);
    case REMW:
        return wb == 0                      ? sext32(ua)
               : wa == kMin32 && wb == -1 ? 0
                                          : sext32(static_cast<u32>(wa % wb));
    case REMUW: return sext32(ub == 0 ? ua : ua % ub);
    default: return 0;
    }
}

/// Condition of conditional branch `Op` on rs1's and rs2's values.
template <Opcode Op>
[[gnu::always_inline]] constexpr bool branch_taken(u64 rs1, u64 rs2)
{
    static_assert(riscv::is_branch(Op), "not a conditional branch");
    using enum Opcode;
    switch (Op) {
    case BEQ: return rs1 == rs2;
    case BNE: return rs1 != rs2;
    case BLT: return static_cast<i64>(rs1) < static_cast<i64>(rs2);
    case BGE: return static_cast<i64>(rs1) >= static_cast<i64>(rs2);
    case BLTU: return rs1 < rs2;
    default: return rs1 >= rs2; // BGEU
    }
}

} // namespace hwst::sim
