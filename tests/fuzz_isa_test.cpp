// Differential ISA fuzzing: random straight-line arithmetic programs
// executed on the Machine are compared against a host-side evaluator
// implementing the RV64 semantics independently. Each program runs on
// every execution tier — the interpreter, the superblock dispatcher and
// the JIT with a hot threshold of 1, so straight-line code that runs
// once still leaves from emitted code. Catches executor and
// encoder/decoder bugs (the program is round-tripped through the wire
// format before running, via the Machine's text image).
#include <gtest/gtest.h>

#include <array>

#include "common/prng.hpp"
#include "riscv/program.hpp"
#include "sim/machine.hpp"
#include "sim/syscalls.hpp"

namespace {

using namespace hwst::riscv;
namespace sim = hwst::sim;
using hwst::common::i32;
using hwst::common::i64;
using hwst::common::u32;
using hwst::common::u64;
using hwst::common::Xoshiro256;

struct HostState {
    std::array<u64, 32> regs{};

    u64 get(Reg r) const { return regs[reg_index(r)]; }
    void set(Reg r, u64 v)
    {
        if (r != Reg::zero) regs[reg_index(r)] = v;
    }
};

u64 host_sext32(u64 v)
{
    return static_cast<u64>(static_cast<i64>(static_cast<i32>(v)));
}

u64 host_mulhu(u64 a, u64 b)
{
    return static_cast<u64>((static_cast<unsigned __int128>(a) *
                             static_cast<unsigned __int128>(b)) >>
                            64);
}

/// Independent RV64 ALU semantics (deliberately written separately from
/// the Machine's switch). `pc` is the instruction's own address.
void host_exec(HostState& st, const Instruction& in, u64 pc)
{
    const u64 a = st.get(in.rs1);
    const u64 b = st.get(in.rs2);
    const i64 sa = static_cast<i64>(a), sb = static_cast<i64>(b);
    const i32 wa = static_cast<i32>(a), wb = static_cast<i32>(b);
    const u32 a32 = static_cast<u32>(a), b32 = static_cast<u32>(b);
    const i64 imm = in.imm;
    // U-type: the 20-bit field fills bits 31:12, sign-extended from bit
    // 31 (AUIPC adds that to its own pc).
    const u64 upper =
        host_sext32((static_cast<u64>(imm) >> 12 & 0xFFFFF) << 12);
    switch (in.op) {
    case Opcode::LUI: st.set(in.rd, upper); break;
    case Opcode::AUIPC: st.set(in.rd, pc + upper); break;
    case Opcode::ADDI: st.set(in.rd, a + static_cast<u64>(imm)); break;
    case Opcode::XORI: st.set(in.rd, a ^ static_cast<u64>(imm)); break;
    case Opcode::ORI: st.set(in.rd, a | static_cast<u64>(imm)); break;
    case Opcode::ANDI: st.set(in.rd, a & static_cast<u64>(imm)); break;
    case Opcode::SLTI: st.set(in.rd, sa < imm); break;
    case Opcode::SLTIU: st.set(in.rd, a < static_cast<u64>(imm)); break;
    case Opcode::SLLI: st.set(in.rd, a << (imm & 63)); break;
    case Opcode::SRLI: st.set(in.rd, a >> (imm & 63)); break;
    case Opcode::SRAI: st.set(in.rd, static_cast<u64>(sa >> (imm & 63))); break;
    case Opcode::ADD: st.set(in.rd, a + b); break;
    case Opcode::SUB: st.set(in.rd, a - b); break;
    case Opcode::SLL: st.set(in.rd, a << (b & 63)); break;
    case Opcode::SRL: st.set(in.rd, a >> (b & 63)); break;
    case Opcode::SRA: st.set(in.rd, static_cast<u64>(sa >> (b & 63))); break;
    case Opcode::SLT: st.set(in.rd, sa < sb); break;
    case Opcode::SLTU: st.set(in.rd, a < b); break;
    case Opcode::XOR: st.set(in.rd, a ^ b); break;
    case Opcode::OR: st.set(in.rd, a | b); break;
    case Opcode::AND: st.set(in.rd, a & b); break;
    case Opcode::MUL: st.set(in.rd, a * b); break;
    case Opcode::MULHU: st.set(in.rd, host_mulhu(a, b)); break;
    // Signed high halves from the unsigned one: a negative operand x
    // reads as x + 2^64 there, which adds the other operand to the high
    // half once.
    case Opcode::MULH:
        st.set(in.rd, host_mulhu(a, b) - (sa < 0 ? b : 0) - (sb < 0 ? a : 0));
        break;
    case Opcode::MULHSU:
        st.set(in.rd, host_mulhu(a, b) - (sa < 0 ? b : 0));
        break;
    case Opcode::DIV:
        if (sb == 0) st.set(in.rd, ~u64{0});
        else if (sa == std::numeric_limits<i64>::min() && sb == -1)
            st.set(in.rd, a);
        else st.set(in.rd, static_cast<u64>(sa / sb));
        break;
    case Opcode::DIVU: st.set(in.rd, b == 0 ? ~u64{0} : a / b); break;
    case Opcode::REM:
        if (sb == 0) st.set(in.rd, a);
        else if (sa == std::numeric_limits<i64>::min() && sb == -1)
            st.set(in.rd, 0);
        else st.set(in.rd, static_cast<u64>(sa % sb));
        break;
    case Opcode::REMU: st.set(in.rd, b == 0 ? a : a % b); break;
    case Opcode::ADDIW:
        st.set(in.rd, host_sext32(a + static_cast<u64>(imm)));
        break;
    case Opcode::ADDW: st.set(in.rd, host_sext32(a + b)); break;
    case Opcode::SUBW: st.set(in.rd, host_sext32(a - b)); break;
    case Opcode::SLLW: st.set(in.rd, host_sext32(a << (b & 31))); break;
    case Opcode::SRLW:
        st.set(in.rd, host_sext32(static_cast<u32>(a) >> (b & 31)));
        break;
    case Opcode::SRAW:
        st.set(in.rd,
               host_sext32(static_cast<u64>(static_cast<i32>(a) >>
                                            (b & 31))));
        break;
    case Opcode::MULW: st.set(in.rd, host_sext32(a * b)); break;
    // 32-bit division through 64-bit host arithmetic: INT32_MIN / -1
    // does not overflow there, and truncating its 2^31 quotient gives
    // the RISC-V result.
    case Opcode::DIVW:
        st.set(in.rd, wb == 0 ? ~u64{0}
                              : host_sext32(static_cast<u64>(i64{wa} / wb)));
        break;
    case Opcode::DIVUW:
        st.set(in.rd, b32 == 0 ? ~u64{0} : host_sext32(a32 / b32));
        break;
    case Opcode::REMW:
        st.set(in.rd, host_sext32(wb == 0 ? static_cast<u64>(wa)
                                          : static_cast<u64>(i64{wa} % wb)));
        break;
    case Opcode::REMUW:
        st.set(in.rd, host_sext32(b32 == 0 ? a32 : a32 % b32));
        break;
    case Opcode::SLLIW: st.set(in.rd, host_sext32(a << (imm & 31))); break;
    case Opcode::SRLIW:
        st.set(in.rd, host_sext32(static_cast<u32>(a) >> (imm & 31)));
        break;
    case Opcode::SRAIW:
        st.set(in.rd,
               host_sext32(static_cast<u64>(static_cast<i32>(a) >>
                                            (imm & 31))));
        break;
    default:
        FAIL() << "fuzzer generated an unsupported opcode";
    }
}

const std::vector<Opcode>& fuzz_opcodes()
{
    static const std::vector<Opcode> ops = {
        Opcode::ADDI, Opcode::XORI, Opcode::ORI,   Opcode::ANDI,
        Opcode::SLTI, Opcode::SLTIU, Opcode::SLLI, Opcode::SRLI,
        Opcode::SRAI, Opcode::ADD,  Opcode::SUB,   Opcode::SLL,
        Opcode::SRL,  Opcode::SRA,  Opcode::SLT,   Opcode::SLTU,
        Opcode::XOR,  Opcode::OR,   Opcode::AND,   Opcode::MUL,
        Opcode::MULHU, Opcode::DIV, Opcode::DIVU,  Opcode::REM,
        Opcode::REMU, Opcode::ADDIW, Opcode::ADDW, Opcode::SUBW,
        Opcode::SLLW, Opcode::SRLW, Opcode::SRAW,  Opcode::MULW,
        Opcode::SLLIW, Opcode::SRLIW, Opcode::SRAIW, Opcode::MULH,
        Opcode::MULHSU, Opcode::DIVW, Opcode::DIVUW, Opcode::REMW,
        Opcode::REMUW, Opcode::LUI, Opcode::AUIPC,
    };
    return ops;
}

// Work registers only (never sp/gp/tp/ra, which the runtime owns).
Reg fuzz_reg(Xoshiro256& rng)
{
    static const Reg pool[] = {Reg::t0, Reg::t1, Reg::t2, Reg::t3,
                               Reg::t4, Reg::t5, Reg::t6, Reg::s2,
                               Reg::s3, Reg::s4, Reg::a2, Reg::a3,
                               Reg::a4, Reg::a5, Reg::zero};
    return pool[rng.below(std::size(pool))];
}

class IsaFuzz : public ::testing::TestWithParam<u64> {};

TEST_P(IsaFuzz, MachineMatchesHostSemantics)
{
    Xoshiro256 rng{0xF02217 + GetParam() * 7919};

    Program p;
    p.label("main");
    HostState host;

    // Seed some registers with interesting values.
    const i64 seeds[] = {0,
                         1,
                         -1,
                         0x7FFFFFFF,
                         -0x80000000ll,
                         static_cast<i64>(0x8000000000000000ull),
                         0x7FFFFFFFFFFFFFFFll,
                         static_cast<i64>(rng.next())};
    int si = 0;
    for (const Reg r : {Reg::t0, Reg::t1, Reg::t2, Reg::t3, Reg::t4,
                        Reg::t5, Reg::t6, Reg::s2}) {
        p.emit_li(r, seeds[si]);
        host.set(r, static_cast<u64>(seeds[si]));
        ++si;
    }

    // acc = fold(acc ^ r) for each r, where fold(x) = x ^ (x << 1) is a
    // bijection: a change to any one folded register reaches acc. a1 is
    // scratch; neither it nor acc is a fuzz register.
    const auto fold_into = [&](Reg acc, u64& expected,
                               std::initializer_list<Reg> regs) {
        for (const Reg r : regs) {
            p.emit(rtype(Opcode::XOR, acc, acc, r));
            p.emit(itype(Opcode::SLLI, Reg::a1, acc, 1));
            p.emit(rtype(Opcode::XOR, acc, acc, Reg::a1));
            expected ^= host.get(r);
            const u64 shifted = expected << 1;
            expected ^= shifted;
        }
    };
    // The seeds come from emit_li's LUI/ADDIW/SLLI/ADDI sequences, and
    // the random body overwrites most of them: fold them into s5 now so
    // their values reach the exit code.
    p.emit_li(Reg::s5, 0);
    u64 seed_fold = 0;
    fold_into(Reg::s5, seed_fold,
              {Reg::t0, Reg::t1, Reg::t2, Reg::t3, Reg::t4, Reg::t5,
               Reg::t6, Reg::s2});
    host.set(Reg::s5, seed_fold);

    std::vector<Instruction> body;
    for (int k = 0; k < 200; ++k) {
        const Opcode op =
            fuzz_opcodes()[rng.below(fuzz_opcodes().size())];
        Instruction in;
        in.op = op;
        in.rd = fuzz_reg(rng);
        in.rs1 = fuzz_reg(rng);
        in.rs2 = fuzz_reg(rng);
        switch (op_format(op)) {
        case Format::I:
            in.rs2 = Reg::zero;
            in.imm = static_cast<i64>(rng.below(4096)) - 2048;
            break;
        case Format::ShiftI:
            in.rs2 = Reg::zero;
            in.imm = static_cast<i64>(rng.below(64));
            break;
        case Format::ShiftIW:
            in.rs2 = Reg::zero;
            in.imm = static_cast<i64>(rng.below(32));
            break;
        case Format::U:
            in.rs1 = in.rs2 = Reg::zero;
            in.imm = static_cast<i64>(static_cast<i32>(
                static_cast<u32>(rng.below(u64{1} << 20) << 12)));
            break;
        default:
            break;
        }
        body.push_back(in);
        const u64 pc = p.text_addr(p.code().size());
        p.emit(in);
        host_exec(host, in, pc);
    }

    // Fold every work register and the seed fold into a0 for comparison.
    p.emit_li(Reg::a0, 0);
    u64 expected = 0;
    fold_into(Reg::a0, expected,
              {Reg::t0, Reg::t1, Reg::t2, Reg::t3, Reg::t4, Reg::t5,
               Reg::t6, Reg::s2, Reg::s3, Reg::s4, Reg::a2, Reg::a3,
               Reg::a4, Reg::a5, Reg::s5});
    p.emit_li(Reg::a7, static_cast<i64>(sim::Sys::Exit));
    p.emit(Instruction{Opcode::ECALL});
    p.finalize();

    for (const auto tier : {sim::ExecTier::Interp, sim::ExecTier::Dbt,
                            sim::ExecTier::Jit}) {
        SCOPED_TRACE(sim::tier_name(tier));
        sim::MachineConfig cfg;
        cfg.tier = tier;
        cfg.jit_hot_threshold = 1;
        sim::Machine machine{p, cfg};
        const auto r = machine.run();
        ASSERT_TRUE(r.ok());
        EXPECT_EQ(static_cast<u64>(r.exit_code), expected);
        // A JIT-capable build must really have run emitted code.
        if (machine.tier() == sim::ExecTier::Jit)
            EXPECT_GT(machine.jit_stats().translated, 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IsaFuzz, ::testing::Range<u64>(0, 24));

} // namespace
