// Execution-tier ladder (src/sim/dispatch.cpp, src/sim/jit/*): the
// accelerated tiers are pure host-side accelerators, so every test
// here is a differential one — the same program runs under the
// interpreter, the superblock dispatcher and the tier-2 JIT
// (MachineConfig::tier) and the full RunResult must be bit-identical:
// instret, cycles, traps, output, InstrMix and every cache/unit
// counter. Fuzzed programs cover ALU/memory/branch/loop shapes; the
// workload tests cover the HWST metadata ISA, checked accesses and
// ecalls; dedicated tests pin down block invalidation, chaining,
// hook-forced fallback, cancellation strides, fuel traps, mid-stream
// CSR reads of the batched counters, JIT code-cache eviction with
// re-translation, and the trap and edge paths of every HWST unit
// operation (violations, unusable csr.bitw widths, saturated metadata,
// no keybuffer, lock-region stores). On hosts/builds without JIT support (non-x86-64,
// sanitizers) --tier=jit degrades to the dispatcher, so the three-way
// matrix still passes — it just covers two distinct tiers.
#include <gtest/gtest.h>

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/prng.hpp"
#include "compiler/driver.hpp"
#include "hwst/csr.hpp"
#include "juliet/cases.hpp"
#include "riscv/instr.hpp"
#include "riscv/program.hpp"
#include "sim/jit/jit.hpp"
#include "sim/machine.hpp"
#include "sim/syscalls.hpp"
#include "workloads/workload.hpp"

#include "run_result_eq.hpp"

namespace {

using namespace hwst::riscv;
namespace sim = hwst::sim;
using hwst::common::i64;
using hwst::common::u64;
using hwst::common::Xoshiro256;
using hwst::test::expect_bit_equal;

constexpr auto kInterp = sim::ExecTier::Interp;
constexpr auto kDbt = sim::ExecTier::Dbt;
constexpr auto kJit = sim::ExecTier::Jit;

sim::MachineConfig with_tier(sim::MachineConfig cfg, sim::ExecTier t)
{
    cfg.tier = t;
    return cfg;
}

// ---- randomized program generator ------------------------------------

const std::vector<Opcode>& alu_ops()
{
    static const std::vector<Opcode> ops = {
        Opcode::ADDI,  Opcode::XORI,  Opcode::ORI,   Opcode::ANDI,
        Opcode::SLTI,  Opcode::SLTIU, Opcode::SLLI,  Opcode::SRLI,
        Opcode::SRAI,  Opcode::ADD,   Opcode::SUB,   Opcode::SLL,
        Opcode::SRL,   Opcode::SRA,   Opcode::SLT,   Opcode::SLTU,
        Opcode::XOR,   Opcode::OR,    Opcode::AND,   Opcode::MUL,
        Opcode::MULH,  Opcode::MULHSU, Opcode::MULHU, Opcode::DIV,
        Opcode::DIVU,  Opcode::REM,   Opcode::REMU,  Opcode::ADDIW,
        Opcode::ADDW,  Opcode::SUBW,  Opcode::SLLW,  Opcode::SRLW,
        Opcode::SRAW,  Opcode::MULW,  Opcode::DIVW,  Opcode::DIVUW,
        Opcode::REMW,  Opcode::REMUW, Opcode::SLLIW, Opcode::SRLIW,
        Opcode::SRAIW, Opcode::LUI,
    };
    return ops;
}

// Work registers only. s5/s6/s7 are reserved for the generator (memory
// base, loop induction, loop limit), sp/gp/tp/ra belong to the runtime.
Reg work_reg(Xoshiro256& rng)
{
    static const Reg pool[] = {Reg::t0, Reg::t1, Reg::t2, Reg::t3,
                               Reg::t4, Reg::t5, Reg::t6, Reg::s2,
                               Reg::s3, Reg::s4, Reg::a2, Reg::a3,
                               Reg::a4, Reg::a5, Reg::zero};
    return pool[rng.below(std::size(pool))];
}

/// One random instruction: ALU op, load/store through s5 (the mapped
/// scratch data region) or a FENCE (exercises the Nop fold).
void emit_random_op(Program& p, Xoshiro256& rng)
{
    const u64 pick = rng.below(100);
    if (pick < 12) { // load
        static const Opcode ops[] = {Opcode::LB,  Opcode::LH,  Opcode::LW,
                                     Opcode::LD,  Opcode::LBU, Opcode::LHU,
                                     Opcode::LWU};
        const Opcode op = ops[rng.below(std::size(ops))];
        const i64 off =
            static_cast<i64>(rng.below(256)) * mem_width(op);
        p.emit(itype(op, work_reg(rng), Reg::s5, off));
        return;
    }
    if (pick < 24) { // store
        static const Opcode ops[] = {Opcode::SB, Opcode::SH, Opcode::SW,
                                     Opcode::SD};
        const Opcode op = ops[rng.below(std::size(ops))];
        const i64 off =
            static_cast<i64>(rng.below(256)) * mem_width(op);
        p.emit(stype(op, Reg::s5, work_reg(rng), off));
        return;
    }
    if (pick < 27) {
        p.emit(Instruction{Opcode::FENCE});
        return;
    }
    const Opcode op = alu_ops()[rng.below(alu_ops().size())];
    Instruction in;
    in.op = op;
    in.rd = work_reg(rng);
    in.rs1 = work_reg(rng);
    in.rs2 = work_reg(rng);
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
        in.imm = (static_cast<i64>(rng.below(1u << 20)) - (1 << 19)) << 12;
        break;
    default:
        break;
    }
    p.emit(in);
}

/// Random program with straight-line stretches, forward branches and
/// jumps (both edges reachable), a counted loop (hot block chaining)
/// and memory traffic into the data region. Terminates by construction:
/// branches only go forward, the loop trips a fixed induction count.
Program fuzz_program(Xoshiro256& rng)
{
    Program p;
    p.label("main");

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
        p.emit_li(r, seeds[si++]);
    }
    p.emit_li(Reg::s5, static_cast<i64>(p.layout().data_base));

    static const Opcode branches[] = {Opcode::BEQ,  Opcode::BNE,
                                      Opcode::BLT,  Opcode::BGE,
                                      Opcode::BLTU, Opcode::BGEU};
    for (int seg = 0; seg < 10; ++seg) {
        const std::string next = "seg" + std::to_string(seg);
        const u64 kind = rng.below(3);
        if (kind == 0) {
            p.emit_branch(branches[rng.below(std::size(branches))],
                          work_reg(rng), work_reg(rng), next);
        } else if (kind == 1) {
            p.emit_jal(Reg::zero, next);
        }
        const int n = 4 + static_cast<int>(rng.below(90));
        for (int k = 0; k < n; ++k) emit_random_op(p, rng);
        p.label(next);
    }

    // Counted loop: the same blocks execute repeatedly, so taken and
    // fall-through chain edges both get hot.
    p.emit_li(Reg::s6, 0);
    p.emit_li(Reg::s7, 40 + static_cast<i64>(rng.below(60)));
    p.label("loop");
    const int body = 3 + static_cast<int>(rng.below(12));
    for (int k = 0; k < body; ++k) emit_random_op(p, rng);
    p.emit(itype(Opcode::ADDI, Reg::s6, Reg::s6, 1));
    p.emit_branch(Opcode::BLT, Reg::s6, Reg::s7, "loop");

    // Fold every work register into a0 and exit with the checksum.
    p.emit_li(Reg::a0, 0);
    for (const Reg r : {Reg::t0, Reg::t1, Reg::t2, Reg::t3, Reg::t4,
                        Reg::t5, Reg::t6, Reg::s2, Reg::s3, Reg::s4,
                        Reg::a2, Reg::a3, Reg::a4, Reg::a5}) {
        p.emit(rtype(Opcode::XOR, Reg::a0, Reg::a0, r));
        p.emit(itype(Opcode::SLLI, Reg::a1, Reg::a0, 1));
        p.emit(rtype(Opcode::XOR, Reg::a0, Reg::a0, Reg::a1));
    }
    p.emit_li(Reg::a7, static_cast<i64>(sim::Sys::Exit));
    p.emit(Instruction{Opcode::ECALL});
    p.finalize();
    return p;
}

class SuperblockFuzz : public ::testing::TestWithParam<u64> {};

// Three-way tier matrix: interpreter vs dispatcher vs JIT on the same
// fuzzed program, all pairwise bit-identical. A low hotness threshold
// pushes even the forward-branch one-shot blocks through the JIT's
// compile path, not just the loop.
TEST_P(SuperblockFuzz, TierLadderMatchesInterpreterBitForBit)
{
    Xoshiro256 rng{0x5B10C + GetParam() * 6271};
    const Program p = fuzz_program(rng);

    sim::Machine dbt{p, with_tier({}, kDbt)};
    const sim::RunResult a = dbt.run();

    sim::Machine interp{p, with_tier({}, kInterp)};
    const sim::RunResult b = interp.run();

    auto jit_cfg = with_tier({}, kJit);
    jit_cfg.jit_hot_threshold = 2;
    sim::Machine jit{p, jit_cfg};
    const sim::RunResult c = jit.run();

    ASSERT_EQ(a.trap.kind, hwst::hwst::TrapKind::None);
    expect_bit_equal(a, b);
    expect_bit_equal(c, b);
    EXPECT_GT(dbt.dbt_stats().block_execs, 0u);
    EXPECT_EQ(interp.dbt_stats().block_execs, 0u);
    // fallback_runs counts runs where the tier was configured on but a
    // hook blocked it; configuring it off is not a fallback.
    EXPECT_EQ(interp.dbt_stats().fallback_runs, 0u);
    if (jit.tier() == kJit) {
        EXPECT_GT(jit.jit_stats().translated, 0u);
        EXPECT_GT(jit.jit_stats().code_bytes, 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SuperblockFuzz, ::testing::Range<u64>(0, 16));

// ---- real workloads, all instrumentation schemes ---------------------

TEST(SuperblockWorkloads, SchemesBitIdenticalAcrossAllTiers)
{
    const auto& w = hwst::workloads::all_workloads().front();
    for (const auto scheme : {hwst::compiler::Scheme::None,
                              hwst::compiler::Scheme::Hwst128Tchk}) {
        const auto cp = hwst::compiler::compile(w.build(), scheme);

        sim::Machine dbt{cp.program, with_tier(cp.machine_config, kDbt)};
        const sim::RunResult a = dbt.run();
        EXPECT_EQ(a.exit_code, w.expected);

        sim::Machine interp{cp.program,
                            with_tier(cp.machine_config, kInterp)};
        const sim::RunResult b = interp.run();
        expect_bit_equal(a, b);

        // The checked-access and metadata ops take the JIT's inline
        // no-metadata gates and helper call-outs; both paths must
        // reproduce the dispatcher numbers exactly.
        sim::Machine jit{cp.program,
                         with_tier(cp.machine_config,
                                   kJit)};
        const sim::RunResult c = jit.run();
        expect_bit_equal(c, b);
    }
}

// ---- block-cache invalidation ----------------------------------------

TEST(SuperblockCacheTest, MapRegionFlushesTranslatedBlocks)
{
    const auto& w = hwst::workloads::all_workloads().front();
    const auto cp =
        hwst::compiler::compile(w.build(), hwst::compiler::Scheme::None);

    sim::Machine plain{cp.program, with_tier(cp.machine_config, kDbt)};
    const sim::RunResult full = plain.run();

    // Pause mid-run, remap, resume: the remap must drop every block
    // (dbt_stats.flushes) — and under the JIT tier, the native code
    // baked on top of them — and the resumed run must still be
    // bit-equal to the uninterrupted one.
    for (const auto tier : {kDbt, kJit}) {
        auto cfg = with_tier(cp.machine_config, tier);
        cfg.jit_hot_threshold = 1; // translate eagerly before the pause
        sim::Machine m{cp.program, cfg};
        const auto paused = m.run_cancellable([] { return true; },
                                              /*stride=*/1000);
        EXPECT_FALSE(paused.has_value());
        EXPECT_TRUE(m.running());
        EXPECT_GT(m.dbt_stats().blocks, 0u);
        EXPECT_EQ(m.dbt_stats().flushes, 0u);

        m.memory().map_region("late", 0x6000'0000, 4096);
        EXPECT_EQ(m.dbt_stats().flushes, 1u);

        const u64 blocks_before_resume = m.dbt_stats().blocks;
        const auto resumed = m.run_cancellable([] { return false; });
        ASSERT_TRUE(resumed.has_value());
        expect_bit_equal(*resumed, full);
        // Resuming had to retranslate the dropped blocks.
        EXPECT_GT(m.dbt_stats().blocks, blocks_before_resume);
        if (m.tier() == kJit) {
            EXPECT_GT(m.jit_stats().translated, 0u);
        }
    }
}

// ---- JIT code-cache eviction -----------------------------------------

// A code-cache budget too small for the workload's hot set forces
// whole-cache drops (append-only region, docs/performance.md "Tier-2
// JIT") followed by re-translation — and none of that churn may leak
// into simulated numbers.
TEST(JitCodeCache, EvictionAndRetranslationBitIdentical)
{
    if (!sim::jit::jit_supported())
        GTEST_SKIP() << "no JIT on this host/build";

    const auto& w = hwst::workloads::all_workloads().front();
    const auto cp =
        hwst::compiler::compile(w.build(), hwst::compiler::Scheme::None);

    sim::Machine interp{cp.program, with_tier(cp.machine_config, kInterp)};
    const sim::RunResult ref = interp.run();

    auto cfg = with_tier(cp.machine_config, kJit);
    // Large enough for the entry thunk + shared runtime plus a block
    // or two, far too small for the whole program: every few compiles
    // evict the region and re-translation starts over.
    cfg.jit_code_bytes = 8192;
    cfg.jit_hot_threshold = 1;
    sim::Machine m{cp.program, cfg};
    ASSERT_EQ(m.tier(), kJit);
    const sim::RunResult r = m.run();

    expect_bit_equal(r, ref);
    EXPECT_GT(m.jit_stats().evictions, 0u);
    // Re-translation after eviction: more compiles than distinct
    // superblocks ever existed.
    EXPECT_GT(m.jit_stats().translated, m.dbt_stats().blocks);
    EXPECT_LE(m.jit_stats().code_bytes, cfg.jit_code_bytes);
}

// ---- chaining --------------------------------------------------------

TEST(SuperblockChaining, HotLoopEdgesChain)
{
    Program p;
    p.label("main");
    p.emit_li(Reg::t0, 0);
    p.emit_li(Reg::t1, 10000);
    p.label("loop");
    p.emit(itype(Opcode::ADDI, Reg::t0, Reg::t0, 1));
    p.emit_branch(Opcode::BLT, Reg::t0, Reg::t1, "loop");
    p.emit(mv(Reg::a0, Reg::t0));
    p.emit_li(Reg::a7, static_cast<i64>(sim::Sys::Exit));
    p.emit(Instruction{Opcode::ECALL});
    p.finalize();

    sim::Machine m{p, with_tier({}, kDbt)};
    const auto r = m.run();
    EXPECT_EQ(r.exit_code, 10000);
    const auto& st = m.dbt_stats();
    EXPECT_GT(st.blocks, 0u);
    EXPECT_GT(st.block_execs, st.blocks);
    // Every loop iteration after the first transfers through a cached
    // chain edge, not the dispatcher's outer loop.
    EXPECT_GT(st.chained, 9000u);
}

// ---- hook-forced interpreter fallback --------------------------------

TEST(SuperblockFallback, TraceAndProbeHooksFallBackBitIdentical)
{
    const auto& w = hwst::workloads::all_workloads().front();
    const auto cp =
        hwst::compiler::compile(w.build(), hwst::compiler::Scheme::None);

    sim::Machine dbt{cp.program, with_tier(cp.machine_config, kDbt)};
    const sim::RunResult a = dbt.run();
    EXPECT_EQ(dbt.dbt_stats().fallback_runs, 0u);

    // A trace hook observes every retired instruction; the tier cannot
    // honor that, so the run must take the interpreter and still
    // produce the exact same result.
    sim::Machine traced{cp.program, with_tier(cp.machine_config, kDbt)};
    u64 traced_instrs = 0;
    traced.set_trace([&](u64, const Instruction&) { ++traced_instrs; });
    const sim::RunResult b = traced.run();
    expect_bit_equal(a, b);
    EXPECT_EQ(traced_instrs, a.instret);
    EXPECT_EQ(traced.dbt_stats().fallback_runs, 1u);
    EXPECT_EQ(traced.dbt_stats().block_execs, 0u);

    // Same for a probe hook, even a transparent one.
    sim::Machine probed{cp.program, with_tier(cp.machine_config, kDbt)};
    probed.set_probe_hook(
        [](sim::Probe, u64, u64 value) { return value; });
    const sim::RunResult c = probed.run();
    expect_bit_equal(a, c);
    EXPECT_EQ(probed.dbt_stats().fallback_runs, 1u);
}

// ---- cancellation strides --------------------------------------------

TEST(SuperblockCancellation, AnyStrideIsBitIdenticalToRun)
{
    const auto& w = hwst::workloads::all_workloads().front();
    const auto cp =
        hwst::compiler::compile(w.build(), hwst::compiler::Scheme::None);

    sim::Machine plain{cp.program, with_tier(cp.machine_config, kDbt)};
    const sim::RunResult r = plain.run();

    for (const auto tier : {kDbt, kJit}) {
        for (const u64 stride : {u64{1}, u64{3}, u64{37}, u64{4096}}) {
            sim::Machine m{cp.program,
                           with_tier(cp.machine_config, tier)};
            const auto maybe =
                m.run_cancellable([] { return false; }, stride);
            ASSERT_TRUE(maybe.has_value()) << "stride " << stride;
            expect_bit_equal(*maybe, r);
        }
    }
}

// ---- fuel ------------------------------------------------------------

TEST(SuperblockFuel, FuelTrapBitIdentical)
{
    const auto& w = hwst::workloads::all_workloads().front();
    auto cp =
        hwst::compiler::compile(w.build(), hwst::compiler::Scheme::None);
    // An awkward fuel value lands mid-superblock, forcing the
    // dispatcher onto its per-instruction tail.
    cp.machine_config.fuel = 10'007;

    sim::Machine dbt{cp.program, with_tier(cp.machine_config, kDbt)};
    const sim::RunResult a = dbt.run();
    sim::Machine interp{cp.program, with_tier(cp.machine_config, kInterp)};
    const sim::RunResult b = interp.run();
    // The same awkward fuel value under the JIT exercises the
    // trap-mid-block bailout with per-op prefix accounting.
    sim::Machine jit{cp.program,
                     with_tier(cp.machine_config, kJit)};
    const sim::RunResult c = jit.run();

    EXPECT_EQ(a.trap.kind, hwst::hwst::TrapKind::FuelExhausted);
    EXPECT_EQ(a.instret, 10'007u);
    expect_bit_equal(a, b);
    expect_bit_equal(c, b);
}

// ---- mid-stream CSR reads of the batched counters --------------------

TEST(SuperblockCsr, CycleAndInstretReadsSeeBatchedCounters)
{
    Program p;
    p.label("main");
    p.emit_li(Reg::a0, 0);
    p.emit_li(Reg::s6, 0);
    p.emit_li(Reg::s7, 500);
    p.label("loop");
    // Some plain work so the csr reads land mid-block-stream with
    // nontrivial cycle deltas (mul extra, memory, hazards).
    p.emit_li(Reg::s5, static_cast<i64>(p.layout().data_base));
    p.emit(stype(Opcode::SD, Reg::s5, Reg::s6, 0));
    p.emit(itype(Opcode::LD, Reg::t0, Reg::s5, 0));
    p.emit(rtype(Opcode::MUL, Reg::t1, Reg::t0, Reg::s7));
    p.emit(csr_op(Opcode::CSRRS, Reg::t2, Reg::zero, hwst::hwst::kCsrCycle));
    p.emit(csr_op(Opcode::CSRRS, Reg::t3, Reg::zero,
                  hwst::hwst::kCsrInstret));
    p.emit(rtype(Opcode::XOR, Reg::a0, Reg::a0, Reg::t2));
    p.emit(rtype(Opcode::ADD, Reg::a0, Reg::a0, Reg::t3));
    p.emit(rtype(Opcode::ADD, Reg::a0, Reg::a0, Reg::t1));
    p.emit(itype(Opcode::ADDI, Reg::s6, Reg::s6, 1));
    p.emit_branch(Opcode::BLT, Reg::s6, Reg::s7, "loop");
    p.emit_li(Reg::a7, static_cast<i64>(sim::Sys::Exit));
    p.emit(Instruction{Opcode::ECALL});
    p.finalize();

    sim::Machine dbt{p, with_tier({}, kDbt)};
    const sim::RunResult a = dbt.run();
    sim::Machine interp{p, with_tier({}, kInterp)};
    const sim::RunResult b = interp.run();
    // Under the JIT the csr reads take the interp-one ender bailout;
    // the batched counters must be folded in first.
    sim::Machine jit{p, with_tier({}, kJit)};
    const sim::RunResult c = jit.run();

    ASSERT_EQ(a.trap.kind, hwst::hwst::TrapKind::None);
    expect_bit_equal(a, b);
    expect_bit_equal(c, b);
}

// ---- trap and edge paths of the HWST unit operations -----------------

using hwst::hwst::TrapKind;

/// Run `p` under interp, dbt and jit on fresh Machines (each prepared
/// by `prep`), require every pair of results bit-identical and return
/// the interpreter's. Hot threshold 1 sends even run-once blocks
/// through the JIT's helper call-outs, so a trap on first execution
/// still leaves from emitted code.
sim::RunResult run_all_tiers(
    const Program& p, const sim::MachineConfig& cfg,
    const std::function<void(sim::Machine&)>& prep = {})
{
    std::vector<sim::RunResult> rs;
    for (const auto tier : {kInterp, kDbt, kJit}) {
        auto c = with_tier(cfg, tier);
        c.jit_hot_threshold = 1;
        sim::Machine m{p, c};
        if (prep) prep(m);
        rs.push_back(m.run());
    }
    expect_bit_equal(rs[0], rs[1]);
    expect_bit_equal(rs[0], rs[2]);
    expect_bit_equal(rs[1], rs[2]);
    return rs[0];
}

/// `main:` + two ALU ops (so a trap lands mid-block, past a retired
/// prefix) + `body` + exit.
Program unit_program(const std::function<void(Program&)>& body)
{
    Program p;
    p.label("main");
    p.emit(itype(Opcode::ADDI, Reg::t0, Reg::zero, 1));
    p.emit(rtype(Opcode::MUL, Reg::t0, Reg::t0, Reg::t0));
    body(p);
    p.emit_li(Reg::a7, static_cast<i64>(sim::Sys::Exit));
    p.emit(Instruction{Opcode::ECALL});
    p.finalize();
    return p;
}

/// Bind a0 to [base, base + 64) and to a fresh lock (lock address kept
/// in s3, with no metadata of its own).
void bind_heap_object(Program& p)
{
    const i64 base = static_cast<i64>(p.layout().data_base);
    p.emit_li(Reg::a0, base);
    p.emit_li(Reg::t4, base + 64);
    p.emit(rtype(Opcode::BNDRS, Reg::a0, Reg::a0, Reg::t4));
    p.emit(mv(Reg::s2, Reg::a0)); // ecall clobbers a0
    p.emit_li(Reg::a7, static_cast<i64>(sim::Sys::LockAlloc));
    p.emit(Instruction{Opcode::ECALL}); // a0 = lock, a1 = key
    p.emit(rtype(Opcode::BNDRT, Reg::s2, Reg::a1, Reg::a0));
    p.emit(itype(Opcode::ORI, Reg::s3, Reg::a0, 0)); // plain copy
    p.emit(mv(Reg::a0, Reg::s2));
}

TEST(TierTrapParity, JulietViolationsUnderHwst128Tchk)
{
    namespace juliet = hwst::juliet;
    const auto cases = juliet::all_bad_cases();
    unsigned spatial = 0, temporal = 0;
    // Every 61st case spans all CWEs; temporal cases also run without
    // a keybuffer (WDL: every tchk loads the key).
    for (std::size_t i = 0; i < cases.size(); i += 61) {
        auto cp = hwst::compiler::compile(
            juliet::build_case(cases[i]),
            hwst::compiler::Scheme::Hwst128Tchk);
        cp.machine_config.fuel = 2'000'000; // the Juliet harness budget
        SCOPED_TRACE("case " + std::to_string(i));
        const auto r = run_all_tiers(cp.program, cp.machine_config);
        spatial += r.trap.kind == TrapKind::SpatialViolation;
        temporal += r.trap.kind == TrapKind::TemporalViolation;
        if (!juliet::is_spatial(cases[i].cwe)) {
            cp.machine_config.keybuffer_enabled = false;
            SCOPED_TRACE("no keybuffer");
            run_all_tiers(cp.program, cp.machine_config);
        }
    }
    EXPECT_GT(spatial, 10u);
    EXPECT_GT(temporal, 5u);
}

TEST(TierTrapParity, NoKeybufferWorkloadBitIdentical)
{
    const auto& w = hwst::workloads::all_workloads().front();
    auto cp = hwst::compiler::compile(w.build(),
                                      hwst::compiler::Scheme::Hwst128Tchk);
    cp.machine_config.keybuffer_enabled = false;
    const auto r = run_all_tiers(cp.program, cp.machine_config);
    EXPECT_EQ(r.exit_code, w.expected);
    EXPECT_GT(r.tcu_checks, 0u);
    EXPECT_EQ(r.keybuffer.lookups, 0u);
}

// csrrw rejects unusable csr.bitw widths at the write, so the test
// plants them straight into the CSR file, as a perturbed csr.bitw
// reaches COMP/DECOMP, with s5 pre-bound so every check has metadata.
TEST(TierTrapParity, InvalidWidthsTrapFromBindTchkAndCheckedOps)
{
    const Instruction ops[] = {
        rtype(Opcode::BNDRS, Reg::t1, Reg::s5, Reg::s6),
        rtype(Opcode::BNDRT, Reg::t1, Reg::s5, Reg::s6),
        rtype(Opcode::TCHK, Reg::zero, Reg::s5, Reg::zero),
        itype(Opcode::CLD, Reg::t1, Reg::s5, 0),
        stype(Opcode::CSW, Reg::s5, Reg::t0, 4),
    };
    for (const Instruction& op : ops) {
        const Program p = unit_program([&](Program& q) { q.emit(op); });
        SCOPED_TRACE(std::string{op_name(op.op)});
        const auto r = run_all_tiers(p, {}, [&](sim::Machine& m) {
            m.set_reg(Reg::s5, p.layout().data_base);
            m.srf().bind_spatial(Reg::s5, 0x1234);
            m.srf().bind_temporal(Reg::s5, 0x5678);
            m.csrs().write(hwst::hwst::kCsrBitw, 0);
        });
        EXPECT_EQ(r.trap.kind, TrapKind::IllegalInstruction);
        EXPECT_EQ(r.trap.addr, hwst::hwst::kCsrBitw);
        EXPECT_EQ(r.instret, 3u);
    }
}

TEST(TierTrapParity, SaturatedMetadataTraps)
{
    const i64 base = 0x10000;
    // A 16 GiB object overflows the 29-bit range field.
    const Program spatial = unit_program([&](Program& p) {
        p.emit_li(Reg::a0, base);
        p.emit_li(Reg::t4, base + (i64{1} << 34));
        p.emit(rtype(Opcode::BNDRS, Reg::a0, Reg::a0, Reg::t4));
        p.emit(itype(Opcode::CLD, Reg::t1, Reg::a0, 0));
    });
    const auto rs = run_all_tiers(spatial, {});
    EXPECT_EQ(rs.trap.kind, TrapKind::SpatialViolation);
    EXPECT_EQ(rs.scu_saturated, 1u);

    // A key wider than its 44-bit field.
    const Program temporal = unit_program([&](Program& p) {
        p.emit_li(Reg::a0, base);
        p.emit_li(Reg::t4, i64{1} << 50);
        p.emit(rtype(Opcode::BNDRT, Reg::a0, Reg::t4, Reg::zero));
        p.emit(rtype(Opcode::TCHK, Reg::zero, Reg::a0, Reg::zero));
    });
    const auto rt = run_all_tiers(temporal, {});
    EXPECT_EQ(rt.trap.kind, TrapKind::TemporalViolation);
    EXPECT_EQ(rt.trap.addr, static_cast<u64>(base));
    EXPECT_EQ(rt.tcu_saturated, 1u);
}

// Keybuffer coherence on the store side: a zero store into the lock
// region (plain or checked) flushes the buffer, so the next tchk misses
// and sees the erased key; a non-zero store does not flush.
TEST(TierTrapParity, ZeroStoreIntoLockRegionFlushesKeybuffer)
{
    struct Variant {
        Opcode store;
        Reg value;
        TrapKind expect;
    };
    const Variant variants[] = {
        {Opcode::SD, Reg::zero, TrapKind::TemporalViolation},
        {Opcode::CSD, Reg::zero, TrapKind::TemporalViolation},
        {Opcode::SD, Reg::t0, TrapKind::None},
    };
    for (const Variant& v : variants) {
        const Program p = unit_program([&](Program& q) {
            bind_heap_object(q);
            q.emit(rtype(Opcode::TCHK, Reg::zero, Reg::a0, Reg::zero));
            q.emit(stype(v.store, Reg::s3, v.value, 0));
            q.emit(rtype(Opcode::TCHK, Reg::zero, Reg::a0, Reg::zero));
        });
        SCOPED_TRACE(std::string{op_name(v.store)});
        const auto r = run_all_tiers(p, {});
        EXPECT_EQ(r.trap.kind, v.expect);
        EXPECT_EQ(r.tcu_checks, 2u);
        EXPECT_EQ(r.keybuffer.flushes, v.value == Reg::zero ? 1u : 0u);
    }
}

// ---- exact pause points ----------------------------------------------

bool ends_block(Opcode op)
{
    return is_branch(op) || op == Opcode::JAL || op == Opcode::JALR ||
           op == Opcode::ECALL;
}

/// Pause points of a run whose retired opcodes are `ops`: the start, the
/// first instruction, a point inside a block and one right after a block
/// ender (both in the second half, so JIT chains are patched by then),
/// the last instruction, the end and past it.
std::vector<u64> pause_points(const std::vector<Opcode>& ops)
{
    const u64 n = ops.size();
    u64 inside = 0, after_ender = 0;
    for (u64 k = n / 2; k < n && (!inside || !after_ender); ++k) {
        // ops[k - 1] is the k-th retired instruction.
        if (ends_block(ops[k - 1])) {
            if (!after_ender) after_ender = k;
        } else if (!inside && !ends_block(ops[k - 2])) {
            inside = k;
        }
    }
    return {0, 1, inside, after_ender, n - 1, n, n + 1000};
}

// A pause (run_cancellable's pause_at) stops every tier at exactly the
// requested instret with the run still going, and the resumed run is
// bit-identical to an unpaused one. Hot threshold 1 has the JIT chain
// blocks before the pause, so its baked limit thresholds are live when
// the limit moves: once on a fresh Machine per pause point, through
// every pause point in turn on one Machine, and after a cancellation
// (chains baked against fuel, then a lower limit). After a mid-run
// pause the resumed run must still chain: thresholds baked against the
// pause would bail on every edge.
TEST(TierPause, ExactOnEveryTierAndResumesBitIdentical)
{
    const auto never = [] { return false; };
    for (const char* name : {"crc32", "treeadd"}) {
        SCOPED_TRACE(name);
        const auto cp = hwst::compiler::compile(
            hwst::workloads::workload(name).build(),
            hwst::compiler::Scheme::Hwst128Tchk);
        sim::Machine traced{cp.program, with_tier(cp.machine_config, kInterp)};
        std::vector<Opcode> ops;
        traced.set_trace(
            [&](u64, const Instruction& in) { ops.push_back(in.op); });
        const sim::RunResult full = traced.run();
        ASSERT_EQ(ops.size(), full.instret);
        const std::vector<u64> points = pause_points(ops);
        ASSERT_GT(points[2], 0u);
        ASSERT_GT(points[3], 0u);

        for (const auto tier : {kInterp, kDbt, kJit}) {
            SCOPED_TRACE(sim::tier_name(tier));
            auto cfg = with_tier(cp.machine_config, tier);
            cfg.jit_hot_threshold = 1;
            sim::Machine unpaused{cp.program, cfg};
            unpaused.run();
            const u64 chained = unpaused.dbt_stats().chained;

            sim::Machine cancelled{cp.program, cfg};
            EXPECT_FALSE(cancelled
                             .run_cancellable([] { return true; },
                                              full.instret / 4)
                             .has_value());
            ASSERT_LT(cancelled.instret(), points[2]);
            cancelled.run_cancellable(never, 4096, points[2]);
            EXPECT_EQ(cancelled.instret(), points[2]);
            EXPECT_TRUE(cancelled.running());
            expect_bit_equal(*cancelled.run_cancellable(never), full);

            sim::Machine stepped{cp.program, cfg};
            for (const u64 k : points) {
                SCOPED_TRACE("pause at " + std::to_string(k));
                sim::Machine m{cp.program, cfg};
                const auto paused = m.run_cancellable(never, 4096, k);
                const auto step = stepped.run_cancellable(never, 4096, k);
                ASSERT_TRUE(paused.has_value());
                ASSERT_TRUE(step.has_value());
                if (k >= full.instret) {
                    EXPECT_FALSE(m.running());
                    expect_bit_equal(*paused, full);
                    expect_bit_equal(*step, full);
                    continue;
                }
                EXPECT_EQ(m.instret(), k);
                EXPECT_TRUE(m.running());
                EXPECT_EQ(paused->instret, k);
                EXPECT_EQ(paused->trap.kind, TrapKind::None);
                EXPECT_EQ(stepped.instret(), k);
                EXPECT_TRUE(stepped.running());
                const bool mid_run = k >= full.instret / 2 &&
                                     k < full.instret / 4 * 3;
                if (m.tier() == kJit && mid_run) {
                    EXPECT_GT(m.jit_stats().chain_patches, 0u);
                }
                const u64 chained_at_pause = m.dbt_stats().chained;
                const auto resumed = m.run_cancellable(never);
                ASSERT_TRUE(resumed.has_value());
                EXPECT_FALSE(m.running());
                expect_bit_equal(*resumed, full);
                if (mid_run && tier != kInterp) {
                    EXPECT_GT((m.dbt_stats().chained - chained_at_pause) * 4,
                              chained);
                }
            }
        }
    }
}

// ---- machine fork ----------------------------------------------------

// Machine::fork copies all simulated state and no host state. Forked at
// the start, the first instruction, inside a block, after a block ender
// and one instruction before the end, the parent and the fork each run
// to the end bit-identical to an unforked run, on every tier. With hot
// threshold 1 the parent runs translated (chained blocks, JIT code)
// before each mid-run fork; the fork starts with empty translation
// caches and zero host stats, and half the time it runs first, half the
// time the parent does.
TEST(MachineFork, ParentAndForkEachEndBitIdentical)
{
    const auto never = [] { return false; };
    for (const char* name : {"crc32", "treeadd"}) {
        SCOPED_TRACE(name);
        const auto cp = hwst::compiler::compile(
            hwst::workloads::workload(name).build(),
            hwst::compiler::Scheme::Hwst128Tchk);
        sim::Machine traced{cp.program, with_tier(cp.machine_config, kInterp)};
        std::vector<Opcode> ops;
        traced.set_trace(
            [&](u64, const Instruction& in) { ops.push_back(in.op); });
        const sim::RunResult full = traced.run();
        std::vector<u64> points = pause_points(ops);
        points.resize(5); // 0, 1, inside, after a block ender, golden - 1
        ASSERT_EQ(points[4], full.instret - 1);

        for (const auto tier : {kInterp, kDbt, kJit}) {
            SCOPED_TRACE(sim::tier_name(tier));
            auto cfg = with_tier(cp.machine_config, tier);
            cfg.jit_hot_threshold = 1;
            for (std::size_t i = 0; i < points.size(); ++i) {
                const u64 k = points[i];
                SCOPED_TRACE("fork at " + std::to_string(k));
                sim::Machine parent{cp.program, cfg};
                ASSERT_TRUE(parent.run_cancellable(never, 4096, k));
                ASSERT_EQ(parent.instret(), k);
                if (tier == kJit && k > full.instret / 2 &&
                    parent.tier() == kJit) {
                    EXPECT_GT(parent.jit_stats().translated, 0u);
                }
                const auto child = parent.fork();
                EXPECT_TRUE(child->running());
                EXPECT_EQ(child->instret(), k);
                EXPECT_EQ(child->cycles(), parent.cycles());
                EXPECT_EQ(child->pc(), parent.pc());
                EXPECT_EQ(child->tier(), parent.tier());
                EXPECT_EQ(child->dbt_stats().blocks, 0u);
                EXPECT_EQ(child->jit_stats().translated, 0u);
                EXPECT_EQ(child->memory().tlb_stats().hits, 0u);
                EXPECT_EQ(child->memory().tlb_stats().misses, 0u);
                std::optional<sim::RunResult> a, b;
                if (i % 2 == 0) {
                    a = child->run_cancellable(never);
                    b = parent.run_cancellable(never);
                } else {
                    b = parent.run_cancellable(never);
                    a = child->run_cancellable(never);
                }
                ASSERT_TRUE(a && b);
                expect_bit_equal(*a, full);
                expect_bit_equal(*b, full);
                if (tier != kInterp && k > 0) {
                    EXPECT_GT(child->dbt_stats().blocks, 0u);
                }
            }
        }
    }
}

// A fork owns its memory: taken after the parent has run translated
// with a warm translation cache (whose entries point at the parent's
// pages), a store in either machine never shows in the other, on pages
// both have touched and on a page neither has.
TEST(MachineFork, StoresStayInTheirOwnMachine)
{
    const auto never = [] { return false; };
    const auto cp = hwst::compiler::compile(
        hwst::workloads::workload("crc32").build(),
        hwst::compiler::Scheme::Hwst128Tchk);
    const u64 golden = sim::Machine{cp.program, cp.machine_config}.run().instret;
    const auto& lay = cp.program.layout();
    for (const auto tier : {kInterp, kDbt, kJit}) {
        SCOPED_TRACE(sim::tier_name(tier));
        auto cfg = with_tier(cp.machine_config, tier);
        cfg.jit_hot_threshold = 1;
        sim::Machine parent{cp.program, cfg};
        ASSERT_TRUE(parent.run_cancellable(never, 4096, golden / 2));
        const u64 sp = parent.reg(Reg::sp);
        ASSERT_TRUE(parent.memory().tlb_holds(sp));
        const auto child = parent.fork();
        const u64 untouched = lay.heap_base + lay.heap_size - 4096;
        ASSERT_EQ(parent.memory().load_u64(untouched), 0u);
        for (const u64 addr : {sp, u64{lay.data_base}, untouched}) {
            SCOPED_TRACE(addr);
            const u64 before = parent.memory().load_u64(addr);
            ASSERT_EQ(child->memory().load_u64(addr), before);
            child->memory().store_u64(addr, before ^ 0x5a5a);
            EXPECT_EQ(parent.memory().load_u64(addr), before);
            parent.memory().store_u64(addr, before ^ 0xa5a5);
            EXPECT_EQ(child->memory().load_u64(addr), before ^ 0x5a5a);
            EXPECT_EQ(parent.memory().load_u64(addr), before ^ 0xa5a5);
        }
        child->set_reg(Reg::s11, 1);
        parent.set_reg(Reg::s11, 2);
        EXPECT_EQ(child->reg(Reg::s11), 1u);
    }
}

} // namespace
