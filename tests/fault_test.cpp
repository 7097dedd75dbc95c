// Tests of the metadata fault-injection engine (src/fault/) and the
// graceful-degradation paths it exercises: the injector's trigger
// semantics, the trap-or-survive oracle, the segmented faulted runner
// against a whole-run interpreter reference, saturating metadata
// compression at machine level, and a small deterministic campaign.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <thread>

#include "common/prng.hpp"
#include "compiler/driver.hpp"
#include "exec/journal.hpp"
#include "exec/simrun.hpp"
#include "fault/campaign.hpp"
#include "riscv/program.hpp"
#include "sim/machine.hpp"
#include "sim/syscalls.hpp"
#include "workloads/workload.hpp"

#include "run_result_eq.hpp"

namespace {

using namespace hwst::riscv;
namespace fault = hwst::fault;
namespace hw = hwst::hwst;
namespace sim = hwst::sim;
using hwst::common::i64;
using hwst::common::u64;
using hw::TrapKind;
using sim::Machine;
using sim::Probe;
using sim::Sys;

struct Built {
    Program program;
};

Built build(const std::function<void(Program&)>& body)
{
    Built b;
    b.program.label("main");
    body(b.program);
    b.program.emit_li(Reg::a7, static_cast<i64>(Sys::Exit));
    b.program.emit(Instruction{Opcode::ECALL});
    b.program.finalize();
    return b;
}

// ---------------------------------------------------------------- injector

TEST(Injector, OneShotFiresOnceAtOrAfterTrigger)
{
    fault::Injector inj{
        fault::FaultPlan::single(Probe::LmsmLoad, fault::FaultMode::OneShot,
                                 /*trigger=*/5, /*xor_mask=*/0b11)};
    EXPECT_EQ(inj.perturb(Probe::LmsmLoad, 4, 0x100), 0x100u); // too early
    EXPECT_EQ(inj.perturb(Probe::LmsmLoad, 7, 0x100), 0x103u); // fires late
    EXPECT_EQ(inj.perturb(Probe::LmsmLoad, 8, 0x100), 0x100u); // disarmed
    EXPECT_TRUE(inj.fired());
    EXPECT_EQ(inj.fires(), 1u);
    EXPECT_EQ(inj.first_fire_instret(), 7u);
    ASSERT_EQ(inj.log().size(), 1u);
    EXPECT_EQ(inj.log()[0].before, 0x100u);
    EXPECT_EQ(inj.log()[0].after, 0x103u);
}

TEST(Injector, StuckAtKeepsFiring)
{
    fault::Injector inj{
        fault::FaultPlan::single(Probe::SrfTemporalWrite,
                                 fault::FaultMode::StuckAt, 2, 1)};
    EXPECT_EQ(inj.perturb(Probe::SrfTemporalWrite, 2, 10), 11u);
    EXPECT_EQ(inj.perturb(Probe::SrfTemporalWrite, 3, 10), 11u);
    EXPECT_EQ(inj.perturb(Probe::SrfTemporalWrite, 9, 10), 11u);
    EXPECT_EQ(inj.fires(), 3u);
}

TEST(Injector, IgnoresOtherPoints)
{
    fault::Injector inj{
        fault::FaultPlan::single(Probe::LmsmStore, fault::FaultMode::StuckAt,
                                 1, 0xFF)};
    EXPECT_EQ(inj.perturb(Probe::LmsmLoad, 100, 42), 42u);
    EXPECT_EQ(inj.perturb(Probe::KeybufferFill, 100, 42), 42u);
    EXPECT_FALSE(inj.fired());
}

TEST(Injector, RandomSpecIsDeterministicAndBounded)
{
    hwst::common::Xoshiro256 a{7}, b{7};
    const auto s1 = fault::FaultPlan::random_spec(Probe::LmsmLoad, 1000, a);
    const auto s2 = fault::FaultPlan::random_spec(Probe::LmsmLoad, 1000, b);
    EXPECT_EQ(s1.trigger_instret, s2.trigger_instret);
    EXPECT_EQ(s1.xor_mask, s2.xor_mask);
    for (int i = 0; i < 200; ++i) {
        const auto s = fault::FaultPlan::random_spec(Probe::LmsmLoad, 1000, a);
        EXPECT_GE(s.trigger_instret, 1u);
        EXPECT_LE(s.trigger_instret, 1000u);
        const int bits = std::popcount(s.xor_mask);
        EXPECT_GE(bits, 1);
        EXPECT_LE(bits, 2);
    }
}

TEST(Injector, FirstTriggerAndSpent)
{
    fault::Injector none{fault::FaultPlan{}};
    EXPECT_EQ(none.first_trigger(), sim::kNoPause);
    EXPECT_TRUE(none.spent());

    fault::Injector two{fault::FaultPlan{
        {fault::FaultSpec{Probe::LmsmLoad, fault::FaultMode::OneShot, 9, 1},
         fault::FaultSpec{Probe::LmsmStore, fault::FaultMode::OneShot, 4,
                          1}}}};
    EXPECT_EQ(two.first_trigger(), 4u);
    two.perturb(Probe::LmsmStore, 5, 0);
    EXPECT_FALSE(two.spent());
    two.perturb(Probe::LmsmLoad, 9, 0);
    EXPECT_TRUE(two.spent());

    fault::Injector stuck{fault::FaultPlan::single(
        Probe::LmsmLoad, fault::FaultMode::StuckAt, 3, 1)};
    stuck.perturb(Probe::LmsmLoad, 3, 0);
    EXPECT_FALSE(stuck.spent());
}

// ------------------------------------------------------------------ oracle

sim::RunResult clean_run()
{
    sim::RunResult r;
    r.exit_code = 42;
    r.output = {1, 2, 3};
    r.instret = 100;
    return r;
}

TEST(Oracle, IdenticalCleanRunIsMasked)
{
    const fault::Injector inj{fault::FaultPlan{}};
    const auto v = fault::classify(clean_run(), clean_run(), inj);
    EXPECT_EQ(v.verdict, fault::Verdict::Masked);
    EXPECT_FALSE(v.fired);
}

TEST(Oracle, DivergedOutputIsSilentCorruption)
{
    const fault::Injector inj{fault::FaultPlan{}};
    auto faulted = clean_run();
    faulted.output.back() = 4;
    EXPECT_EQ(fault::classify(clean_run(), faulted, inj).verdict,
              fault::Verdict::SilentCorruption);
    faulted = clean_run();
    faulted.exit_code = 43;
    EXPECT_EQ(fault::classify(clean_run(), faulted, inj).verdict,
              fault::Verdict::SilentCorruption);
}

TEST(Oracle, TrapIsDetectedButLivelockIsNot)
{
    const fault::Injector inj{fault::FaultPlan{}};
    auto faulted = clean_run();
    faulted.trap.kind = TrapKind::SpatialViolation;
    EXPECT_EQ(fault::classify(clean_run(), faulted, inj).verdict,
              fault::Verdict::Detected);
    // Fuel exhaustion is a hang, not a detection: the hardware never
    // raised an architectural trap.
    faulted.trap.kind = TrapKind::FuelExhausted;
    EXPECT_EQ(fault::classify(clean_run(), faulted, inj).verdict,
              fault::Verdict::SilentCorruption);
}

TEST(Oracle, RejectsDirtyGoldenRun)
{
    const fault::Injector inj{fault::FaultPlan{}};
    auto golden = clean_run();
    golden.trap.kind = TrapKind::SpatialViolation;
    EXPECT_THROW(fault::classify(golden, clean_run(), inj),
                 hwst::common::ToolchainError);
}

// --------------------------------------------------- machine-level faults

TEST(FaultInjection, SrfRangeFaultForcesSpuriousTrapNeverSilent)
{
    auto b = build([](Program& p) {
        const i64 base = static_cast<i64>(p.layout().data_base);
        p.emit_li(Reg::a0, base);
        p.emit_li(Reg::t4, base + 64);
        p.emit(rtype(Opcode::BNDRS, Reg::a0, Reg::a0, Reg::t4));
        p.emit(itype(Opcode::CLD, Reg::a0, Reg::a0, 0));
        p.emit_li(Reg::a0, 0);
    });
    Machine golden{b.program};
    ASSERT_TRUE(golden.run().ok());
    // Flip the range field (8 granules -> 0): the bound collapses onto
    // the base and the first checked load must trap — the fault lands in
    // check metadata, so it can only be spurious-trap or masked.
    fault::Injector inj{fault::FaultPlan::single(
        Probe::SrfSpatialWrite, fault::FaultMode::OneShot, 1, u64{8} << 35)};
    Machine m{b.program};
    inj.attach(m);
    const auto r = m.run();
    EXPECT_TRUE(inj.fired());
    EXPECT_EQ(r.trap.kind, TrapKind::SpatialViolation);
}

// ------------------------------------------------- graceful degradation

TEST(GracefulDegradation, OversizedRangeSaturatesAndTrapsOnFirstUse)
{
    // A >4 GiB object cannot encode in 29 range bits. The bind itself
    // must not trap (COMP just emits the poison encoding); the first
    // checked use does.
    auto b = build([](Program& p) {
        const i64 base = static_cast<i64>(p.layout().data_base);
        p.emit_li(Reg::a0, base);
        p.emit_li(Reg::t4, base + (i64{1} << 33));
        p.emit(rtype(Opcode::BNDRS, Reg::a0, Reg::a0, Reg::t4));
        p.emit(itype(Opcode::CLD, Reg::a0, Reg::a0, 0)); // in true bounds
    });
    Machine m{b.program};
    const auto r = m.run();
    EXPECT_EQ(r.trap.kind, TrapKind::SpatialViolation);
    EXPECT_EQ(r.scu_saturated, 1u);
}

TEST(GracefulDegradation, OversizedKeySaturatesAndTrapsOnTchk)
{
    auto b = build([](Program& p) {
        const i64 base = static_cast<i64>(p.layout().data_base);
        p.emit_li(Reg::a7, static_cast<i64>(Sys::LockAlloc));
        p.emit(Instruction{Opcode::ECALL}); // a0 = lock (key ignored)
        p.emit_li(Reg::t0, base);
        p.emit_li(Reg::t1, i64{1} << 44); // one past the 44-bit key space
        p.emit(rtype(Opcode::BNDRT, Reg::t0, Reg::t1, Reg::a0));
        p.emit(rtype(Opcode::TCHK, Reg::zero, Reg::t0, Reg::zero));
    });
    Machine m{b.program};
    const auto r = m.run();
    EXPECT_EQ(r.trap.kind, TrapKind::TemporalViolation);
    EXPECT_EQ(r.tcu_saturated, 1u);
}

TEST(GracefulDegradation, CsrNarrowedWidthsSaturateFormerlyFittingObject)
{
    // Reconfigure csr.bitw to a 10-bit range (max 8184-byte objects): a
    // 16-KiB bind that fits the default 29-bit range must now saturate
    // and trap on use.
    auto b = build([](Program& p) {
        const i64 base = static_cast<i64>(p.layout().data_base);
        p.emit_li(Reg::t0, 32 | (10 << 6) | (10 << 12));
        p.emit(csr_op(Opcode::CSRRW, Reg::zero, Reg::t0, hw::kCsrBitw));
        p.emit_li(Reg::a0, base);
        p.emit_li(Reg::t4, base + 16384);
        p.emit(rtype(Opcode::BNDRS, Reg::a0, Reg::a0, Reg::t4));
        p.emit(itype(Opcode::CLD, Reg::a0, Reg::a0, 0));
    });
    Machine m{b.program};
    const auto r = m.run();
    EXPECT_EQ(r.trap.kind, TrapKind::SpatialViolation);
    EXPECT_EQ(r.scu_saturated, 1u);
}

TEST(GracefulDegradation, InBoundsObjectStillPassesUnderNarrowedWidths)
{
    auto b = build([](Program& p) {
        const i64 base = static_cast<i64>(p.layout().data_base);
        p.emit_li(Reg::t0, 32 | (10 << 6) | (10 << 12));
        p.emit(csr_op(Opcode::CSRRW, Reg::zero, Reg::t0, hw::kCsrBitw));
        p.emit_li(Reg::a0, base);
        p.emit_li(Reg::t4, base + 4096); // fits 10 range bits
        p.emit(rtype(Opcode::BNDRS, Reg::a0, Reg::a0, Reg::t4));
        p.emit(itype(Opcode::CLD, Reg::a0, Reg::a0, 2040));
        p.emit_li(Reg::a0, 0);
    });
    Machine m{b.program};
    const auto r = m.run();
    EXPECT_TRUE(r.ok()) << trap_name(r.trap.kind);
    EXPECT_EQ(r.scu_saturated, 0u);
}

TEST(GracefulDegradation, InvalidWidthCsrWriteTrapsInsteadOfUB)
{
    auto b = build([](Program& p) {
        p.emit_li(Reg::t0, 0); // base_bits = 0: invalid configuration
        p.emit(csr_op(Opcode::CSRRW, Reg::zero, Reg::t0, hw::kCsrBitw));
    });
    Machine m{b.program};
    const auto r = m.run();
    EXPECT_EQ(r.trap.kind, TrapKind::IllegalInstruction);
    EXPECT_EQ(r.trap.addr, hw::kCsrBitw);
}

TEST(GracefulDegradation, BogusLockFreeAborts)
{
    auto b = build([](Program& p) {
        p.emit_li(Reg::a0, 0x1234); // never a granted lock_location
        p.emit_li(Reg::a7, static_cast<i64>(Sys::LockFree));
        p.emit(Instruction{Opcode::ECALL});
    });
    Machine m{b.program};
    EXPECT_EQ(m.run().trap.kind, TrapKind::LibcAbort);
}

TEST(GracefulDegradation, DoubleLockFreeAborts)
{
    auto b = build([](Program& p) {
        p.emit_li(Reg::a7, static_cast<i64>(Sys::LockAlloc));
        p.emit(Instruction{Opcode::ECALL}); // a0 = lock
        p.emit(mv(Reg::s2, Reg::a0));
        p.emit_li(Reg::a7, static_cast<i64>(Sys::LockFree));
        p.emit(Instruction{Opcode::ECALL}); // first free: fine
        p.emit(mv(Reg::a0, Reg::s2));
        p.emit_li(Reg::a7, static_cast<i64>(Sys::LockFree));
        p.emit(Instruction{Opcode::ECALL}); // double free: abort
    });
    Machine m{b.program};
    const auto r = m.run();
    EXPECT_EQ(r.trap.kind, TrapKind::LibcAbort);
}

// --------------------------------------------------------- faulted runner

/// The whole-run reference: the injector attached at instret 0 and
/// every instruction on the interpreter (the hook pins it there).
sim::RunResult reference_run(const Program& program,
                             const sim::MachineConfig& cfg,
                             fault::Injector& injector)
{
    Machine m{program, cfg};
    injector.attach(m);
    return m.run();
}

/// A workload compiled under hwst128_tchk, its golden run and the
/// campaign's faulted-run config for it.
struct Subject {
    hwst::compiler::CompiledProgram cp;
    sim::RunResult golden;
    sim::MachineConfig cfg;
};

Subject subject(const char* name)
{
    Subject s{hwst::compiler::compile(hwst::workloads::workload(name).build(),
                                      hwst::compiler::Scheme::Hwst128Tchk),
              {}, {}};
    s.golden = Machine{s.cp.program, s.cp.machine_config}.run();
    s.cfg = s.cp.machine_config;
    s.cfg.fuel = s.golden.instret * 4 + 100'000;
    return s;
}

/// Run `plan` segmented and whole-run; returns the reference's first
/// fire instret (0 = never fired).
u64 expect_same_faulted_run(const Program& program,
                            const sim::MachineConfig& cfg,
                            const sim::RunResult& golden,
                            const fault::FaultPlan& plan)
{
    fault::Injector seg{plan}, ref{plan};
    const sim::RunResult a =
        fault::run_faulted(program, cfg, seg, hwst::exec::CancelToken{});
    const sim::RunResult b = reference_run(program, cfg, ref);
    hwst::test::expect_bit_equal(a, b);
    const fault::Outcome oa = fault::classify(golden, a, seg);
    const fault::Outcome ob = fault::classify(golden, b, ref);
    EXPECT_EQ(oa.verdict, ob.verdict);
    EXPECT_EQ(oa.trap.kind, ob.trap.kind);
    EXPECT_EQ(oa.fired, ob.fired);
    EXPECT_EQ(oa.injected_at, ob.injected_at);
    EXPECT_EQ(oa.ended_at, ob.ended_at);
    EXPECT_EQ(seg.fires(), ref.fires());
    EXPECT_EQ(seg.first_fire_instret(), ref.first_fire_instret());
    EXPECT_EQ(seg.log().size(), ref.log().size());
    for (std::size_t i = 0;
         i < std::min(seg.log().size(), ref.log().size()); ++i) {
        EXPECT_EQ(seg.log()[i].point, ref.log()[i].point);
        EXPECT_EQ(seg.log()[i].instret, ref.log()[i].instret);
        EXPECT_EQ(seg.log()[i].before, ref.log()[i].before);
        EXPECT_EQ(seg.log()[i].after, ref.log()[i].after);
    }
    return ref.fired() ? ref.first_fire_instret() : 0;
}

// run_faulted runs only the armed window on the interpreter; every
// probe, both modes, the earliest, a middle and the latest trigger, a
// trigger on the very instruction that exercises the datapath (the
// prefix must stop one short of it) and a two-fault plan must match the
// whole-run reference in the RunResult, the oracle's outcome and the
// injector's fire record.
TEST(FaultedRun, SegmentedRunMatchesWholeRunInterpreter)
{
    for (const char* name : {"crc32", "treeadd"}) {
        const Subject s = subject(name);
        const auto& cp = s.cp;
        const sim::RunResult& golden = s.golden;
        ASSERT_TRUE(golden.ok());
        const sim::MachineConfig& cfg = s.cfg;

        for (const Probe point : fault::all_probes()) {
            for (const auto mode :
                 {fault::FaultMode::OneShot, fault::FaultMode::StuckAt}) {
                std::vector<u64> triggers{1, golden.instret / 2,
                                          golden.instret};
                for (std::size_t i = 0; i < triggers.size(); ++i) {
                    const auto plan = fault::FaultPlan::single(
                        point, mode, triggers[i], u64{1} << 3);
                    SCOPED_TRACE(std::string{name} + " " +
                                 plan.faults[0].describe());
                    const u64 fired_at =
                        expect_same_faulted_run(cp.program, cfg, golden, plan);
                    if (i == 1 && fired_at > triggers[i])
                        triggers.push_back(fired_at);
                }
            }
        }
        // Two one-shots: the window spans both, from the earlier trigger
        // until the later fault has fired too.
        SCOPED_TRACE(std::string{name} + " two faults");
        expect_same_faulted_run(
            cp.program, cfg, golden,
            fault::FaultPlan{
                {fault::FaultSpec{Probe::LmsmLoad, fault::FaultMode::OneShot,
                                  golden.instret / 2, u64{1} << 40},
                 fault::FaultSpec{Probe::SrfSpatialWrite,
                                  fault::FaultMode::OneShot,
                                  golden.instret / 3, u64{1} << 2}}});
    }
}

// ----------------------------------------------------------- prefix cursor

/// Fork `cursor` one short of `plan`'s trigger, run the armed window
/// and the suffix on the fork, and expect the whole-run reference.
void expect_cursor_run(fault::PrefixCursor& cursor, const Subject& s,
                       const fault::FaultPlan& plan)
{
    fault::Injector seg{plan}, ref{plan};
    const auto fork = cursor.fork_at(seg.first_trigger() - 1,
                                     hwst::exec::CancelToken{});
    EXPECT_EQ(fork->instret(), seg.first_trigger() - 1);
    const sim::RunResult a =
        fault::run_armed(*fork, seg, hwst::exec::CancelToken{});
    hwst::test::expect_bit_equal(a, reference_run(s.cp.program, s.cfg, ref));
    EXPECT_EQ(seg.fires(), ref.fires());
    EXPECT_EQ(seg.first_fire_instret(), ref.first_fire_instret());
}

// The cursor only moves forward: a request for an earlier trigger after
// a later one runs its prefix on a private Machine and leaves the cursor
// where it is, and the machine it returns gives the same run as the
// whole-run reference, as does a trigger on the golden run's last
// instruction. Only a dropped cursor is rebuilt.
TEST(PrefixCursor, EarlierTriggerRunsAPrivatePrefix)
{
    const Subject s = subject("crc32");
    fault::PrefixCursor cursor{s.cp.program, s.cfg};
    const auto at = [](u64 trigger) {
        return fault::FaultPlan::single(Probe::LmsmLoad,
                                        fault::FaultMode::OneShot, trigger,
                                        u64{1} << 5);
    };
    expect_cursor_run(cursor, s, at(s.golden.instret / 2));
    expect_cursor_run(cursor, s, at(s.golden.instret / 4 * 3));
    EXPECT_EQ(cursor.private_prefixes(), 0u);
    expect_cursor_run(cursor, s, at(s.golden.instret / 4));
    EXPECT_EQ(cursor.private_prefixes(), 1u);
    expect_cursor_run(cursor, s, at(s.golden.instret));
    expect_cursor_run(cursor, s, at(1));
    EXPECT_EQ(cursor.private_prefixes(), 2u);
    EXPECT_EQ(cursor.builds(), 1u);
    cursor.drop();
    EXPECT_FALSE(cursor.live());
    expect_cursor_run(cursor, s, at(s.golden.instret / 4));
    EXPECT_EQ(cursor.builds(), 2u);
    EXPECT_EQ(cursor.private_prefixes(), 2u);
}

// A cancelled advance keeps the cursor where it stopped, on every tier:
// the next request resumes it without a rebuild and gives the same run
// as the whole-run reference.
TEST(PrefixCursor, CancelledAdvanceKeepsTheCursor)
{
    const Subject s = subject("crc32");
    const auto plan = fault::FaultPlan::single(
        Probe::SrfSpatialWrite, fault::FaultMode::StuckAt,
        s.golden.instret / 2, u64{1} << 7);
    for (const auto tier :
         {sim::ExecTier::Interp, sim::ExecTier::Dbt, sim::ExecTier::Jit}) {
        SCOPED_TRACE(static_cast<int>(tier));
        Subject t = s;
        t.cfg.tier = tier;
        t.cfg.jit_hot_threshold = 1;
        fault::PrefixCursor cursor{t.cp.program, t.cfg};
        cursor.fork_at(1000, hwst::exec::CancelToken{});
        const std::atomic<bool> stop{true};
        EXPECT_THROW(
            cursor.fork_at(s.golden.instret / 2,
                           hwst::exec::CancelToken{std::nullopt, &stop}),
            hwst::exec::JobTimeout);
        EXPECT_TRUE(cursor.live());
        expect_cursor_run(cursor, t, plan);
        EXPECT_EQ(cursor.builds(), 1u);
        EXPECT_EQ(cursor.private_prefixes(), 0u);
        // The fault-free run cannot be forked past its end.
        EXPECT_THROW(cursor.fork_at(s.golden.instret + 1,
                                    hwst::exec::CancelToken{}),
                     hwst::common::ToolchainError);
        EXPECT_FALSE(cursor.live());
    }
}

// Requests from several threads in any order each get a machine paused
// at their own instret that runs on to the golden result, and the one
// shared cursor is never rebuilt.
TEST(PrefixCursor, ConcurrentRequestsGiveTheSameMachines)
{
    const Subject s = subject("treeadd");
    fault::PrefixCursor cursor{s.cp.program, s.cfg};
    constexpr unsigned kThreads = 4, kPerThread = 3;
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (unsigned r = 0; r < kPerThread; ++r) {
                const u64 at =
                    s.golden.instret * ((r * kThreads + t * 5) % 12 + 1) / 13;
                const auto m = cursor.fork_at(at, hwst::exec::CancelToken{});
                EXPECT_EQ(m->instret(), at);
                hwst::test::expect_bit_equal(
                    hwst::exec::run_machine(*m, hwst::exec::CancelToken{}),
                    s.golden);
            }
        });
    }
    for (auto& th : threads) th.join();
    EXPECT_EQ(cursor.builds(), 1u);
}

// A trigger past the program's end never arms: run_faulted returns the
// prefix's final result, which is the golden run.
TEST(FaultedRun, TriggerPastTheEndReturnsTheFinalResult)
{
    const Subject s = subject("treeadd");
    for (const u64 trigger : {s.golden.instret + 1, s.golden.instret + 5000}) {
        const auto plan = fault::FaultPlan::single(
            Probe::LmsmStore, fault::FaultMode::StuckAt, trigger, 1);
        fault::Injector seg{plan};
        const sim::RunResult r = fault::run_faulted(
            s.cp.program, s.cfg, seg, hwst::exec::CancelToken{});
        hwst::test::expect_bit_equal(r, s.golden);
        EXPECT_FALSE(seg.fired());
    }
}

// ---------------------------------------------------------------- campaign

TEST(FaultCampaign, SmokeNoSilentCorruptionAtProtectedPoints)
{
    fault::CampaignConfig cfg;
    cfg.workloads = {"dijkstra"};
    cfg.points = {Probe::SrfSpatialWrite, Probe::SrfTemporalWrite,
                  Probe::LmsmStore, Probe::LmsmLoad};
    cfg.seeds_per_point = 4;
    const auto report = fault::run_campaign(cfg);
    EXPECT_EQ(report.total_runs(), 16u);
    EXPECT_EQ(report.protected_silent(), 0u);

    // Same config -> byte-identical report (campaign determinism).
    std::ostringstream first, second;
    report.print(first);
    fault::run_campaign(cfg).print(second);
    EXPECT_EQ(first.str(), second.str());
    EXPECT_NE(first.str().find("srf-spatial-write"), std::string::npos);
}


/// The campaign's per-point statistics rebuilt from whole-run reference
/// runs (the injector attached at instret 0, all on the interpreter)
/// with the campaign's own fault draw, merged in (point, seed) order.
std::vector<fault::PointStats> reference_campaign(
    const fault::CampaignConfig& cfg)
{
    std::vector<fault::PointStats> stats(cfg.points.size());
    for (std::size_t wi = 0; wi < cfg.workloads.size(); ++wi) {
        const Subject s = subject(cfg.workloads[wi].c_str());
        for (std::size_t pi = 0; pi < cfg.points.size(); ++pi) {
            fault::PointStats& p = stats[pi];
            p.point = cfg.points[pi];
            for (unsigned si = 0; si < cfg.seeds_per_point; ++si) {
                hwst::common::Xoshiro256 rng{hwst::exec::derive_seed(
                    cfg.base_seed, wi, static_cast<u64>(p.point), si)};
                fault::Injector inj{fault::FaultPlan{
                    {fault::FaultPlan::random_spec(
                        p.point, s.golden.instret, rng, cfg.mode)}}};
                const auto o = fault::classify(
                    s.golden, reference_run(s.cp.program, s.cfg, inj), inj);
                ++p.runs;
                if (o.fired) ++p.fired;
                switch (o.verdict) {
                case fault::Verdict::Detected:
                    ++p.detected;
                    if (o.fired)
                        p.latencies.push_back(
                            static_cast<double>(o.detection_latency()));
                    break;
                case fault::Verdict::Masked: ++p.masked; break;
                case fault::Verdict::SilentCorruption: ++p.silent; break;
                }
            }
        }
    }
    return stats;
}

void expect_same_stats(const std::vector<fault::PointStats>& a,
                       const std::vector<fault::PointStats>& b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        SCOPED_TRACE(std::string{sim::probe_name(a[i].point)});
        EXPECT_EQ(a[i].point, b[i].point);
        EXPECT_EQ(a[i].runs, b[i].runs);
        EXPECT_EQ(a[i].fired, b[i].fired);
        EXPECT_EQ(a[i].detected, b[i].detected);
        EXPECT_EQ(a[i].masked, b[i].masked);
        EXPECT_EQ(a[i].silent, b[i].silent);
        EXPECT_EQ(a[i].timeouts, b[i].timeouts);
        EXPECT_EQ(a[i].quarantined, b[i].quarantined);
        EXPECT_EQ(a[i].skipped, b[i].skipped);
        EXPECT_EQ(a[i].latencies, b[i].latencies);
    }
}

// Faulted runs fork their prefixes from one shared cursor per (workload,
// point) and run in trigger order, yet every point's statistics (and the
// order of its latencies) equal the whole-run interpreter reference, in
// both modes, serially and with four workers racing for the cursor.
TEST(FaultCampaign, CursorRunsMatchWholeRunReference)
{
    fault::CampaignConfig cfg;
    cfg.workloads = {"dijkstra"};
    cfg.points = {Probe::SrfTemporalWrite, Probe::LmsmLoad,
                  Probe::KeybufferLookup, Probe::DcacheFillData};
    cfg.seeds_per_point = 4;
    for (const auto mode :
         {fault::FaultMode::OneShot, fault::FaultMode::StuckAt}) {
        cfg.mode = mode;
        const auto reference = reference_campaign(cfg);
        for (const unsigned jobs : {1u, 4u}) {
            SCOPED_TRACE(std::string{fault::fault_mode_name(mode)} +
                         " jobs " + std::to_string(jobs));
            cfg.jobs = jobs;
            expect_same_stats(fault::run_campaign(cfg).points, reference);
        }
    }
}

std::string temp_path(const char* name)
{
    return (std::filesystem::temp_directory_path() /
            (std::to_string(::getpid()) + "_" + name))
        .string();
}

std::string report_text(const fault::CampaignReport& r)
{
    std::ostringstream os;
    r.print(os);
    return os.str();
}

// Jobs keep their grid index as journal key whatever order workers take
// them in, so the campaign descriptor is the one journals were written
// under before faulted runs forked from a cursor, and a resume at a
// different worker count from a half-finished, torn journal gives the
// uninterrupted report byte for byte.
TEST(FaultCampaign, ResumeReplaysJournalAtAnyWorkerCount)
{
    fault::CampaignConfig cfg;
    cfg.workloads = {"dijkstra"};
    cfg.points = {Probe::SrfSpatialWrite, Probe::LmsmStore};
    cfg.seeds_per_point = 3;
    cfg.jobs = 1;
    cfg.journal_path = temp_path("fault_order.journal");
    std::remove(cfg.journal_path.c_str());

    const std::string grid_desc =
        "fault_campaign scheme=hwst128_tchk mode=one-shot seeds=3 seed=" +
        std::to_string(cfg.base_seed) +
        " timeout=0 workloads=dijkstra, points=srf-spatial-write,"
        "lmsm-store,";
    EXPECT_EQ(fault::campaign_fingerprint(cfg),
              hwst::exec::grid_fingerprint(grid_desc));

    cfg.journal = true;
    const std::string full = report_text(fault::run_campaign(cfg));
    std::vector<std::string> lines;
    {
        std::ifstream in{cfg.journal_path};
        for (std::string line; std::getline(in, line);) lines.push_back(line);
    }
    ASSERT_EQ(lines.size(), 1u + 6u); // header + one record per run
    {
        std::ofstream out{cfg.journal_path, std::ios::trunc};
        for (std::size_t i = 0; i < 4; ++i) out << lines[i] << '\n';
        out << lines[4].substr(0, lines[4].size() / 2); // torn write
    }
    cfg.journal = false;
    cfg.resume = true;
    cfg.jobs = 4;
    EXPECT_EQ(report_text(fault::run_campaign(cfg)), full);
    std::remove(cfg.journal_path.c_str());
}

} // namespace
