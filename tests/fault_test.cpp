// Tests of the metadata fault-injection engine (src/fault/) and the
// graceful-degradation paths it exercises: the injector's trigger
// semantics, the trap-or-survive oracle, the segmented faulted runner
// against a whole-run interpreter reference, saturating metadata
// compression at machine level, and a small deterministic campaign.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <functional>
#include <sstream>

#include "compiler/driver.hpp"
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
        const auto cp = hwst::compiler::compile(
            hwst::workloads::workload(name).build(),
            hwst::compiler::Scheme::Hwst128Tchk);
        const sim::RunResult golden =
            Machine{cp.program, cp.machine_config}.run();
        ASSERT_TRUE(golden.ok());
        sim::MachineConfig cfg = cp.machine_config;
        cfg.fuel = golden.instret * 4 + 100'000;

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

} // namespace
