// Machine: the simulated HWST128 RISC-V processor + proxy-kernel
// runtime. Substitutes for the paper's Rocket Chip on the ZCU102 FPGA
// (DESIGN.md §2): a functional RV64IM+HWST executor with a 5-stage
// in-order timing model (load-use hazard, static branch prediction,
// D-cache), the SHORE/HWST128 shadow register file, the COMP/DECOMP/
// SMAC/SCU/TCU units and the keybuffer.
#pragma once

#include <array>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "hwst/csr.hpp"
#include "hwst/trap.hpp"
#include "hwst/units.hpp"
#include "mem/allocator.hpp"
#include "mem/cache.hpp"
#include "mem/memory.hpp"
#include "metadata/keybuffer.hpp"
#include "metadata/srf.hpp"
#include "riscv/program.hpp"
#include "sim/superblock.hpp"

namespace hwst::sim {

using common::i64;
using common::u32;
using common::u64;
using riscv::Reg;

/// Runtime (proxy-kernel) behaviour knobs, set per protection scheme by
/// the compiler driver.
struct RuntimeConfig {
    /// ASAN model: bytes of redzone around each heap block (0 = off).
    u64 asan_redzone = 0;
    /// ASAN model: delay reuse of freed blocks (use-after-free windows).
    bool quarantine = false;
    u64 quarantine_bytes = 1u << 20;
    /// Baseline libc behaviour: abort on free() of a non-block address
    /// (glibc "free(): invalid pointer").
    bool libc_free_aborts = true;
    /// SBCETS: pre-populate the software metadata trie's L1 table (the
    /// role of the runtime's mmap-on-demand in real SoftBound).
    bool init_sw_trie = false;
};

/// Execution-tier ladder (docs/performance.md): the step() interpreter,
/// the superblock computed-goto dispatcher, and the x86-64 template JIT
/// above it. Every tier is a pure host-side accelerator — simulated
/// results are bit-identical across all three. `Auto` resolves to the
/// fastest tier available on this host/build (JIT on plain x86-64
/// builds, the dispatcher under sanitizers or on foreign hosts).
enum class ExecTier : common::u8 { Auto, Interp, Dbt, Jit };

constexpr std::string_view tier_name(ExecTier t)
{
    switch (t) {
    case ExecTier::Auto: return "auto";
    case ExecTier::Interp: return "interp";
    case ExecTier::Dbt: return "dbt";
    case ExecTier::Jit: return "jit";
    }
    return "unknown";
}

struct MachineConfig {
    mem::CacheConfig dcache{};
    /// L1 I-cache timing model (Rocket default 16 KiB). Instrumented
    /// code is 3-4x larger, so instruction-fetch locality is a real
    /// scheme differentiator.
    mem::CacheConfig icache{};
    bool icache_enabled = true;
    unsigned keybuffer_entries = 8;
    /// false models accelerators without a lock cache (WDL): tchk loads
    /// the key from memory on every check.
    bool keybuffer_enabled = true;
    u64 fuel = 400'000'000; ///< max instructions before FuelExhausted
    /// Execution tier (docs/performance.md "Execution-tier ladder").
    /// `Auto` picks the fastest available; an explicit tier pins the
    /// ladder there. The HWST_TIER environment variable
    /// (interp/dbt/jit/auto) overrides this field. Host-side
    /// acceleration only: simulated results are bit-identical on every
    /// tier, and runs fall back to the interpreter while a trace or
    /// probe hook is installed.
    ExecTier tier = ExecTier::Auto;
    /// JIT code-cache budget in bytes. When a compile would overflow it
    /// the whole cache is dropped and retranslation starts from scratch
    /// (JitStats::evictions). Tiny budgets are legal (the eviction test
    /// uses one); a block too large to ever fit stays on the cold path.
    u64 jit_code_bytes = 4u << 20;
    /// Superblock execution count at which the JIT tier compiles it to
    /// native code; colder blocks run through step(). Swept on the full
    /// perf_mips grid: 4 beats 1 (compiling run-once blocks wastes
    /// emission time) and 8 (too many warmup instructions at
    /// interpreter speed).
    u32 jit_hot_threshold = 4;
    TimingConfig timing{};
    RuntimeConfig runtime{};
};

/// Retired-instruction mix, grouped by pipeline role. The benches use
/// it to show *where* each scheme's overhead comes from (metadata
/// traffic vs checks vs plain work).
struct InstrMix {
    u64 alu = 0;
    u64 loads = 0;          ///< plain loads
    u64 stores = 0;         ///< plain stores
    u64 checked_loads = 0;  ///< HWST checked loads (SCU-fused)
    u64 checked_stores = 0;
    u64 meta_moves = 0;     ///< sbdl/sbdu/lbdls/lbdus/lbas/lbnd/lkey/lloc
    u64 binds = 0;          ///< bndrs/bndrt
    u64 tchk = 0;
    u64 branches = 0;       ///< conditional branches
    u64 jumps = 0;          ///< jal/jalr
    u64 ecalls = 0;
    u64 other = 0;

    u64 total() const
    {
        return alu + loads + stores + checked_loads + checked_stores +
               meta_moves + binds + tchk + branches + jumps + ecalls +
               other;
    }
    /// Memory-traffic instructions added by metadata handling.
    u64 metadata_traffic() const { return meta_moves; }
};

/// Outcome of a complete run.
struct RunResult {
    hwst::Trap trap{};          ///< kind None if the program exited
    i64 exit_code = 0;
    u64 cycles = 0;
    u64 instret = 0;
    std::vector<i64> output;    ///< values printed via Sys::PrintI64
    mem::CacheStats dcache;
    mem::CacheStats icache;
    metadata::KeybufferStats keybuffer;
    u64 scu_checks = 0;
    u64 tcu_checks = 0;
    u64 scu_saturated = 0; ///< checks rejected on the saturating encoding
    u64 tcu_saturated = 0;
    u64 smac_translations = 0;
    InstrMix mix;

    bool ok() const { return trap.kind == hwst::TrapKind::None; }
};

/// Architecturally meaningful points where a value can be observed or
/// perturbed in flight (fault injection, instrumentation tooling). Each
/// names a 64-bit datapath of Fig. 3; the fault engine in src/fault/
/// builds its injection campaigns on these.
enum class Probe : common::u8 {
    SrfSpatialWrite,  ///< compressed lo half on its way into the SRF
    SrfTemporalWrite, ///< compressed hi half on its way into the SRF
    LmsmStore,        ///< sbdl/sbdu write data to the shadow memory
    LmsmLoad,         ///< shadow word loaded by lbdls/lbdus/lbas/.../lloc
    KeybufferFill,    ///< key inserted into the keybuffer on a tchk miss
    KeybufferLookup,  ///< key returned by a keybuffer hit
    CompCsrWidths,    ///< csr.bitw field widths as COMP/DECOMP read them
    DcacheFillData,   ///< load data arriving on a D-cache miss refill
};

inline constexpr unsigned kNumProbes = 8;

class Machine;

/// run_cancellable's `pause_at` when the run should not pause.
inline constexpr u64 kNoPause = ~u64{0};

/// Superblock-tier dispatcher (sim/dispatch.cpp); a friend of Machine
/// so the executor bodies can touch the interpreter's state directly.
bool run_superblocks(Machine& m, const std::function<bool()>* cancel,
                     u64 stride, u64 limit, hwst::Trap& out);

namespace jit {
class JitTier;  // sim/jit/jit.hpp: per-Machine code cache + compiler
struct JitOps;  // sim/jit/jit.cpp: helper call-outs for emitted code
/// Tier-2 driver loop (sim/jit/runtime.cpp); same contract as
/// run_superblocks.
bool run_jit(Machine& m, const std::function<bool()>* cancel, u64 stride,
             u64 limit, hwst::Trap& out);
/// True when this build/host can execute emitted x86-64 code (plain
/// x86-64 builds; sanitizer builds pin the ladder to the dispatcher).
bool jit_supported();
} // namespace jit

/// One predecoded instruction (docs/performance.md). Built once at
/// Machine construction from program.code(), indexed by
/// (pc - text_base) >> 2: everything step() used to re-derive per
/// retired instruction — format, operand-read flags, load-ness and the
/// InstrMix bucket — is looked up instead. Pure acceleration: the facts
/// are exactly what the riscv:: helpers and the old classify() switch
/// would compute, which tests/perf_paths_test.cpp asserts.
struct Uop {
    riscv::Instruction in;   ///< copy, for locality
    riscv::Format fmt;       ///< riscv::op_format(in.op)
    bool reads_rs1;          ///< format reads rs1 (load-use hazard)
    bool reads_rs2;          ///< format reads rs2 (load-use hazard)
    bool is_load;            ///< riscv::is_load(in.op)
    u64 InstrMix::* bucket;  ///< the classify() counter for in.op
};

constexpr std::string_view probe_name(Probe p)
{
    switch (p) {
    case Probe::SrfSpatialWrite: return "srf-spatial-write";
    case Probe::SrfTemporalWrite: return "srf-temporal-write";
    case Probe::LmsmStore: return "lmsm-store";
    case Probe::LmsmLoad: return "lmsm-load";
    case Probe::KeybufferFill: return "keybuffer-fill";
    case Probe::KeybufferLookup: return "keybuffer-lookup";
    case Probe::CompCsrWidths: return "comp-csr-widths";
    case Probe::DcacheFillData: return "dcache-fill-data";
    }
    return "unknown";
}

class Machine {
public:
    /// The program must be finalized. The Machine maps the process
    /// address space, loads text+data, points sp at the stack top and
    /// programs the HWST CSRs from the program's MemoryLayout.
    explicit Machine(const riscv::Program& program, MachineConfig cfg = {});
    ~Machine(); // out of line: jit::JitTier is incomplete here

    /// A deep copy of all simulated state: registers, pc, counters and
    /// InstrMix, memory, caches, SRF, keybuffer, CSRs, the HWST units,
    /// the allocators and quarantine, output and load-use state. Both
    /// machines then run on independently, and each ends bit-identical
    /// to an unforked run. The fork shares the program (which must
    /// outlive it) and copies no host-side state: its translation
    /// caches start empty, it has no hooks and its host stats are zero.
    /// Call between runs, never from a hook.
    std::unique_ptr<Machine> fork() const;

    /// Run to completion (exit, trap, or fuel exhaustion).
    RunResult run();

    /// Like run(), but polls `cancel` every `stride` retired
    /// instructions and returns std::nullopt when it fires (the machine
    /// state stays inspectable). Execution is otherwise identical to
    /// run(): an uncancelled run produces the exact same RunResult.
    ///
    /// The run also pauses once instret() reaches `pause_at`, exactly,
    /// on every tier: it returns a snapshot with running() still true,
    /// and the next call resumes. A run paused any number of times ends
    /// bit-identical to an unpaused one. Fuel exhaustion at the same
    /// count ends the run instead.
    std::optional<RunResult> run_cancellable(
        const std::function<bool()>& cancel, u64 stride = 4096,
        u64 pause_at = kNoPause);

    /// Execute one instruction. Returns a trap (kind None = keep going).
    hwst::Trap step();

    /// Per-instruction trace hook, invoked before each instruction
    /// executes (debugger/tooling support). Pass nullptr to disable.
    using TraceHook =
        std::function<void(u64 pc, const riscv::Instruction&)>;
    void set_trace(TraceHook hook) { host_.trace = std::move(hook); }

    /// Value-perturbation hook, invoked at every Probe point with the
    /// in-flight value; whatever it returns is used instead (return
    /// `value` unchanged for a transparent observer). Pass nullptr to
    /// disable. The fault engine (src/fault/) is the main client.
    using ProbeHook = std::function<u64(Probe, u64 instret, u64 value)>;
    void set_probe_hook(ProbeHook hook) { host_.probe_hook = std::move(hook); }

    // ---- introspection (tests, examples) -----------------------------
    u64 reg(Reg r) const { return regs_[riscv::reg_index(r)]; }
    void set_reg(Reg r, u64 v)
    {
        if (r != Reg::zero) regs_[riscv::reg_index(r)] = v;
    }
    u64 pc() const { return pc_; }
    void set_pc(u64 pc) { pc_ = pc; }
    u64 cycles() const { return cycles_; }
    u64 instret() const { return instret_; }
    bool running() const { return running_; }

    mem::Memory& memory() { return mem_; }
    const mem::Memory& memory() const { return mem_; }
    metadata::ShadowRegFile& srf() { return srf_; }
    const metadata::Keybuffer& keybuffer() const { return keybuffer_; }
    hwst::HwstCsrFile& csrs() { return csrs_; }
    const mem::Cache& dcache() const { return dcache_; }
    mem::HeapAllocator& heap() { return *heap_; }
    mem::LockAllocator& locks() { return *locks_; }
    const std::vector<i64>& output() const { return output_; }

    /// Decompression config currently programmed in the CSRs.
    metadata::CompressionConfig compression() const
    {
        return csrs_.compression();
    }

    /// The predecoded instruction stream (read-only; tests assert it
    /// against per-instruction re-derivation).
    std::span<const Uop> uops() const { return uops_; }

    /// Host-side counters of the superblock DBT tier (never part of the
    /// simulated envelope).
    const DbtStats& dbt_stats() const { return host_.dbt_stats; }

    /// Host-side counters of the tier-2 template JIT.
    const JitStats& jit_stats() const { return host_.jit_stats; }

    /// The execution tier this Machine resolved to (config + HWST_TIER
    /// env + host capability folded together at construction).
    /// Trace/probe hooks and force_interpreter() still pin individual
    /// runs to the interpreter.
    ExecTier tier() const { return tier_; }

private:
    /// fork()'s copy: every member but host_, which starts empty.
    Machine(const Machine&) = default;
    Machine& operator=(const Machine&) = delete;

    /// Route Memory's remap notifications to this Machine's translated
    /// tiers.
    void bind_invalidation_hook();

    friend bool run_superblocks(Machine&, const std::function<bool()>*,
                                u64, u64, hwst::Trap&);
    friend class jit::JitTier;
    friend struct jit::JitOps;
    friend bool jit::run_jit(Machine&, const std::function<bool()>*, u64,
                             u64, hwst::Trap&);
    hwst::Trap exec(const riscv::Instruction& in, u64& next_pc);
    hwst::Trap exec_hwst(const riscv::Instruction& in);
    hwst::Trap exec_ecall();
    void srf_effects(const riscv::Instruction& in, riscv::Format fmt);

    /// A driver loop reached its instruction `limit` (fuel or a pause,
    /// whichever is lower): out of fuel, the run ends with FuelExhausted
    /// in `out`; at a pause it stays running.
    void stop_at_limit(hwst::Trap& out)
    {
        if (instret_ < cfg_.fuel) return;
        out = hwst::Trap{hwst::TrapKind::FuelExhausted, 0, pc_};
        running_ = false;
    }

    /// Drop all JIT-compiled code (out of line: JitTier is incomplete
    /// here). No-op when the JIT tier was never entered.
    void jit_drop_code();

    unsigned dcache_extra(u64 addr)
    {
        return dcache_.access(addr) - cfg_.dcache.hit_cycles;
    }

    u64 mem_load(u64 addr, unsigned width, bool sign_extend)
    {
        cycles_ += dcache_extra(addr);
        const u64 value = mem_.load(addr, width, sign_extend);
        // Fill data is the one datapath HWST metadata does not cover
        // (the paper leaves data integrity to ECC); expose it as its own
        // probe.
        if (host_.probe_hook && dcache_.last_access_missed())
            return host_.probe_hook(Probe::DcacheFillData, instret_, value);
        return value;
    }

    /// Run `value` through the probe hook (identity when no hook set).
    u64 probe(Probe p, u64 value)
    {
        return host_.probe_hook ? host_.probe_hook(p, instret_, value) : value;
    }

    /// Compression config as COMP/DECOMP see it: the CSR widths routed
    /// through the CompCsrWidths probe, then validated. `valid == false`
    /// means the (possibly perturbed) widths are unusable and any
    /// metadata operation must trap rather than compute garbage.
    struct ActiveCompression {
        metadata::CompressionConfig cfg;
        bool valid;
    };
    /// Memoized against the CSR file's version counter: the decode +
    /// validate work only reruns after a CSR write. A probe hook
    /// bypasses the memo entirely — it must observe (and may perturb)
    /// every single invocation.
    ActiveCompression active_compression()
    {
        if (!host_.probe_hook && comp_version_ == csrs_.version())
            return comp_memo_;
        return decode_compression();
    }
    ActiveCompression decode_compression();
    /// The one definition of "usable widths": COMP/DECOMP's config for
    /// these csr.bitw / csr.lock.base values, validated. The CSR write
    /// path rejects values it marks invalid.
    static ActiveCompression compression_for(u64 bitw, u64 lock_base);

    // ---- HWST128 unit operations (paper Fig. 3) ----------------------
    // The one definition of each SCU/TCU/COMP/SMAC operation. Every
    // tier calls these: the interpreter (exec_hwst, mem_store,
    // srf_effects), the superblock dispatcher and the JIT's helper
    // call-outs. Traps come back as values (kind None = pass) carrying
    // pc_, which callers point at the instruction first; a bad access
    // throws mem::MemFault. The tiers differ only in how they deliver
    // a trap and in their retirement accounting.

    /// Record a violation in the CSRs and build its trap.
    hwst::Trap violation(hwst::TrapKind kind, u64 addr)
    {
        csrs_.record_violation(static_cast<u64>(kind), addr);
        return hwst::Trap{kind, addr, pc_};
    }
    /// COMP/DECOMP cannot operate under perturbed-or-invalid field
    /// widths; the op that needed them traps instead of computing
    /// garbage.
    hwst::Trap bad_widths()
    {
        return violation(hwst::TrapKind::IllegalInstruction,
                         hwst::kCsrBitw);
    }

    /// SCU: bounds check of a `width`-byte access at `addr` through
    /// `ptr`'s spatial metadata. No (or cleared) metadata leaves the
    /// access unchecked, like SoftBound pointers whose provenance the
    /// analysis lost.
    hwst::Trap scu_check(Reg ptr, u64 addr, unsigned width)
    {
        if (!csrs_.spatial_enabled()) return {};
        const auto& e = srf_.entry(ptr);
        if (!e.valid_lo || e.value.lo == 0) return {};
        const ActiveCompression ac = active_compression();
        if (!ac.valid) return bad_widths();
        if (metadata::is_saturated_spatial(e.value.lo, ac.cfg)) {
            scu_.note_saturated();
            return violation(hwst::TrapKind::SpatialViolation, addr);
        }
        u64 base = 0, bound = 0;
        metadata::decompress_spatial(e.value.lo, ac.cfg, base, bound);
        if (scu_.check(addr, width, base, bound).pass) return {};
        return violation(hwst::TrapKind::SpatialViolation, addr);
    }

    /// tchk: TCU key/lock check of `ptr`'s temporal metadata. The check
    /// needs a second memory access (the key at the lock_location): a
    /// keybuffer hit elides it, a miss — or every check when the
    /// accelerator has no keybuffer (WDL) — pays a full D-cache access
    /// (paper §3.5).
    hwst::Trap tchk(Reg ptr)
    {
        if (!csrs_.temporal_enabled()) return {};
        const auto& e = srf_.entry(ptr);
        if (!e.valid_hi || e.value.hi == 0) return {};
        const ActiveCompression ac = active_compression();
        if (!ac.valid) return bad_widths();
        if (metadata::is_saturated_temporal(e.value.hi, ac.cfg)) {
            tcu_.note_saturated();
            return violation(hwst::TrapKind::TemporalViolation, reg(ptr));
        }
        u64 key = 0, lock = 0;
        metadata::decompress_temporal(e.value.hi, ac.cfg, key, lock);
        u64 mem_key = 0;
        if (!cfg_.keybuffer_enabled) {
            cycles_ += dcache_.access(lock);
            mem_key = mem_.load(lock, 8, false);
        } else if (const auto hit = keybuffer_.lookup(lock)) {
            mem_key = probe(Probe::KeybufferLookup, *hit);
        } else {
            cycles_ += dcache_.access(lock);
            mem_key = mem_.load(lock, 8, false);
            // A fill fault corrupts what the buffer caches; the check in
            // flight still compares the freshly loaded key, so the fault
            // surfaces on a later hit (nonzero detection latency).
            keybuffer_.insert(lock, probe(Probe::KeybufferFill, mem_key));
        }
        if (tcu_.check(key, mem_key).pass) return {};
        return violation(hwst::TrapKind::TemporalViolation, lock);
    }

    /// bndrs/bndrt: COMP compresses (rs1, rs2) = (base, bound) or
    /// (key, lock) into one SRF half of rd.
    hwst::Trap bndr(bool temporal, Reg rd, Reg rs1, Reg rs2)
    {
        const ActiveCompression ac = active_compression();
        if (!ac.valid) return bad_widths();
        if (temporal)
            srf_.bind_temporal(
                rd, probe(Probe::SrfTemporalWrite,
                          metadata::compress_temporal(reg(rs1), reg(rs2),
                                                      ac.cfg)));
        else
            srf_.bind_spatial(
                rd, probe(Probe::SrfSpatialWrite,
                          metadata::compress_spatial(reg(rs1), reg(rs2),
                                                     ac.cfg)));
        return {};
    }

    /// SMAC: the LMSM slot shadowing `addr` (the upper slot holds the
    /// temporal half).
    u64 lmsm_slot(u64 addr, bool upper)
    {
        return smac_.map(addr, csrs_.sm_offset()) +
               (upper ? hwst::Smac::upper_slot_offset() : 0);
    }

    /// sbdl/sbdu: store one SRF half of `src` (zero if invalid) into the
    /// LMSM slot of reg(rs1) + imm.
    void sbd(bool upper, Reg rs1, Reg src, i64 imm)
    {
        const auto& e = srf_.entry(src);
        const u64 addr = lmsm_slot(reg(rs1) + static_cast<u64>(imm), upper);
        const u64 value =
            probe(Probe::LmsmStore, upper ? (e.valid_hi ? e.value.hi : 0)
                                          : (e.valid_lo ? e.value.lo : 0));
        cycles_ += dcache_extra(addr);
        mem_.store(addr, 8, value);
    }

    /// lbdls/lbdus: load one LMSM slot into an SRF half of rd; a zero
    /// slot marks the half invalid.
    void lbd(bool upper, Reg rd, Reg rs1, i64 imm)
    {
        const u64 addr = lmsm_slot(reg(rs1) + static_cast<u64>(imm), upper);
        const u64 value = probe(Probe::LmsmLoad, mem_load(addr, 8, false));
        if (upper) srf_.set_hi(rd, value, value != 0);
        else srf_.set_lo(rd, value, value != 0);
    }

    /// Keybuffer coherence on the store side: a key *erasure* (store of
    /// 0 into the lock region — what frees do) clears the keybuffer
    /// (paper §3.5). Non-zero writes mint fresh keys, which cannot be
    /// cached yet.
    void mem_store(u64 addr, unsigned width, u64 value)
    {
        cycles_ += dcache_extra(addr);
        const auto& lay = program_.layout();
        if (value == 0 && addr - lay.lock_base < lay.lock_entries * 8)
            keybuffer_.flush();
        mem_.store(addr, width, value);
    }

    /// Checked load (SCU fused, paper Fig. 3): the loaded value is data,
    /// so rd's metadata is cleared.
    hwst::Trap checked_load(Reg rd, Reg rs1, i64 imm, unsigned width,
                            bool sign_extend)
    {
        const u64 addr = reg(rs1) + static_cast<u64>(imm);
        const hwst::Trap t = scu_check(rs1, addr, width);
        if (t.kind != hwst::TrapKind::None) return t;
        const u64 value = mem_load(addr, width, sign_extend);
        if (rd != Reg::zero) {
            set_reg(rd, value);
            srf_.clear(rd);
        }
        return {};
    }

    hwst::Trap checked_store(Reg rs1, Reg rs2, i64 imm, unsigned width)
    {
        const u64 addr = reg(rs1) + static_cast<u64>(imm);
        const hwst::Trap t = scu_check(rs1, addr, width);
        if (t.kind != hwst::TrapKind::None) return t;
        mem_store(addr, width, reg(rs2));
        return {};
    }

    /// In-pipeline propagation for pointer arithmetic (paper Fig. 1-b,
    /// Hardbound-style rules): ADDI carries rs1's shadow register to rd,
    /// ADD whichever single operand has metadata, SUB only rs1's
    /// (pointer - integer); otherwise rd's metadata is cleared. That
    /// clear is unguarded: it mutates SRF entry 0 when rd is x0.
    void srf_arith(riscv::Opcode op, Reg rd, Reg rs1, Reg rs2)
    {
        if (op == riscv::Opcode::ADDI) {
            srf_.propagate(rd, rs1);
            return;
        }
        const auto any = [this](Reg r) {
            const auto& e = srf_.entry(r);
            return e.valid_lo || e.valid_hi;
        };
        const bool a = any(rs1), b = any(rs2);
        if (a && !b) srf_.propagate(rd, rs1);
        else if (op == riscv::Opcode::ADD && b && !a) srf_.propagate(rd, rs2);
        else srf_.clear(rd);
    }

    /// RV64IM ALU op `Op` of a translated block, for the dispatcher and
    /// the JIT's call-outs: the rv64im.hpp result kernel, then the srf
    /// rule srf_effects applies. Translation folded the rd == x0
    /// variants of folds_when_rd_zero ops to Nop, so their register
    /// write is unconditional.
    template <riscv::Opcode Op>
    [[gnu::always_inline]] void alu_op(const SbOp& op)
    {
        const u64 v = alu<Op>(regs_[op.rs1], regs_[op.rs2], op.imm);
        const Reg rd = static_cast<Reg>(op.rd);
        if constexpr (is_pointer_arith(Op)) {
            if (folds_when_rd_zero(Op) || op.rd) regs_[op.rd] = v;
            srf_arith(Op, rd, static_cast<Reg>(op.rs1),
                      static_cast<Reg>(op.rs2));
        } else {
            regs_[op.rd] = v;
            srf_.clear(rd);
        }
    }

    /// Host-side execution state: the translated tiers' caches, their
    /// host stats and the hooks. A copy of it is empty, so the Machine
    /// copy that fork() makes carries simulated state only, and every
    /// member declared outside this struct is forked by default.
    struct HostState {
        // Out of line: jit::JitTier is incomplete here.
        HostState();
        HostState(const HostState&);
        HostState& operator=(const HostState&) = delete;
        ~HostState();

        // Superblock DBT tier: the block cache is created lazily on the
        // first translated run.
        std::unique_ptr<SuperblockCache> sbcache;
        DbtStats dbt_stats;
        // Tier-2 JIT: lazily created on the first jit-tier run.
        std::unique_ptr<jit::JitTier> jit;
        JitStats jit_stats;
        bool in_dispatch = false;
        TraceHook trace;
        ProbeHook probe_hook;
    };
    HostState host_;

    // tier_ is the resolved ladder position (see tier()); comp_memo_ is
    // active_compression()'s memo.
    ExecTier tier_ = ExecTier::Dbt;
    u64 comp_version_ = ~u64{0};
    ActiveCompression comp_memo_{};

    const riscv::Program& program_;
    MachineConfig cfg_;

    // Predecoded instruction stream + hoisted bounds (see Uop).
    std::vector<Uop> uops_;
    u64 text_base_ = 0;
    u64 code_bytes_ = 0;

    std::array<u64, riscv::kNumRegs> regs_{};
    u64 pc_ = 0;
    u64 cycles_ = 0;
    u64 instret_ = 0;
    bool running_ = true;
    i64 exit_code_ = 0;

    mem::Memory mem_;
    mem::Cache dcache_;
    mem::Cache icache_;
    metadata::ShadowRegFile srf_;
    metadata::Keybuffer keybuffer_;
    hwst::HwstCsrFile csrs_;
    hwst::Smac smac_;
    hwst::Scu scu_;
    hwst::Tcu tcu_;

    std::optional<mem::HeapAllocator> heap_;
    std::optional<mem::LockAllocator> locks_;
    std::vector<std::pair<u64, u64>> quarantine_; // addr, size
    u64 quarantine_used_ = 0;

    std::vector<i64> output_;

    // Load-use hazard bookkeeping: destination of the previous
    // instruction if it was a load, else Reg::zero.
    Reg last_load_rd_ = Reg::zero;

    InstrMix mix_;
};

/// Process-wide override forcing every run onto the interpreter tier,
/// regardless of MachineConfig::tier or HWST_TIER. The DBT divergence
/// sentinel (docs/execution.md, "Process isolation & failure
/// taxonomy") sets it inside its re-check workers so the reference run
/// cannot consult the tier under suspicion; runs forced this way count
/// in dbt_stats().sentinel_degraded.
void force_interpreter(bool on);
bool interpreter_forced();

} // namespace hwst::sim
