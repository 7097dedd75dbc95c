// Tier-2 template JIT: code cache, per-op templates and the helper
// call-outs (jit.hpp has the policy overview; sim/jit/runtime.cpp the
// driver loop). The bit-exactness strategy is two-layered:
//
//  * Everything non-trivial (checked ops, HWST metadata ops, the
//    mulh/div/rem family, slow memory paths, interp-one) calls back
//    into C++ helpers in JitOps below. The HWST ops and those ALU ops
//    call the same kernels (machine.hpp, rv64im.hpp) as the
//    interpreter and the dispatcher, so their semantics exist once. Helpers never unwind through emitted
//    frames: MemFault is caught inside and converted to an
//    exit-with-trap, exactly where the dispatcher's catch converts it.
//  * The inlined fast paths (ALU ops, load/store TLB probe, cache
//    recent-line probe, SRF clear/propagate) replicate structures whose
//    owners publish an explicit emitted-code contract: mem::Memory::
//    tlb_view(), mem::Cache::jit_view(), ShadowRegFile::entries_view().
//
// Register convention inside emitted code (pinned by the entry thunk,
// all callee-saved so helper calls need no spills):
//   r12 = &Machine::regs_[0]      rbp = SRF entry array base
//   r13 = JitContext*             r14 = &Machine::cycles_
//   r15 = Machine* (helper arg0)  rbx = op-scratch (live across calls)
#include "sim/jit/jit.hpp"

#include <array>
#include <cstring>

#include "sim/machine.hpp"

#if HWST_JIT_X86_64
#include <sys/mman.h>
#include <unistd.h>

#include "sim/jit/emit.hpp"
#endif

namespace hwst::sim::jit {

using common::i32;
using common::i64;
using hwst::Trap;
using hwst::TrapKind;
using mem::MemFault;
using riscv::Reg;

// ---------------------------------------------------------------------
// Helper call-outs: the matching dispatcher body (sim/dispatch.cpp)
// minus the PRO() prologue, which the templates emit inline. Status
// helpers return 0 = continue in emitted code, 1 = exit (the
// JitContext holds the reason).
// ---------------------------------------------------------------------
struct JitOps {
    // ---- void helpers (cannot exit) ---------------------------------
    static void pro_icache(Machine* m, const SbOp* op)
    {
        m->cycles_ += m->icache_.access(op->pc) - m->cfg_.icache.hit_cycles;
    }
    static void dcache_access(Machine* m, u64 addr)
    {
        m->cycles_ += m->dcache_.access(addr) - m->cfg_.dcache.hit_cycles;
    }
    static void kb_flush(Machine* m) { m->keybuffer_.flush(); }

    /// RV64IM ALU op `Op` (the dispatcher's ALU labels): the ops the
    /// templates do not emit natively (MULH*, DIV*, REM*) call this.
    template <riscv::Opcode Op>
    static void alu(Machine* m, const SbOp* op)
    {
        m->alu_op<Op>(*op);
    }
    /// alu<Op> of every ALU kind, indexed by SbKind (null elsewhere).
    static constexpr auto kAlu = [] {
        std::array<void (*)(Machine*, const SbOp*), kNumSbKinds> t{};
#define HWST_JIT_ALU(name, ...) \
    t[static_cast<unsigned>(SbKind::name)] = &alu<riscv::Opcode::name>;
        HWST_RV64IM_ALU_LIST(HWST_JIT_ALU)
#undef HWST_JIT_ALU
        return t;
    }();

    // ---- emission-time state bundle ---------------------------------
    /// Everything BlockEmitter bakes into emitted code, fetched in one
    /// place because JitOps (not the emitter) is the Machine's friend.
    /// All pointers are stable for the Machine's lifetime.
    struct Views {
        mem::Cache::JitView icv;
        mem::Cache::JitView dcv;
        mem::Memory::TlbView tlb;
        u64* instret;
        u64* pc;
        void* llr; ///< &last_load_rd_ (a Reg, 1 byte)
        u64* chained;
        u64* block_execs;
        u64* jalr_hits;
        InstrMix* mix;
        u64 lock_base;
        u64 lock_bytes;
        unsigned lu_stall;
        unsigned taken_pen;
        /// &csr.status (HwstCsrFile::status_view()): the checked-op
        /// templates test the spatial/temporal enable bits inline.
        const u64* csr_status;
        /// The Machine itself (pinned in r15): every field above except
        /// tlb line arrays and jalr sites lives inside the Machine by
        /// value, so templates address them as [r15 + disp] instead of
        /// materialising a 10-byte absolute address per access.
        const char* mbase;
    };
    static Views views(Machine& m)
    {
        const auto& lay = m.program_.layout();
        return Views{m.icache_.jit_view(),
                     m.dcache_.jit_view(),
                     m.mem_.tlb_view(),
                     &m.instret_,
                     &m.pc_,
                     &m.last_load_rd_,
                     &m.host_.dbt_stats.chained,
                     &m.host_.dbt_stats.block_execs,
                     &m.host_.dbt_stats.jalr_hits,
                     &m.mix_,
                     lay.lock_base,
                     lay.lock_entries * 8,
                     m.cfg_.timing.load_use_stall,
                     m.cfg_.timing.branch_taken_penalty,
                     m.csrs_.status_view(),
                     reinterpret_cast<const char*>(&m)};
    }

    // ---- status helpers ---------------------------------------------
    /// Fill the context with a pre-batch trap (the driver applies the
    /// per-op prefix accounting, like the dispatcher's trap_at_op).
    static u64 trap_out(JitContext* c, const SbOp* op, TrapKind k,
                        u64 addr, u64 pc)
    {
        c->exit_reason = kExitTrap;
        c->trap_kind = static_cast<u32>(k);
        c->trap_addr = addr;
        c->trap_pc = pc;
        c->exit_payload = reinterpret_cast<u64>(op);
        return 1;
    }

    /// Slow path of the inlined plain-load template: page straddle or
    /// TLB miss. The dcache access already happened inline.
    template <unsigned W, bool SX>
    static u64 load_slow(Machine* m, const SbOp* op, JitContext* c,
                         u64 addr)
    {
        try {
            const u64 v = m->mem_.load(addr, W, SX);
            if (op->rd) {
                m->regs_[op->rd] = v;
                m->srf_.clear(static_cast<Reg>(op->rd));
            }
            return 0;
        } catch (const MemFault& f) {
            return trap_out(c, op, TrapKind::AccessFault, f.addr, op->pc);
        }
    }

    /// Slow path of the inlined plain-store template (straddle, miss,
    /// or a hit on an unmaterialised page). Keybuffer coherence and the
    /// dcache access already happened inline.
    template <unsigned W>
    static u64 store_slow(Machine* m, const SbOp* op, JitContext* c,
                          u64 addr)
    {
        try {
            m->mem_.store(addr, W, m->regs_[op->rs2]);
            return 0;
        } catch (const MemFault& f) {
            return trap_out(c, op, TrapKind::AccessFault, f.addr, op->pc);
        }
    }

    // ---- HWST unit operations ---------------------------------------
    /// The one status helper around the Machine's unit kernels
    /// (machine.hpp), as the dispatcher's UNIT(): pc_ first, then the
    /// kernel; its trap — or a MemFault — becomes an exit-with-trap.
    template <Trap (*Kernel)(Machine&, const SbOp&)>
    static u64 unit(Machine* m, const SbOp* op, JitContext* c)
    {
        try {
            m->pc_ = op->pc; // traps leave pc_ at the faulting pc
            const Trap t = Kernel(*m, *op);
            if (t.kind == TrapKind::None) return 0;
            return trap_out(c, op, t.kind, t.addr, t.pc);
        } catch (const MemFault& f) {
            return trap_out(c, op, TrapKind::AccessFault, f.addr, op->pc);
        }
    }
    // Operand mapping of each unit-op SbKind onto its kernel.
    static Reg rd(const SbOp& op) { return static_cast<Reg>(op.rd); }
    static Reg rs1(const SbOp& op) { return static_cast<Reg>(op.rs1); }
    static Reg rs2(const SbOp& op) { return static_cast<Reg>(op.rs2); }
    static Trap checked_load(Machine& m, const SbOp& op)
    {
        return m.checked_load(rd(op), rs1(op), op.imm, op.width,
                              (op.flags & kOpSignedLoad) != 0);
    }
    static Trap checked_store(Machine& m, const SbOp& op)
    {
        return m.checked_store(rs1(op), rs2(op), op.imm, op.width);
    }
    static Trap sbd(Machine& m, const SbOp& op)
    {
        m.sbd(op.aux != 0, rs1(op), rs2(op), op.imm);
        return {};
    }
    static Trap lbd(Machine& m, const SbOp& op)
    {
        m.lbd(op.aux != 0, rd(op), rs1(op), op.imm);
        return {};
    }
    static Trap tchk(Machine& m, const SbOp& op) { return m.tchk(rs1(op)); }
    static Trap bndr(Machine& m, const SbOp& op)
    {
        return m.bndr(op.aux != 0, rd(op), rs1(op), rs2(op));
    }
    /// The remaining HWST metadata ops, through the interpreter's
    /// executor and srf rule (the dispatcher's L_Hwst).
    static Trap hwst(Machine& m, const SbOp& op)
    {
        const Uop& u = m.uops_[op.uop_idx];
        const Trap t = m.exec_hwst(u.in);
        if (t.kind == TrapKind::None) m.srf_effects(u.in, u.fmt);
        return t;
    }

    /// The dispatcher's L_InterpOne. The emitted code applied the batch
    /// already; this always exits (no chaining past a proxy-kernel
    /// call). A trap here is final: the batch accounting stands, like
    /// the dispatcher's batch_applied path.
    static u64 interp_one(Machine* m, const SbOp* op, JitContext* c)
    {
        const auto final_trap = [&](TrapKind k, u64 addr, u64 pc) {
            m->running_ = false;
            c->exit_reason = kExitTrapFinal;
            c->trap_kind = static_cast<u32>(k);
            c->trap_addr = addr;
            c->trap_pc = pc;
            return u64{1};
        };
        try {
            const Uop& u = m->uops_[op->uop_idx];
            m->pc_ = op->pc;
            u64 next_pc = op->pc + 4;
            const Trap t = m->exec(u.in, next_pc);
            if (t.kind != TrapKind::None)
                return final_trap(t.kind, t.addr, t.pc);
            m->srf_effects(u.in, u.fmt);
            m->pc_ = next_pc;
            c->exit_reason = kExitLeave;
            return 1;
        } catch (const MemFault& f) {
            return final_trap(TrapKind::AccessFault, f.addr, op->pc);
        }
    }
};

#if HWST_JIT_X86_64

// Layout contracts the templates bake in.
static_assert(sizeof(metadata::ShadowRegFile::Entry) == 24);
static_assert(offsetof(metadata::ShadowRegFile::Entry, valid_lo) == 16);
static_assert(offsetof(metadata::ShadowRegFile::Entry, valid_hi) == 17);
static_assert(sizeof(mem::Memory::TlbEntry) == 16);
static_assert(sizeof(mem::Memory::TlbSet) == 40);
static_assert(offsetof(mem::Memory::TlbEntry, host) == 8);
namespace {
using JalrSite = JalrCache2<const void*>;
} // namespace
static_assert(offsetof(JalrSite, tag) == 0);
static_assert(offsetof(JalrSite, way) == 16);
static_assert(offsetof(JalrSite, aux) == 32);
static_assert(sizeof(Reg) == 1);
static_assert(std::is_standard_layout_v<JitContext>);

namespace {

constexpr i32 kCtxCountdown = offsetof(JitContext, countdown);
constexpr i32 kCtxReason = offsetof(JitContext, exit_reason);
constexpr i32 kCtxPayload = offsetof(JitContext, exit_payload);

constexpr unsigned log2w(unsigned width)
{
    return width == 1 ? 0 : width == 2 ? 1 : width == 4 ? 2 : 3;
}

/// Emits the shared per-region runtime right after the entry thunk:
/// the plain load/store fast-path subroutines (dcache recent-line
/// probe + TLB probe + host access) and one trampoline per C++ helper.
/// Both are reached from block code by a 5-byte rel32 call, which is
/// the point — per-op call sites shrink from two movabs to one call,
/// and the probe bodies exist once per region instead of once per op,
/// keeping hot blocks inside L1i.
///
/// Stack discipline: block code runs at rsp ≡ 0 mod 16, so a called
/// routine runs at rsp ≡ 8. C call-outs from inside a routine re-align
/// with a single push (which also preserves rdi, the store-value
/// argument). Trampolines tail-jump into their helper, so the helper
/// sees the block's return address exactly as if called directly.
struct RtEmitter {
    Asm& a;
    const JitOps::Views& v;
    JitTier::RtOffsets& rt;

    i32 moff(const void* p) const
    {
        return static_cast<i32>(reinterpret_cast<const char*>(p) - v.mbase);
    }

    /// Inline recent-line probe on the address in rbx; slow path calls
    /// Cache::access via the helper. Clobbers rax/rcx/rdx, keeps rdi.
    void dcache_probe()
    {
        const int Lslow = a.label(), Ldone = a.label();
        a.mov_rr(RAX, RBX);
        a.shift_ri(SH_SHR, RAX, static_cast<u8>(v.dcv.line_shift));
        a.mov_rm(RDX, R15, moff(v.dcv.last_line));
        a.test_rr(RDX, RDX);
        a.jcc(CC_E, Lslow);
        a.alu_mr(ALU_CMP, R15, moff(v.dcv.last_line_addr), RAX);
        a.jcc(CC_NE, Lslow);
        a.alu_mi(ALU_ADD, R15, moff(v.dcv.accesses), 1);
        a.mov_rm(RAX, R15, moff(v.dcv.tick));
        a.alu_ri(ALU_ADD, RAX, 1);
        a.mov_mr(R15, moff(v.dcv.tick), RAX);
        a.mov_mr(RDX, static_cast<i32>(v.dcv.line_lru_offset), RAX);
        a.mov_mi8(R15, moff(v.dcv.last_miss), 0);
        a.jmp(Ldone);
        a.bind(Lslow);
        a.push(RDI); // re-align rsp for the C ABI; also keeps the value
        a.mov_rr(RDI, R15);
        a.mov_rr(RSI, RBX);
        a.abs(RAX, reinterpret_cast<const void*>(&JitOps::dcache_access));
        a.call_r(RAX);
        a.pop(RDI);
        a.bind(Ldone);
    }

    /// Probe both TLB ways for the (single-page) access in rbx; on a
    /// hit, rsi = host pointer of the page (possibly null) and *hits is
    /// bumped by the caller per the tlb_view() contract. Jumps to
    /// `Lslow` on straddle or miss. Clobbers rax/rcx/rdx/rsi.
    void tlb_probe(unsigned width, int Lslow)
    {
        const int Lw0 = a.label(), Lw1 = a.label(), Lhost = a.label();
        a.mov_rr(RAX, RBX);
        a.alu_ri32(ALU_AND, RAX, 4095);
        a.alu_ri32(ALU_CMP, RAX, static_cast<i32>(4096 - width));
        a.jcc(CC_A, Lslow);
        a.mov_rr(RDX, RBX);
        a.alu_ri(ALU_AND, RDX, static_cast<i32>(0xFFFFF000)); // sign-extends
        a.mov_rr(RCX, RBX);
        a.shift_ri(SH_SHR, RCX, 12);
        a.alu_ri32(ALU_AND, RCX, 63);
        a.lea(RCX, RCX, RCX, 4, 0); // slot * 5
        a.shift_ri(SH_SHL, RCX, 3); // * 40 = sizeof(TlbSet)
        a.lea(RSI, R15, RCX, 1, moff(v.tlb.sets));
        a.alu_mr(ALU_CMP, RSI, 0, RDX);
        a.jcc(CC_E, Lw0);
        a.alu_mr(ALU_CMP, RSI, 16, RDX);
        a.jcc(CC_E, Lw1);
        a.jmp(Lslow);
        a.bind(Lw0);
        a.mov_rm(RSI, RSI, 8);
        a.jmp(Lhost);
        a.bind(Lw1);
        a.mov_rm(RSI, RSI, 24);
        a.bind(Lhost);
    }

    /// rt_load[w][sx]: in rbx = addr; out rax = value and edx = 0, or
    /// edx = 1 when the caller must take the load_slow helper (straddle
    /// or TLB miss — the dcache access already happened here).
    void emit_load(unsigned width, bool sx)
    {
        rt.load[log2w(width)][sx ? 1 : 0] = a.size();
        dcache_probe();
        const int Lslow = a.label(), Lval = a.label();
        tlb_probe(width, Lslow);
        // Hit (host may be null: unmaterialised pages read as zero).
        a.alu_mi(ALU_ADD, R15, moff(v.tlb.hits), 1);
        a.alu_rr32(ALU_XOR, RAX, RAX);
        a.test_rr(RSI, RSI);
        a.jcc(CC_E, Lval);
        a.mov_rr(RCX, RBX);
        a.alu_ri32(ALU_AND, RCX, 4095);
        a.alu_rr(ALU_ADD, RSI, RCX);
        a.load_mem(RAX, RSI, 0, width, sx);
        a.bind(Lval);
        a.alu_rr32(ALU_XOR, RDX, RDX);
        a.ret();
        a.bind(Lslow);
        a.mov_ri(RDX, 1);
        a.ret();
    }

    /// rt_store[w]: in rbx = addr, rdi = value; out edx = 0 done, or
    /// edx = 1 when the caller must take the store_slow helper. The
    /// dcache access and keybuffer coherence already happened here
    /// (store_slow's contract).
    void emit_store(unsigned width)
    {
        rt.store[log2w(width)] = a.size();
        dcache_probe();
        // Keybuffer coherence: store of 0 into the lock region flushes.
        const int Lkb = a.label();
        a.test_rr(RDI, RDI);
        a.jcc(CC_NE, Lkb);
        a.mov_rr(RCX, RBX);
        a.mov_ri(RDX, v.lock_base);
        a.alu_rr(ALU_SUB, RCX, RDX);
        a.mov_ri(RDX, v.lock_bytes);
        a.alu_rr(ALU_CMP, RCX, RDX);
        a.jcc(CC_AE, Lkb);
        a.push(RDI);
        a.mov_rr(RDI, R15);
        a.abs(RAX, reinterpret_cast<const void*>(&JitOps::kb_flush));
        a.call_r(RAX);
        a.pop(RDI);
        a.bind(Lkb);
        const int Lslow = a.label();
        tlb_probe(width, Lslow);
        // Stores to unmaterialised pages take the slow path (no hit
        // counted), matching Memory::store exactly.
        a.test_rr(RSI, RSI);
        a.jcc(CC_E, Lslow);
        a.alu_mi(ALU_ADD, R15, moff(v.tlb.hits), 1);
        a.mov_rr(RCX, RBX);
        a.alu_ri32(ALU_AND, RCX, 4095);
        a.alu_rr(ALU_ADD, RSI, RCX);
        a.mov_rr(RAX, RDI); // low-byte stores of rdi would need REX
        a.store_mem(RSI, 0, RAX, width);
        a.alu_rr32(ALU_XOR, RDX, RDX);
        a.ret();
        a.bind(Lslow);
        a.mov_ri(RDX, 1);
        a.ret();
    }

    // Trampolines: the caller has rsi = op; each shape fills the other
    // arguments from the pinned registers and tail-jumps.
    void tramp_void2(void (*fn)(Machine*, const SbOp*))
    {
        const void* key = reinterpret_cast<const void*>(fn);
        rt.tramp[key] = a.size();
        a.mov_rr(RDI, R15);
        a.abs(RAX, key);
        a.jmp_r(RAX);
    }
    void tramp_status3(u64 (*fn)(Machine*, const SbOp*, JitContext*))
    {
        const void* key = reinterpret_cast<const void*>(fn);
        rt.tramp[key] = a.size();
        a.mov_rr(RDI, R15);
        a.mov_rr(RDX, R13);
        a.abs(RAX, key);
        a.jmp_r(RAX);
    }
    void tramp_status4(u64 (*fn)(Machine*, const SbOp*, JitContext*, u64))
    {
        const void* key = reinterpret_cast<const void*>(fn);
        rt.tramp[key] = a.size();
        a.mov_rr(RDI, R15);
        a.mov_rr(RDX, R13);
        a.mov_rr(RCX, RBX); // the address the fast path computed
        a.abs(RAX, key);
        a.jmp_r(RAX);
    }

    void run()
    {
        for (unsigned w : {1u, 2u, 4u, 8u}) {
            emit_load(w, false);
            emit_load(w, true);
            emit_store(w);
        }
        tramp_void2(&JitOps::pro_icache);
        for (const auto fn : JitOps::kAlu)
            if (fn) tramp_void2(fn);
        tramp_status3(&JitOps::unit<&JitOps::checked_load>);
        tramp_status3(&JitOps::unit<&JitOps::checked_store>);
        tramp_status3(&JitOps::unit<&JitOps::sbd>);
        tramp_status3(&JitOps::unit<&JitOps::lbd>);
        tramp_status3(&JitOps::unit<&JitOps::tchk>);
        tramp_status3(&JitOps::unit<&JitOps::bndr>);
        tramp_status3(&JitOps::unit<&JitOps::hwst>);
        tramp_status3(&JitOps::interp_one);
        tramp_status4(&JitOps::load_slow<1, true>);
        tramp_status4(&JitOps::load_slow<2, true>);
        tramp_status4(&JitOps::load_slow<4, true>);
        tramp_status4(&JitOps::load_slow<8, true>);
        tramp_status4(&JitOps::load_slow<1, false>);
        tramp_status4(&JitOps::load_slow<2, false>);
        tramp_status4(&JitOps::load_slow<4, false>);
        tramp_status4(&JitOps::store_slow<1>);
        tramp_status4(&JitOps::store_slow<2>);
        tramp_status4(&JitOps::store_slow<4>);
        tramp_status4(&JitOps::store_slow<8>);
    }
};

/// Per-block emission context: walks the SbOps and emits their
/// templates into a local buffer; the JitTier commits it to the region.
struct BlockEmitter {
    Asm a;
    JitTier& J;
    const Superblock& sb;
    const JitOps::Views v;   ///< baked hot-field addresses
    const u64 block_base;    ///< region offset the code will land at
    const u64 epilogue_off;  ///< region offset of the shared epilogue

    std::vector<ChainSite> sites; ///< offsets relative to block start

    struct Stub {
        int lab;
        u32 reason;
        u64 payload;
    };
    std::vector<Stub> stubs;
    /// Cold tails (helper fallbacks of inline fast paths), deferred to
    /// the end of the block so the fall-through hot path stays dense.
    std::vector<std::function<void()>> colds;
    int lab_exit;  ///< helper said exit: reason already in the context
    int lab_leave; ///< poll/limit bail: reason = kExitLeave

    /// Bit r set: SRF entry r is known-zero at the current emission
    /// point (cleared earlier in this block, on every path reaching
    /// here, with no setter since). Lets the templates elide repeated
    /// clears — in the `none` scheme every entry stays zero forever, so
    /// after each register's first clear the whole SRF dance
    /// disappears. Purely an emission-time fact: state at block entry
    /// is unknown, so the first clear per register always lands.
    u32 srf_zero = 0;

    BlockEmitter(JitTier& jt, const Superblock& b, const JitOps::Views& vv,
                 u64 base, u64 epi)
        : J{jt}, sb{b}, v{vv}, block_base{base}, epilogue_off{epi}
    {
        a.out.reserve(2048);
        lab_exit = a.label();
        lab_leave = a.label();
    }

    // ---- small pieces -----------------------------------------------
    /// Displacement of a Machine-resident field off the pinned r15.
    i32 moff(const void* p) const
    {
        return static_cast<i32>(reinterpret_cast<const char*>(p) - v.mbase);
    }
    void load_rs(Gpr d, unsigned r) { a.mov_rm(d, R12, static_cast<i32>(8 * r)); }
    void store_rd(unsigned rd, Gpr s) { a.mov_mr(R12, static_cast<i32>(8 * rd), s); }
    /// Raw 24-byte entry clear / copy, no known-zero bookkeeping (for
    /// use inside multi-path sequences like emit_add_sub where the
    /// sequential mask update would be unsound).
    void srf_clear_raw(unsigned r)
    {
        const i32 e = static_cast<i32>(24 * r);
        a.mov_mi32(RBP, e, 0);
        a.mov_mi32(RBP, e + 8, 0);
        a.mov_mi32(RBP, e + 16, 0);
    }
    void srf_prop_raw(unsigned rd, unsigned rs)
    {
        const i32 d = static_cast<i32>(24 * rd), s = static_cast<i32>(24 * rs);
        a.mov_rm(RCX, RBP, s);
        a.mov_mr(RBP, d, RCX);
        a.mov_rm(RCX, RBP, s + 8);
        a.mov_mr(RBP, d + 8, RCX);
        a.mov_rm(RCX, RBP, s + 16);
        a.mov_mr(RBP, d + 16, RCX);
    }
    void srf_clear(unsigned r)
    {
        if (srf_zero & (1u << r)) return; // already zero: clearing again
                                          // is unobservable
        srf_clear_raw(r);
        srf_zero |= 1u << r;
    }
    void srf_prop(unsigned rd, unsigned rs)
    {
        if (rd == 0) return;  // propagate() no-ops on x0
        if (rd == rs) return; // copying an entry onto itself
        if (srf_zero & (1u << rs)) {
            srf_clear(rd); // propagating a zero entry == clearing
            return;
        }
        srf_prop_raw(rd, rs);
        srf_zero &= ~(1u << rd);
    }
    /// Result in rax -> regs_[rd] + SRF clear (the WR_CLEAR macro).
    void wr_clear(unsigned rd)
    {
        store_rd(rd, RAX);
        srf_clear(rd);
    }
    void set_pc(u64 pc)
    {
        // Guest pcs are tiny (program text near 0): one mov m,imm32.
        if (pc <= 0x7FFFFFFF) a.mov_mi32(R15, moff(v.pc), static_cast<i32>(pc));
        else {
            a.mov_ri(RAX, pc);
            a.mov_mr(R15, moff(v.pc), RAX);
        }
    }
    void jmp_epilogue()
    {
        const i64 rel = static_cast<i64>(epilogue_off) -
                        static_cast<i64>(block_base + a.size() + 5);
        a.jmp_rel32(static_cast<i32>(rel));
    }
    int stub(u32 reason, u64 payload)
    {
        const int lab = a.label();
        stubs.push_back({lab, reason, payload});
        return lab;
    }
    /// Defer a cold tail to the end of the block.
    void cold(std::function<void()> f) { colds.push_back(std::move(f)); }
    /// Call into the shared runtime at region offset `off` (subroutine
    /// or trampoline).
    void call_rt(u64 off)
    {
        const i64 rel = static_cast<i64>(off) -
                        static_cast<i64>(block_base + a.size() + 5);
        a.call_rel32(static_cast<i32>(rel));
    }
    /// Void helper call: fn(Machine*, const SbOp*), via its trampoline.
    void call_void(void (*fn)(Machine*, const SbOp*), const SbOp* op)
    {
        a.abs(RSI, op);
        call_rt(J.rt().tramp.at(reinterpret_cast<const void*>(fn)));
    }
    /// Status helper call: fn(Machine*, const SbOp*, JitContext*);
    /// nonzero return exits through the epilogue.
    void call_status(u64 (*fn)(Machine*, const SbOp*, JitContext*),
                     const SbOp* op)
    {
        a.abs(RSI, op);
        call_rt(J.rt().tramp.at(reinterpret_cast<const void*>(fn)));
        a.test_rr32(RAX, RAX);
        a.jcc(CC_NE, lab_exit);
    }
    /// Status helper with the op address in rcx (slow memory paths —
    /// the trampoline forwards rbx).
    void call_status_addr(u64 (*fn)(Machine*, const SbOp*, JitContext*,
                                    u64),
                          const SbOp* op)
    {
        a.abs(RSI, op);
        call_rt(J.rt().tramp.at(reinterpret_cast<const void*>(fn)));
        a.test_rr32(RAX, RAX);
        a.jcc(CC_NE, lab_exit);
    }

    // ---- PRO(): fetch timing + op-0 load-use hazard ------------------
    void pro(const SbOp& op)
    {
        if (op.flags & kOpFetchFull) {
            if (&op != sb.ops.data()) {
                // A mid-block full fetch starts a fresh line, and the
                // FetchRepeat ops in between never move last_line — so
                // the recent-line probe can never hit here. Call the
                // miss path directly (≡ the probe's only reachable arm).
                call_void(&JitOps::pro_icache, &op);
            } else {
                // Inline mirror of the Cache recent-line fast path
                // (jit_view() contract): a hit on the most recent line
                // is stats-only — the returned latency equals the hit
                // cost the dispatcher subtracts back out.
                const int Lslow = a.label(), Ldone = a.label();
                a.mov_rm(RDX, R15, moff(v.icv.last_line));
                a.test_rr(RDX, RDX);
                a.jcc(CC_E, Lslow);
                a.mov_ri(RAX, op.pc >> v.icv.line_shift);
                a.alu_mr(ALU_CMP, R15, moff(v.icv.last_line_addr), RAX);
                a.jcc(CC_NE, Lslow);
                a.alu_mi(ALU_ADD, R15, moff(v.icv.accesses), 1);
                a.mov_rm(RAX, R15, moff(v.icv.tick));
                a.alu_ri(ALU_ADD, RAX, 1);
                a.mov_mr(R15, moff(v.icv.tick), RAX);
                a.mov_mr(RDX, static_cast<i32>(v.icv.line_lru_offset), RAX);
                a.mov_mi8(R15, moff(v.icv.last_miss), 0);
                a.bind(Ldone);
                cold([this, &op, Lslow, Ldone] {
                    a.bind(Lslow);
                    call_void(&JitOps::pro_icache, &op);
                    a.jmp(Ldone);
                });
            }
        }
        if (op.flags & kOpHazDyn) {
            const int Lskip = a.label(), Lstall = a.label();
            a.load_mem(RAX, R15, moff(v.llr), 1, false);
            a.test_rr32(RAX, RAX);
            a.jcc(CC_E, Lskip);
            if (op.flags & kOpReadsRs1) {
                a.alu_ri32(ALU_CMP, RAX, op.rs1);
                a.jcc(CC_E, Lstall);
            }
            if (op.flags & kOpReadsRs2) {
                a.alu_ri32(ALU_CMP, RAX, op.rs2);
                a.jcc(CC_E, Lstall);
            }
            a.jmp(Lskip);
            a.bind(Lstall);
            a.alu_mi(ALU_ADD, R14, 0, static_cast<i32>(v.lu_stall));
            a.bind(Lskip);
        }
    }

    // ---- APPLY_BATCH() ----------------------------------------------
    void apply_batch()
    {
        a.alu_mi(ALU_ADD, R15, moff(v.instret), static_cast<i32>(sb.len));
        if (sb.static_cycles)
            a.alu_mi(ALU_ADD, R14, 0, static_cast<i32>(sb.static_cycles));
        if (sb.repeat_fetches) // count_repeat_hits(n)
            a.alu_mi(ALU_ADD, R15, moff(v.icv.accesses),
                     static_cast<i32>(sb.repeat_fetches));
        for (const auto& d : sb.mix_delta)
            a.alu_mi(ALU_ADD, R15, moff(&(v.mix->*d.first)),
                     static_cast<i32>(d.second));
        a.mov_mi8(R15, moff(v.llr), static_cast<u8>(sb.exit_load_rd));
        // countdown = countdown > len ? countdown - len : 0. RDX is
        // zeroed first: xor clears CF, which the cmov tests.
        a.alu_rr32(ALU_XOR, RDX, RDX);
        a.mov_rm(RAX, R13, kCtxCountdown);
        a.alu_ri(ALU_SUB, RAX, static_cast<i32>(sb.len));
        a.cmov(CC_B, RAX, RDX);
        a.mov_mr(R13, kCtxCountdown, RAX);
    }

    // ---- CHAIN: block-to-block transfer through a patchable site ----
    void chain_site()
    {
        const u64 gsite = J.chain_site_count() + sites.size();
        // Poll bail (the driver polls and resumes at m.pc_).
        a.alu_mi(ALU_CMP, R13, kCtxCountdown, 0);
        a.jcc(CC_E, lab_leave);
        // Limit guard: leave when instret > limit - target_len. Starts at
        // ~0 (never taken) so the unresolved site reaches its resolve
        // stub; the patch writes the real threshold.
        ChainSite s;
        s.thresh_off = a.mov_ri64(RAX, ~u64{0});
        a.alu_mr(ALU_CMP, R15, moff(v.instret), RAX);
        a.jcc(CC_A, lab_leave);
        a.alu_mi(ALU_ADD, R15, moff(v.chained), 1);
        a.jmp(stub(kExitResolve, gsite));
        s.jmp_off = a.size() - 4;
        sites.push_back(s);
    }

    // ---- the load/store templates -----------------------------------
    /// rbx = regs[rs1] + imm (RISC-V 12-bit immediates fit imm32).
    void addr_into_rbx(const SbOp& op)
    {
        load_rs(RBX, op.rs1);
        if (op.imm) a.alu_ri(ALU_ADD, RBX, static_cast<i32>(op.imm));
    }

    /// Cold-path dispatch to the right load_slow instantiation.
    void call_slow_load(const SbOp& op, unsigned width, bool sx)
    {
        switch ((width << 1) | (sx ? 1 : 0)) {
        case (1 << 1) | 1: call_status_addr(&JitOps::load_slow<1, true>, &op); break;
        case (2 << 1) | 1: call_status_addr(&JitOps::load_slow<2, true>, &op); break;
        case (4 << 1) | 1: call_status_addr(&JitOps::load_slow<4, true>, &op); break;
        case (8 << 1) | 1: call_status_addr(&JitOps::load_slow<8, true>, &op); break;
        case (1 << 1) | 0: call_status_addr(&JitOps::load_slow<1, false>, &op); break;
        case (2 << 1) | 0: call_status_addr(&JitOps::load_slow<2, false>, &op); break;
        default: call_status_addr(&JitOps::load_slow<4, false>, &op); break;
        }
    }
    void call_slow_store(const SbOp& op, unsigned width)
    {
        switch (width) {
        case 1: call_status_addr(&JitOps::store_slow<1>, &op); break;
        case 2: call_status_addr(&JitOps::store_slow<2>, &op); break;
        case 4: call_status_addr(&JitOps::store_slow<4>, &op); break;
        default: call_status_addr(&JitOps::store_slow<8>, &op); break;
        }
    }

    /// The plain-load body after the address is in rbx: rt_load call,
    /// rd writeback, with the slow tail deferred. Shared by plain and
    /// gated checked loads.
    void load_body(const SbOp& op, unsigned width, bool sx)
    {
        call_rt(J.rt().load[log2w(width)][sx ? 1 : 0]);
        const int Lslow = a.label(), Ldone = a.label();
        a.test_rr32(RDX, RDX);
        a.jcc(CC_NE, Lslow);
        if (op.rd) {
            store_rd(op.rd, RAX);
            srf_clear(op.rd);
        }
        a.bind(Ldone);
        cold([this, &op, width, sx, Lslow, Ldone] {
            a.bind(Lslow);
            call_slow_load(op, width, sx);
            a.jmp(Ldone);
        });
    }
    void store_body(const SbOp& op, unsigned width)
    {
        load_rs(RDI, op.rs2);
        call_rt(J.rt().store[log2w(width)]);
        const int Lslow = a.label(), Ldone = a.label();
        a.test_rr32(RDX, RDX);
        a.jcc(CC_NE, Lslow);
        a.bind(Ldone);
        cold([this, &op, width, Lslow, Ldone] {
            a.bind(Lslow);
            call_slow_store(op, width);
            a.jmp(Ldone);
        });
    }

    void emit_plain_load(const SbOp& op, unsigned width, bool sx)
    {
        pro(op);
        addr_into_rbx(op);
        load_body(op, width, sx);
    }

    void emit_plain_store(const SbOp& op, unsigned width)
    {
        pro(op);
        addr_into_rbx(op);
        store_body(op, width);
    }

    // ---- checked ops: inline no-metadata gates ----------------------
    /// The spatial gate shared by CheckedLoad/CheckedStore: when the
    /// spatial check is disabled or rs1 carries no base metadata, the
    /// checked op IS the plain op (SPATIAL_CHECK's early-outs have no
    /// side effects), so the template runs the plain body and only the
    /// metadata-bearing case pays the full helper. Jumps to `Lmeta`
    /// when the helper must run.
    void spatial_gate(const SbOp& op, int Lmeta)
    {
        const int Lplain = a.label();
        a.test_mi8(R15, moff(v.csr_status),
                   static_cast<u8>(hwst::kStatusSpatialEnable));
        a.jcc(CC_E, Lplain);
        a.alu_mi8(ALU_CMP, RBP, static_cast<i32>(24 * op.rs1 + 16), 0);
        a.jcc(CC_E, Lplain); // !valid_lo
        a.alu_mi(ALU_CMP, RBP, static_cast<i32>(24 * op.rs1), 0);
        a.jcc(CC_NE, Lmeta); // value.lo != 0: real metadata
        a.bind(Lplain);
    }

    void emit_checked_load(const SbOp& op)
    {
        pro(op);
        set_pc(op.pc); // the helper sets pc_ first thing; so do we
        const unsigned width = op.width;
        const bool sx = (op.flags & kOpSignedLoad) != 0;
        const int Lmeta = a.label(), Ldone = a.label();
        spatial_gate(op, Lmeta);
        addr_into_rbx(op);
        load_body(op, width, sx);
        a.bind(Ldone);
        cold([this, &op, Lmeta, Ldone] {
            a.bind(Lmeta);
            call_status(&JitOps::unit<&JitOps::checked_load>, &op);
            a.jmp(Ldone);
        });
    }

    void emit_checked_store(const SbOp& op)
    {
        pro(op);
        set_pc(op.pc);
        const unsigned width = op.width;
        const int Lmeta = a.label(), Ldone = a.label();
        spatial_gate(op, Lmeta);
        addr_into_rbx(op);
        store_body(op, width);
        a.bind(Ldone);
        cold([this, &op, Lmeta, Ldone] {
            a.bind(Lmeta);
            call_status(&JitOps::unit<&JitOps::checked_store>, &op);
            a.jmp(Ldone);
        });
    }

    void emit_tchk(const SbOp& op)
    {
        pro(op);
        set_pc(op.pc);
        // Temporal gate: disabled, or rs1 carries no key metadata —
        // tchk's early-outs, which have no side effects.
        const int Lmeta = a.label(), Ldone = a.label();
        a.test_mi8(R15, moff(v.csr_status),
                   static_cast<u8>(hwst::kStatusTemporalEnable));
        a.jcc(CC_E, Ldone);
        a.alu_mi8(ALU_CMP, RBP, static_cast<i32>(24 * op.rs1 + 17), 0);
        a.jcc(CC_E, Ldone); // !valid_hi
        a.alu_mi(ALU_CMP, RBP, static_cast<i32>(24 * op.rs1 + 8), 0);
        a.jcc(CC_NE, Lmeta); // value.hi != 0: real metadata
        a.bind(Ldone);
        cold([this, &op, Lmeta, Ldone] {
            a.bind(Lmeta);
            call_status(&JitOps::unit<&JitOps::tchk>, &op);
            a.jmp(Ldone);
        });
    }

    // ---- Add/Sub with the srf_effects propagation rule --------------
    void emit_add_sub(const SbOp& op, bool is_add)
    {
        pro(op);
        load_rs(RAX, op.rs1);
        a.alu_rm(is_add ? ALU_ADD : ALU_SUB, RAX, R12,
                 static_cast<i32>(8 * op.rs2));
        if (op.rd) store_rd(op.rd, RAX);
        if ((srf_zero & (1u << op.rs1)) && (srf_zero & (1u << op.rs2))) {
            // Both source entries are zero: the dance below always
            // lands on the neither-has-metadata clear.
            srf_clear(op.rd);
            return;
        }
        // a = rs1 entry has any metadata, b = rs2 entry has any. Raw
        // prims inside: the paths are alternatives, so the sequential
        // known-zero update would be unsound — the meet is "unknown".
        a.load_mem(RCX, RBP, static_cast<i32>(24 * op.rs1 + 16), 2, false);
        a.load_mem(RDX, RBP, static_cast<i32>(24 * op.rs2 + 16), 2, false);
        const int La1 = a.label(), Lp1 = a.label(), Lp2 = a.label(),
                  Lclr = a.label(), Lend = a.label();
        a.test_rr32(RCX, RCX);
        a.jcc(CC_NE, La1);
        a.test_rr32(RDX, RDX);
        a.jcc(CC_E, Lclr);
        a.jmp(is_add ? Lp2 : Lclr); // Sub: b-only also clears
        a.bind(La1);
        a.test_rr32(RDX, RDX);
        a.jcc(CC_E, Lp1);
        a.bind(Lclr); // both (or neither): unguarded clear, entry 0 incl.
        srf_clear_raw(op.rd);
        a.jmp(Lend);
        a.bind(Lp1);
        if (op.rd != 0 && op.rd != op.rs1) srf_prop_raw(op.rd, op.rs1);
        a.jmp(Lend);
        if (is_add) {
            a.bind(Lp2);
            if (op.rd != 0 && op.rd != op.rs2) srf_prop_raw(op.rd, op.rs2);
        }
        a.bind(Lend);
        srf_zero &= ~(1u << op.rd);
    }

    // ---- enders ------------------------------------------------------
    void emit_branch(const SbOp& op, Cond cc)
    {
        pro(op);
        apply_batch();
        load_rs(RAX, op.rs1);
        load_rs(RCX, op.rs2);
        a.alu_rr(ALU_CMP, RAX, RCX);
        const int Ltaken = a.label();
        a.jcc(cc, Ltaken);
        set_pc(op.pc + 4);
        chain_site(); // edge_fall
        a.bind(Ltaken);
        a.alu_mi(ALU_ADD, R14, 0, static_cast<i32>(v.taken_pen));
        set_pc(static_cast<u64>(op.imm));
        chain_site(); // edge_taken
    }

    void emit_jal(const SbOp& op)
    {
        pro(op);
        apply_batch();
        if (op.rd) {
            a.mov_ri(RAX, op.aux);
            store_rd(op.rd, RAX);
            srf_clear(op.rd);
        }
        set_pc(static_cast<u64>(op.imm));
        chain_site();
    }

    void emit_jalr(const SbOp& op)
    {
        pro(op);
        apply_batch();
        // rs1 is read before the link write (rd may alias rs1).
        load_rs(RBX, op.rs1);
        if (op.imm) a.alu_ri(ALU_ADD, RBX, static_cast<i32>(op.imm));
        a.alu_ri(ALU_AND, RBX, -2);
        if (op.rd) {
            a.mov_ri(RAX, op.aux);
            store_rd(op.rd, RAX);
            srf_clear(op.rd);
        }
        a.mov_mr(R15, moff(v.pc), RBX);
        // 2-way inline cache, shared structure with the dispatcher.
        const u64 sidx = J.alloc_jalr_site();
        JalrSite* site = &J.jalr_site(sidx);
        const int Lw0 = a.label(), Lw1 = a.label(), Lgo = a.label();
        a.abs(RSI, site);
        a.alu_mr(ALU_CMP, RSI, 0, RBX);
        a.jcc(CC_E, Lw0);
        a.alu_mr(ALU_CMP, RSI, 8, RBX);
        a.jcc(CC_E, Lw1);
        a.jmp(stub(kExitJalrResolve, sidx << 2)); // miss
        a.bind(Lw0);
        a.alu_mi(ALU_ADD, R15, moff(v.jalr_hits), 1);
        a.mov_rm(RAX, RSI, 16); // way[0]
        a.mov_rm(RDX, RSI, 32); // aux[0] = limit threshold
        a.test_rr(RAX, RAX);
        a.jcc(CC_E, stub(kExitJalrResolve, (sidx << 2) | 2 | 0));
        a.jmp(Lgo);
        a.bind(Lw1);
        a.alu_mi(ALU_ADD, R15, moff(v.jalr_hits), 1);
        a.mov_rm(RAX, RSI, 24); // way[1]
        a.mov_rm(RDX, RSI, 40); // aux[1]
        a.test_rr(RAX, RAX);
        a.jcc(CC_E, stub(kExitJalrResolve, (sidx << 2) | 2 | 1));
        a.bind(Lgo);
        a.alu_mi(ALU_CMP, R13, kCtxCountdown, 0);
        a.jcc(CC_E, lab_leave);
        a.alu_rm(ALU_CMP, RDX, R15, moff(v.instret));
        a.jcc(CC_B, lab_leave);
        a.alu_mi(ALU_ADD, R15, moff(v.chained), 1);
        a.jmp_r(RAX);
    }

    // ---- per-op dispatch --------------------------------------------
    void emit_op(const SbOp& op)
    {
        const auto alu_imm = [&](AluOp k) {
            pro(op);
            load_rs(RAX, op.rs1);
            a.alu_ri(k, RAX, static_cast<i32>(op.imm));
            wr_clear(op.rd);
        };
        const auto alu_reg = [&](AluOp k) {
            pro(op);
            load_rs(RAX, op.rs1);
            a.alu_rm(k, RAX, R12, static_cast<i32>(8 * op.rs2));
            wr_clear(op.rd);
        };
        const auto shift_imm = [&](ShiftOp k, unsigned mask, bool w32,
                                   bool sext) {
            pro(op);
            load_rs(RAX, op.rs1);
            const u8 sh = static_cast<u8>(op.imm & mask);
            if (w32) a.shift_ri32(k, RAX, sh);
            else a.shift_ri(k, RAX, sh);
            if (sext) a.cdqe();
            wr_clear(op.rd);
        };
        const auto shift_reg = [&](ShiftOp k, unsigned mask, bool w32,
                                   bool sext) {
            pro(op);
            load_rs(RAX, op.rs1);
            load_rs(RCX, op.rs2);
            a.alu_ri32(ALU_AND, RCX, static_cast<i32>(mask));
            if (w32) a.shift_cl32(k, RAX);
            else a.shift_cl(k, RAX);
            if (sext) a.cdqe();
            wr_clear(op.rd);
        };
        const auto set_cmp_imm = [&](Cond cc) {
            pro(op);
            load_rs(RAX, op.rs1);
            a.alu_ri(ALU_CMP, RAX, static_cast<i32>(op.imm));
            a.setcc(cc, RAX);
            a.movzx8_32(RAX, RAX);
            wr_clear(op.rd);
        };
        const auto set_cmp_reg = [&](Cond cc) {
            pro(op);
            load_rs(RAX, op.rs1);
            a.alu_rm(ALU_CMP, RAX, R12, static_cast<i32>(8 * op.rs2));
            a.setcc(cc, RAX);
            a.movzx8_32(RAX, RAX);
            wr_clear(op.rd);
        };
        const auto helper_status =
            [&](u64 (*fn)(Machine*, const SbOp*, JitContext*)) {
                pro(op);
                call_status(fn, &op);
            };

        switch (op.kind) {
        case SbKind::Nop: pro(op); break;
        case SbKind::Const:
            pro(op);
            a.mov_ri(RAX, op.aux);
            wr_clear(op.rd);
            break;
        case SbKind::ADDI:
            pro(op);
            load_rs(RAX, op.rs1);
            if (op.imm) a.alu_ri(ALU_ADD, RAX, static_cast<i32>(op.imm));
            store_rd(op.rd, RAX);
            srf_prop(op.rd, op.rs1); // pointer-arithmetic rule
            break;
        case SbKind::SLTI: set_cmp_imm(CC_L); break;
        case SbKind::SLTIU: set_cmp_imm(CC_B); break;
        case SbKind::XORI: alu_imm(ALU_XOR); break;
        case SbKind::ORI: alu_imm(ALU_OR); break;
        case SbKind::ANDI: alu_imm(ALU_AND); break;
        case SbKind::SLLI: shift_imm(SH_SHL, 63, false, false); break;
        case SbKind::SRLI: shift_imm(SH_SHR, 63, false, false); break;
        case SbKind::SRAI: shift_imm(SH_SAR, 63, false, false); break;
        case SbKind::ADDIW:
            pro(op);
            load_rs(RAX, op.rs1);
            if (op.imm) a.alu_ri(ALU_ADD, RAX, static_cast<i32>(op.imm));
            a.cdqe();
            wr_clear(op.rd);
            break;
        case SbKind::SLLIW: shift_imm(SH_SHL, 31, false, true); break;
        case SbKind::SRLIW: shift_imm(SH_SHR, 31, true, true); break;
        case SbKind::SRAIW: shift_imm(SH_SAR, 31, true, true); break;
        case SbKind::ADD: emit_add_sub(op, true); break;
        case SbKind::SUB: emit_add_sub(op, false); break;
        case SbKind::SLL: shift_reg(SH_SHL, 63, false, false); break;
        case SbKind::SLT: set_cmp_reg(CC_L); break;
        case SbKind::SLTU: set_cmp_reg(CC_B); break;
        case SbKind::XOR: alu_reg(ALU_XOR); break;
        case SbKind::SRL: shift_reg(SH_SHR, 63, false, false); break;
        case SbKind::SRA: shift_reg(SH_SAR, 63, false, false); break;
        case SbKind::OR: alu_reg(ALU_OR); break;
        case SbKind::AND: alu_reg(ALU_AND); break;
        case SbKind::ADDW:
            pro(op);
            load_rs(RAX, op.rs1);
            a.alu_rm(ALU_ADD, RAX, R12, static_cast<i32>(8 * op.rs2));
            a.cdqe();
            wr_clear(op.rd);
            break;
        case SbKind::SUBW:
            pro(op);
            load_rs(RAX, op.rs1);
            a.alu_rm(ALU_SUB, RAX, R12, static_cast<i32>(8 * op.rs2));
            a.cdqe();
            wr_clear(op.rd);
            break;
        case SbKind::SLLW: shift_reg(SH_SHL, 31, false, true); break;
        case SbKind::SRLW: shift_reg(SH_SHR, 31, true, true); break;
        case SbKind::SRAW: shift_reg(SH_SAR, 31, true, true); break;
        case SbKind::MUL:
            pro(op);
            load_rs(RAX, op.rs1);
            load_rs(RCX, op.rs2);
            a.imul_rr(RAX, RCX);
            wr_clear(op.rd);
            break;
        case SbKind::MULW:
            pro(op);
            load_rs(RAX, op.rs1);
            load_rs(RCX, op.rs2);
            a.imul_rr(RAX, RCX);
            a.cdqe();
            wr_clear(op.rd);
            break;
        case SbKind::Lb: emit_plain_load(op, 1, true); break;
        case SbKind::Lh: emit_plain_load(op, 2, true); break;
        case SbKind::Lw: emit_plain_load(op, 4, true); break;
        case SbKind::Ld: emit_plain_load(op, 8, true); break;
        case SbKind::Lbu: emit_plain_load(op, 1, false); break;
        case SbKind::Lhu: emit_plain_load(op, 2, false); break;
        case SbKind::Lwu: emit_plain_load(op, 4, false); break;
        case SbKind::Sb: emit_plain_store(op, 1); break;
        case SbKind::Sh: emit_plain_store(op, 2); break;
        case SbKind::Sw: emit_plain_store(op, 4); break;
        case SbKind::Sd: emit_plain_store(op, 8); break;
        case SbKind::CheckedLoad: emit_checked_load(op); break;
        case SbKind::CheckedStore: emit_checked_store(op); break;
        case SbKind::SbdStore:
            helper_status(&JitOps::unit<&JitOps::sbd>);
            break;
        case SbKind::LbdLoad:
            helper_status(&JitOps::unit<&JitOps::lbd>);
            srf_zero &= ~(1u << op.rd); // sets rd's lo or hi half
            break;
        case SbKind::Tchk: emit_tchk(op); break;
        case SbKind::Bndr:
            helper_status(&JitOps::unit<&JitOps::bndr>);
            srf_zero &= ~(1u << op.rd); // binds metadata into rd
            break;
        case SbKind::Hwst:
            helper_status(&JitOps::unit<&JitOps::hwst>);
            srf_zero = 0; // srf_effects may touch any entry
            break;
        case SbKind::BEQ: emit_branch(op, CC_E); break;
        case SbKind::BNE: emit_branch(op, CC_NE); break;
        case SbKind::BLT: emit_branch(op, CC_L); break;
        case SbKind::BGE: emit_branch(op, CC_GE); break;
        case SbKind::BLTU: emit_branch(op, CC_B); break;
        case SbKind::BGEU: emit_branch(op, CC_AE); break;
        case SbKind::Jal: emit_jal(op); break;
        case SbKind::Jalr: emit_jalr(op); break;
        case SbKind::InterpOne:
            pro(op);
            apply_batch();
            call_status(&JitOps::interp_one, &op); // always exits
            jmp_epilogue();
            break;
        case SbKind::EndFall:
            apply_batch(); // no fetch, no retirement of its own
            set_pc(op.pc);
            chain_site();
            break;
        default:
            // The ALU kinds with no native template (MULH*, DIV*, REM*)
            // call their JitOps::alu<Op>, which ends in a metadata
            // clear: rd's entry is zero afterwards.
            pro(op);
            call_void(JitOps::kAlu[static_cast<unsigned>(op.kind)], &op);
            srf_zero |= 1u << op.rd;
            break;
        }
    }

    void run()
    {
        // Every native entry — from the driver, a chain edge or a jalr
        // way — counts like the dispatcher's enter_block.
        a.alu_mi(ALU_ADD, R15, moff(v.block_execs), 1);
        for (const SbOp& op : sb.ops) emit_op(op);
        // Deferred exit stubs.
        a.bind(lab_leave);
        a.mov_mi32_32(R13, kCtxReason, kExitLeave);
        jmp_epilogue();
        a.bind(lab_exit); // reason/payload already written by a helper
        jmp_epilogue();
        for (const Stub& s : stubs) {
            a.bind(s.lab);
            a.mov_mi32_32(R13, kCtxReason, static_cast<i32>(s.reason));
            a.mov_ri(RAX, s.payload); // site indexes: shortest form
            a.mov_mr(R13, kCtxPayload, RAX);
            jmp_epilogue();
        }
        // Cold tails last: the hot path falls straight through them all.
        for (const auto& c : colds) c();
        a.finish();
    }
};

} // namespace

// ---------------------------------------------------------------------
// JitTier: code-cache management
// ---------------------------------------------------------------------

JitTier::JitTier(Machine& m) : m_{m}
{
    region_bytes_ = m.cfg_.jit_code_bytes < 4096 ? 4096
                                                 : m.cfg_.jit_code_bytes;
    // Preferred: dual-map a memfd — an RX view (region_) executed from
    // and a separate RW alias (rw_) written through. W^X holds (no VA
    // is both W and X) and steady-state compiles/patches need zero
    // syscalls; the mprotect pairs of the fallback cost ~0.5ms per
    // short run, which is the whole margin on small workloads.
#ifdef MFD_CLOEXEC
    const int fd = ::memfd_create("hwst-jit", MFD_CLOEXEC);
    if (fd >= 0) {
        if (::ftruncate(fd, static_cast<off_t>(region_bytes_)) == 0) {
            void* rx = ::mmap(nullptr, region_bytes_,
                              PROT_READ | PROT_EXEC, MAP_SHARED, fd, 0);
            void* rw = ::mmap(nullptr, region_bytes_,
                              PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
            if (rx != MAP_FAILED && rw != MAP_FAILED) {
                region_ = static_cast<u8*>(rx);
                rw_ = static_cast<u8*>(rw);
            } else {
                if (rx != MAP_FAILED) ::munmap(rx, region_bytes_);
                if (rw != MAP_FAILED) ::munmap(rw, region_bytes_);
            }
        }
        ::close(fd); // mappings keep the pages alive
    }
#endif
    if (!region_) {
        // Fallback: single anonymous mapping, transient mprotect
        // windows around writes (make_writable/seal).
        void* p = ::mmap(nullptr, region_bytes_, PROT_READ | PROT_WRITE,
                         MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
        if (p == MAP_FAILED) {
            region_ = nullptr;
            return;
        }
        region_ = static_cast<u8*>(p);
    }
    emit_thunk();
}

JitTier::~JitTier()
{
    if (region_) ::munmap(region_, region_bytes_);
    if (rw_) ::munmap(rw_, region_bytes_);
}

void JitTier::make_writable(u64 off, u64 len)
{
    if (rw_) return; // dual-mapped: writes go through the alias
    const u64 ps = 4096;
    const u64 lo = off & ~(ps - 1);
    const u64 hi = (off + len + ps - 1) & ~(ps - 1);
    ::mprotect(region_ + lo, hi - lo, PROT_READ | PROT_WRITE);
}

void JitTier::seal(u64 off, u64 len)
{
    if (rw_) return;
    const u64 ps = 4096;
    const u64 lo = off & ~(ps - 1);
    const u64 hi = (off + len + ps - 1) & ~(ps - 1);
    ::mprotect(region_ + lo, hi - lo, PROT_READ | PROT_EXEC);
}

void JitTier::emit_thunk()
{
    // void enter(const void* code /*rdi*/, JitContext* ctx /*rsi*/):
    // load the pinned registers and jump into the block. The sub rsp, 8
    // keeps call sites 16-byte aligned for the helper call-outs.
    rt_ = RtOffsets{};
    Asm a;
    a.push(RBX);
    a.push(RBP);
    a.push(R12);
    a.push(R13);
    a.push(R14);
    a.push(R15);
    a.alu_ri(ALU_SUB, RSP, 8);
    a.mov_rr(R13, RSI);
    a.mov_rm(R12, R13, offsetof(JitContext, regs));
    a.mov_rm(RBP, R13, offsetof(JitContext, srf));
    a.mov_rm(R14, R13, offsetof(JitContext, cycles));
    a.mov_rm(R15, R13, offsetof(JitContext, machine));
    a.jmp_r(RDI);
    const u64 epi = a.size();
    a.alu_ri(ALU_ADD, RSP, 8);
    a.pop(R15);
    a.pop(R14);
    a.pop(R13);
    a.pop(R12);
    a.pop(RBP);
    a.pop(RBX);
    a.ret();
    // The shared runtime follows the thunk (same Asm, so its a.size()
    // offsets are region offsets).
    const JitOps::Views v = JitOps::views(m_);
    RtEmitter{a, v, rt_}.run();
    a.finish();
    if (a.out.size() > region_bytes_) {
        // Cannot even hold the runtime (region floor is one page, so
        // this is unreachable in practice): degrade to the dispatcher.
        ::munmap(region_, region_bytes_);
        region_ = nullptr;
        if (rw_) {
            ::munmap(rw_, region_bytes_);
            rw_ = nullptr;
        }
        return;
    }
    make_writable(0, a.out.size());
    std::memcpy(code_rw(0), a.out.data(), a.out.size());
    seal(0, a.out.size());
    cursor_ = a.out.size();
    thunk_bytes_ = cursor_;
    epilogue_off_ = epi;
}

void JitTier::drop_code(JitStats& st)
{
    if (!region_) return;
    records_.clear();
    chain_sites_.clear();
    jalr_sites_.clear();
    ++generation_;
    cursor_ = 0;
    emit_thunk();
    st.code_bytes = cursor_;
}

const u8* JitTier::compile(const Superblock& sb, JitStats& st)
{
    if (!region_) return nullptr;
    const JitOps::Views v = JitOps::views(m_);
    for (int attempt = 0; attempt < 2; ++attempt) {
        BlockEmitter e{*this, sb, v, cursor_, epilogue_off_};
        e.run();
        const u64 need = e.a.size();
        if (cursor_ + need > region_bytes_) {
            if (attempt == 0 && cursor_ > thunk_bytes_) {
                ++st.evictions;
                drop_code(st); // site indexes reset; re-emit from scratch
                continue;
            }
            return nullptr; // cannot fit even in an empty region
        }
        make_writable(cursor_, need);
        std::memcpy(code_rw(cursor_), e.a.out.data(), need);
        seal(cursor_, need);
        const u64 base = cursor_;
        cursor_ += need;
        for (ChainSite s : e.sites) {
            s.thresh_off += base;
            s.jmp_off += base;
            chain_sites_.push_back(s);
        }
        BlockRec& rec = records_[&sb];
        rec.entry = region_ + base;
        ++st.translated;
        st.code_bytes = cursor_;
        return rec.entry;
    }
    return nullptr;
}

void JitTier::patch_chain(u64 site, const u8* target_entry, u64 limit,
                          u32 len, JitStats& st)
{
    ChainSite& s = chain_sites_[site];
    if (s.patched) return;
    make_writable(s.thresh_off, s.jmp_off + 4 - s.thresh_off);
    // Leave when instret > limit - len <=> instret + len > limit. The
    // driver only patches after its own limit check passed, so
    // limit >= len holds.
    const u64 thresh = limit - len;
    std::memcpy(code_rw(s.thresh_off), &thresh, 8);
    const i64 rel = static_cast<i64>(target_entry - region_) -
                    static_cast<i64>(s.jmp_off + 4);
    const i32 rel32 = static_cast<i32>(rel);
    std::memcpy(code_rw(s.jmp_off), &rel32, 4);
    seal(s.thresh_off, s.jmp_off + 4 - s.thresh_off);
    s.patched = true;
    ++st.chain_patches;
}

void JitTier::patch_jalr(u64 site, unsigned way, const u8* target_entry,
                         u64 limit, u32 len, JitStats& st)
{
    JalrCache2<const void*>& jc = jalr_sites_[site];
    jc.aux[way] = limit - len;
    jc.way[way] = target_entry;
    ++st.chain_patches;
}

void JitTier::enter(const u8* entry, JitContext& c)
{
    using EnterFn = void (*)(const void*, JitContext*);
    reinterpret_cast<EnterFn>(
        reinterpret_cast<void*>(region_))(entry, &c);
}

#else // !HWST_JIT_X86_64

// Foreign host / sanitizer build: the tier resolution never selects
// Jit (jit_supported() is false), but the class must still link.
JitTier::JitTier(Machine& m) : m_{m} {}
JitTier::~JitTier() = default;
void JitTier::make_writable(u64, u64) {}
void JitTier::seal(u64, u64) {}
void JitTier::emit_thunk() {}
void JitTier::drop_code(JitStats&) {}
const u8* JitTier::compile(const Superblock&, JitStats&) { return nullptr; }
void JitTier::patch_chain(u64, const u8*, u64, u32, JitStats&) {}
void JitTier::patch_jalr(u64, unsigned, const u8*, u64, u32, JitStats&) {}
void JitTier::enter(const u8*, JitContext&) {}

#endif // HWST_JIT_X86_64

} // namespace hwst::sim::jit
