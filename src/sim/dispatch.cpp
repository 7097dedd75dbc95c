// Threaded superblock dispatcher (dispatch.hpp). Executor bodies are
// GCC computed-goto labels, one per SbKind, pre-bound into each SbOp at
// translation: retiring an instruction is "execute body, ++op, jump",
// with no switch re-entry and no per-instruction counter updates —
// instret/cycles/InstrMix land in one batched update per block, in a
// way that is bit-identical to the step() interpreter:
//
//  * Block enders apply the batch BEFORE executing (so csr reads of
//    cycle/instret and the ecall proxy kernel observe fully-retired
//    counters, exactly like step()'s "count, then execute" order).
//  * A trap at op i applies the per-op prefix instead: i+1
//    instructions retired (the trapping one counts), cum_static
//    cycles, and the mix buckets of ops[0..i].
//  * Dynamic cycle costs (dcache extras, branch-taken penalties,
//    csr/ecall costs, keybuffer-miss loads) are added eagerly by the
//    bodies, exactly where exec() adds them.

#include "sim/dispatch.hpp"

#include "sim/machine.hpp"
#include "sim/superblock.hpp"

namespace hwst::sim {

using hwst::Trap;
using hwst::TrapKind;
using mem::MemFault;
using riscv::Reg;

bool run_superblocks(Machine& m, const std::function<bool()>* cancel,
                     u64 stride, u64 limit, Trap& out)
{
    // Label table, in SbKind order (the X-macro guarantees the match;
    // a missing body is a compile error).
    static const void* const kLabels[kNumSbKinds] = {
#define HWST_SB_LABEL(name, ...) &&L_##name,
        HWST_SB_KIND_LIST(HWST_SB_LABEL)
#undef HWST_SB_LABEL
    };

    SuperblockCache& sc = *m.host_.sbcache;
    DbtStats& st = m.host_.dbt_stats;
    const TranslateEnv env{
        m.uops_.data(),
        static_cast<u32>(m.uops_.size()),
        m.text_base_,
        m.cfg_.icache.line_bytes,
        m.cfg_.icache_enabled,
        m.cfg_.timing,
        kLabels,
    };
    const u64 text_base = m.text_base_;
    const u64 code_bytes = m.code_bytes_;
    const unsigned icache_hit = m.cfg_.icache.hit_cycles;
    const unsigned dcache_hit = m.cfg_.dcache.hit_cycles;
    const unsigned lu_stall = m.cfg_.timing.load_use_stall;
    const unsigned taken_pen = m.cfg_.timing.branch_taken_penalty;

    u64 countdown = stride;

    Superblock* sb = nullptr;
    SbOp* op = nullptr;
    bool batch_applied = false;
    Trap tr{};

    // Trap-at-op-i accounting: the trapping instruction is retired
    // (step() counts before exec), its predecessors fully so.
    const auto apply_prefix = [&] {
        m.instret_ += op->block_pos + 1u;
        m.cycles_ += op->cum_static;
        m.icache_.count_repeat_hits(op->cum_repeat);
        for (u32 j = sb->first_uop; j <= op->uop_idx; ++j)
            ++(m.mix_.*(m.uops_[j].bucket));
    };

// Per-op prologue: fetch timing + the op-0 dynamic load-use hazard.
// Repeat-hit fetches are NOT counted here: they are zero-cycle and
// stat-only, so they batch into APPLY_BATCH / apply_prefix.
#define PRO()                                                             \
    do {                                                                  \
        const u8 fl_ = op->flags;                                         \
        if (fl_ & kOpFetchFull)                                           \
            m.cycles_ += m.icache_.access(op->pc) - icache_hit;           \
        if (fl_ & kOpHazDyn) {                                            \
            const u8 llr_ = static_cast<u8>(m.last_load_rd_);             \
            if (llr_ != 0 &&                                              \
                (((fl_ & kOpReadsRs1) && op->rs1 == llr_) ||              \
                 ((fl_ & kOpReadsRs2) && op->rs2 == llr_)))               \
                m.cycles_ += lu_stall;                                    \
        }                                                                 \
    } while (0)

#define NEXT()                                                            \
    do {                                                                  \
        ++op;                                                             \
        goto*(op->label);                                                 \
    } while (0)

#define RS1 (m.regs_[op->rs1])
#define RS2 (m.regs_[op->rs2])
#define RD_REG (static_cast<Reg>(op->rd))
#define RS1_REG (static_cast<Reg>(op->rs1))
#define RS2_REG (static_cast<Reg>(op->rs2))
#define IMM (static_cast<u64>(op->imm))

// Ender prologue: retire the whole block before the ender executes.
#define APPLY_BATCH()                                                     \
    do {                                                                  \
        m.instret_ += sb->len;                                            \
        m.cycles_ += sb->static_cycles;                                   \
        m.icache_.count_repeat_hits(sb->repeat_fetches);                  \
        for (const auto& d_ : sb->mix_delta)                              \
            m.mix_.*d_.first += d_.second;                                \
        m.last_load_rd_ = sb->exit_load_rd;                               \
        countdown = countdown > sb->len ? countdown - sb->len : 0;        \
        batch_applied = true;                                             \
    } while (0)

// Transfer to the block at m.pc_ through a cached edge, staying inside
// the dispatch soup. Bails to the outer loop for polls, untranslatable
// targets (out of text / misaligned -> the outer loop raises the same
// AccessFault step() would) and blocks that could cross the limit.
#define CHAIN(edge)                                                       \
    do {                                                                  \
        if (cancel && countdown == 0) goto leave_soup;                    \
        Superblock* nx_ = (edge);                                         \
        if (!nx_) {                                                       \
            const u64 noff_ = m.pc_ - text_base;                          \
            if (noff_ >= code_bytes || (m.pc_ & 3) != 0) goto leave_soup; \
            nx_ = sc.get_or_translate(env, m.pc_, st);                    \
            (edge) = nx_;                                                 \
        }                                                                 \
        if (m.instret_ + nx_->len > limit) goto leave_soup;               \
        ++st.chained;                                                     \
        sb = nx_;                                                         \
        goto enter_block;                                                 \
    } while (0)

// Plain loads skip mem_load's DcacheFillData probe test: a probe hook
// forces the interpreter tier.
#define LOAD_BODY(w, sx)                                                  \
    do {                                                                  \
        PRO();                                                            \
        const u64 a_ = RS1 + IMM;                                         \
        m.cycles_ += m.dcache_.access(a_) - dcache_hit;                   \
        const u64 v_ = m.mem_.load(a_, (w), (sx));                        \
        if (op->rd) {                                                     \
            m.regs_[op->rd] = v_;                                         \
            m.srf_.clear(RD_REG);                                         \
        }                                                                 \
    } while (0)

#define STORE_BODY(w)                                                     \
    do {                                                                  \
        PRO();                                                            \
        m.mem_store(RS1 + IMM, (w), RS2);                                 \
    } while (0)

// HWST unit operation (Machine's kernels, machine.hpp): pc_ first, so a
// trap carries this op's pc and leaves through trap_at_op.
#define UNIT(call)                                                        \
    do {                                                                  \
        PRO();                                                            \
        m.pc_ = op->pc;                                                   \
        tr = (call);                                                      \
        if (tr.kind != TrapKind::None) goto trap_at_op;                   \
    } while (0)

#define BRANCH_BODY(cond)                                                 \
    do {                                                                  \
        PRO();                                                            \
        APPLY_BATCH();                                                    \
        if (cond) {                                                       \
            m.cycles_ += taken_pen;                                       \
            m.pc_ = IMM;                                                  \
            CHAIN(op->edge_taken);                                        \
        } else {                                                          \
            m.pc_ = op->pc + 4;                                           \
            CHAIN(op->edge_fall);                                         \
        }                                                                 \
    } while (0)

    while (m.running_) {
        sc.flush_if_pending(st);
        if (cancel && countdown == 0) {
            if ((*cancel)()) return false;
            countdown = stride;
        }
        if (m.instret_ >= limit) {
            m.stop_at_limit(out);
            return true;
        }
        {
            const u64 off = m.pc_ - text_base;
            if (off >= code_bytes || (m.pc_ & 3) != 0) {
                out = Trap{TrapKind::AccessFault, m.pc_, m.pc_};
                m.running_ = false;
                return true;
            }
        }
        sb = sc.get_or_translate(env, m.pc_, st);
        if (m.instret_ + sb->len > limit) {
            // The limit falls inside this block: retire the tail one
            // instruction at a time, with the interpreter's own
            // check-then-step ordering. Bounded by limit - instret_ <
            // block length.
            while (m.running_) {
                if (m.instret_ >= limit) {
                    m.stop_at_limit(out);
                    return true;
                }
                const Trap t = m.step();
                if (t.kind != TrapKind::None) {
                    out = t;
                    return true;
                }
            }
            return true;
        }

        try {
        enter_block:
            ++st.block_execs;
            batch_applied = false;
            op = sb->ops.data();
            goto*(op->label);

        L_Nop:
            PRO();
            NEXT();
        L_Const:
            PRO();
            // rd==zero folded to Nop.
            m.regs_[op->rd] = op->aux;
            m.srf_.clear(RD_REG);
            NEXT();
        // RV64IM ALU ops (rv64im.hpp): one label per op, each with its
        // compile-time opcode.
#define HWST_ALU_LABEL(name, ...)                                         \
    L_##name:                                                             \
        PRO();                                                            \
        m.alu_op<riscv::Opcode::name>(*op);                               \
        NEXT();
            HWST_RV64IM_ALU_LIST(HWST_ALU_LABEL)
#undef HWST_ALU_LABEL
        L_Lb:
            LOAD_BODY(1, true);
            NEXT();
        L_Lh:
            LOAD_BODY(2, true);
            NEXT();
        L_Lw:
            LOAD_BODY(4, true);
            NEXT();
        L_Ld:
            LOAD_BODY(8, true);
            NEXT();
        L_Lbu:
            LOAD_BODY(1, false);
            NEXT();
        L_Lhu:
            LOAD_BODY(2, false);
            NEXT();
        L_Lwu:
            LOAD_BODY(4, false);
            NEXT();
        L_Sb:
            STORE_BODY(1);
            NEXT();
        L_Sh:
            STORE_BODY(2);
            NEXT();
        L_Sw:
            STORE_BODY(4);
            NEXT();
        L_Sd:
            STORE_BODY(8);
            NEXT();
        L_CheckedLoad:
            UNIT(m.checked_load(RD_REG, RS1_REG, op->imm, op->width,
                                (op->flags & kOpSignedLoad) != 0));
            NEXT();
        L_CheckedStore:
            UNIT(m.checked_store(RS1_REG, RS2_REG, op->imm, op->width));
            NEXT();
        L_Hwst:
            {
                // Generic path for the remaining HWST metadata ops: same
                // executor + srf rule the interpreter uses, minus its
                // per-step bookkeeping.
                const Uop& u = m.uops_[op->uop_idx];
                UNIT(m.exec_hwst(u.in));
                m.srf_effects(u.in, u.fmt);
            }
            NEXT();
        L_SbdStore:
            PRO();
            m.pc_ = op->pc; // cannot trap, but may fault
            m.sbd(op->aux != 0, RS1_REG, RS2_REG, op->imm);
            NEXT();
        L_LbdLoad:
            PRO();
            m.pc_ = op->pc;
            m.lbd(op->aux != 0, RD_REG, RS1_REG, op->imm);
            NEXT();
        L_Tchk:
            UNIT(m.tchk(RS1_REG));
            NEXT();
        L_Bndr:
            UNIT(m.bndr(op->aux != 0, RD_REG, RS1_REG, RS2_REG));
            NEXT();
#define HWST_BRANCH_LABEL(name)                                           \
    L_##name:                                                             \
        BRANCH_BODY(branch_taken<riscv::Opcode::name>(RS1, RS2));
            HWST_RV64I_BRANCH_LIST(HWST_BRANCH_LABEL)
#undef HWST_BRANCH_LABEL
        L_Jal:
            PRO();
            APPLY_BATCH();
            // Taken penalty is folded into static_cycles (always paid).
            if (op->rd) {
                m.regs_[op->rd] = op->aux;
                m.srf_.clear(RD_REG);
            }
            m.pc_ = IMM;
            CHAIN(op->edge_taken);
        L_Jalr:
            PRO();
            APPLY_BATCH();
            {
                // rs1 is read before the link write (rd may alias rs1).
                const u64 target = (RS1 + IMM) & ~u64{1};
                if (op->rd) {
                    m.regs_[op->rd] = op->aux;
                    m.srf_.clear(RD_REG);
                }
                m.pc_ = target;
                // 2-way inline cache on the dynamic target (shared
                // structure with the JIT tier — docs/performance.md).
                int w = op->jalr.lookup(target);
                if (w >= 0) {
                    ++st.jalr_hits;
                } else {
                    ++st.jalr_misses;
                    w = static_cast<int>(op->jalr.insert(target));
                }
                CHAIN(op->jalr.way[w]);
            }
        L_InterpOne:
            PRO();
            APPLY_BATCH();
            {
                // csr/ecall/ebreak: run through the generic exec() with
                // the batch already applied, so csr cycle/instret reads
                // and the proxy kernel see exactly what step() shows
                // them. Always returns to the dispatcher (no chaining
                // past a proxy-kernel call).
                const Uop& u = m.uops_[op->uop_idx];
                m.pc_ = op->pc;
                u64 next_pc = op->pc + 4;
                const Trap t = m.exec(u.in, next_pc);
                if (t.kind != TrapKind::None) {
                    m.running_ = false;
                    out = t;
                    return true;
                }
                m.srf_effects(u.in, u.fmt);
                m.pc_ = next_pc;
            }
            goto leave_soup;
        L_EndFall:
            // Pseudo-op at the length cap / end of text: no fetch, no
            // retirement of its own — just the batched exit.
            APPLY_BATCH();
            m.pc_ = op->pc;
            CHAIN(op->edge_fall);

        trap_at_op:
            if (!batch_applied) apply_prefix();
            m.running_ = false;
            out = tr;
            return true;

        leave_soup:;
        } catch (const MemFault& fault) {
            // Loads/stores fault through the inlined Memory access; the
            // interpreter converts them at the same point with the same
            // accounting (the faulting instruction is retired).
            if (!batch_applied) apply_prefix();
            out = Trap{TrapKind::AccessFault, fault.addr, op->pc};
            m.running_ = false;
            return true;
        }
    }
    return true;

#undef PRO
#undef NEXT
#undef RS1
#undef RS2
#undef RD_REG
#undef RS1_REG
#undef RS2_REG
#undef IMM
#undef APPLY_BATCH
#undef UNIT
#undef CHAIN
#undef LOAD_BODY
#undef STORE_BODY
#undef BRANCH_BODY
}

} // namespace hwst::sim
