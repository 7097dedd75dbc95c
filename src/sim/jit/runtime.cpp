// Tier-2 JIT driver loop (jit.hpp): the outer loop the emitted code
// exits back into. It mirrors run_superblocks (sim/dispatch.cpp)
// decision-for-decision — poll, limit, pc validation, interp tail when
// the limit falls inside a block — and adds the tier-2-only concerns:
// the hotness ladder (cold blocks run through step() until
// jit_hot_threshold), compile-on-hot, and lazy resolution of chain /
// jalr sites. A site is patched only when its target block is about to
// be entered natively, so a patched jump can never lead to a stale or
// cold block; generation guards invalidate pending patches across
// code-cache drops.
#include "sim/jit/jit.hpp"
#include "sim/machine.hpp"

namespace hwst::sim::jit {

using hwst::Trap;
using hwst::TrapKind;

bool jit_supported()
{
    return HWST_JIT_X86_64 != 0;
}

bool run_jit(Machine& m, const std::function<bool()>* cancel, u64 stride,
             u64 limit, Trap& out)
{
    if (!m.host_.jit) m.host_.jit = std::make_unique<JitTier>(m);
    JitTier& jt = *m.host_.jit;
    if (!jt.ok()) {
        // Code region unavailable (mmap failure): degrade the ladder to
        // the dispatcher for the Machine's lifetime. Blocks translated
        // for the JIT have unbound labels, which the computed-goto
        // dispatcher cannot execute — flush them so the dispatcher
        // retranslates with its label table.
        m.tier_ = ExecTier::Dbt;
        m.host_.sbcache->flush(m.host_.dbt_stats);
        return run_superblocks(m, cancel, stride, limit, out);
    }

    SuperblockCache& sc = *m.host_.sbcache;
    DbtStats& st = m.host_.dbt_stats;
    JitStats& jst = m.host_.jit_stats;
    const TranslateEnv env{
        m.uops_.data(),
        static_cast<u32>(m.uops_.size()),
        m.text_base_,
        m.cfg_.icache.line_bytes,
        m.cfg_.icache_enabled,
        m.cfg_.timing,
        nullptr, // labels stay unbound; only the dispatcher needs them
    };
    const u64 text_base = m.text_base_;
    const u64 code_bytes = m.code_bytes_;
    const u32 hot = m.cfg_.jit_hot_threshold;
    jt.set_limit(limit, jst);

    JitContext& ctx = jt.ctx;
    ctx.regs = m.regs_.data();
    ctx.srf = m.srf_.entries_view();
    ctx.cycles = &m.cycles_;
    ctx.machine = &m;
    // The emitted poll guard is unconditional (cmp countdown, 0), so an
    // uncancellable run parks the countdown at ~0 — the driver re-arms
    // it in the unlikely event 2^64 instructions drain it.
    ctx.countdown = cancel ? stride : ~u64{0};

    // A chain/jalr site waiting for its target's native entry. Applied
    // right before the target is entered natively; dropped when the
    // next block takes any other path (cold, interp tail, no-fit) or
    // the code cache generation moved.
    struct Pending {
        enum Kind { None, Edge, Jalr } kind = None;
        u64 site = 0;
        unsigned way = 0;
        u64 gen = 0;
    } pend;

    // Cold path: run one block through the interpreter, with the
    // dispatcher's batched countdown decrement. Returns false when the
    // run ended (trap / exit) and `out` is set.
    const auto run_cold = [&](u32 len) -> bool {
        pend.kind = Pending::None;
        ++st.block_execs;
        for (u32 i = 0; i < len && m.running_; ++i) {
            const Trap t = m.step();
            if (t.kind != TrapKind::None) {
                out = t;
                return false;
            }
        }
        ctx.countdown = ctx.countdown > len ? ctx.countdown - len : 0;
        return true;
    };

    while (m.running_) {
        // A deferred superblock flush (map_region during an interp-one
        // ecall) invalidates the native code too: it bakes SbOp
        // addresses.
        if (sc.flush_if_pending(st)) jt.drop_code(jst);
        if (ctx.countdown == 0) {
            if (cancel) {
                if ((*cancel)()) return false;
                ctx.countdown = stride;
            } else {
                ctx.countdown = ~u64{0};
            }
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
        Superblock* sb = sc.get_or_translate(env, m.pc_, st);
        if (m.instret_ + sb->len > limit) {
            // The limit falls inside this block: retire the tail one
            // instruction at a time (same as the dispatcher).
            pend.kind = Pending::None;
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

        const u8* entry;
        {
            JitTier::BlockRec& rec = jt.record_for(sb);
            entry = rec.entry;
            if (!entry && ++rec.execs < hot) {
                if (!run_cold(sb->len)) return true;
                continue;
            }
        } // rec may dangle past here: compile() can drop the cache
        if (!entry) {
            const u64 gen0 = jt.generation();
            entry = jt.compile(*sb, jst);
            if (jt.generation() != gen0) pend.kind = Pending::None;
            if (!entry) {
                // Too large for even an empty cache: cold forever.
                if (!run_cold(sb->len)) return true;
                continue;
            }
        }

        if (pend.kind != Pending::None && pend.gen == jt.generation()) {
            // The driver proved instret + len <= limit above, so the
            // baked threshold limit - len is well-defined.
            if (pend.kind == Pending::Edge)
                jt.patch_chain(pend.site, entry, limit, sb->len, jst);
            else
                jt.patch_jalr(pend.site, pend.way, entry, limit, sb->len,
                              jst);
        }
        pend.kind = Pending::None;

        // Native block entries bump dbt_stats.block_execs from inside
        // the emitted prologue (so chain/jalr transfers count too).
        ctx.exit_reason = kExitNone;
        jt.enter(entry, ctx);

        switch (ctx.exit_reason) {
        case kExitLeave:
            break; // poll/limit bail or interp-one: resume at m.pc_
        case kExitResolve:
            pend = {Pending::Edge, ctx.exit_payload, 0, jt.generation()};
            break;
        case kExitJalrResolve: {
            const u64 p = ctx.exit_payload;
            const u64 sidx = p >> 2;
            unsigned way = static_cast<unsigned>(p & 1);
            if (!(p & 2)) { // tag miss (a hit on an unresolved way
                            // keeps the dispatcher's hit accounting)
                ++st.jalr_misses;
                way = jt.jalr_site(sidx).insert(m.pc_);
            }
            pend = {Pending::Jalr, sidx, way, jt.generation()};
            break;
        }
        case kExitTrap: {
            // Pre-batch trap: per-op prefix accounting, exactly the
            // dispatcher's trap_at_op / apply_prefix.
            ++jst.bailouts;
            const SbOp* op =
                reinterpret_cast<const SbOp*>(ctx.exit_payload);
            m.instret_ += op->block_pos + 1u;
            m.cycles_ += op->cum_static;
            m.icache_.count_repeat_hits(op->cum_repeat);
            const u32 first = op->uop_idx - op->block_pos;
            for (u32 j = first; j <= op->uop_idx; ++j)
                ++(m.mix_.*(m.uops_[j].bucket));
            m.running_ = false;
            out = Trap{static_cast<TrapKind>(ctx.trap_kind),
                       ctx.trap_addr, ctx.trap_pc};
            return true;
        }
        case kExitTrapFinal:
            // Batch already applied (interp-one); the helper cleared
            // running_.
            ++jst.bailouts;
            out = Trap{static_cast<TrapKind>(ctx.trap_kind),
                       ctx.trap_addr, ctx.trap_pc};
            return true;
        default:
            break;
        }
    }
    return true;
}

} // namespace hwst::sim::jit
