// Tier-2 template JIT (docs/performance.md "Tier-2 JIT"): hot
// superblocks are lowered to native x86-64 through per-op copy-and-
// patch templates. Same contract as every hot-path structure: host
// speed may change, simulated observables may not — the per-op
// templates replicate the dispatcher bodies (sim/dispatch.cpp) exactly,
// and everything non-trivial calls back into C++ helpers that ARE the
// dispatcher bodies.
//
// Code cache policy:
//  * One code region per Machine, W^X: no virtual address is ever
//    writable and executable at once. Preferred layout is a dual-mapped
//    memfd — an RX view for execution plus a separate RW alias for
//    compiles and patches — so steady-state translation costs zero
//    syscalls. When memfd_create is unavailable the region falls back
//    to a single anonymous mapping with transient page-granular
//    mprotect RW windows around every compile/patch.
//  * Append-only; when a compile would overflow cfg.jit_code_bytes the
//    whole region is dropped (JitStats::evictions) and translation
//    restarts — block records, chain sites and jalr sites all hold
//    pointers into the region or into Superblocks, so partial eviction
//    is not worth its invariants.
//  * Any superblock-cache flush (map_region) drops the code too: the
//    emitted code bakes SbOp and Superblock addresses.
#pragma once

#include <deque>
#include <functional>
#include <unordered_map>
#include <vector>

#include "common/bitops.hpp"
#include "hwst/trap.hpp"
#include "sim/superblock.hpp"

// Host/build gate: the templates emit x86-64 and the W^X region is
// mmap'd, so the tier exists only on plain x86-64 POSIX builds.
// Sanitizer builds pin the ladder to the dispatcher — ASan/TSan cannot
// see through emitted frames, and the whole point of those presets is
// instrumented coverage of the C++ paths.
#if defined(__x86_64__) && !defined(_WIN32) &&                            \
    !defined(__SANITIZE_ADDRESS__) && !defined(__SANITIZE_THREAD__)
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define HWST_JIT_X86_64 0
#else
#define HWST_JIT_X86_64 1
#endif
#else
#define HWST_JIT_X86_64 1
#endif
#else
#define HWST_JIT_X86_64 0
#endif

namespace hwst::sim {
class Machine;
}

namespace hwst::sim::jit {

using common::u32;
using common::u64;
using common::u8;

/// Why emitted code returned to the driver loop (sim/jit/runtime.cpp).
enum ExitReason : u32 {
    kExitNone = 0,
    /// Back to the driver's outer loop: poll/limit bail at a chain site,
    /// or an interp-one ender completed. m.pc_ is the resume point.
    kExitLeave = 1,
    /// A block-to-block chain site whose target is not yet compiled.
    /// payload = chain-site index; the driver patches the site once the
    /// target block is entered natively.
    kExitResolve = 2,
    /// A jalr inline-cache miss or a hit on an unresolved way.
    /// payload = site << 2 | was_hit << 1 | way.
    kExitJalrResolve = 3,
    /// A body op trapped before the block's batch was applied.
    /// payload = the SbOp*; trap_* fields hold the trap. The driver
    /// applies the per-op prefix accounting (dispatch.cpp apply_prefix).
    kExitTrap = 4,
    /// A trap with the batch already applied (interp-one ender). The
    /// helper has set running_ = false; trap_* fields hold the trap.
    kExitTrapFinal = 5,
};

/// Per-run state shared between the driver loop, the emitted code (via
/// the pinned r13 register) and the helper call-outs. Standard layout:
/// the templates address fields by offsetof.
struct JitContext {
    u64 countdown = 0;  ///< cancellation-poll countdown (~0 = no cancel)
    u32 exit_reason = 0;
    u32 trap_kind = 0;
    u64 exit_payload = 0;
    u64 trap_addr = 0;
    u64 trap_pc = 0;
    // Pinned-register table, loaded once by the entry thunk:
    u64* regs = nullptr;    ///< -> r12 (Machine::regs_)
    void* srf = nullptr;    ///< -> rbp (ShadowRegFile entry array)
    u64* cycles = nullptr;  ///< -> r14 (&Machine::cycles_)
    void* machine = nullptr;///< -> r15 (the Machine, for helper calls)
};

/// One block-to-block chain site inside emitted code: the imm64 limit
/// threshold and the rel32 of the direct jump, both patched when the
/// target block is compiled (offsets are region-absolute).
struct ChainSite {
    u64 thresh_off = 0;
    u64 jmp_off = 0;
    bool patched = false;
};

class JitTier {
public:
    /// Maps the code region and emits the entry thunk. ok() is false
    /// when mmap failed — the caller degrades to the dispatcher.
    explicit JitTier(Machine& m);
    ~JitTier();
    JitTier(const JitTier&) = delete;
    JitTier& operator=(const JitTier&) = delete;

    bool ok() const { return region_ != nullptr; }

    struct BlockRec {
        u32 execs = 0;        ///< driver entries while cold
        const u8* entry = nullptr; ///< native entry, null until compiled
    };
    BlockRec& record_for(const Superblock* sb) { return records_[sb]; }

    /// Compile `sb` into the region; returns the native entry, or null
    /// when the block cannot fit even in an empty region. May evict
    /// (drop_code) — all previously returned BlockRec references and
    /// entries are invalidated when generation() changes.
    const u8* compile(const Superblock& sb, JitStats& st);

    /// Drop every compiled block: reset the cursor, clear records and
    /// patch sites, re-emit the entry thunk. Bumps generation().
    void drop_code(JitStats& st);

    /// Bound the run at `limit` instructions (fuel, or a pause point
    /// below it). Patched chain and jalr sites bake limit - len, so when
    /// the limit moves the code baked against the old one is dropped:
    /// kept, it would run past a lower limit or bail on every edge
    /// under a higher one.
    void set_limit(u64 limit, JitStats& st)
    {
        if (limit == limit_) return;
        limit_ = limit;
        if (cursor_ > thunk_bytes_) drop_code(st);
    }

    /// Patch a chain site to jump straight to `target_entry`, guarded
    /// by the real limit threshold for a `len`-instruction target block.
    void patch_chain(u64 site, const u8* target_entry, u64 limit, u32 len,
                     JitStats& st);
    /// Resolve a jalr inline-cache way to `target_entry` (aux carries
    /// the limit threshold the emitted probe compares against).
    void patch_jalr(u64 site, unsigned way, const u8* target_entry,
                    u64 limit, u32 len, JitStats& st);

    JalrCache2<const void*>& jalr_site(u64 i) { return jalr_sites_[i]; }

    /// Chain sites emitted so far (the next block's sites get global
    /// indexes starting here).
    u64 chain_site_count() const { return chain_sites_.size(); }
    /// Claim a jalr inline-cache site (the emitted probe bakes its
    /// address; the deque keeps it stable).
    u64 alloc_jalr_site()
    {
        jalr_sites_.emplace_back();
        return jalr_sites_.size() - 1;
    }

    /// Bumped by drop_code: stale BlockRecs/site indexes are detected
    /// by comparing generations.
    u64 generation() const { return generation_; }

    /// Run a compiled block (the executable view is RX always; writes
    /// go through the RW alias, or through transient page-granular
    /// mprotect windows on the single-mapping fallback).
    void enter(const u8* entry, JitContext& ctx);

    /// Region offsets of the shared per-region runtime emitted right
    /// after the entry thunk: the load/store fast-path subroutines
    /// (dcache recent-line probe + TLB probe, reached by a 5-byte
    /// rel32 call from block code) and one trampoline per C++ helper
    /// (so per-op call sites don't each materialise a 10-byte absolute
    /// helper address).
    struct RtOffsets {
        u64 load[4][2] = {}; ///< [log2 width][sign-extending]
        u64 store[4] = {};   ///< [log2 width]
        std::unordered_map<const void*, u64> tramp;
    };
    const RtOffsets& rt() const { return rt_; }

    JitContext ctx;

private:
    friend struct JitOps;

    /// Flip the pages covering [off, off+len) of the region to RW /
    /// back to RX. No-ops when the RW alias exists (dual-mapped memfd);
    /// on the fallback single mapping they are page-granular mprotects
    /// — whole-region flips cost tens of µs on a multi-MB mapping,
    /// and even per-page pairs add ~0.5ms of syscalls per short run.
    void make_writable(u64 off, u64 len);
    void seal(u64 off, u64 len);
    /// Where code writes land: the RW alias when dual-mapped, the
    /// region itself (made writable by the caller) otherwise.
    u8* code_rw(u64 off) { return (rw_ ? rw_ : region_) + off; }
    void emit_thunk();

    Machine& m_;
    u8* region_ = nullptr; ///< executable view (RX at rest)
    u8* rw_ = nullptr;     ///< RW alias of the same pages, or null
    u64 region_bytes_ = 0;
    u64 cursor_ = 0;
    u64 thunk_bytes_ = 0;  ///< cursor after the thunk + shared runtime
    u64 epilogue_off_ = 0; ///< region offset of the shared epilogue
    u64 generation_ = 0;
    u64 limit_ = ~u64{0}; ///< the limit patched sites are baked against
    RtOffsets rt_;

    std::unordered_map<const Superblock*, BlockRec> records_;
    std::vector<ChainSite> chain_sites_;
    /// Jalr sites live outside the code region (the emitted probe bakes
    /// their addresses); deque keeps them stable across growth.
    std::deque<JalrCache2<const void*>> jalr_sites_;
};

/// Tier-2 driver loop; same contract as run_superblocks.
bool run_jit(Machine& m, const std::function<bool()>* cancel, u64 stride,
             u64 limit, hwst::Trap& out);

/// True when this build/host can execute emitted x86-64 code.
bool jit_supported();

} // namespace hwst::sim::jit
