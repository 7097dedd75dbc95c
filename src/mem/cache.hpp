// Set-associative D-cache *timing* model (data lives in Memory; the
// cache tracks tags only). Rocket's default L1D is 16 KiB, 4-way,
// 64-byte lines; those are the defaults here. The model feeds the
// 5-stage pipeline timing: hit = kHitCycles, miss adds a refill penalty.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "common/bitops.hpp"
#include "common/error.hpp"

namespace hwst::mem {

using common::u64;

struct CacheConfig {
    unsigned line_bytes = 64;
    unsigned ways = 4;
    unsigned sets = 64; // 16 KiB total with the defaults
    unsigned hit_cycles = 1;
    unsigned miss_penalty = 30; // refill from the simulated DRAM
};

struct CacheStats {
    u64 accesses = 0;
    u64 misses = 0;
    double miss_rate() const
    {
        return accesses ? static_cast<double>(misses) /
                              static_cast<double>(accesses)
                        : 0.0;
    }
};

class Cache {
public:
    explicit Cache(const CacheConfig& cfg = {});
    /// Copy with the same tags, LRU state, stats and recent-line fast
    /// path (sim::Machine::fork); the recent-line pointers are rebased
    /// onto the copy's own lines.
    Cache(const Cache& other);

    /// Touch `addr`; returns the access latency in cycles and updates
    /// LRU/stats. Accesses never straddle lines in our ISA (max width 8,
    /// line 64, all accesses naturally aligned by codegen).
    ///
    /// Fast path: accesses to either of the two most recently touched
    /// lines (sequential fetch, ping-ponging load/store streams) skip
    /// the way scan. `last_line_` always points at the line touched by
    /// the most recent access, so a match on `last_line_addr_` cannot
    /// be stale — any eviction of that line would itself have gone
    /// through access_slow and repointed it. The second entry CAN be
    /// chosen as an eviction victim, so access_slow nulls it whenever
    /// its line is replaced. Stats/LRU updates are identical to the
    /// slow-path hit.
    unsigned access(u64 addr)
    {
        const u64 line_addr = addr >> line_shift_;
        if (last_line_ && last_line_addr_ == line_addr) {
            ++stats_.accesses;
            last_line_->lru = ++tick_;
            last_miss_ = false;
            return cfg_.hit_cycles;
        }
        if (last2_line_ && last2_line_addr_ == line_addr) {
            ++stats_.accesses;
            last2_line_->lru = ++tick_;
            last_miss_ = false;
            std::swap(last_line_, last2_line_);
            std::swap(last_line_addr_, last2_line_addr_);
            return cfg_.hit_cycles;
        }
        return access_slow(addr);
    }

    /// Record a hit on the line of the most recent access() without
    /// re-touching it. Only valid when the caller has proved the access
    /// lands on that same line (e.g. sequential instruction fetch inside
    /// one superblock): the line is present — access() would hit — and
    /// it is already the most recent line in its set, so skipping the
    /// LRU bump preserves the set's recency *order* and therefore every
    /// future eviction decision. Stats match a real hit.
    void count_repeat_hit()
    {
        ++stats_.accesses;
        last_miss_ = false;
    }

    /// Batched count_repeat_hit: `n` proven repeat hits at once (one
    /// superblock's worth of sequential fetches). Deliberately leaves
    /// last_miss_ alone — the only consumer of last_access_missed() is
    /// the d-cache's DcacheFillData probe, and this entry point is used
    /// by the i-cache only.
    void count_repeat_hits(u64 n) { stats_.accesses += n; }

    /// Probe without updating state (diagnostics).
    bool would_hit(u64 addr) const;

    /// Whether the most recent access() missed (i.e. triggered a refill
    /// from the simulated DRAM). Lets the Machine tell fill data from
    /// hit data for the DcacheFillData fault-injection point.
    bool last_access_missed() const { return last_miss_; }

    void flush();

    /// Hot-field addresses for emitted code (the JIT tier's inline
    /// recent-line probe; docs/performance.md "Tier-2 JIT"). Emitted
    /// code may replicate the first recent-line branch of access()
    /// exactly: compare `*last_line_addr` (while `*last_line` is
    /// non-null), and on a match bump `*accesses`, store `++*tick` to
    /// the u64 at `(char*)*last_line + line_lru_offset`, clear
    /// `*last_miss` and charge `hit_cycles`. Anything else must call
    /// back into access() — the two-entry swap, way scan, eviction and
    /// miss accounting stay the library's job. All pointers are stable
    /// for the Cache's lifetime (lines_ is sized once in the ctor).
    struct JitView {
        void** last_line;       ///< &last_line_ (null = no recent line)
        u64* last_line_addr;    ///< &last_line_addr_ (addr >> line_shift)
        u64* accesses;          ///< &stats_.accesses
        u64* tick;              ///< &tick_
        bool* last_miss;        ///< &last_miss_
        unsigned line_lru_offset; ///< byte offset of Line::lru
        unsigned line_shift;    ///< log2(line_bytes)
        unsigned hit_cycles;
    };
    JitView jit_view()
    {
        return {reinterpret_cast<void**>(&last_line_),
                &last_line_addr_,
                &stats_.accesses,
                &tick_,
                &last_miss_,
                static_cast<unsigned>(offsetof(Line, lru)),
                line_shift_,
                cfg_.hit_cycles};
    }

    const CacheConfig& config() const { return cfg_; }
    const CacheStats& stats() const { return stats_; }
    void reset_stats() { stats_ = {}; }

private:
    struct Line {
        u64 tag = 0;
        bool valid = false;
        u64 lru = 0; // larger = more recent
    };

    // line_bytes and sets are enforced powers of two, so the index
    // arithmetic is shifts and masks (these run on every access; a
    // 64-bit divide per lookup is measurable across a campaign).
    u64 set_of(u64 addr) const { return (addr >> line_shift_) & set_mask_; }
    u64 tag_of(u64 addr) const { return addr >> line_shift_ >> set_shift_; }

    unsigned access_slow(u64 addr);

    /// Memberwise, for the copy constructor, which then rebases the
    /// recent-line pointers (so a member added later is copied too).
    Cache& operator=(const Cache&) = default;

    CacheConfig cfg_;
    unsigned line_shift_ = 6; ///< log2(line_bytes), set in the ctor
    unsigned set_shift_ = 6;  ///< log2(sets)
    u64 set_mask_ = 63;       ///< sets - 1
    std::vector<Line> lines_; // sets * ways
    CacheStats stats_;
    u64 tick_ = 0;
    bool last_miss_ = false;
    // Two most recently touched lines (fast path). Never dangle: lines_
    // is sized once in the constructor, flush() resets both pointers
    // and access_slow nulls last2_line_ when it evicts that line.
    Line* last_line_ = nullptr;
    u64 last_line_addr_ = 0; ///< addr / line_bytes of last_line_
    Line* last2_line_ = nullptr;
    u64 last2_line_addr_ = 0;
};

} // namespace hwst::mem
