#include "mem/cache.hpp"

namespace hwst::mem {

Cache::Cache(const CacheConfig& cfg) : cfg_{cfg}
{
    if (!common::is_pow2(cfg_.line_bytes) || !common::is_pow2(cfg_.sets) ||
        cfg_.ways == 0) {
        throw common::ConfigError{"Cache: line/sets must be powers of two, "
                                  "ways nonzero"};
    }
    line_shift_ = common::clog2(cfg_.line_bytes);
    set_shift_ = common::clog2(cfg_.sets);
    set_mask_ = cfg_.sets - 1;
    lines_.resize(static_cast<std::size_t>(cfg_.sets) * cfg_.ways);
}

Cache::Cache(const Cache& other)
{
    *this = other;
    const auto rebase = [&](const Line* line) -> Line* {
        return line ? lines_.data() + (line - other.lines_.data()) : nullptr;
    };
    last_line_ = rebase(other.last_line_);
    last2_line_ = rebase(other.last2_line_);
}

unsigned Cache::access_slow(u64 addr)
{
    ++stats_.accesses;
    ++tick_;
    const u64 set = set_of(addr);
    const u64 tag = tag_of(addr);
    Line* base = &lines_[set * cfg_.ways];

    Line* victim = base;
    for (unsigned w = 0; w < cfg_.ways; ++w) {
        Line& line = base[w];
        if (line.valid && line.tag == tag) {
            line.lru = tick_;
            last_miss_ = false;
            last2_line_ = last_line_;
            last2_line_addr_ = last_line_addr_;
            last_line_ = &line;
            last_line_addr_ = addr >> line_shift_;
            return cfg_.hit_cycles;
        }
        if (!line.valid) {
            victim = &line; // prefer an invalid way
        } else if (victim->valid && line.lru < victim->lru) {
            victim = &line;
        }
    }

    ++stats_.misses;
    last_miss_ = true;
    victim->valid = true;
    victim->tag = tag;
    victim->lru = tick_;
    last2_line_ = last_line_;
    last2_line_addr_ = last_line_addr_;
    last_line_ = victim;
    last_line_addr_ = addr >> line_shift_;
    // The evicted line may be the one the second fast-path entry points
    // at (with 1 way it can even be the previous MRU just shifted in);
    // its tag changed, so the cached mapping would be a false hit.
    if (last2_line_ == victim) last2_line_ = nullptr;
    return cfg_.hit_cycles + cfg_.miss_penalty;
}

bool Cache::would_hit(u64 addr) const
{
    const u64 set = set_of(addr);
    const u64 tag = tag_of(addr);
    const Line* base = &lines_[set * cfg_.ways];
    for (unsigned w = 0; w < cfg_.ways; ++w) {
        if (base[w].valid && base[w].tag == tag) return true;
    }
    return false;
}

void Cache::flush()
{
    for (Line& line : lines_) line = Line{};
    last_line_ = nullptr;
    last2_line_ = nullptr;
}

} // namespace hwst::mem
