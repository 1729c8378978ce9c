#include "src/mem/cache.h"

#include <bit>
#include <cstdio>
#include <cstdlib>

namespace guillotine {

Cache::Cache(const CacheConfig& config, std::string name)
    : config_(config), name_(std::move(name)) {
  const size_t sets = config_.ways == 0 ? 0 : config_.num_sets();
  if (!std::has_single_bit(config_.line_bytes) || !std::has_single_bit(sets)) {
    std::fprintf(stderr,
                 "cache %s: line_bytes (%zu) and set count (%zu) must be powers of two\n",
                 name_.c_str(), config_.line_bytes, sets);
    std::abort();
  }
  line_shift_ = static_cast<unsigned>(std::countr_zero(config_.line_bytes));
  tag_shift_ = line_shift_ + static_cast<unsigned>(std::countr_zero(sets));
  set_mask_ = sets - 1;
  lines_.resize(sets * config_.ways);
}

void Cache::Fill(Line* base, size_t set, u64 tag) {
  // Prefer invalid lines; otherwise the least recently used. Ties keep the
  // lowest way.
  Line* victim = base;
  for (size_t w = 1; w < config_.ways; ++w) {
    const Line& line = base[w];
    if (line.valid != victim->valid ? !line.valid : line.lru < victim->lru) {
      victim = &base[w];
    }
  }
  ++stats_.misses;
  if (victim->valid) {
    ++stats_.evictions;
    if (eviction_hook_) {
      eviction_hook_((victim->tag << tag_shift_) | (set << line_shift_));
    }
  }
  victim->valid = true;
  victim->tag = tag;
  victim->lru = ++use_counter_;
}

bool Cache::Probe(PhysAddr addr) const {
  const u64 tag = Tag(addr);
  const Line* base = &lines_[SetIndex(addr) * config_.ways];
  for (size_t w = 0; w < config_.ways; ++w) {
    if (base[w].valid && base[w].tag == tag) {
      return true;
    }
  }
  return false;
}

void Cache::Flush() { ZeroAll(lines_); }

bool Cache::Invalidate(PhysAddr addr) {
  const u64 tag = Tag(addr);
  Line* base = &lines_[SetIndex(addr) * config_.ways];
  for (size_t w = 0; w < config_.ways; ++w) {
    if (base[w].valid && base[w].tag == tag) {
      base[w].valid = false;
      return true;
    }
  }
  return false;
}

Cycles AccessAfterL1Miss(const Cache& l1, Cache& l2, Cache* l3, PhysAddr addr,
                         const MemoryPathConfig& path) {
  if (l2.Access(addr)) {
    return l1.hit_latency() + l2.hit_latency();
  }
  if (l3 != nullptr) {
    if (l3->Access(addr)) {
      return l1.hit_latency() + l2.hit_latency() + l3->hit_latency();
    }
    return l1.hit_latency() + l2.hit_latency() + l3->hit_latency() + path.dram_latency;
  }
  return l1.hit_latency() + l2.hit_latency() + path.dram_latency;
}

}  // namespace guillotine
