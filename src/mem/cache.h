// Tag-only set-associative cache timing model with LRU replacement.
//
// Caches carry no data (the Dram modules are authoritative); they exist to
// model *timing*, which is exactly the property the paper cares about:
// shared caches between hypervisor and guest are a side channel (section
// 3.2, citing Spectre/Foreshadow), and Guillotine removes them by giving
// model cores and hypervisor cores disjoint hierarchies. The covert-channel
// experiment (E2) builds prime+probe on top of this model.
#ifndef SRC_MEM_CACHE_H_
#define SRC_MEM_CACHE_H_

#include <functional>
#include <string>

#include "src/common/types.h"
#include "src/mem/zero_pages.h"

namespace guillotine {

struct CacheConfig {
  size_t size_bytes = 32 * 1024;
  size_t line_bytes = 64;
  size_t ways = 8;
  Cycles hit_latency = 4;

  size_t num_sets() const { return size_bytes / (line_bytes * ways); }
};

struct CacheStats {
  u64 hits = 0;
  u64 misses = 0;
  u64 evictions = 0;

  double hit_rate() const {
    const u64 total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
  }
};

class Cache {
 public:
  // Aborts, in every build type, unless `line_bytes` and the set count are
  // powers of two: set index and tag are then a shift and a mask.
  explicit Cache(const CacheConfig& config, std::string name = "cache");

  // Looks up `addr`; on miss the line is installed (possibly evicting LRU).
  // Returns true on hit.
  bool Access(PhysAddr addr) {
    const size_t set = SetIndex(addr);
    const u64 tag = Tag(addr);
    Line* base = &lines_[set * config_.ways];
    for (size_t w = 0; w < config_.ways; ++w) {
      if (base[w].valid && base[w].tag == tag) {
        base[w].lru = ++use_counter_;
        ++stats_.hits;
        return true;
      }
    }
    Fill(base, set, tag);
    return false;
  }

  // Lookup without installing or touching LRU state (used by tests).
  bool Probe(PhysAddr addr) const;

  // Invalidate everything (microarchitectural flush).
  void Flush();

  // Invalidate one line if present; returns true if it was present.
  bool Invalidate(PhysAddr addr);

  // Inclusive-hierarchy support: called with the base address of every line
  // this cache evicts, so an L3 can back-invalidate the private caches above
  // it (the property classic prime+probe attacks depend on).
  void set_eviction_hook(std::function<void(PhysAddr)> hook) {
    eviction_hook_ = std::move(hook);
  }

  const CacheConfig& config() const { return config_; }
  const CacheStats& stats() const { return stats_; }
  const std::string& name() const { return name_; }
  Cycles hit_latency() const { return config_.hit_latency; }

 private:
  // All-zero bytes are an invalid line, so the line array starts (and a
  // Flush leaves it) as untouched zero pages.
  struct Line {
    u64 tag;
    bool valid;
    u64 lru;  // larger = more recently used
  };

  size_t SetIndex(PhysAddr addr) const { return (addr >> line_shift_) & set_mask_; }
  u64 Tag(PhysAddr addr) const { return addr >> tag_shift_; }

  // Miss path: installs `tag` in an invalid way, else the least recently
  // used one, reporting a valid victim to the eviction hook.
  void Fill(Line* set_lines, size_t set, u64 tag);

  CacheConfig config_;
  std::string name_;
  unsigned line_shift_ = 0;
  unsigned tag_shift_ = 0;
  size_t set_mask_ = 0;
  ZeroPageVector<Line> lines_;  // num_sets * ways, row-major by set
  u64 use_counter_ = 0;
  CacheStats stats_;
  std::function<void(PhysAddr)> eviction_hook_;
};

// The per-core private portion of a hierarchy: L1i, L1d, unified L2.
struct CoreCaches {
  Cache l1i;
  Cache l1d;
  Cache l2;

  CoreCaches(const CacheConfig& l1i_cfg, const CacheConfig& l1d_cfg,
             const CacheConfig& l2_cfg)
      : l1i(l1i_cfg, "l1i"), l1d(l1d_cfg, "l1d"), l2(l2_cfg, "l2") {}

  void Flush() {
    l1i.Flush();
    l1d.Flush();
    l2.Flush();
  }
};

// A full lookup path: L1 -> L2 -> (shared) L3 -> DRAM. The L3 pointer may be
// shared between complexes only in the co-tenant baseline configuration; a
// Guillotine build gives each complex its own L3.
struct MemoryPathConfig {
  Cycles dram_latency = 200;
};

// The L2 -> L3 -> DRAM part of a lookup, after `l1` missed.
Cycles AccessAfterL1Miss(const Cache& l1, Cache& l2, Cache* l3, PhysAddr addr,
                         const MemoryPathConfig& path);

// Computes the access latency and updates all cache levels.
// `l3` may be null (no L3 level, straight to DRAM).
inline Cycles AccessThroughHierarchy(Cache& l1, Cache& l2, Cache* l3, PhysAddr addr,
                                     const MemoryPathConfig& path) {
  if (l1.Access(addr)) {
    return l1.hit_latency();
  }
  return AccessAfterL1Miss(l1, l2, l3, addr, path);
}

}  // namespace guillotine

#endif  // SRC_MEM_CACHE_H_
