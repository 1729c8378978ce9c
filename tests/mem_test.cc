// Unit tests for src/mem: DRAM, caches, TLB, MMU paging + exec lockdown.
#include <gtest/gtest.h>

#include <algorithm>
#include <type_traits>
#include <utility>

#include "src/mem/cache.h"
#include "src/mem/dram.h"
#include "src/mem/mmu.h"
#include "src/mem/zero_pages.h"

namespace guillotine {
namespace {

TEST(DramTest, ScalarRoundTrip) {
  Dram dram(4096);
  ASSERT_TRUE(dram.Write64(8, 0x1122334455667788ULL));
  u64 v = 0;
  ASSERT_TRUE(dram.Read64(8, v));
  EXPECT_EQ(v, 0x1122334455667788ULL);
  u8 lo = 0;
  ASSERT_TRUE(dram.Read8(8, lo));
  EXPECT_EQ(lo, 0x88);  // little-endian
}

TEST(DramTest, BoundsChecked) {
  Dram dram(16);
  u64 v = 0;
  EXPECT_FALSE(dram.Read64(9, v));
  EXPECT_FALSE(dram.Write64(16, 1));
  EXPECT_TRUE(dram.Read64(8, v));
}

TEST(DramTest, BlockOps) {
  Dram dram(64);
  const Bytes data = {1, 2, 3, 4, 5};
  EXPECT_TRUE(dram.WriteBlock(10, data).ok());
  Bytes out(5);
  EXPECT_TRUE(dram.ReadBlock(10, out).ok());
  EXPECT_EQ(out, data);
  EXPECT_FALSE(dram.WriteBlock(62, data).ok());
}

TEST(DramTest, ClearZeroes) {
  Dram dram(32);
  dram.Write64(0, ~0ULL);
  dram.Clear();
  u64 v = 1;
  dram.Read64(0, v);
  EXPECT_EQ(v, 0u);
}

// A module owns its mapping: copying one would double-unmap it.
static_assert(!std::is_copy_constructible_v<Dram>);
static_assert(!std::is_copy_assignable_v<Dram>);

TEST(DramTest, LargeModuleStartsAllZeroUpToItsLastByte) {
  // Not a whole number of pages, so the tail page is partial.
  const size_t size = (16u << 20) + 100;
  Dram dram(size, "hv_dram");
  EXPECT_EQ(dram.size(), size);
  EXPECT_EQ(dram.raw().size(), size);
  const std::span<const u8> bytes = std::as_const(dram).raw();
  EXPECT_TRUE(std::all_of(bytes.begin(), bytes.end(), [](u8 b) { return b == 0; }));
  ASSERT_TRUE(dram.Write8(size - 1, 0xAB));
  u8 last = 0;
  ASSERT_TRUE(dram.Read8(size - 1, last));
  EXPECT_EQ(last, 0xAB);
  u16 past = 0;
  EXPECT_FALSE(dram.Read16(size - 1, past));
  EXPECT_FALSE(dram.InBounds(~0ULL - 3, 8));  // wraps
}

TEST(DramTest, ClearZeroesEveryTouchedPage) {
  Dram dram(64 * 1024);
  for (PhysAddr addr = 0; addr < dram.size(); addr += 4096 + 8) {
    ASSERT_TRUE(dram.Write64(addr, ~0ULL));
  }
  dram.Clear();
  const std::span<const u8> bytes = std::as_const(dram).raw();
  EXPECT_TRUE(std::all_of(bytes.begin(), bytes.end(), [](u8 b) { return b == 0; }));
}

TEST(DramTest, ZeroSizedModuleRefusesEveryAccess) {
  Dram dram(0);
  EXPECT_EQ(dram.size(), 0u);
  EXPECT_TRUE(dram.raw().empty());
  u8 v = 0;
  EXPECT_FALSE(dram.Read8(0, v));
  EXPECT_FALSE(dram.Write8(0, 1));
  Bytes one(1);
  EXPECT_FALSE(dram.ReadBlock(0, one).ok());
  dram.Clear();
}

TEST(DramTest, ClearAfterWritingEveryPageReadsZeroEverywhere) {
  // Every byte of every page (and of the partial tail page) is written, so
  // Clear has to drop or zero each one of them.
  Dram dram(32 * kHostPageBytes + 100);
  const Bytes ones(dram.size(), 0xFF);
  ASSERT_TRUE(dram.WriteBlock(0, ones).ok());
  dram.Clear();
  Bytes out(dram.size(), 0xAA);
  ASSERT_TRUE(dram.ReadBlock(0, out).ok());
  EXPECT_TRUE(std::all_of(out.begin(), out.end(), [](u8 b) { return b == 0; }));
  // The module stays usable after its pages were handed back.
  ASSERT_TRUE(dram.Write64(5 * kHostPageBytes, 0x1234));
  u64 v = 0;
  ASSERT_TRUE(dram.Read64(5 * kHostPageBytes, v));
  EXPECT_EQ(v, 0x1234u);
}

TEST(DramTest, BlockCopiesOverwriteNonZeroPagesWithZeroPages) {
  // A whole zero page is skipped only when the destination page is zero
  // too; everywhere else a block copy is a plain byte copy.
  Dram dram(5 * kHostPageBytes);
  ASSERT_TRUE(dram.WriteBlock(0, Bytes(dram.size(), 0x5A)).ok());
  Bytes image(3 * kHostPageBytes + 10, 0);
  image[kHostPageBytes + 7] = 0x11;   // page 1 non-zero, pages 0 and 2 zero
  image[3 * kHostPageBytes + 9] = 0x22;  // partial tail
  ASSERT_TRUE(dram.WriteBlock(kHostPageBytes, image).ok());
  Bytes back(dram.size(), 0xAA);
  ASSERT_TRUE(dram.ReadBlock(0, back).ok());
  Bytes expected(dram.size(), 0x5A);
  std::copy(image.begin(), image.end(), expected.begin() + kHostPageBytes);
  EXPECT_EQ(back, expected);
  // And a read of zero pages into a dirty buffer zeroes the buffer.
  dram.Clear();
  ASSERT_TRUE(dram.ReadBlock(0, back).ok());
  EXPECT_TRUE(std::all_of(back.begin(), back.end(), [](u8 b) { return b == 0; }));
}

TEST(ZeroPagesTest, SizedVectorStartsZeroAndZeroAllResetsIt) {
  ZeroPageVector<u64> v(3 * kHostPageBytes / sizeof(u64) + 5);
  EXPECT_TRUE(std::all_of(v.begin(), v.end(), [](u64 x) { return x == 0; }));
  std::fill(v.begin(), v.end(), ~0ULL);
  ZeroAll(v);
  EXPECT_TRUE(std::all_of(v.begin(), v.end(), [](u64 x) { return x == 0; }));
  ZeroPageVector<u8> empty;
  ZeroAll(empty);
  EXPECT_TRUE(empty.empty());
}

// The whole L3 of a default machine: 2 MiB, 64 B lines, 16 ways.
constexpr CacheConfig kL3Geometry{2 * 1024 * 1024, 64, 16, 40};

// Probes tag 0 in every set, the tag an all-zero line carries: a hit would
// mean a zero line counts as valid.
size_t ValidTagZeroSets(const Cache& cache) {
  size_t hits = 0;
  for (size_t set = 0; set < cache.config().num_sets(); ++set) {
    hits += cache.Probe(set * cache.config().line_bytes) ? 1 : 0;
  }
  return hits;
}

TEST(CacheTest, FreshL3GeometryProbesInvalidInEverySet) {
  Cache cache(kL3Geometry, "l3");
  EXPECT_EQ(ValidTagZeroSets(cache), 0u);
  // Filling one way of a set is a miss with no eviction in every set.
  for (size_t set = 0; set < kL3Geometry.num_sets(); ++set) {
    EXPECT_FALSE(cache.Access(set * kL3Geometry.line_bytes + (1ULL << 40)));
  }
  EXPECT_EQ(cache.stats().misses, kL3Geometry.num_sets());
  EXPECT_EQ(cache.stats().evictions, 0u);
}

TEST(CacheTest, FlushAfterFillsLeavesEveryLineInvalid) {
  Cache cache(kL3Geometry, "l3");
  const size_t span = kL3Geometry.size_bytes * 2;  // twice over: every way, then evictions
  for (PhysAddr addr = 0; addr < span; addr += kL3Geometry.line_bytes) {
    cache.Access(addr);
  }
  ASSERT_GT(cache.stats().evictions, 0u);
  ASSERT_TRUE(cache.Probe(span - kL3Geometry.line_bytes));
  cache.Flush();
  for (PhysAddr addr = 0; addr < span; addr += kL3Geometry.line_bytes) {
    ASSERT_FALSE(cache.Probe(addr)) << addr;
  }
  EXPECT_EQ(ValidTagZeroSets(cache), 0u);
  // Refilling a full cache's worth evicts nothing: every way was invalid.
  const u64 evictions = cache.stats().evictions;
  for (PhysAddr addr = 0; addr < kL3Geometry.size_bytes; addr += kL3Geometry.line_bytes) {
    EXPECT_FALSE(cache.Access(addr));
  }
  EXPECT_EQ(cache.stats().evictions, evictions);
}

TEST(CacheTest, MissThenHit) {
  Cache cache(CacheConfig{1024, 64, 2, 4});
  EXPECT_FALSE(cache.Access(0x100));
  EXPECT_TRUE(cache.Access(0x100));
  EXPECT_TRUE(cache.Access(0x13F));  // same line
  EXPECT_EQ(cache.stats().hits, 2u);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(CacheTest, LruEviction) {
  // 2-way, line 64, 2 sets (256 bytes total).
  Cache cache(CacheConfig{256, 64, 2, 4});
  // Three lines mapping to set 0: addresses 0, 128, 256.
  cache.Access(0);
  cache.Access(128);
  cache.Access(0);    // refresh line 0
  cache.Access(256);  // evicts 128 (LRU)
  EXPECT_TRUE(cache.Probe(0));
  EXPECT_FALSE(cache.Probe(128));
  EXPECT_TRUE(cache.Probe(256));
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(CacheTest, FlushInvalidatesAll) {
  Cache cache(CacheConfig{1024, 64, 2, 4});
  cache.Access(0);
  cache.Access(64);
  cache.Flush();
  EXPECT_FALSE(cache.Probe(0));
  EXPECT_FALSE(cache.Probe(64));
}

TEST(CacheTest, InvalidateSingleLine) {
  Cache cache(CacheConfig{1024, 64, 2, 4});
  cache.Access(0);
  cache.Access(64);
  EXPECT_TRUE(cache.Invalidate(0));
  EXPECT_FALSE(cache.Invalidate(0));
  EXPECT_FALSE(cache.Probe(0));
  EXPECT_TRUE(cache.Probe(64));
}

TEST(CacheTest, HierarchyLatencies) {
  Cache l1(CacheConfig{1024, 64, 2, 4});
  Cache l2(CacheConfig{4096, 64, 4, 12});
  Cache l3(CacheConfig{16384, 64, 8, 40});
  const MemoryPathConfig path{200};
  // Cold: L1 + L2 + L3 + DRAM.
  EXPECT_EQ(AccessThroughHierarchy(l1, l2, &l3, 0x40, path), 4u + 12 + 40 + 200);
  // Warm: L1 hit.
  EXPECT_EQ(AccessThroughHierarchy(l1, l2, &l3, 0x40, path), 4u);
  // No L3 configured: straight to DRAM on miss.
  Cache l1b(CacheConfig{1024, 64, 2, 4});
  Cache l2b(CacheConfig{4096, 64, 4, 12});
  EXPECT_EQ(AccessThroughHierarchy(l1b, l2b, nullptr, 0x40, path), 4u + 12 + 200);
}

TEST(CacheTest, L2CatchesL1Eviction) {
  // L1: 2 sets; L2 big enough to keep everything.
  Cache l1(CacheConfig{256, 64, 2, 4});
  Cache l2(CacheConfig{4096, 64, 4, 12});
  const MemoryPathConfig path{200};
  AccessThroughHierarchy(l1, l2, nullptr, 0, path);
  AccessThroughHierarchy(l1, l2, nullptr, 128, path);
  AccessThroughHierarchy(l1, l2, nullptr, 256, path);  // evicts 0 from L1
  // 0 now misses L1 but hits L2.
  EXPECT_EQ(AccessThroughHierarchy(l1, l2, nullptr, 0, path), 4u + 12);
}

// Set index and tag are a shift and a mask, so a geometry whose line size
// or set count is not a power of two is refused in every build type.
TEST(CacheDeathTest, RejectsNonPowerOfTwoGeometry) {
  EXPECT_DEATH({ Cache c(CacheConfig{384, 48, 2, 4}); }, "powers of two");  // 48 B lines
  EXPECT_DEATH({ Cache c(CacheConfig{384, 64, 2, 4}); }, "powers of two");  // 3 sets
  EXPECT_DEATH({ Cache c(CacheConfig{64, 64, 2, 4}); }, "powers of two");   // 0 sets
  EXPECT_DEATH({ Cache c(CacheConfig{1024, 64, 0, 4}); }, "powers of two"); // 0 ways
}

TEST(TlbTest, InsertLookupFlush) {
  Tlb tlb;
  tlb.Insert(0x1000, 0x5000, kPteRead | kPteWrite);
  const auto hit = tlb.Lookup(0x1234, AccessType::kLoad);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, 0x5234u);
  // Permission check on hit: no exec flag.
  EXPECT_FALSE(tlb.Lookup(0x1234, AccessType::kFetch).has_value());
  tlb.Flush();
  EXPECT_FALSE(tlb.Lookup(0x1234, AccessType::kLoad).has_value());
}

class MmuTest : public ::testing::Test {
 protected:
  MmuTest() : dram_(1 << 22) {}  // 4 MiB

  // Builds identity page tables at `root` covering [0, 4 MiB) with RWX
  // permissions given by flags per page index.
  void BuildIdentityTables(PhysAddr root, u64 flags, std::optional<u64> exec_page = {},
                           u64 exec_extra_flags = 0) {
    const PhysAddr l2 = root + kPageSize;
    dram_.Write64(root, MakePte(l2, false, false, false) | kPteValid);
    for (u64 i = 0; i < 1024; ++i) {
      u64 f = flags;
      if (exec_page.has_value() && i == *exec_page) {
        f |= exec_extra_flags;
      }
      dram_.Write64(l2 + i * 8, ((i << kPageBits) & ~0xFFFULL) | kPteValid | f);
    }
  }

  Dram dram_;
  Mmu mmu_;
  Tlb tlb_;
  ExecLockdown no_lockdown_;
};

TEST_F(MmuTest, BareModeIdentity) {
  const auto r = mmu_.Translate(0x1234, AccessType::kLoad, 0, dram_, no_lockdown_, tlb_);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.phys, 0x1234u);
  EXPECT_EQ(r.cost, 0u);
}

TEST_F(MmuTest, BareLockdownBlocksStoreIntoExecRegion) {
  ExecLockdown lockdown{true, 0x1000, 0x3000};
  auto r = mmu_.Translate(0x2000, AccessType::kStore, 0, dram_, lockdown, tlb_);
  EXPECT_EQ(r.fault, TrapCause::kStoreFault);
  // Loads from the execute-only region are also denied.
  r = mmu_.Translate(0x2000, AccessType::kLoad, 0, dram_, lockdown, tlb_);
  EXPECT_EQ(r.fault, TrapCause::kLoadFault);
  // Fetch inside is fine; fetch outside faults.
  r = mmu_.Translate(0x2000, AccessType::kFetch, 0, dram_, lockdown, tlb_);
  EXPECT_TRUE(r.ok());
  r = mmu_.Translate(0x4000, AccessType::kFetch, 0, dram_, lockdown, tlb_);
  EXPECT_EQ(r.fault, TrapCause::kFetchFault);
}

TEST_F(MmuTest, PagedTranslationWalksTables) {
  const PhysAddr root = 0x200000;
  BuildIdentityTables(root, kPteRead | kPteWrite);
  const u64 satp = root | kSatpEnableBit;
  const auto r = mmu_.Translate(0x3456, AccessType::kLoad, satp, dram_, no_lockdown_, tlb_);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.phys, 0x3456u);
  EXPECT_EQ(r.cost, 2 * Mmu::kWalkCostPerLevel);
  // Second access: TLB hit, no walk cost.
  const auto r2 = mmu_.Translate(0x3458, AccessType::kLoad, satp, dram_, no_lockdown_, tlb_);
  EXPECT_TRUE(r2.ok());
  EXPECT_EQ(r2.cost, 0u);
}

TEST_F(MmuTest, PagedPermissionFaults) {
  const PhysAddr root = 0x200000;
  BuildIdentityTables(root, kPteRead);  // read-only pages
  const u64 satp = root | kSatpEnableBit;
  EXPECT_EQ(mmu_.Translate(0x5000, AccessType::kStore, satp, dram_, no_lockdown_, tlb_).fault,
            TrapCause::kStoreFault);
  EXPECT_EQ(mmu_.Translate(0x5000, AccessType::kFetch, satp, dram_, no_lockdown_, tlb_).fault,
            TrapCause::kFetchFault);
}

TEST_F(MmuTest, InvalidPteFaults) {
  const PhysAddr root = 0x200000;
  // Only the L1 entry; L2 table left zeroed => invalid PTEs.
  dram_.Write64(root, ((root + kPageSize) & ~0xFFFULL) | kPteValid);
  const u64 satp = root | kSatpEnableBit;
  EXPECT_EQ(mmu_.Translate(0x1000, AccessType::kLoad, satp, dram_, no_lockdown_, tlb_).fault,
            TrapCause::kLoadFault);
}

TEST_F(MmuTest, LockdownInvalidatesForeignExecPte) {
  // Attack: model builds a PTE marking page 0x10 executable while the armed
  // region is pages [1,2). The MMU must treat that PTE as invalid.
  const PhysAddr root = 0x200000;
  BuildIdentityTables(root, kPteRead | kPteWrite, /*exec_page=*/0x10,
                      /*exec_extra_flags=*/kPteExec);
  ExecLockdown lockdown{true, 1 * kPageSize, 2 * kPageSize};
  const u64 satp = root | kSatpEnableBit;
  const auto r = mmu_.Translate(0x10 * kPageSize, AccessType::kFetch, satp, dram_,
                                lockdown, tlb_);
  EXPECT_EQ(r.fault, TrapCause::kFetchFault);
}

TEST_F(MmuTest, LockdownAllowsExecPteInsideRegion) {
  const PhysAddr root = 0x200000;
  BuildIdentityTables(root, kPteRead | kPteWrite, /*exec_page=*/1,
                      /*exec_extra_flags=*/kPteExec);
  ExecLockdown lockdown{true, 1 * kPageSize, 2 * kPageSize};
  const u64 satp = root | kSatpEnableBit;
  const auto r = mmu_.Translate(1 * kPageSize + 8, AccessType::kFetch, satp, dram_,
                                lockdown, tlb_);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.phys, 1 * kPageSize + 8);
}

TEST(MakePteTest, FieldPacking) {
  const u64 pte = MakePte(0x7000, true, false, true);
  EXPECT_TRUE(pte & kPteValid);
  EXPECT_TRUE(pte & kPteRead);
  EXPECT_FALSE(pte & kPteWrite);
  EXPECT_TRUE(pte & kPteExec);
  EXPECT_EQ((pte >> kPageBits) << kPageBits, 0x7000u);
}

}  // namespace
}  // namespace guillotine
