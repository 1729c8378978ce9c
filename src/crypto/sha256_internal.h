// SHA-256 compression cores and their runtime selection. Private to
// src/crypto and its tests: the differential test runs both cores side by
// side; nothing else picks a core.
#ifndef SRC_CRYPTO_SHA256_INTERNAL_H_
#define SRC_CRYPTO_SHA256_INTERNAL_H_

#include "src/crypto/sha256.h"

// The SHA-NI core is built for x86-64 with a GNU-compatible compiler only.
#if defined(__x86_64__) && defined(__GNUC__)
#define GUILLOTINE_SHA256_SHANI 1
#else
#define GUILLOTINE_SHA256_SHANI 0
#endif

namespace guillotine {

namespace sha256_internal {

// Portable FIPS 180-4 compression: the fallback and the test oracle.
void CompressScalar(std::array<u32, 8>& state, const u8* data, size_t nblocks);

#if GUILLOTINE_SHA256_SHANI
// x86 SHA extensions. Call only when CpuHasShaNi() is true.
void CompressShaNi(std::array<u32, 8>& state, const u8* data, size_t nblocks);
#endif

// CPUID: leaf 7 EBX bit 29 (SHA) plus SSSE3 and SSE4.1. False in builds
// without the SHA-NI core.
bool CpuHasShaNi();

// The core every default-constructed Sha256 uses: CompressShaNi when
// CpuHasShaNi(), else CompressScalar. Decided once per process.
Sha256::CompressFn SelectedCore();

}  // namespace sha256_internal

// A fresh hasher that runs `core` instead of SelectedCore().
Sha256 Sha256WithCore(Sha256::CompressFn core);

}  // namespace guillotine

#endif  // SRC_CRYPTO_SHA256_INTERNAL_H_
