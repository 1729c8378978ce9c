// SHA-256 (FIPS 180-4). Implemented from scratch; used for attestation
// measurements, certificate fingerprints, and SimSig digests. The compression
// core is picked once per process from CPUID: x86 SHA extensions when the CPU
// has them, else the portable scalar core. Both produce identical digests.
#ifndef SRC_CRYPTO_SHA256_H_
#define SRC_CRYPTO_SHA256_H_

#include <array>
#include <span>
#include <string>
#include <string_view>

#include "src/common/bytes.h"
#include "src/common/types.h"

namespace guillotine {

using Sha256Digest = std::array<u8, 32>;

// Incremental hasher.
class Sha256 {
 public:
  // A compression core: absorbs `nblocks` consecutive 64-byte blocks.
  using CompressFn = void (*)(std::array<u32, 8>& state, const u8* data, size_t nblocks);

  Sha256();

  void Update(std::span<const u8> data);
  void Update(std::string_view data);
  Sha256Digest Finalize();

  // One-shot helpers.
  static Sha256Digest Hash(std::span<const u8> data);
  static Sha256Digest Hash(std::string_view data);

  // Process-wide count of 64-byte compression rounds since startup. The
  // simulation's crypto cost models charge cycles per compression, so a
  // delta of this counter around a Seal/Open/Handshake is the honest "how
  // much hashing did that actually take" measurement (single-threaded sim;
  // no synchronization).
  static u64 compressions();

 private:
  // Test seam for src/crypto/sha256_internal.h: a hasher on a given core.
  friend Sha256 Sha256WithCore(CompressFn core);
  explicit Sha256(CompressFn core);

  // Counts the blocks, then runs them through `core_` in one call.
  void Compress(const u8* data, size_t nblocks);

  CompressFn core_;
  std::array<u32, 8> state_;
  std::array<u8, 64> buffer_;
  size_t buffer_len_ = 0;
  u64 total_len_ = 0;
};

std::string DigestHex(const Sha256Digest& d);
// First 8 bytes of the digest as a little-endian u64 (for compact IDs).
u64 DigestPrefix64(const Sha256Digest& d);
// First 8 bytes packed most-significant-first: rendering the value as 16 hex
// digits reproduces DigestHex(d).substr(0, 16), which lets trace events carry
// a digest prefix as one inline u64 instead of a heap string.
u64 DigestPrefixBe64(const Sha256Digest& d);

}  // namespace guillotine

#endif  // SRC_CRYPTO_SHA256_H_
