#include "src/crypto/sha256.h"

#include <algorithm>
#include <cstring>

#include "src/crypto/sha256_internal.h"

#if GUILLOTINE_SHA256_SHANI
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace guillotine {

namespace {

constexpr std::array<u32, 64> kK = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

u32 Rotr(u32 x, int n) { return (x >> n) | (x << (32 - n)); }

u64 g_compressions = 0;

}  // namespace

namespace sha256_internal {

void CompressScalar(std::array<u32, 8>& state, const u8* data, size_t nblocks) {
  for (; nblocks > 0; --nblocks, data += 64) {
    u32 w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = (static_cast<u32>(data[i * 4]) << 24) |
             (static_cast<u32>(data[i * 4 + 1]) << 16) |
             (static_cast<u32>(data[i * 4 + 2]) << 8) |
             static_cast<u32>(data[i * 4 + 3]);
    }
    for (int i = 16; i < 64; ++i) {
      const u32 s0 = Rotr(w[i - 15], 7) ^ Rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const u32 s1 = Rotr(w[i - 2], 17) ^ Rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }
    u32 a = state[0], b = state[1], c = state[2], d = state[3];
    u32 e = state[4], f = state[5], g = state[6], h = state[7];
    for (int i = 0; i < 64; ++i) {
      const u32 s1 = Rotr(e, 6) ^ Rotr(e, 11) ^ Rotr(e, 25);
      const u32 ch = (e & f) ^ (~e & g);
      const u32 temp1 = h + s1 + ch + kK[i] + w[i];
      const u32 s0 = Rotr(a, 2) ^ Rotr(a, 13) ^ Rotr(a, 22);
      const u32 maj = (a & b) ^ (a & c) ^ (b & c);
      const u32 temp2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + temp1;
      d = c;
      c = b;
      b = a;
      a = temp1 + temp2;
    }
    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

#if GUILLOTINE_SHA256_SHANI

// The SHA-NI round instructions keep the working variables as two vectors,
// ABEF and CDGH (most significant lane first); the message schedule runs four
// words per vector. The state is repacked once per call, not once per block,
// so a multi-block run stays in registers.
__attribute__((target("sha,sse4.1,ssse3"))) void CompressShaNi(
    std::array<u32, 8>& state, const u8* data, size_t nblocks) {
  // Byte-swaps each 32-bit lane: message words are big-endian.
  const __m128i bswap = _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  const __m128i dcba = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[0]));
  const __m128i hgfe = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[4]));
  const __m128i cdab = _mm_shuffle_epi32(dcba, 0xB1);
  const __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1B);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);
  for (; nblocks > 0; --nblocks, data += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    __m128i msg[4];
    for (int i = 0; i < 4; ++i) {
      msg[i] = _mm_shuffle_epi8(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16 * i)), bswap);
    }
#pragma GCC unroll 16
    for (int i = 0; i < 16; ++i) {
      // Words 4i..4i+3 overwrite words 4i-16..4i-13 in place.
      if (i >= 4) {
        const __m128i prev = msg[(i + 3) % 4];
        __m128i next = _mm_sha256msg1_epu32(msg[i % 4], msg[(i + 1) % 4]);
        next = _mm_add_epi32(next, _mm_alignr_epi8(prev, msg[(i + 2) % 4], 4));
        msg[i % 4] = _mm_sha256msg2_epu32(next, prev);
      }
      __m128i wk = _mm_add_epi32(
          msg[i % 4], _mm_loadu_si128(reinterpret_cast<const __m128i*>(&kK[4 * i])));
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
      wk = _mm_shuffle_epi32(wk, 0x0E);
      abef = _mm_sha256rnds2_epu32(abef, cdgh, wk);
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }
  const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[0]),
                   _mm_blend_epi16(feba, dchg, 0xF0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[4]),
                   _mm_alignr_epi8(dchg, feba, 8));
}

bool CpuHasShaNi() {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx)) {
    return false;
  }
  const bool ssse3 = (ecx & bit_SSSE3) != 0;
  const bool sse41 = (ecx & bit_SSE4_1) != 0;
  if (!__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx)) {
    return false;
  }
  const bool sha = (ebx & (1u << 29)) != 0;
  return sha && ssse3 && sse41;
}

Sha256::CompressFn SelectedCore() {
  static const Sha256::CompressFn core =
      CpuHasShaNi() ? CompressShaNi : CompressScalar;
  return core;
}

#else

bool CpuHasShaNi() { return false; }

Sha256::CompressFn SelectedCore() { return CompressScalar; }

#endif  // GUILLOTINE_SHA256_SHANI

}  // namespace sha256_internal

Sha256 Sha256WithCore(Sha256::CompressFn core) { return Sha256(core); }

u64 Sha256::compressions() { return g_compressions; }

Sha256::Sha256() : Sha256(sha256_internal::SelectedCore()) {}

Sha256::Sha256(CompressFn core)
    : core_(core),
      state_{0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c,
             0x1f83d9ab, 0x5be0cd19} {}

void Sha256::Compress(const u8* data, size_t nblocks) {
  g_compressions += nblocks;
  core_(state_, data, nblocks);
}

void Sha256::Update(std::span<const u8> data) {
  total_len_ += data.size();
  size_t offset = 0;
  if (buffer_len_ > 0) {
    const size_t take = std::min(data.size(), buffer_.size() - buffer_len_);
    std::memcpy(buffer_.data() + buffer_len_, data.data(), take);
    buffer_len_ += take;
    offset = take;
    if (buffer_len_ == 64) {
      Compress(buffer_.data(), 1);
      buffer_len_ = 0;
    }
  }
  const size_t nblocks = (data.size() - offset) / 64;
  if (nblocks > 0) {
    Compress(data.data() + offset, nblocks);
    offset += nblocks * 64;
  }
  if (offset < data.size()) {
    std::memcpy(buffer_.data(), data.data() + offset, data.size() - offset);
    buffer_len_ = data.size() - offset;
  }
}

void Sha256::Update(std::string_view data) {
  Update(std::span<const u8>(reinterpret_cast<const u8*>(data.data()), data.size()));
}

Sha256Digest Sha256::Finalize() {
  // 0x80, zeros up to 56 mod 64, then the big-endian bit length: the tail
  // fills the buffered block, or spills into one more when fewer than 9
  // bytes are left.
  const u64 bit_len = total_len_ * 8;
  std::array<u8, 128> tail{};
  const size_t tail_len = (buffer_len_ < 56 ? 64 : 128) - buffer_len_;
  tail[0] = 0x80;
  for (size_t i = 0; i < 8; ++i) {
    tail[tail_len - 8 + i] = static_cast<u8>(bit_len >> (56 - 8 * i));
  }
  Update(std::span<const u8>(tail.data(), tail_len));
  Sha256Digest out;
  for (int i = 0; i < 8; ++i) {
    out[i * 4] = static_cast<u8>(state_[i] >> 24);
    out[i * 4 + 1] = static_cast<u8>(state_[i] >> 16);
    out[i * 4 + 2] = static_cast<u8>(state_[i] >> 8);
    out[i * 4 + 3] = static_cast<u8>(state_[i]);
  }
  return out;
}

Sha256Digest Sha256::Hash(std::span<const u8> data) {
  Sha256 h;
  h.Update(data);
  return h.Finalize();
}

Sha256Digest Sha256::Hash(std::string_view data) {
  Sha256 h;
  h.Update(data);
  return h.Finalize();
}

std::string DigestHex(const Sha256Digest& d) {
  return HexEncode(std::span<const u8>(d.data(), d.size()));
}

u64 DigestPrefix64(const Sha256Digest& d) {
  u64 v = 0;
  for (int i = 7; i >= 0; --i) {
    v = (v << 8) | d[i];
  }
  return v;
}

u64 DigestPrefixBe64(const Sha256Digest& d) {
  u64 v = 0;
  for (int i = 0; i < 8; ++i) {
    v = (v << 8) | d[i];
  }
  return v;
}

}  // namespace guillotine
