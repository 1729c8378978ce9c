// Unit tests for src/crypto: SHA-256 against FIPS vectors and the scalar core
// against the SHA-NI core, HMAC against RFC 4231 vectors, SimSig properties,
// certificates, attestation.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/common/rng.h"
#include "src/crypto/attest.h"
#include "src/crypto/cert.h"
#include "src/crypto/hmac.h"
#include "src/crypto/sha256.h"
#include "src/crypto/sha256_internal.h"
#include "src/crypto/simsig.h"

namespace guillotine {
namespace {

TEST(Sha256Test, EmptyString) {
  EXPECT_EQ(DigestHex(Sha256::Hash("")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, Abc) {
  EXPECT_EQ(DigestHex(Sha256::Hash("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, TwoBlockMessage) {
  EXPECT_EQ(DigestHex(Sha256::Hash(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, IncrementalMatchesOneShot) {
  Sha256 h;
  h.Update("hello ");
  h.Update("wor");
  h.Update("ld");
  EXPECT_EQ(DigestHex(h.Finalize()), DigestHex(Sha256::Hash("hello world")));
}

TEST(Sha256Test, MillionAs) {
  // FIPS 180-4 long-message vector.
  Sha256 h;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) {
    h.Update(chunk);
  }
  EXPECT_EQ(DigestHex(h.Finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

// --- Scalar vs SHA-NI compression cores. The scalar core is the oracle; the
// SHA-NI half of each test is skipped on CPUs without SHA extensions. ---

#if GUILLOTINE_SHA256_SHANI
constexpr Sha256::CompressFn kShaNiCore = sha256_internal::CompressShaNi;
#else
constexpr Sha256::CompressFn kShaNiCore = nullptr;
#endif

struct CoreRun {
  Sha256Digest digest;
  u64 compressions;
};

// Hashes `data` on `core`, feeding Update one chunk per entry of `splits`
// (ascending end offsets) and then the rest, and counts what it compressed.
CoreRun HashOnCore(Sha256::CompressFn core, std::span<const u8> data,
                   const std::vector<size_t>& splits = {}) {
  const u64 before = Sha256::compressions();
  Sha256 h = Sha256WithCore(core);
  size_t start = 0;
  for (const size_t end : splits) {
    h.Update(data.subspan(start, end - start));
    start = end;
  }
  h.Update(data.subspan(start));
  const Sha256Digest digest = h.Finalize();
  return {digest, Sha256::compressions() - before};
}

Bytes RandomBytes(Rng& rng, size_t n) {
  Bytes out(n);
  for (u8& b : out) {
    b = static_cast<u8>(rng.Next());
  }
  return out;
}

// The message plus at least 9 bytes of padding, in whole blocks.
u64 BlocksFor(size_t len) { return (len + 9 + 63) / 64; }

TEST(Sha256CoreTest, DispatchFollowsCpuid) {
  if (sha256_internal::CpuHasShaNi()) {
    EXPECT_EQ(sha256_internal::SelectedCore(), kShaNiCore);
  } else {
    EXPECT_EQ(sha256_internal::SelectedCore(), &sha256_internal::CompressScalar);
  }
}

TEST(Sha256CoreTest, FipsVectorsOnBothCores) {
  const std::string million_as(1'000'000, 'a');
  const std::pair<std::string_view, std::string_view> vectors[] = {
      {"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
      {"abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"},
      {"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
       "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"},
      {million_as, "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"},
  };
  const bool shani = sha256_internal::CpuHasShaNi();
  for (const auto& [message, hex] : vectors) {
    const std::span<const u8> data(reinterpret_cast<const u8*>(message.data()),
                                   message.size());
    const CoreRun scalar = HashOnCore(sha256_internal::CompressScalar, data);
    EXPECT_EQ(DigestHex(scalar.digest), hex);
    EXPECT_EQ(scalar.compressions, BlocksFor(message.size()));
    if (shani) {
      const CoreRun fast = HashOnCore(kShaNiCore, data);
      EXPECT_EQ(DigestHex(fast.digest), hex);
      EXPECT_EQ(fast.compressions, scalar.compressions);
    }
  }
  if (!shani) {
    GTEST_SKIP() << "CPU has no SHA extensions: scalar half only";
  }
}

TEST(Sha256CoreTest, RandomLengthsUpTo4KiBMatchScalar) {
  Rng rng(1804);
  std::vector<size_t> lengths;
  for (size_t len = 0; len <= 200; ++len) {
    lengths.push_back(len);  // every padding case, up to four blocks
  }
  for (int i = 0; i < 300; ++i) {
    lengths.push_back(rng.NextBelow(4096 + 1));
  }
  lengths.push_back(4096);
  const bool shani = sha256_internal::CpuHasShaNi();
  for (const size_t len : lengths) {
    const Bytes data = RandomBytes(rng, len);
    const CoreRun scalar = HashOnCore(sha256_internal::CompressScalar, data);
    EXPECT_EQ(scalar.compressions, BlocksFor(len)) << "len=" << len;
    if (shani) {
      const CoreRun fast = HashOnCore(kShaNiCore, data);
      EXPECT_EQ(DigestHex(fast.digest), DigestHex(scalar.digest)) << "len=" << len;
      EXPECT_EQ(fast.compressions, scalar.compressions) << "len=" << len;
    }
  }
  if (!shani) {
    GTEST_SKIP() << "CPU has no SHA extensions: scalar half only";
  }
}

TEST(Sha256CoreTest, RandomSplitsAndUnalignedStartsMatchOneShot) {
  Rng rng(4231);
  const Bytes pool = RandomBytes(rng, 4096 + 64);
  const bool shani = sha256_internal::CpuHasShaNi();
  for (int trial = 0; trial < 400; ++trial) {
    // Start anywhere in the first block so loads are unaligned.
    const size_t start = rng.NextBelow(64);
    const size_t len = rng.NextBelow(4096 + 1);
    const std::span<const u8> data(pool.data() + start, len);
    std::vector<size_t> splits;
    const size_t count = len == 0 ? 0 : rng.NextBelow(9);
    for (size_t i = 0; i < count; ++i) {
      splits.push_back(rng.NextBelow(len + 1));
    }
    if (len > 130) {
      // A chunk that straddles a block boundary: 63..65 bytes in.
      splits.push_back(63 + rng.NextBelow(3));
    }
    std::sort(splits.begin(), splits.end());
    const CoreRun oracle = HashOnCore(sha256_internal::CompressScalar, data);
    const CoreRun scalar = HashOnCore(sha256_internal::CompressScalar, data, splits);
    EXPECT_EQ(DigestHex(scalar.digest), DigestHex(oracle.digest)) << "trial " << trial;
    EXPECT_EQ(scalar.compressions, oracle.compressions) << "trial " << trial;
    if (shani) {
      const CoreRun fast = HashOnCore(kShaNiCore, data, splits);
      EXPECT_EQ(DigestHex(fast.digest), DigestHex(oracle.digest)) << "trial " << trial;
      EXPECT_EQ(fast.compressions, oracle.compressions) << "trial " << trial;
    }
  }
  if (!shani) {
    GTEST_SKIP() << "CPU has no SHA extensions: scalar half only";
  }
}

TEST(Sha256CoreTest, OneMiBImageMatchesScalar) {
  // The size of a model-DRAM image: one multi-block run of 16,384 blocks.
  Rng rng(1 << 20);
  const Bytes image = RandomBytes(rng, 1 << 20);
  const CoreRun scalar = HashOnCore(sha256_internal::CompressScalar, image);
  EXPECT_EQ(scalar.compressions, (1u << 20) / 64 + 1);
  if (!sha256_internal::CpuHasShaNi()) {
    GTEST_SKIP() << "CPU has no SHA extensions: scalar half only";
  }
  const CoreRun fast = HashOnCore(kShaNiCore, image);
  EXPECT_EQ(DigestHex(fast.digest), DigestHex(scalar.digest));
  EXPECT_EQ(fast.compressions, scalar.compressions);
}

TEST(HmacTest, Rfc4231Case1) {
  const Bytes key(20, 0x0b);
  EXPECT_EQ(HexEncode(HmacSha256(key, ToBytes("Hi There"))),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(HmacTest, Rfc4231Case2) {
  EXPECT_EQ(HexEncode(HmacSha256("Jefe", "what do ya want for nothing?")),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(HmacTest, LongKeyIsHashed) {
  const Bytes key(131, 0xaa);
  // RFC 4231 test case 6.
  EXPECT_EQ(HexEncode(HmacSha256(
                key, ToBytes("Test Using Larger Than Block-Size Key - Hash Key First"))),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(HmacTest, HmacKeyMatchesHmacSha256ByteForByte) {
  // The precomputed-pad fast path must be a pure optimization: identical
  // output to the two-pass HMAC for short keys, long (hashed) keys, and
  // empty messages alike.
  const Bytes short_key(20, 0x0b);
  const Bytes long_key(131, 0xaa);
  const Bytes messages[] = {ToBytes(""), ToBytes("Hi There"),
                            Bytes(200, 0x42)};
  for (const Bytes& key : {short_key, long_key}) {
    const HmacKey cached(key);
    for (const Bytes& msg : messages) {
      EXPECT_EQ(HexEncode(cached.Mac(msg)), HexEncode(HmacSha256(key, msg)));
    }
  }
}

TEST(HmacTest, HmacKeySkipsPadCompressionsOnReuse) {
  const Bytes key(32, 0x5c);
  const Bytes msg = ToBytes("short record tag input");
  const HmacKey cached(key);
  const u64 before_cached = Sha256::compressions();
  cached.Mac(msg);
  const u64 cached_cost = Sha256::compressions() - before_cached;
  const u64 before_fresh = Sha256::compressions();
  HmacSha256(key, msg);
  const u64 fresh_cost = Sha256::compressions() - before_fresh;
  // A fresh HMAC pays two extra pad-absorption compressions every call; the
  // cached key paid them once at construction.
  EXPECT_EQ(cached_cost + 2, fresh_cost);
}

TEST(HmacTest, DigestEqualConstantStructure) {
  const Sha256Digest a = Sha256::Hash("x");
  Sha256Digest b = a;
  EXPECT_TRUE(DigestEqual(a, b));
  b[31] ^= 1;
  EXPECT_FALSE(DigestEqual(a, b));
}

TEST(SimSigTest, PowModMatchesKnownValues) {
  EXPECT_EQ(PowMod(2, 10, 1'000'000'007ULL), 1024u);
  EXPECT_EQ(PowMod(7, 0, 13), 1u);
  EXPECT_EQ(MulMod(0xFFFFFFFFFFFFULL, 0xFFFFFFFFFFFFULL, 1'000'000'007ULL),
            (static_cast<unsigned __int128>(0xFFFFFFFFFFFFULL) * 0xFFFFFFFFFFFFULL) %
                1'000'000'007ULL);
}

TEST(SimSigTest, PrimalityKnownCases) {
  EXPECT_TRUE(IsPrime(2));
  EXPECT_TRUE(IsPrime(3));
  EXPECT_FALSE(IsPrime(1));
  EXPECT_FALSE(IsPrime(561));  // Carmichael number
  EXPECT_TRUE(IsPrime(1'000'000'007ULL));
  EXPECT_TRUE(IsPrime(0xFFFFFFFFFFFFFFC5ULL));  // largest 64-bit prime
  EXPECT_FALSE(IsPrime(0xFFFFFFFFFFFFFFC4ULL));
}

TEST(SimSigTest, SignVerifyRoundTrip) {
  Rng rng(1);
  const SimSigKeyPair kp = GenerateKeyPair(rng);
  const SimSignature sig = Sign(kp, "attest this");
  EXPECT_TRUE(Verify(kp.pub, "attest this", sig));
}

TEST(SimSigTest, RejectsTamperedMessage) {
  Rng rng(2);
  const SimSigKeyPair kp = GenerateKeyPair(rng);
  const SimSignature sig = Sign(kp, "original");
  EXPECT_FALSE(Verify(kp.pub, "tampered", sig));
}

TEST(SimSigTest, RejectsWrongKey) {
  Rng rng(3);
  const SimSigKeyPair kp1 = GenerateKeyPair(rng);
  const SimSigKeyPair kp2 = GenerateKeyPair(rng);
  const SimSignature sig = Sign(kp1, "msg");
  EXPECT_FALSE(Verify(kp2.pub, "msg", sig));
}

TEST(SimSigTest, RejectsForgedSignatureValue) {
  Rng rng(4);
  const SimSigKeyPair kp = GenerateKeyPair(rng);
  SimSignature sig = Sign(kp, "msg");
  sig.value ^= 1;
  EXPECT_FALSE(Verify(kp.pub, "msg", sig));
}

// Property sweep: sign/verify holds across many keys and messages.
class SimSigProperty : public ::testing::TestWithParam<u64> {};

TEST_P(SimSigProperty, RoundTripAndTamperDetection) {
  Rng rng(GetParam());
  const SimSigKeyPair kp = GenerateKeyPair(rng);
  for (int i = 0; i < 8; ++i) {
    const std::string msg = "message-" + std::to_string(GetParam()) + "-" +
                            std::to_string(i);
    const SimSignature sig = Sign(kp, msg);
    EXPECT_TRUE(Verify(kp.pub, msg, sig));
    EXPECT_FALSE(Verify(kp.pub, msg + "!", sig));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimSigProperty,
                         ::testing::Values(10, 11, 12, 13, 14, 15, 16, 17));

Certificate MakeTestCert(const SimSigKeyPair& issuer, const SimSigPublicKey& subject_key,
                         bool guillotine) {
  Certificate cert;
  cert.serial = 77;
  cert.subject = "hv.example";
  cert.issuer = "regulator";
  cert.subject_key = subject_key;
  cert.not_before = 100;
  cert.not_after = 10'000;
  if (guillotine) {
    cert.extensions.push_back(CertExtension{std::string(kGuillotineExtensionKey),
                                            std::string(kGuillotineExtensionValue)});
  }
  SignCertificate(cert, issuer);
  return cert;
}

TEST(CertTest, VerifiesWithinValidity) {
  Rng rng(20);
  const SimSigKeyPair ca = GenerateKeyPair(rng);
  const SimSigKeyPair subject = GenerateKeyPair(rng);
  const Certificate cert = MakeTestCert(ca, subject.pub, true);
  EXPECT_TRUE(VerifyCertificate(cert, ca.pub, 500).ok());
  EXPECT_TRUE(cert.IsGuillotineHypervisor());
}

TEST(CertTest, RejectsOutsideValidityWindow) {
  Rng rng(21);
  const SimSigKeyPair ca = GenerateKeyPair(rng);
  const SimSigKeyPair subject = GenerateKeyPair(rng);
  const Certificate cert = MakeTestCert(ca, subject.pub, false);
  EXPECT_FALSE(VerifyCertificate(cert, ca.pub, 50).ok());     // too early
  EXPECT_FALSE(VerifyCertificate(cert, ca.pub, 20'000).ok()); // expired
}

TEST(CertTest, RejectsWrongIssuer) {
  Rng rng(22);
  const SimSigKeyPair ca = GenerateKeyPair(rng);
  const SimSigKeyPair other = GenerateKeyPair(rng);
  const SimSigKeyPair subject = GenerateKeyPair(rng);
  const Certificate cert = MakeTestCert(ca, subject.pub, false);
  EXPECT_FALSE(VerifyCertificate(cert, other.pub, 500).ok());
}

TEST(CertTest, TamperedExtensionInvalidatesSignature) {
  Rng rng(23);
  const SimSigKeyPair ca = GenerateKeyPair(rng);
  const SimSigKeyPair subject = GenerateKeyPair(rng);
  Certificate cert = MakeTestCert(ca, subject.pub, false);
  cert.extensions.push_back(CertExtension{std::string(kGuillotineExtensionKey), "v1"});
  EXPECT_FALSE(VerifyCertificate(cert, ca.pub, 500).ok());
}

TEST(AttestTest, MeasurementOrderMatters) {
  MeasurementRegister a, b;
  a.Extend("silicon", "id=1");
  a.Extend("hv", "v1.0");
  b.Extend("hv", "v1.0");
  b.Extend("silicon", "id=1");
  EXPECT_FALSE(DigestEqual(a.value(), b.value()));
}

TEST(AttestTest, QuoteVerifies) {
  Rng rng(30);
  const SimSigKeyPair device = GenerateKeyPair(rng);
  MeasurementRegister reg;
  reg.Extend("silicon", "id=1");
  AttestationVerifier verifier;
  verifier.TrustMeasurement("platform", reg.value());
  verifier.TrustDeviceKey(device.pub);
  const AttestationQuote quote = MakeQuote(reg, 999, true, device);
  EXPECT_TRUE(verifier.VerifyQuote(quote, 999).ok());
}

TEST(AttestTest, RejectsNonceReplay) {
  Rng rng(31);
  const SimSigKeyPair device = GenerateKeyPair(rng);
  MeasurementRegister reg;
  reg.Extend("silicon", "id=1");
  AttestationVerifier verifier;
  verifier.TrustMeasurement("platform", reg.value());
  verifier.TrustDeviceKey(device.pub);
  const AttestationQuote quote = MakeQuote(reg, 999, true, device);
  EXPECT_FALSE(verifier.VerifyQuote(quote, 1000).ok());
}

TEST(AttestTest, RejectsUnknownMeasurement) {
  Rng rng(32);
  const SimSigKeyPair device = GenerateKeyPair(rng);
  MeasurementRegister reg;
  reg.Extend("silicon", "id=1");
  MeasurementRegister rogue;
  rogue.Extend("silicon", "id=EVIL");
  AttestationVerifier verifier;
  verifier.TrustMeasurement("platform", reg.value());
  verifier.TrustDeviceKey(device.pub);
  const AttestationQuote quote = MakeQuote(rogue, 5, true, device);
  EXPECT_FALSE(verifier.VerifyQuote(quote, 5).ok());
}

TEST(AttestTest, RejectsBrokenTamperSeal) {
  Rng rng(33);
  const SimSigKeyPair device = GenerateKeyPair(rng);
  MeasurementRegister reg;
  reg.Extend("silicon", "id=1");
  AttestationVerifier verifier;
  verifier.TrustMeasurement("platform", reg.value());
  verifier.TrustDeviceKey(device.pub);
  const AttestationQuote quote = MakeQuote(reg, 5, /*seal_intact=*/false, device);
  EXPECT_FALSE(verifier.VerifyQuote(quote, 5).ok());
}

TEST(AttestTest, RejectsUntrustedDeviceKey) {
  Rng rng(34);
  const SimSigKeyPair device = GenerateKeyPair(rng);
  const SimSigKeyPair rogue = GenerateKeyPair(rng);
  MeasurementRegister reg;
  reg.Extend("silicon", "id=1");
  AttestationVerifier verifier;
  verifier.TrustMeasurement("platform", reg.value());
  verifier.TrustDeviceKey(device.pub);
  const AttestationQuote quote = MakeQuote(reg, 5, true, rogue);
  EXPECT_FALSE(verifier.VerifyQuote(quote, 5).ok());
}

}  // namespace
}  // namespace guillotine
