// Model state snapshots: the Severed-isolation forensics tool.
//
// Paper section 3.4: at Severed, model cores stay powered "so that
// hypervisor cores can examine model DRAM and registers, or perform
// higher-level interactions with the model via simulated IOs or direct
// manipulation of model state". A snapshot captures the complete
// architectural state + DRAM image over the private buses, sealed with a
// digest so a later restore (or an auditor) can prove integrity.
#ifndef SRC_HV_SNAPSHOT_H_
#define SRC_HV_SNAPSHOT_H_

#include "src/crypto/hmac.h"
#include "src/crypto/sha256.h"
#include "src/hv/hypervisor.h"
#include "src/mem/zero_pages.h"

namespace guillotine {

// The seal hashes model DRAM as a sequence of page leaves (see
// ModelSnapshot::ComputeDigest).
inline constexpr size_t kSnapshotPageBytes = 4096;

// SHA-256 of kSnapshotPageBytes zero bytes: the leaf of every all-zero page.
// A literal rather than a value computed on first use, so the first seal in
// a process costs exactly as many compressions as every later one.
inline constexpr Sha256Digest kZeroPageLeaf = {
    0xad, 0x7f, 0xac, 0xb2, 0x58, 0x6f, 0xc6, 0xe9, 0x66, 0xc0, 0x04,
    0xd7, 0xd1, 0xd1, 0x6b, 0x02, 0x4f, 0x58, 0x05, 0xff, 0x7c, 0xb4,
    0x7c, 0x7a, 0x85, 0xda, 0xbd, 0x8b, 0x48, 0x89, 0x2c, 0xa7};

struct ModelSnapshot {
  int core = 0;
  Cycles taken_at = 0;
  ArchState arch;
  // Full model-DRAM image. CaptureSnapshot sizes it once on a fresh zero
  // mapping and copies in only the non-zero pages, so the image holds host
  // memory for the pages the model wrote and no more.
  ZeroPageVector<u8> dram;
  Sha256Digest digest{}; // over core id + capture time + geometry + arch + dram

  // Recomputes the digest over the current contents:
  //   SHA-256(header || arch || leaf_0 || ... || leaf_{n-1})
  // The header is core id, capture time, DRAM size and page size (u64 LE
  // each); arch is the serialized registers, pc and CSRs. leaf_i is the
  // SHA-256 of the i-th kSnapshotPageBytes page (the last may be partial),
  // except that a full all-zero page contributes kZeroPageLeaf unhashed.
  // Every byte of the image is still read, so a flip anywhere changes the
  // digest; and because the header is sealed, retargeting a snapshot
  // (mutating `core` or `taken_at` after capture) or truncating its image
  // trips IntegrityOk just like a memory bit-flip does.
  Sha256Digest ComputeDigest() const;
  bool IntegrityOk() const { return DigestEqual(digest, ComputeDigest()); }

  // Digest over only the state a restore round-trips: capture time and the
  // hardware-owned CSRs (cycle counter, core id) are zeroed before hashing.
  // Two snapshots of the same logical model state — e.g. the sealed
  // pre-migration snapshot and a re-capture taken after restoring it into a
  // fresh deployment — compare equal under PortableDigest even though their
  // full digests differ by clock.
  Sha256Digest PortableDigest() const;
};

// Captures core `core`'s registers/CSRs and the model DRAM. Requires the
// model complex to be quiesced (same rule as the private DRAM bus).
Result<ModelSnapshot> CaptureSnapshot(SoftwareHypervisor& hv, int core);

// The tamper gate shared by every consumer of a sealed snapshot: recomputes
// the digest and, on mismatch, records a `snapshot.tamper` security trace
// (sealed vs recomputed prefixes) in `hv`'s machine and returns
// kUnauthenticated. Call it *before* committing to any recovery side
// effects (powering a board, building a fresh deployment) so a tampered
// snapshot changes nothing but the audit trail.
Status VerifySnapshotSealed(SoftwareHypervisor& hv, const ModelSnapshot& snapshot);

// Restores a snapshot onto `snapshot.core`: verifies the digest, quiesces
// the pre-snapshot I/O epoch (rings, port accounting, pending doorbells for
// the core's ports), rewrites DRAM, and reinstates the architectural state.
// The core is left halted so the operator decides when (whether) it resumes.
Status RestoreSnapshot(SoftwareHypervisor& hv, const ModelSnapshot& snapshot);

}  // namespace guillotine

#endif  // SRC_HV_SNAPSHOT_H_
