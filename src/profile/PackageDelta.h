//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Delta encoding between consecutive package releases (ROADMAP item 4).
///
/// Consecutive releases of a shelf's package share most of their bytes
/// (the site barely changes between pushes), so shipping the full blob
/// every release wastes distribution bandwidth.  A delta is a small
/// self-describing program that rebuilds the target blob from the parent
/// release:
///
///   header:  magic (fixed64) | version (varint)
///            | parent fnv1a (fixed64) | parent length (varint)
///            | target fnv1a (fixed64) | target length (varint)
///            | op count (varint)
///   ops:     0x00 Copy    srcOff (varint) len (varint)   -- from parent
///            0x01 Literal len (varint) + raw bytes       -- new data
///            0x02 Run     count (varint) + one byte      -- byte run
///
/// The encoder is a greedy block-hash matcher (the rsync family) with a
/// run-length fallback; its only promise is exact reconstruction, which
/// applyDelta() *verifies*: the parent must match the recorded checksum
/// and length before any op runs, and the rebuilt target must match its
/// recorded checksum after -- a delta can therefore never silently build
/// the wrong package.  Everything is hand-rolled on support::Blob; no
/// external compression library is involved.
///
//===----------------------------------------------------------------------===//

#ifndef JUMPSTART_PROFILE_PACKAGEDELTA_H
#define JUMPSTART_PROFILE_PACKAGEDELTA_H

#include "support/Status.h"

#include <cstdint>
#include <vector>

namespace jumpstart::profile {

/// What the encoder did, for logs/benchmarks.
struct DeltaStats {
  size_t CopyOps = 0;
  size_t LiteralOps = 0;
  size_t RunOps = 0;
  size_t CopiedBytes = 0;  ///< target bytes served from the parent
  size_t LiteralBytes = 0; ///< target bytes shipped verbatim
  size_t RunBytes = 0;     ///< target bytes from byte runs
};

/// Wire-format version stamped into every delta header.
inline constexpr uint32_t kDeltaFormatVersion = 1;
/// Leading magic of a serialized delta ("JSDL1").
inline constexpr uint64_t kDeltaMagic = 0x4a53444c31ull;
/// Largest package applyDelta() will rebuild (64 MiB; today's packages
/// are ~70 KB).  A delta's target length is untrusted input, so a larger
/// one is rejected before anything is allocated.
inline constexpr uint64_t kMaxRebuiltPackageBytes = 64ull << 20;

/// Encodes \p Target against \p Parent.  Always succeeds; when the blobs
/// share nothing the delta degenerates to one literal op (plus header).
std::vector<uint8_t> encodeDelta(const std::vector<uint8_t> &Parent,
                                 const std::vector<uint8_t> &Target,
                                 DeltaStats *Stats = nullptr);

/// Rebuilds the target from \p Parent + \p Delta into \p Out.
/// FailedPrecondition when \p Parent is not the blob the delta was
/// encoded against; CorruptData on any malformed or checksum-failing
/// delta, or one whose target exceeds kMaxRebuiltPackageBytes.  \p Out
/// is untouched on failure.
support::Status applyDelta(const std::vector<uint8_t> &Parent,
                           const std::vector<uint8_t> &Delta,
                           std::vector<uint8_t> &Out);

} // namespace jumpstart::profile

#endif // JUMPSTART_PROFILE_PACKAGEDELTA_H
