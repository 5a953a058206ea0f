//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//

#include "profile/PackageDelta.h"

#include "support/Blob.h"
#include "support/Hashing.h"

#include <unordered_map>

namespace jumpstart::profile {

using support::Status;
using support::StatusCode;

namespace {

/// Granularity of the parent block index.  Matches below this length are
/// not worth an op's overhead, so it doubles as the minimum match/run.
constexpr size_t kBlock = 16;

enum class OpKind : uint8_t { Copy = 0, Literal = 1, Run = 2 };

struct Op {
  OpKind Kind;
  size_t A = 0; ///< Copy: srcOff; Literal: start in target; Run: count
  size_t B = 0; ///< Copy: len; Literal: len; Run: the byte
};

/// Length of the match between Parent[POff..] and Target[TOff..].
size_t matchLen(const std::vector<uint8_t> &Parent, size_t POff,
                const std::vector<uint8_t> &Target, size_t TOff) {
  size_t N = 0;
  while (POff + N < Parent.size() && TOff + N < Target.size() &&
         Parent[POff + N] == Target[TOff + N])
    ++N;
  return N;
}

/// Length of the byte run starting at Target[Off].
size_t runLen(const std::vector<uint8_t> &Target, size_t Off) {
  size_t N = 1;
  while (Off + N < Target.size() && Target[Off + N] == Target[Off])
    ++N;
  return N;
}

} // namespace

std::vector<uint8_t> encodeDelta(const std::vector<uint8_t> &Parent,
                                 const std::vector<uint8_t> &Target,
                                 DeltaStats *Stats) {
  // Index the parent's non-overlapping kBlock-sized blocks by content
  // hash.  Earlier offsets win on hash collision (front of the vector),
  // keeping the encoding deterministic.
  std::unordered_map<uint64_t, std::vector<size_t>> Index;
  for (size_t Off = 0; Off + kBlock <= Parent.size(); Off += kBlock)
    Index[fnv1a(Parent.data() + Off, kBlock)].push_back(Off);

  std::vector<Op> Ops;
  size_t LitStart = 0, LitLen = 0;
  auto FlushLiteral = [&] {
    if (LitLen) {
      Ops.push_back({OpKind::Literal, LitStart, LitLen});
      LitLen = 0;
    }
  };

  size_t I = 0;
  while (I < Target.size()) {
    // A long byte run beats both copy and literal encodings.
    size_t Run = runLen(Target, I);
    if (Run >= kBlock) {
      FlushLiteral();
      Ops.push_back({OpKind::Run, Run, Target[I]});
      I += Run;
      continue;
    }
    if (I + kBlock <= Target.size()) {
      auto It = Index.find(fnv1a(Target.data() + I, kBlock));
      if (It != Index.end()) {
        size_t BestOff = 0, BestLen = 0;
        for (size_t POff : It->second) {
          size_t Len = matchLen(Parent, POff, Target, I);
          if (Len > BestLen) {
            BestOff = POff;
            BestLen = Len;
          }
        }
        if (BestLen >= kBlock) {
          FlushLiteral();
          Ops.push_back({OpKind::Copy, BestOff, BestLen});
          I += BestLen;
          continue;
        }
      }
    }
    if (LitLen == 0)
      LitStart = I;
    ++LitLen;
    ++I;
  }
  FlushLiteral();

  if (Stats) {
    *Stats = DeltaStats();
    for (const Op &O : Ops)
      switch (O.Kind) {
      case OpKind::Copy:
        ++Stats->CopyOps;
        Stats->CopiedBytes += O.B;
        break;
      case OpKind::Literal:
        ++Stats->LiteralOps;
        Stats->LiteralBytes += O.B;
        break;
      case OpKind::Run:
        ++Stats->RunOps;
        Stats->RunBytes += O.A;
        break;
      }
  }

  BlobEncoder E;
  E.writeFixed64(kDeltaMagic);
  E.writeVarint(kDeltaFormatVersion);
  E.writeFixed64(fnv1a(Parent.data(), Parent.size()));
  E.writeVarint(Parent.size());
  E.writeFixed64(fnv1a(Target.data(), Target.size()));
  E.writeVarint(Target.size());
  E.writeVarint(Ops.size());
  for (const Op &O : Ops) {
    E.writeByte(static_cast<uint8_t>(O.Kind));
    switch (O.Kind) {
    case OpKind::Copy:
      E.writeVarint(O.A);
      E.writeVarint(O.B);
      break;
    case OpKind::Literal:
      E.writeVarint(O.B);
      for (size_t K = 0; K < O.B; ++K)
        E.writeByte(Target[O.A + K]);
      break;
    case OpKind::Run:
      E.writeVarint(O.A);
      E.writeByte(static_cast<uint8_t>(O.B));
      break;
    }
  }
  return E.takeBytes();
}

Status applyDelta(const std::vector<uint8_t> &Parent,
                  const std::vector<uint8_t> &Delta,
                  std::vector<uint8_t> &Out) {
  BlobDecoder D(Delta);
  uint64_t Magic = D.readFixed64();
  uint64_t Version = D.readVarint();
  uint64_t ParentSum = D.readFixed64();
  uint64_t ParentLen = D.readVarint();
  uint64_t TargetSum = D.readFixed64();
  uint64_t TargetLen = D.readVarint();
  uint64_t NumOps = D.readVarint();
  if (!D.ok() || Magic != kDeltaMagic)
    return support::errorStatus(StatusCode::CorruptData,
                                "package delta has a malformed header");
  if (Version != kDeltaFormatVersion)
    return support::errorStatus(
        StatusCode::CorruptData,
        "package delta format version %llu (this build reads %u)",
        (unsigned long long)Version, kDeltaFormatVersion);
  if (ParentLen != Parent.size() ||
      ParentSum != fnv1a(Parent.data(), Parent.size()))
    return support::errorStatus(
        StatusCode::FailedPrecondition,
        "package delta was encoded against a different parent release");
  if (TargetLen > kMaxRebuiltPackageBytes)
    return support::errorStatus(
        StatusCode::CorruptData,
        "package delta target of %llu bytes exceeds the %llu-byte limit",
        (unsigned long long)TargetLen,
        (unsigned long long)kMaxRebuiltPackageBytes);

  std::vector<uint8_t> Built;
  Built.reserve(TargetLen);
  for (uint64_t OpIdx = 0; OpIdx < NumOps; ++OpIdx) {
    uint8_t Tag = D.readByte();
    if (!D.ok())
      break;
    switch (static_cast<OpKind>(Tag)) {
    case OpKind::Copy: {
      uint64_t SrcOff = D.readVarint();
      uint64_t Len = D.readVarint();
      if (!D.ok() || SrcOff > Parent.size() || Len > Parent.size() - SrcOff ||
          Len == 0) {
        D.markError();
        break;
      }
      Built.insert(Built.end(), Parent.begin() + SrcOff,
                   Parent.begin() + SrcOff + Len);
      break;
    }
    case OpKind::Literal: {
      uint64_t Len = D.readVarint();
      if (!D.ok() || Len > D.remaining() || Len == 0) {
        D.markError();
        break;
      }
      for (uint64_t K = 0; K < Len; ++K)
        Built.push_back(D.readByte());
      break;
    }
    case OpKind::Run: {
      uint64_t Count = D.readVarint();
      uint8_t Byte = D.readByte();
      if (!D.ok() || Count == 0 || Count > TargetLen - Built.size()) {
        D.markError();
        break;
      }
      Built.insert(Built.end(), Count, Byte);
      break;
    }
    default:
      D.markError();
      break;
    }
    if (!D.ok() || Built.size() > TargetLen)
      return support::errorStatus(StatusCode::CorruptData,
                                  "package delta has a malformed op stream");
  }
  if (!D.atEnd())
    return support::errorStatus(StatusCode::CorruptData,
                                "package delta has a malformed op stream");
  if (Built.size() != TargetLen ||
      fnv1a(Built.data(), Built.size()) != TargetSum)
    return support::errorStatus(
        StatusCode::CorruptData,
        "package delta reconstruction failed its checksum");
  Out = std::move(Built);
  return Status::okStatus();
}

} // namespace jumpstart::profile
