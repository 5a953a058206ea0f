//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The profile-package lifecycle manager (ROADMAP item 4).
///
/// PackageManager gives every published package a versioned identity
/// (PackageId) and a manifest
/// recording how it came to be -- release epoch, the set of seeders whose
/// profiles it folds, its checksum, and (for delta releases) the parent
/// package it was encoded against.  On top of the store's shelving /
/// random-pick / quarantine duties it adds the lifecycle operations the
/// paper leaves open:
///
///   * merge()        -- fold every live package of a shelf into one
///                       multi-seeder package (profile::mergePackages),
///                       byte-deterministic in arrival order;
///   * publishDelta() -- publish a release delta-encoded against its
///                       parent (profile::encodeDelta), keeping both the
///                       servable full blob and the wire delta;
///   * reconstruct()  -- rebuild a package's full bytes the way a
///                       distribution endpoint would: from the parent
///                       plus the delta, checksum-verified.
///
/// Every operation returns support::Status; consumers keep the exact
/// random-selection semantics of the old store (paper section VI-A
/// technique 2), including its RNG draw sequence, so existing simulated
/// fleets reproduce byte-identically.
///
//===----------------------------------------------------------------------===//

#ifndef JUMPSTART_CORE_PACKAGEMANAGER_H
#define JUMPSTART_CORE_PACKAGEMANAGER_H

#include "support/Random.h"
#include "support/Status.h"

#include <cstdint>
#include <map>
#include <vector>

namespace jumpstart::core {

/// Versioned identity of one published package.
struct PackageId {
  uint32_t Region = 0;
  uint32_t Bucket = 0;
  /// Release epoch the package was published under (beginRelease()).
  uint32_t Release = 0;
  /// Position on its (Region, Bucket) shelf.
  uint32_t Index = 0;

  friend bool operator==(const PackageId &A, const PackageId &B) {
    return A.Region == B.Region && A.Bucket == B.Bucket &&
           A.Release == B.Release && A.Index == B.Index;
  }
  friend bool operator!=(const PackageId &A, const PackageId &B) {
    return !(A == B);
  }
};

/// Provenance record of one published package.
struct PackageManifest {
  PackageId Id;
  /// fnv1a over the full (servable) package bytes.
  uint64_t Checksum = 0;
  /// Application build the profile targets (0 when the blob does not
  /// parse as a ProfilePackage -- the store accepts arbitrary bytes).
  uint64_t RepoFingerprint = 0;
  /// Seeders whose profiles the package folds, ascending.  One entry for
  /// a plain seeder package, N after a merge, empty for opaque blobs.
  std::vector<uint64_t> Seeders;
  /// Size of the full package bytes.
  size_t Bytes = 0;
  /// Size of the wire delta (0 for a full release).
  size_t DeltaBytes = 0;
  /// Parent release for a delta package (meaningful iff IsDelta).
  PackageId Parent;
  bool IsDelta = false;

  bool isDelta() const { return IsDelta; }
};

/// A fetched package: its manifest plus the full servable bytes (owned by
/// the manager; valid until the package is corrupted or the manager dies).
struct PackageHandle {
  PackageManifest Manifest;
  const std::vector<uint8_t> *Blob = nullptr;
};

/// In-memory package lifecycle manager (one per simulated fleet).
class PackageManager {
public:
  /// Publishes \p Blob for (\p Region, \p Bucket) under the current
  /// release epoch.  Accepts arbitrary bytes (distribution does not
  /// parse); when the blob is a well-formed ProfilePackage the manifest
  /// records its fingerprint and seeder set.  \p Out (optional) receives
  /// the manifest of the published package.
  support::Status publish(uint32_t Region, uint32_t Bucket,
                          std::vector<uint8_t> Blob,
                          PackageManifest *Out = nullptr);

  /// Publishes \p Blob as a delta release against \p Parent: the wire
  /// delta is encoded with profile::encodeDelta and kept alongside the
  /// full bytes, and the manifest links to the parent.  NotFound when
  /// \p Parent names no published package.
  support::Status publishDelta(uint32_t Region, uint32_t Bucket,
                               std::vector<uint8_t> Blob,
                               const PackageId &Parent,
                               PackageManifest *Out = nullptr);

  /// Folds every live, well-formed package of the shelf into one
  /// multi-seeder package and publishes it.  \p Weights (optional) maps
  /// SeederId -> merge weight; absent seeders weigh 1.  The merged bytes
  /// are identical for any publication order of the inputs.
  /// FailedPrecondition when the shelf holds nothing mergeable.
  support::Status merge(uint32_t Region, uint32_t Bucket,
                        PackageManifest *Out = nullptr,
                        const std::map<uint64_t, uint64_t> *Weights = nullptr);

  /// Looks up \p Id (all four coordinates must match) into \p Out.
  support::Status fetch(const PackageId &Id, PackageHandle &Out) const;

  /// Rebuilds the full bytes of \p Id the way a distribution endpoint
  /// would: a full release is copied out; a delta release is rebuilt
  /// from its parent's bytes plus the wire delta, checksum-verified.
  support::Status reconstruct(const PackageId &Id,
                              std::vector<uint8_t> &Out) const;

  /// Picks a random non-quarantined package (paper section VI-A
  /// technique 2), with a stable Unavailable message the consumer's
  /// fallback path logs.
  support::Status pickRandom(uint32_t Region, uint32_t Bucket, Rng &R,
                             PackageHandle &Out) const;

  /// Number of available (non-quarantined) packages on the shelf.
  size_t available(uint32_t Region, uint32_t Bucket) const;

  /// Moves a package to the problematic-data database (paper VI-A).
  support::Status quarantine(uint32_t Region, uint32_t Bucket,
                             uint32_t Index);

  size_t quarantinedCount() const { return Quarantined.size(); }

  /// Test/chaos helper: flips random bytes of a published package's full
  /// blob, simulating distribution-layer corruption.
  support::Status corrupt(uint32_t Region, uint32_t Bucket, uint32_t Index,
                          Rng &R, uint32_t Flips = 16);

  /// Starts a new release epoch; subsequent publishes are stamped with
  /// the returned epoch.
  uint32_t beginRelease() { return ++CurrentRelease; }

  /// Manifests of every package on the shelf, in publication order.
  std::vector<PackageManifest> manifests(uint32_t Region,
                                         uint32_t Bucket) const;

private:
  struct Record {
    std::vector<uint8_t> Full;  ///< servable bytes
    std::vector<uint8_t> Delta; ///< wire delta (empty for full releases)
    PackageManifest Manifest;
    bool IsQuarantined = false;
  };
  struct Shelf {
    std::vector<Record> Records;
  };
  static uint64_t key(uint32_t Region, uint32_t Bucket) {
    return (static_cast<uint64_t>(Region) << 32) | Bucket;
  }
  const Shelf *find(uint32_t Region, uint32_t Bucket) const;
  const Record *find(const PackageId &Id) const;
  Record &append(uint32_t Region, uint32_t Bucket, std::vector<uint8_t> Blob);

  std::map<uint64_t, Shelf> Shelves;
  std::vector<std::vector<uint8_t>> Quarantined;
  uint32_t CurrentRelease = 0;
};

} // namespace jumpstart::core

#endif // JUMPSTART_CORE_PACKAGEMANAGER_H
