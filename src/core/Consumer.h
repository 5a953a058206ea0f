//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Jump-Start consumer workflow (paper Figure 3c + section VI-A).
///
/// A consumer (C3 push phase) picks a random package for its
/// (region, bucket), deserializes it, pre-compiles all optimized code
/// before serving, and falls back automatically: corrupt or missing
/// packages are skipped, crash-inducing ones trigger a restart with a
/// fresh random pick, and after a bounded number of failures the server
/// boots with Jump-Start disabled, collecting its own profile.
///
//===----------------------------------------------------------------------===//

#ifndef JUMPSTART_CORE_CONSUMER_H
#define JUMPSTART_CORE_CONSUMER_H

#include "core/Chaos.h"
#include "core/JumpStartOptions.h"
#include "core/PackageManager.h"
#include "fleet/Traffic.h"
#include "fleet/WorkloadGen.h"
#include "support/Status.h"
#include "vm/Server.h"

#include <memory>
#include <string>
#include <vector>

namespace jumpstart::core {

/// Consumer boot parameters.
struct ConsumerParams {
  uint32_t Region = 0;
  uint32_t Bucket = 0;
  uint64_t Seed = 21;
  /// Server/trace name used when observability is attached.
  std::string Name = "consumer";
};

/// Outcome of booting one consumer.
struct ConsumerOutcome {
  /// The started server (always valid: fallback guarantees a boot).
  std::unique_ptr<vm::Server> Server;
  bool UsedJumpStart = false;
  /// Jump-Start boot attempts made (crashes + corrupt packages).
  uint32_t Attempts = 0;
  uint32_t CrashCount = 0;
  vm::InitStats Init;
  std::vector<std::string> Log;
  /// Per-package rejection reasons, in attempt order (corrupt_data,
  /// lint_failed, crash_detected, fingerprint_mismatch).  Empty when the
  /// first pick was accepted.
  std::vector<support::Status> Rejections;
};

/// Runs the whole-program analysis over \p R and attaches the distilled
/// JIT facts to \p Config.  No-op unless ProvenGuardElision is enabled
/// and no facts are attached yet, so callers can pre-attach a shared
/// facts object (the conformance matrix analyzes each program once and
/// shares the result across cells).
void attachProvenFacts(vm::ServerConfig &Config, const bc::Repo &R);

/// Boots one consumer against \p Manager with full fallback behaviour.
/// \p Obs (optional) receives per-reason package rejection counters, the
/// accept counter, and the consumer's server/JIT spans.
ConsumerOutcome startConsumer(const fleet::Workload &W,
                              vm::ServerConfig BaseConfig,
                              const JumpStartOptions &Opts,
                              const PackageManager &Manager,
                              const ConsumerParams &P,
                              const ChaosHooks *Chaos = nullptr,
                              obs::Observability *Obs = nullptr);

} // namespace jumpstart::core

#endif // JUMPSTART_CORE_CONSUMER_H
