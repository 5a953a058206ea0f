//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Fleet-facing Jump-Start configuration.
///
/// These correspond to HHVM runtime options: the master enable switch
/// (paper section VI: "a simple configuration option to disable
/// Jump-Start ... as a last resort") and the validation/fallback
/// thresholds of section VI.  The per-optimization switches the Figure 6
/// ablation toggles live only on vm::ServerConfig and jit::JitConfig.
///
//===----------------------------------------------------------------------===//

#ifndef JUMPSTART_CORE_JUMPSTARTOPTIONS_H
#define JUMPSTART_CORE_JUMPSTARTOPTIONS_H

#include "profile/Validation.h"
#include "support/Status.h"

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace jumpstart::core {

/// All Jump-Start knobs.  Plain default construction stays valid (the
/// fleet's production defaults); harnesses assign fields directly, or
/// accept user input through set()/parseAssignments(), and check
/// validate().
struct JumpStartOptions {
  /// Master switch.  Off: every server collects its own profile.
  bool Enabled = true;

  // Reliability (paper section VI).
  /// Consumer restarts with Jump-Start before automatic no-Jump-Start
  /// fallback.
  uint32_t MaxConsumerAttempts = 3;
  /// Coverage thresholds a package must pass before publication.
  profile::CoverageThresholds Coverage;
  /// Strict semantic linting of packages (analysis::lintPackage): the
  /// seeder refuses to publish, and the consumer refuses to accept, any
  /// package whose profile data is inconsistent with the bytecode repo.
  bool StrictPackageLint = true;
  /// Requests of the behavioural validation run (the seeder restarts
  /// itself in consumer mode and must stay healthy).
  uint32_t ValidationRequests = 40;
  /// Maximum tolerated faults per validation request.
  double MaxValidationFaultRate = 0.05;

  //===--------------------------------------------------------------------===
  // Validated-options API.
  //===--------------------------------------------------------------------===

  /// Cross-field consistency diagnostics; empty means the options are
  /// coherent.  Never fires on a default-constructed value.
  std::vector<std::string> validate() const;

  /// Sets one option by its snake_case key ("enabled",
  /// "strict_package_lint", "max_consumer_attempts", ...).  \returns
  /// invalid_argument for unknown keys or unparseable values.  See
  /// toKeyValues() for the full key list.
  support::Status set(std::string_view Key, std::string_view Value);

  /// Applies a comma- or whitespace-separated list of key=value
  /// assignments ("enabled=true,strict_package_lint=false").  Stops at the
  /// first error.
  support::Status parseAssignments(std::string_view Text);

  /// Every option as (key, value) pairs, in declaration order -- the
  /// round-trippable rendering (each pair feeds back through set()).
  std::vector<std::pair<std::string, std::string>> toKeyValues() const;
};

} // namespace jumpstart::core

#endif // JUMPSTART_CORE_JUMPSTARTOPTIONS_H
