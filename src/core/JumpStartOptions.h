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

#include <cstdint>

namespace jumpstart::core {

/// All Jump-Start knobs: a plain struct whose defaults are the fleet's
/// production settings.  Harnesses assign fields directly;
/// core::runSeederWorkflow and core::startConsumer read them.
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
};

} // namespace jumpstart::core

#endif // JUMPSTART_CORE_JUMPSTARTOPTIONS_H
