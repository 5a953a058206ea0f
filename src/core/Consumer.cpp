//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//

#include "core/Consumer.h"

#include "analysis/Linter.h"
#include "analysis/WholeProgram.h"
#include "core/CoreObs.h"
#include "runtime/Builtins.h"
#include "support/StringUtil.h"

using namespace jumpstart;
using namespace jumpstart::core;
using support::Status;
using support::StatusCode;

void jumpstart::core::attachProvenFacts(vm::ServerConfig &Config,
                                        const bc::Repo &R) {
  if (!Config.Jit.ProvenGuardElision || Config.Jit.Facts)
    return;
  analysis::WholeProgram WP(R);
  Config.Jit.Facts = WP.jitFacts();
}

ConsumerOutcome jumpstart::core::startConsumer(const fleet::Workload &W,
                                               vm::ServerConfig BaseConfig,
                                               const JumpStartOptions &Opts,
                                               const PackageManager &Manager,
                                               const ConsumerParams &P,
                                               const ChaosHooks *Chaos,
                                               obs::Observability *Obs) {
  ConsumerOutcome Outcome;
  Rng R(P.Seed);
  attachProvenFacts(BaseConfig, W.Repo);
  BaseConfig.Obs = Obs;
  BaseConfig.Name = P.Name;
  uint32_t Track = 0;
  if (Obs)
    Track = Obs->Trace.allocTrack(P.Name + "/workflow");

  // Notes one rejected pick: status record, log line (message formats are
  // load-bearing for callers that grep the log), reason counter, event.
  auto Reject = [&](StatusCode Code, std::string Message) {
    Outcome.Log.push_back(Message);
    countPackageRejected(Obs, Code);
    if (Obs)
      Obs->Trace.instant(
          "package-reject", "package", Track,
          {strFormat("reason=%s", support::statusCodeName(Code))});
    Outcome.Rejections.push_back(Status::error(Code, std::move(Message)));
  };

  auto BootWithoutJumpStart = [&](const char *Why) {
    Outcome.Log.push_back(
        strFormat("booting without Jump-Start: %s", Why));
    if (Obs)
      Obs->Trace.instant("fallback-boot", "package", Track,
                         {strFormat("why=%s", Why)});
    Outcome.Server =
        std::make_unique<vm::Server>(W.Repo, BaseConfig, R.next());
    Outcome.Init = Outcome.Server->startup();
    Outcome.UsedJumpStart = false;
  };

  if (!Opts.Enabled) {
    BootWithoutJumpStart("disabled by configuration");
    return Outcome;
  }

  while (Outcome.Attempts < Opts.MaxConsumerAttempts) {
    ++Outcome.Attempts;
    PackageHandle Pick;
    support::Status Picked = Manager.pickRandom(P.Region, P.Bucket, R, Pick);
    uint32_t PickIndex = Pick.Manifest.Id.Index;
    if (!Picked.ok()) {
      Outcome.Rejections.push_back(Picked);
      countPackageRejected(Obs, Picked.code());
      BootWithoutJumpStart(Picked.message().c_str());
      return Outcome;
    }

    profile::ProfilePackage Pkg;
    if (!profile::ProfilePackage::deserialize(*Pick.Blob, Pkg)) {
      Reject(StatusCode::CorruptData,
             strFormat(
                 "package #%u is corrupt (checksum/format); trying another",
                 PickIndex));
      continue;
    }

    // Strict semantic lint at accept time: reject inconsistent profile
    // data *before* it can steer region selection or property layout.
    // Rejection is cheap relative to the mis-compilations a poisonous
    // package causes, and another package (or no package) is always a
    // safe fallback.  Packages from a different code version are not
    // lintable against this repo; installPackage rejects those by
    // fingerprint below.
    if (Opts.StrictPackageLint &&
        Pkg.RepoFingerprint == vm::Server::repoFingerprint(W.Repo)) {
      analysis::Linter Linter(W.Repo,
                              static_cast<uint32_t>(
                                  runtime::BuiltinTable::standard().size()));
      // With the whole-program analysis enabled, the lint also
      // cross-checks profiled call targets/arcs against the static call
      // graph (the facts already paid for themselves at boot).
      std::vector<analysis::Diagnostic> Diags =
          Linter.lintPackage(Pkg, BaseConfig.Jit.ProvenGuardElision);
      if (analysis::countErrors(Diags) > 0) {
        Reject(StatusCode::LintFailed,
               strFormat("package #%u failed strict lint (%zu errors, "
                         "first: %s); trying another",
                         PickIndex, analysis::countErrors(Diags),
                         Diags.front().str(&W.Repo).c_str()));
        continue;
      }
    }

    // A crash-inducing package that slipped through validation: the
    // process dies during JIT compilation and restarts, picking a
    // (probably different) random package.
    if (Chaos && Chaos->crashesInProduction(Pkg)) {
      ++Outcome.CrashCount;
      Reject(StatusCode::CrashDetected,
             strFormat("crashed with package #%u; restarting",
                       PickIndex));
      continue;
    }

    auto Server =
        std::make_unique<vm::Server>(W.Repo, BaseConfig, R.next());
    support::Status Installed = Server->installPackage(Pkg);
    if (!Installed.ok()) {
      Reject(Installed.code(),
             strFormat("package #%u rejected (%s); trying another",
                       PickIndex, Installed.message().c_str()));
      continue;
    }
    Outcome.Init = Server->startup();
    Outcome.Server = std::move(Server);
    Outcome.UsedJumpStart = true;
    Outcome.Log.push_back(
        strFormat("booted with package #%u", PickIndex));
    countPackageAccepted(Obs);
    if (Obs)
      Obs->Trace.instant("package-accept", "package", Track,
                         {strFormat("index=%u", PickIndex)});
    return Outcome;
  }

  BootWithoutJumpStart("repeatedly failed to start healthily");
  return Outcome;
}
