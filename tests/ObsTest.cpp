//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the observability subsystem (metrics registry, tracer,
/// exporters) and the Status/Options APIs that ride on it: registry
/// semantics and label interning, span nesting under the virtual clock,
/// exporter golden output, byte-identical traces across identical runs,
/// and the package-rejection counters the corrupt-package paths feed.
///
//===----------------------------------------------------------------------===//

#include "core/Consumer.h"
#include "core/PackageManager.h"
#include "core/Seeder.h"
#include "fleet/ServerSim.h"
#include "fleet/WorkloadGen.h"
#include "obs/Export.h"
#include "obs/Observability.h"
#include "support/Status.h"

#include <gtest/gtest.h>

using namespace jumpstart;

//===----------------------------------------------------------------------===//
// support::Status
//===----------------------------------------------------------------------===//

TEST(StatusTest, DefaultIsOk) {
  support::Status S;
  EXPECT_TRUE(S.ok());
  EXPECT_EQ(S.code(), support::StatusCode::Ok);
  EXPECT_TRUE(S.message().empty());
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  support::Status S =
      support::Status::error(support::StatusCode::CorruptData, "bad bytes");
  EXPECT_FALSE(S.ok());
  EXPECT_EQ(S.code(), support::StatusCode::CorruptData);
  EXPECT_EQ(S.message(), "bad bytes");
  EXPECT_EQ(S.str(), "corrupt_data: bad bytes");
}

TEST(StatusTest, FormattedError) {
  support::Status S = support::errorStatus(
      support::StatusCode::NotFound, "no package #%u in bucket %u", 7u, 3u);
  EXPECT_EQ(S.code(), support::StatusCode::NotFound);
  EXPECT_EQ(S.message(), "no package #7 in bucket 3");
}

TEST(StatusTest, CodeNamesAreStableSnakeCase) {
  EXPECT_STREQ(support::statusCodeName(support::StatusCode::Ok), "ok");
  EXPECT_STREQ(
      support::statusCodeName(support::StatusCode::FingerprintMismatch),
      "fingerprint_mismatch");
  EXPECT_STREQ(
      support::statusCodeName(support::StatusCode::ValidationFaultRate),
      "validation_fault_rate");
}

static support::Status failsThrough(bool Fail) {
  auto Inner = [&]() -> support::Status {
    if (Fail)
      return support::Status::error(support::StatusCode::IoError, "inner");
    return support::Status::okStatus();
  };
  JUMPSTART_RETURN_IF_ERROR(Inner());
  return support::Status::error(support::StatusCode::Internal, "reached");
}

TEST(StatusTest, ReturnIfErrorMacro) {
  EXPECT_EQ(failsThrough(true).code(), support::StatusCode::IoError);
  EXPECT_EQ(failsThrough(false).code(), support::StatusCode::Internal);
}

//===----------------------------------------------------------------------===//
// MetricsRegistry
//===----------------------------------------------------------------------===//

TEST(MetricsRegistryTest, CounterIdentityAndFind) {
  obs::MetricsRegistry M;
  obs::Counter &C = M.counter("requests", {{"server", "a"}});
  C.inc();
  C.inc(4);
  // Same name+labels -> same instance.
  EXPECT_EQ(&M.counter("requests", {{"server", "a"}}), &C);
  // Different labels -> different instance.
  EXPECT_NE(&M.counter("requests", {{"server", "b"}}), &C);
  const obs::Counter *Found = M.findCounter("requests", {{"server", "a"}});
  ASSERT_NE(Found, nullptr);
  EXPECT_EQ(Found->value(), 5u);
  EXPECT_EQ(M.findCounter("requests", {{"server", "zzz"}}), nullptr);
  EXPECT_EQ(M.findCounter("nonexistent"), nullptr);
}

TEST(MetricsRegistryTest, LabelInterningCanonicalizesOrder) {
  obs::MetricsRegistry M;
  uint32_t A = M.internLabels({{"b", "2"}, {"a", "1"}});
  uint32_t B = M.internLabels({{"a", "1"}, {"b", "2"}});
  EXPECT_EQ(A, B);
  EXPECT_EQ(M.labelsKey(A), "a=1,b=2");
  // Metrics keyed through differently-ordered label sets coincide too.
  obs::Counter &C1 = M.counter("x", {{"k1", "v"}, {"k0", "w"}});
  obs::Counter &C2 = M.counter("x", {{"k0", "w"}, {"k1", "v"}});
  EXPECT_EQ(&C1, &C2);
}

TEST(MetricsRegistryTest, NameInterningIsStable) {
  obs::MetricsRegistry M;
  uint32_t N1 = M.internName("alpha");
  uint32_t N2 = M.internName("beta");
  EXPECT_NE(N1, N2);
  EXPECT_EQ(M.internName("alpha"), N1);
  EXPECT_EQ(M.name(N1), "alpha");
}

TEST(MetricsRegistryTest, HistogramBuckets) {
  obs::MetricsRegistry M;
  obs::Histogram &H = M.histogram("lat", {}, {0.1, 1.0, 10.0});
  H.observe(0.05);  // bucket 0
  H.observe(0.1);   // bucket 0 (<= bound)
  H.observe(0.5);   // bucket 1
  H.observe(100.0); // overflow
  EXPECT_EQ(H.count(), 4u);
  EXPECT_DOUBLE_EQ(H.sum(), 100.65);
  EXPECT_EQ(H.bucketCount(0), 2u);
  EXPECT_EQ(H.bucketCount(1), 1u);
  EXPECT_EQ(H.bucketCount(2), 0u);
  EXPECT_EQ(H.bucketCount(3), 1u); // overflow
  // Bounds are fixed at creation; later calls return the same histogram.
  EXPECT_EQ(&M.histogram("lat", {}, {99.0}), &H);
  EXPECT_EQ(H.bounds().size(), 3u);
}

TEST(MetricsRegistryTest, GaugeAndSeries) {
  obs::MetricsRegistry M;
  M.gauge("g").set(2.5);
  EXPECT_DOUBLE_EQ(M.findGauge("g")->value(), 2.5);
  TimeSeries &S = M.series("s", {{"run", "r1"}});
  S.record(0, 1);
  S.record(1, 2);
  EXPECT_EQ(M.findSeries("s", {{"run", "r1"}})->points().size(), 2u);
  EXPECT_EQ(M.findSeries("s"), nullptr);
}

TEST(MetricsRegistryTest, SortedEntriesDeterministicOrder) {
  obs::MetricsRegistry M;
  // Created in scrambled order; export order must be (name, labels, kind).
  M.counter("zeta");
  M.gauge("alpha", {{"x", "2"}});
  M.counter("alpha", {{"x", "1"}});
  M.counter("alpha");
  std::vector<obs::MetricsRegistry::Entry> E = M.sortedEntries();
  ASSERT_EQ(E.size(), 4u);
  EXPECT_EQ(M.name(E[0].NameId), "alpha");
  EXPECT_EQ(M.labelsKey(E[0].LabelsId), "");
  EXPECT_EQ(M.labelsKey(E[1].LabelsId), "x=1");
  EXPECT_EQ(M.labelsKey(E[2].LabelsId), "x=2");
  EXPECT_EQ(M.name(E[3].NameId), "zeta");
}

//===----------------------------------------------------------------------===//
// Tracer
//===----------------------------------------------------------------------===//

TEST(TracerTest, SpanNestingUnderVirtualClock) {
  obs::VirtualClock Clock;
  obs::Tracer T(Clock);
  uint32_t Track = T.allocTrack("server");
  uint32_t Other = T.allocTrack("server/jit");
  EXPECT_EQ(T.trackName(Track), "server");

  size_t Outer = T.beginSpan("startup", "phase", Track);
  Clock.advance(1.0);
  size_t Inner = T.beginSpan("warmup", "phase", Track);
  Clock.advance(2.0);
  // A span on another track does NOT nest under this track's stack.
  size_t Foreign = T.beginSpan("compile", "jit", Other);
  T.endSpan(Foreign);
  T.endSpan(Inner);
  Clock.advance(0.5);
  T.endSpan(Outer);

  const std::vector<obs::Span> &S = T.spans();
  ASSERT_EQ(S.size(), 3u);
  EXPECT_EQ(S[0].Name, "startup");
  EXPECT_EQ(S[0].Parent, -1);
  EXPECT_DOUBLE_EQ(S[0].StartSec, 0.0);
  EXPECT_DOUBLE_EQ(S[0].DurSec, 3.5);
  EXPECT_EQ(S[1].Name, "warmup");
  EXPECT_EQ(S[1].Parent, 0); // nested under "startup"
  EXPECT_DOUBLE_EQ(S[1].StartSec, 1.0);
  EXPECT_DOUBLE_EQ(S[1].DurSec, 2.0);
  EXPECT_EQ(S[2].Parent, -1); // other track: top level
}

TEST(TracerTest, CompleteSpanAndInstant) {
  obs::VirtualClock Clock;
  obs::Tracer T(Clock);
  uint32_t Track = T.allocTrack("jit");
  Clock.advance(10.0);
  size_t Job = T.completeSpan("compile-tier2", "jit", Track, 8.0, 2.0,
                              {"func=7"});
  size_t Evt = T.instant("retranslate-all", "jit", Track);
  const std::vector<obs::Span> &S = T.spans();
  EXPECT_DOUBLE_EQ(S[Job].StartSec, 8.0);
  EXPECT_DOUBLE_EQ(S[Job].DurSec, 2.0);
  ASSERT_EQ(S[Job].Args.size(), 1u);
  EXPECT_EQ(S[Job].Args[0], "func=7");
  EXPECT_TRUE(S[Evt].Instant);
  EXPECT_DOUBLE_EQ(S[Evt].StartSec, 10.0);
}

TEST(TracerTest, ScopedSpanNullTracerIsNoop) {
  obs::ScopedSpan Span(nullptr, "nothing", "phase", 0);
  Span.addArg("ignored");
  // Destructor must not crash.
}

//===----------------------------------------------------------------------===//
// Exporters
//===----------------------------------------------------------------------===//

TEST(ExportTest, JsonEscape) {
  EXPECT_EQ(obs::jsonEscape("plain"), "plain");
  EXPECT_EQ(obs::jsonEscape("a\"b\\c\n"), "a\\\"b\\\\c\\n");
}

TEST(ExportTest, MetricsGolden) {
  obs::MetricsRegistry M;
  M.counter("reqs", {{"server", "s0"}}).inc(3);
  M.gauge("init_seconds").set(1.5);
  obs::Histogram &H = M.histogram("lat", {}, {0.5, 1.0});
  H.observe(0.25);
  H.observe(2.0);
  TimeSeries &S = M.series("rps", {{"run", "a"}});
  S.record(0, 10);
  S.record(1, 20.5);

  EXPECT_EQ(
      obs::metricsToJsonLines(M),
      "{\"name\":\"init_seconds\",\"type\":\"gauge\",\"value\":1.5}\n"
      "{\"name\":\"lat\",\"type\":\"histogram\",\"count\":2,\"sum\":2.25,"
      "\"bounds\":[0.5,1],\"buckets\":[1,0,1]}\n"
      "{\"name\":\"reqs\",\"labels\":{\"server\":\"s0\"},\"type\":"
      "\"counter\",\"value\":3}\n"
      "{\"name\":\"rps\",\"labels\":{\"run\":\"a\"},\"type\":\"series\","
      "\"points\":[[0,10],[1,20.5]]}\n");
}

TEST(ExportTest, TraceGoldenAndChromeShape) {
  obs::VirtualClock Clock;
  obs::Tracer T(Clock);
  uint32_t Track = T.allocTrack("server");
  size_t Span = T.beginSpan("request", "request", Track);
  Clock.advance(0.25);
  T.endSpan(Span);
  T.instant("install-package", "package", Track, {"bytes=42"});

  EXPECT_EQ(obs::traceToJsonLines(T),
            "{\"name\":\"request\",\"cat\":\"request\",\"track\":"
            "\"server\",\"start\":0,\"dur\":0.25}\n"
            "{\"name\":\"install-package\",\"cat\":\"package\",\"track\":"
            "\"server\",\"start\":0.25,\"instant\":true,\"args\":[\"bytes="
            "42\"]}\n");

  std::string Chrome = obs::traceToChromeJson(T);
  // Track metadata + both events, microsecond timestamps.
  EXPECT_NE(Chrome.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(Chrome.find("\"server\""), std::string::npos);
  EXPECT_NE(Chrome.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(Chrome.find("\"dur\":250000"), std::string::npos);
  EXPECT_NE(Chrome.find("\"ph\":\"i\""), std::string::npos);
}

//===----------------------------------------------------------------------===//
// JumpStartOptions API
//===----------------------------------------------------------------------===//

TEST(OptionsTest, DefaultsValidate) {
  core::JumpStartOptions Opts;
  EXPECT_TRUE(Opts.validate().empty());
}

TEST(OptionsTest, SetAndParseAssignments) {
  core::JumpStartOptions Opts;
  EXPECT_TRUE(Opts.set("enabled", "false").ok());
  EXPECT_FALSE(Opts.Enabled);
  EXPECT_TRUE(
      Opts.parseAssignments("enabled=yes,max_consumer_attempts=5 "
                            "max_validation_fault_rate=0.25")
          .ok());
  EXPECT_TRUE(Opts.Enabled);
  EXPECT_EQ(Opts.MaxConsumerAttempts, 5u);
  EXPECT_DOUBLE_EQ(Opts.MaxValidationFaultRate, 0.25);

  EXPECT_EQ(Opts.set("no_such_option", "1").code(),
            support::StatusCode::InvalidArgument);
  EXPECT_EQ(Opts.set("enabled", "maybe").code(),
            support::StatusCode::InvalidArgument);
  EXPECT_EQ(Opts.parseAssignments("enabled").code(),
            support::StatusCode::InvalidArgument);
}

TEST(OptionsTest, KeyValuesRoundTrip) {
  core::JumpStartOptions Opts;
  Opts.Enabled = false;
  Opts.StrictPackageLint = false;
  Opts.MaxConsumerAttempts = 9;
  core::JumpStartOptions Restored;
  for (const auto &[Key, Value] : Opts.toKeyValues())
    ASSERT_TRUE(Restored.set(Key, Value).ok()) << Key << "=" << Value;
  EXPECT_EQ(Restored.Enabled, Opts.Enabled);
  EXPECT_EQ(Restored.StrictPackageLint, Opts.StrictPackageLint);
  EXPECT_EQ(Restored.MaxConsumerAttempts, Opts.MaxConsumerAttempts);
}

TEST(OptionsTest, ValidateCatchesIncoherence) {
  core::JumpStartOptions Opts;
  Opts.MaxValidationFaultRate = 1.5;
  EXPECT_FALSE(Opts.validate().empty());

  core::JumpStartOptions Opts2;
  Opts2.MaxConsumerAttempts = 0;
  EXPECT_FALSE(Opts2.validate().empty());
}

//===----------------------------------------------------------------------===//
// End-to-end: package lifecycle counters + byte-identical runs
//===----------------------------------------------------------------------===//

namespace {

fleet::WorkloadParams tinySite() {
  fleet::WorkloadParams P;
  P.NumHelpers = 100;
  P.NumClasses = 12;
  P.NumEndpoints = 10;
  P.NumUnits = 8;
  return P;
}

vm::ServerConfig tinyConfig() {
  vm::ServerConfig C;
  C.Jit.ProfileRequestTarget = 40;
  return C;
}

core::JumpStartOptions tinyOptions() {
  core::JumpStartOptions Opts;
  Opts.Coverage.MinProfiledFuncs = 2;
  Opts.Coverage.MinTotalSamples = 10;
  Opts.Coverage.MinPackageBytes = 64;
  Opts.ValidationRequests = 10;
  return Opts;
}

} // namespace

TEST(ObsEndToEndTest, CorruptPackageInjectionCountsRejections) {
  auto W = fleet::generateWorkload(tinySite());
  fleet::TrafficModel Traffic(*W, fleet::TrafficParams(), 42);
  vm::ServerConfig Config = tinyConfig();
  core::JumpStartOptions Opts = tinyOptions();
  obs::Observability Obs;

  core::PackageManager Store;
  core::SeederParams SP;
  SP.Requests = 120;
  core::SeederOutcome Seeded = core::runSeederWorkflow(
      *W, Traffic, Config, Opts, Store, SP, nullptr, &Obs);
  ASSERT_TRUE(Seeded.Published);
  EXPECT_TRUE(Seeded.Result.ok());
  const obs::Counter *Published =
      Obs.Metrics.findCounter("jumpstart.package.published");
  ASSERT_NE(Published, nullptr);
  EXPECT_EQ(Published->value(), 1u);

  // Corrupt the published package in the distribution layer, then boot a
  // consumer: every attempt must reject it as corrupt_data, fall back,
  // and count each rejection.
  Rng R(7);
  ASSERT_TRUE(Store.corrupt(0, 0, 0, R).ok());
  core::ConsumerParams CP;
  CP.Name = "consumer-corrupt";
  core::ConsumerOutcome Out = core::startConsumer(
      *W, Config, Opts, Store, CP, nullptr, &Obs);
  EXPECT_FALSE(Out.UsedJumpStart);
  EXPECT_EQ(Out.Attempts, Opts.MaxConsumerAttempts);
  ASSERT_EQ(Out.Rejections.size(), Out.Attempts);
  for (const support::Status &Rej : Out.Rejections)
    EXPECT_EQ(Rej.code(), support::StatusCode::CorruptData);

  const obs::Counter *Rejected = Obs.Metrics.findCounter(
      "jumpstart.package.rejected", {{"reason", "corrupt_data"}});
  ASSERT_NE(Rejected, nullptr);
  EXPECT_EQ(Rejected->value(), Out.Attempts);
  EXPECT_EQ(Obs.Metrics.findCounter("jumpstart.package.accepted"), nullptr);

  // Publish a clean copy; the next consumer eventually accepts it.
  ASSERT_TRUE(Store.publish(0, 0, Seeded.Package.serialize()).ok());
  CP.Name = "consumer-mixed";
  core::ConsumerOutcome Out2 = core::startConsumer(
      *W, Config, Opts, Store, CP, nullptr, &Obs);
  EXPECT_TRUE(Out2.UsedJumpStart);
  const obs::Counter *Accepted =
      Obs.Metrics.findCounter("jumpstart.package.accepted");
  ASSERT_NE(Accepted, nullptr);
  EXPECT_EQ(Accepted->value(), 1u);
}

TEST(ObsEndToEndTest, SeederRejectionReasonsEnumerated) {
  auto W = fleet::generateWorkload(tinySite());
  fleet::TrafficModel Traffic(*W, fleet::TrafficParams(), 42);
  vm::ServerConfig Config = tinyConfig();
  core::JumpStartOptions Opts = tinyOptions();
  obs::Observability Obs;
  core::PackageManager Store;

  // Chaos: validation crashes -> validation_crash, message keeps "crash".
  core::ChaosHooks Chaos;
  Chaos.CrashesInValidation = [](const profile::ProfilePackage &) {
    return true;
  };
  core::SeederParams SP;
  SP.Requests = 120;
  core::SeederOutcome Outcome = core::runSeederWorkflow(
      *W, Traffic, Config, Opts, Store, SP, &Chaos, &Obs);
  EXPECT_FALSE(Outcome.Published);
  EXPECT_EQ(Outcome.Result.code(), support::StatusCode::ValidationCrash);
  EXPECT_NE(Outcome.Result.message().find("crash"), std::string::npos);
  const obs::Counter *Rejected = Obs.Metrics.findCounter(
      "jumpstart.package.rejected", {{"reason", "validation_crash"}});
  ASSERT_NE(Rejected, nullptr);
  EXPECT_EQ(Rejected->value(), 1u);

  // Impossible coverage thresholds -> coverage_too_low.
  core::JumpStartOptions Strict = Opts;
  Strict.Coverage.MinTotalSamples = 1000000000;
  core::SeederOutcome Low = core::runSeederWorkflow(
      *W, Traffic, Config, Strict, Store, SP, nullptr, &Obs);
  EXPECT_FALSE(Low.Published);
  EXPECT_EQ(Low.Result.code(), support::StatusCode::CoverageTooLow);
  EXPECT_EQ(Obs.Metrics
                .findCounter("jumpstart.package.rejected",
                             {{"reason", "coverage_too_low"}})
                ->value(),
            1u);
}

TEST(ObsEndToEndTest, IdenticalRunsProduceIdenticalBytes) {
  // Two identical fig4-style mini-runs (shared registry, per-run labels)
  // must export byte-identical metrics and traces: every timestamp comes
  // from the virtual clock, every container is deterministically ordered.
  auto RunOnce = [](std::string &Metrics, std::string &Trace,
                    std::string &Chrome) {
    auto W = fleet::generateWorkload(tinySite());
    fleet::TrafficModel Traffic(*W, fleet::TrafficParams(), 42);
    vm::ServerConfig Config = tinyConfig();
    obs::Observability Obs;

    vm::ServerConfig SeederConfig = Config;
    SeederConfig.Jit.SeederInstrumentation = true;
    std::unique_ptr<vm::Server> Seeder =
        fleet::runSeeder(*W, Traffic, SeederConfig, 0, 0, 120, 12);
    profile::ProfilePackage Pkg = Seeder->buildSeederPackage(0, 0, 1);

    fleet::ServerSimParams P;
    P.DurationSeconds = 30;
    P.OfferedRps = 60;
    P.Obs = &Obs;
    P.RunLabel = "no-jumpstart";
    fleet::WarmupResult NoJs = fleet::runWarmup(*W, Traffic, Config, P);
    P.RunLabel = "jumpstart";
    fleet::WarmupResult Js =
        fleet::runWarmup(*W, Traffic, Config, P, &Pkg);
    EXPECT_GT(Js.rps().points().size(), 0u);
    EXPECT_GT(NoJs.rps().points().size(), 0u);

    Metrics = obs::metricsToJsonLines(Obs.Metrics);
    Trace = obs::traceToJsonLines(Obs.Trace);
    Chrome = obs::traceToChromeJson(Obs.Trace);
  };

  std::string MetricsA, TraceA, ChromeA, MetricsB, TraceB, ChromeB;
  RunOnce(MetricsA, TraceA, ChromeA);
  RunOnce(MetricsB, TraceB, ChromeB);
  EXPECT_EQ(MetricsA, MetricsB);
  EXPECT_EQ(TraceA, TraceB);
  EXPECT_EQ(ChromeA, ChromeB);
  EXPECT_FALSE(MetricsA.empty());
  EXPECT_FALSE(TraceA.empty());

  // The traces carry the spans the acceptance criteria name.
  EXPECT_NE(TraceA.find("\"request\""), std::string::npos);
  EXPECT_NE(TraceA.find("compile-tier2"), std::string::npos);
  EXPECT_NE(TraceA.find("deserialize-package"), std::string::npos);
  EXPECT_NE(TraceA.find("retranslate-all"), std::string::npos);
}

TEST(ObsEndToEndTest, WarmupRunsOwnObsWhenNoneGiven) {
  auto W = fleet::generateWorkload(tinySite());
  fleet::TrafficModel Traffic(*W, fleet::TrafficParams(), 42);
  fleet::ServerSimParams P;
  P.DurationSeconds = 10;
  P.OfferedRps = 40;
  fleet::WarmupResult Res =
      fleet::runWarmup(*W, Traffic, tinyConfig(), P);
  ASSERT_NE(Res.Obs, nullptr);
  EXPECT_NE(Res.OwnedObs, nullptr);
  EXPECT_GT(Res.rps().points().size(), 0u);
  EXPECT_GT(Res.Obs->Trace.numSpans(), 0u);
}
