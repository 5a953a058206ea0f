//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The metrics registry: counters, gauges, fixed-bucket histograms and
/// virtual-time series, keyed by interned metric names + label sets.
///
/// This is the single source of truth for every number the figure
/// harnesses print: the VM server, the JIT tiering controller, the
/// Jump-Start seeder/consumer workflows and the fleet simulator all write
/// here, and bench/FigureCommon.h reads back.  Design points:
///
///  - Names and label sets are interned once; the hot paths (counter
///    increments per request) hold a reference and pay nothing.
///  - Lookup structures are ordered (std::map), and snapshots are sorted
///    by (name, canonical label string), so exports are deterministic --
///    byte-identical across identical runs, never dependent on hash-table
///    iteration order.
///  - Histograms have *fixed* bucket bounds chosen at creation: two runs
///    always produce structurally identical output.
///
//===----------------------------------------------------------------------===//

#ifndef JUMPSTART_OBS_METRICSREGISTRY_H
#define JUMPSTART_OBS_METRICSREGISTRY_H

#include "support/Stats.h"

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace jumpstart::obs {

/// One metric label (key, value).
using Label = std::pair<std::string, std::string>;
/// A set of labels.  Canonicalized (sorted by key) when interned.
using LabelSet = std::vector<Label>;

/// Monotonically increasing integer metric.
class Counter {
public:
  void inc(uint64_t N = 1) { V += N; }
  uint64_t value() const { return V; }

private:
  uint64_t V = 0;
};

/// Last-value-wins floating-point metric.
class Gauge {
public:
  void set(double Value) { V = Value; }
  double value() const { return V; }

private:
  double V = 0;
};

/// Fixed-bucket histogram: counts of observations <= each upper bound,
/// plus an overflow bucket, a running sum and a count.
class Histogram {
public:
  explicit Histogram(std::vector<double> UpperBounds)
      : Bounds(std::move(UpperBounds)), Counts(Bounds.size() + 1, 0) {}

  void observe(double Value);

  /// Adds \p Other's observations bucket-wise.  Both histograms must
  /// have identical bounds (they do when both sides created the metric
  /// through the same code path, which fixed-bounds creation enforces).
  void merge(const Histogram &Other);

  uint64_t count() const { return N; }
  double sum() const { return Sum; }
  double mean() const { return N ? Sum / static_cast<double>(N) : 0; }
  const std::vector<double> &bounds() const { return Bounds; }
  /// Count in bucket \p I; I == bounds().size() is the overflow bucket.
  uint64_t bucketCount(size_t I) const { return Counts[I]; }

private:
  std::vector<double> Bounds; ///< ascending upper bounds
  std::vector<uint64_t> Counts;
  double Sum = 0;
  uint64_t N = 0;
};

/// The registry.  All accessors create the metric on first use and return
/// a stable reference (metrics are never deleted).
class MetricsRegistry {
public:
  enum class Kind : uint8_t { Counter, Gauge, Histogram, Series };

  /// Interns \p Name and \returns its id (stable for the registry's
  /// lifetime).
  uint32_t internName(std::string_view Name);
  const std::string &name(uint32_t NameId) const { return Names[NameId]; }

  /// Interns \p Labels (canonicalized: sorted by key) and \returns its id.
  uint32_t internLabels(const LabelSet &Labels);
  const LabelSet &labels(uint32_t LabelsId) const {
    return LabelSets[LabelsId];
  }
  /// The canonical rendering used for ordering and exports:
  /// "k1=v1,k2=v2".
  const std::string &labelsKey(uint32_t LabelsId) const {
    return LabelKeys[LabelsId];
  }

  Counter &counter(std::string_view Name, const LabelSet &Labels = {});
  Gauge &gauge(std::string_view Name, const LabelSet &Labels = {});
  /// \p UpperBounds must be ascending; they are fixed on first creation
  /// (subsequent calls with the same name+labels return the existing
  /// histogram regardless of the bounds argument).
  Histogram &histogram(std::string_view Name, const LabelSet &Labels,
                       const std::vector<double> &UpperBounds);
  /// A metric-over-virtual-time curve (the figures' y-axes).
  TimeSeries &series(std::string_view Name, const LabelSet &Labels = {});

  /// Read-only lookups: nullptr when the metric was never created.
  const Counter *findCounter(std::string_view Name,
                             const LabelSet &Labels = {}) const;
  const Gauge *findGauge(std::string_view Name,
                         const LabelSet &Labels = {}) const;
  const Histogram *findHistogram(std::string_view Name,
                                 const LabelSet &Labels = {}) const;
  const TimeSeries *findSeries(std::string_view Name,
                               const LabelSet &Labels = {}) const;

  /// One registered metric instance, for enumeration/export.
  struct Entry {
    Kind MetricKind;
    uint32_t NameId;
    uint32_t LabelsId;
    /// Index into the kind-specific storage.
    uint32_t Index;
  };

  /// All metrics, sorted by (kind-independent name, canonical label
  /// string, kind) -- the deterministic export order.
  std::vector<Entry> sortedEntries() const;

  const Counter &counterAt(uint32_t Index) const { return Counters[Index]; }
  const Gauge &gaugeAt(uint32_t Index) const { return Gauges[Index]; }
  const Histogram &histogramAt(uint32_t Index) const {
    return Histograms[Index];
  }
  const TimeSeries &seriesAt(uint32_t Index) const { return Series[Index]; }

  size_t numMetrics() const { return Index.size(); }

  /// Folds \p Other into this registry: counters add, gauges last-wins,
  /// histograms merge bucket-wise, series points append (in \p Other's
  /// recording order).  Metrics absent here are created.  \p Other's
  /// entries are visited in its deterministic sortedEntries() order, so
  /// merging shard registries in a fixed order yields identical output
  /// regardless of how the shards were produced (the shard-then-merge
  /// half of the fleet's host parallelism).
  void mergeFrom(const MetricsRegistry &Other);

private:
  using MetricKey = std::tuple<uint8_t, uint32_t, uint32_t>;

  /// \returns the storage index for (Kind, Name, Labels), creating the
  /// metric via \p Create when absent.
  template <typename CreateFn>
  uint32_t findOrCreate(Kind K, std::string_view Name,
                        const LabelSet &Labels, CreateFn Create);
  const Entry *find(Kind K, std::string_view Name,
                    const LabelSet &Labels) const;

  std::vector<std::string> Names;       ///< NameId -> name
  std::map<std::string, uint32_t, std::less<>> NameIds;
  std::vector<LabelSet> LabelSets;      ///< LabelsId -> labels
  std::vector<std::string> LabelKeys;   ///< LabelsId -> canonical key
  std::map<std::string, uint32_t> LabelIds;

  // Deques: stable references across growth.
  std::deque<Counter> Counters;
  std::deque<Gauge> Gauges;
  std::deque<Histogram> Histograms;
  std::deque<TimeSeries> Series;

  std::map<MetricKey, Entry> Index;
};

/// The standard latency buckets (virtual seconds) used for request-time
/// histograms across the repository.
const std::vector<double> &latencyBucketsSeconds();

} // namespace jumpstart::obs

#endif // JUMPSTART_OBS_METRICSREGISTRY_H
