//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//

#include "obs/MetricsRegistry.h"

#include "support/Assert.h"

#include <algorithm>

using namespace jumpstart;
using namespace jumpstart::obs;

void Histogram::observe(double Value) {
  ++N;
  Sum += Value;
  // Buckets are few (tens); linear scan keeps the common small-value case
  // one compare.
  size_t I = 0;
  while (I < Bounds.size() && Value > Bounds[I])
    ++I;
  ++Counts[I];
}

void Histogram::merge(const Histogram &Other) {
  alwaysAssert(Bounds == Other.Bounds,
               "merging histograms with different bucket bounds");
  for (size_t I = 0; I < Counts.size(); ++I)
    Counts[I] += Other.Counts[I];
  Sum += Other.Sum;
  N += Other.N;
}

uint32_t MetricsRegistry::internName(std::string_view Name) {
  auto It = NameIds.find(Name);
  if (It != NameIds.end())
    return It->second;
  uint32_t Id = static_cast<uint32_t>(Names.size());
  Names.emplace_back(Name);
  NameIds.emplace(Names.back(), Id);
  return Id;
}

uint32_t MetricsRegistry::internLabels(const LabelSet &Labels) {
  LabelSet Canonical = Labels;
  std::sort(Canonical.begin(), Canonical.end());
  std::string Key;
  for (const Label &L : Canonical) {
    if (!Key.empty())
      Key += ',';
    Key += L.first;
    Key += '=';
    Key += L.second;
  }
  auto It = LabelIds.find(Key);
  if (It != LabelIds.end())
    return It->second;
  uint32_t Id = static_cast<uint32_t>(LabelSets.size());
  LabelSets.push_back(std::move(Canonical));
  LabelKeys.push_back(Key);
  LabelIds.emplace(std::move(Key), Id);
  return Id;
}

template <typename CreateFn>
uint32_t MetricsRegistry::findOrCreate(Kind K, std::string_view Name,
                                       const LabelSet &Labels,
                                       CreateFn Create) {
  uint32_t NameId = internName(Name);
  uint32_t LabelsId = internLabels(Labels);
  MetricKey Key{static_cast<uint8_t>(K), NameId, LabelsId};
  auto It = Index.find(Key);
  if (It != Index.end())
    return It->second.Index;
  uint32_t StorageIndex = Create();
  Index.emplace(Key, Entry{K, NameId, LabelsId, StorageIndex});
  return StorageIndex;
}

const MetricsRegistry::Entry *
MetricsRegistry::find(Kind K, std::string_view Name,
                      const LabelSet &Labels) const {
  auto NameIt = NameIds.find(Name);
  if (NameIt == NameIds.end())
    return nullptr;
  LabelSet Canonical = Labels;
  std::sort(Canonical.begin(), Canonical.end());
  std::string Key;
  for (const Label &L : Canonical) {
    if (!Key.empty())
      Key += ',';
    Key += L.first;
    Key += '=';
    Key += L.second;
  }
  auto LabelIt = LabelIds.find(Key);
  if (LabelIt == LabelIds.end())
    return nullptr;
  auto It = Index.find(
      MetricKey{static_cast<uint8_t>(K), NameIt->second, LabelIt->second});
  return It == Index.end() ? nullptr : &It->second;
}

Counter &MetricsRegistry::counter(std::string_view Name,
                                  const LabelSet &Labels) {
  uint32_t I = findOrCreate(Kind::Counter, Name, Labels, [&] {
    Counters.emplace_back();
    return static_cast<uint32_t>(Counters.size() - 1);
  });
  return Counters[I];
}

Gauge &MetricsRegistry::gauge(std::string_view Name, const LabelSet &Labels) {
  uint32_t I = findOrCreate(Kind::Gauge, Name, Labels, [&] {
    Gauges.emplace_back();
    return static_cast<uint32_t>(Gauges.size() - 1);
  });
  return Gauges[I];
}

Histogram &MetricsRegistry::histogram(std::string_view Name,
                                      const LabelSet &Labels,
                                      const std::vector<double> &UpperBounds) {
  uint32_t I = findOrCreate(Kind::Histogram, Name, Labels, [&] {
    alwaysAssert(std::is_sorted(UpperBounds.begin(), UpperBounds.end()),
                 "histogram bounds must ascend");
    Histograms.emplace_back(UpperBounds);
    return static_cast<uint32_t>(Histograms.size() - 1);
  });
  return Histograms[I];
}

TimeSeries &MetricsRegistry::series(std::string_view Name,
                                    const LabelSet &Labels) {
  uint32_t I = findOrCreate(Kind::Series, Name, Labels, [&] {
    Series.emplace_back(std::string(Name));
    return static_cast<uint32_t>(Series.size() - 1);
  });
  return Series[I];
}

const Counter *MetricsRegistry::findCounter(std::string_view Name,
                                            const LabelSet &Labels) const {
  const Entry *E = find(Kind::Counter, Name, Labels);
  return E ? &Counters[E->Index] : nullptr;
}

const Gauge *MetricsRegistry::findGauge(std::string_view Name,
                                        const LabelSet &Labels) const {
  const Entry *E = find(Kind::Gauge, Name, Labels);
  return E ? &Gauges[E->Index] : nullptr;
}

const Histogram *
MetricsRegistry::findHistogram(std::string_view Name,
                               const LabelSet &Labels) const {
  const Entry *E = find(Kind::Histogram, Name, Labels);
  return E ? &Histograms[E->Index] : nullptr;
}

const TimeSeries *MetricsRegistry::findSeries(std::string_view Name,
                                              const LabelSet &Labels) const {
  const Entry *E = find(Kind::Series, Name, Labels);
  return E ? &Series[E->Index] : nullptr;
}

std::vector<MetricsRegistry::Entry> MetricsRegistry::sortedEntries() const {
  std::vector<Entry> Entries;
  Entries.reserve(Index.size());
  for (const auto &[Key, E] : Index)
    Entries.push_back(E);
  std::sort(Entries.begin(), Entries.end(),
            [&](const Entry &A, const Entry &B) {
              if (Names[A.NameId] != Names[B.NameId])
                return Names[A.NameId] < Names[B.NameId];
              if (LabelKeys[A.LabelsId] != LabelKeys[B.LabelsId])
                return LabelKeys[A.LabelsId] < LabelKeys[B.LabelsId];
              return static_cast<uint8_t>(A.MetricKind) <
                     static_cast<uint8_t>(B.MetricKind);
            });
  return Entries;
}

void MetricsRegistry::mergeFrom(const MetricsRegistry &Other) {
  for (const Entry &E : Other.sortedEntries()) {
    const std::string &Name = Other.name(E.NameId);
    const LabelSet &Labels = Other.labels(E.LabelsId);
    switch (E.MetricKind) {
    case Kind::Counter:
      counter(Name, Labels).inc(Other.counterAt(E.Index).value());
      break;
    case Kind::Gauge:
      gauge(Name, Labels).set(Other.gaugeAt(E.Index).value());
      break;
    case Kind::Histogram: {
      const Histogram &H = Other.histogramAt(E.Index);
      histogram(Name, Labels, H.bounds()).merge(H);
      break;
    }
    case Kind::Series: {
      TimeSeries &S = series(Name, Labels);
      for (const TimePoint &P : Other.seriesAt(E.Index).points())
        S.record(P.TimeSec, P.Value);
      break;
    }
    }
  }
}

const std::vector<double> &jumpstart::obs::latencyBucketsSeconds() {
  static const std::vector<double> Buckets{
      0.0005, 0.001, 0.002, 0.005, 0.01, 0.02,
      0.05,   0.1,   0.2,   0.5,   1.0,  2.0};
  return Buckets;
}
