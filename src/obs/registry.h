// MetricsRegistry: named counters, gauges and fixed-bucket latency
// histograms threaded through the simulator, schedulers and cluster
// manager (observability subsystem).
//
// Handles are resolved by name once (map-backed, node-stable addresses) and
// incremented through plain pointers on the hot path — no string hashing
// per event. A RegistrySnapshot is a plain value embedded in
// SimulationMetrics, so every ExperimentResult carries the registry's final
// state without holding a reference to the registry itself.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/types.h"

namespace vidur {

struct Counter {
  std::uint64_t value = 0;

  void inc(std::uint64_t by = 1) { value += by; }
};

struct Gauge {
  double value = 0.0;

  void set(double v) { value = v; }
};

/// HDR-style latency histogram: 96 logarithmic buckets, 4 per octave,
/// spanning 1µs to ~16.7s (larger values land in the top bucket). Fixed
/// footprint, O(1) record, quantiles via within-bucket linear interpolation
/// (bounded relative error ~19%, the inter-bucket ratio 2^(1/4)).
class LatencyHistogram {
 public:
  static constexpr int kBucketsPerOctave = 4;
  static constexpr int kNumBuckets = 96;
  static constexpr double kMinSeconds = 1e-6;

  void record(Seconds seconds);

  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double mean() const {
    return count_ > 0 ? sum_ / static_cast<double>(count_) : 0.0;
  }
  double max_seen() const { return max_; }
  /// Value at quantile q in [0, 1] (0 when empty).
  double quantile(double q) const;

 private:
  std::uint64_t buckets_[kNumBuckets] = {};
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double max_ = 0.0;
};

/// Final registry state as plain sorted vectors (by name).
struct RegistrySnapshot {
  struct CounterEntry {
    std::string name;
    std::uint64_t value = 0;

    bool operator==(const CounterEntry&) const = default;
  };
  struct GaugeEntry {
    std::string name;
    double value = 0.0;

    bool operator==(const GaugeEntry&) const = default;
  };
  struct HistogramEntry {
    std::string name;
    std::uint64_t count = 0;
    double sum = 0.0;
    double mean = 0.0;
    double p50 = 0.0;
    double p90 = 0.0;
    double p99 = 0.0;
    double max = 0.0;

    bool operator==(const HistogramEntry&) const = default;
  };

  std::vector<CounterEntry> counters;
  std::vector<GaugeEntry> gauges;
  std::vector<HistogramEntry> histograms;

  bool empty() const {
    return counters.empty() && gauges.empty() && histograms.empty();
  }
  /// Counter value by name; 0 when absent (tests, summary lines).
  std::uint64_t counter(const std::string& name) const;

  bool operator==(const RegistrySnapshot&) const = default;
};

class MetricsRegistry {
 public:
  /// Named handle, created on first use. The returned pointer stays valid
  /// for the registry's lifetime (node-based storage).
  Counter* counter(const std::string& name) { return &counters_[name]; }
  Gauge* gauge(const std::string& name) { return &gauges_[name]; }
  LatencyHistogram* histogram(const std::string& name) {
    return &histograms_[name];
  }

  RegistrySnapshot snapshot() const;

 private:
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, LatencyHistogram> histograms_;
};

}  // namespace vidur
