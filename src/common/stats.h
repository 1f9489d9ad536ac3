// Streaming and sample-based statistics used by metric collection and the
// trace generators.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace vidur {

/// Welford streaming statistics: O(1) memory mean / variance / extrema.
class RunningStats {
 public:
  void add(double x);

  std::size_t count() const { return count_; }
  double mean() const;
  double variance() const;  ///< population variance; 0 when count < 2
  double stddev() const;
  double min() const;  ///< +inf when empty
  double max() const;  ///< -inf when empty
  double sum() const { return sum_; }

  /// Merge another accumulator into this one (parallel reduction).
  void merge(const RunningStats& other);

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

/// Retains every sample; supports exact quantiles. Metric series in a
/// simulation are bounded by the request count so retention is cheap.
class SampleSeries {
 public:
  void add(double x) { samples_.push_back(x); }
  void reserve(std::size_t n) { samples_.reserve(n); }

  std::size_t count() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }
  double mean() const;
  double sum() const;
  double min() const;
  double max() const;
  double stddev() const;

  /// Exact quantile with linear interpolation, q in [0, 1].
  /// Requires a non-empty series.
  double quantile(double q) const;
  double median() const { return quantile(0.5); }

  const std::vector<double>& samples() const { return samples_; }
  void merge(const SampleSeries& other);

 private:
  std::vector<double> samples_;
  mutable std::vector<double> sorted_;      // lazily maintained cache
  mutable bool sorted_valid_ = false;
  void ensure_sorted() const;
};

/// Compact summary of a series, convenient for reports and CSV rows.
struct Summary {
  std::size_t count = 0;
  double mean = 0.0;
  double stddev = 0.0;
  double min = 0.0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
  double max = 0.0;

  static Summary of(const SampleSeries& s);
};

/// Order-preserving map of a double onto an unsigned key: a < b implies
/// order_key(a) < order_key(b), with -0.0 just below +0.0. NaN has no place
/// in the order.
inline std::uint64_t order_key(double x) {
  const auto bits = std::bit_cast<std::uint64_t>(x);
  // Negative: flip every bit (a larger magnitude sorts lower). Otherwise
  // set the sign bit, so it sorts above every negative.
  return bits ^ ((std::uint64_t{0} - (bits >> 63)) | (std::uint64_t{1} << 63));
}

/// Exact Summary of a sample stream that is replayed instead of stored. The
/// caller feeds the same samples in the same order once per pass:
///
///   StreamSummary s;
///   while (s.next_pass())
///     for (double x : samples) s.add(x);
///   const Summary& out = s.summary();
///
/// The result equals Summary::of() of a SampleSeries filled in that order,
/// field for field: the sums run in stream order, and every quantile
/// interpolates the same two order statistics, found by an exact radix
/// selection over order_key(). Each pass counts one 12-bit digit among the
/// samples sharing an order statistic's resolved key prefix (the first
/// digit is the sign and exponent); once at most kGatherMax samples share a
/// prefix, the next pass collects their keys and selects among them. No
/// stream takes more than six passes, and the inter-token gaps of a fleet
/// run take three. Memory is a 32 KB histogram per open prefix (at most one
/// per order statistic) plus at most kGatherMax gathered keys per prefix,
/// whatever the stream length. Samples must not be NaN; a quantile landing
/// among zeros of both signs may differ from the sort's in that sign only.
class StreamSummary {
 public:
  /// Start the next pass; false once summary() is final.
  bool next_pass();
  /// Feed one sample of the current pass.
  void add(double x);
  /// Feed the gaps between consecutive entries of `times`, in order
  /// (times[1] - times[0], ...): the inter-token gaps of one request. The
  /// bulk form of add(), for long streams.
  void add_gaps(const std::vector<double>& times);
  const Summary& summary() const { return out_; }

 private:
  static constexpr int kDigitBits = 12;
  /// Prefixes shared by at most this many samples are gathered.
  static constexpr std::size_t kGatherMax = std::size_t{1} << 16;
  static constexpr std::size_t kRouteSize = std::size_t{1} << kDigitBits;
  static constexpr std::uint8_t kAmbiguous = 0xFF;

  /// The samples sharing one resolved key prefix in the current pass: a
  /// histogram of their next digit, or, for a small group, their keys.
  struct Group {
    std::uint64_t size = 0;  ///< samples sharing the prefix
    bool gather = false;
    std::vector<std::uint64_t> count;  ///< per digit value
    std::vector<std::uint64_t> keys;   ///< gathered keys
  };
  /// One order statistic under selection.
  struct Target {
    std::uint64_t rank = 0;      ///< position in sorted order
    std::uint64_t prefix = 0;    ///< resolved high bits of its key
    std::uint64_t residual = 0;  ///< its rank among keys sharing `prefix`
    std::uint64_t shared = 0;    ///< samples sharing `prefix`
    bool resolved = false;
    double value = 0.0;
  };

  template <typename Sample>
  void feed(std::size_t count, const Sample& sample);
  /// Resolve what the finished pass counted or gathered, then lay out the
  /// next pass's groups. False when nothing is left to select.
  bool plan_next_pass();
  /// One group per distinct open target prefix, counting the digit at
  /// shift_ or gathering.
  void open_groups();
  double order_statistic(std::uint64_t rank) const;
  double quantile(double q) const;

  int pass_ = -1;
  bool done_ = false;
  std::size_t n_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double mean_ = 0.0;
  double dev_ = 0.0;  ///< sum of squared deviations from mean_
  int shift_ = 0;     ///< lowest bit of the digit counted this pass
  int width_ = 0;     ///< bits in that digit
  std::uint64_t mask_ = 0;  ///< key bits above that digit
  std::vector<std::uint64_t> group_prefix_;  ///< one per group, compact
  std::vector<std::uint8_t> route_;  ///< previous digit -> group + 1
  int route_shift_ = 0;              ///< lowest bit of the previous digit
  std::vector<Group> groups_;
  std::vector<Target> targets_;
  Summary out_;
};

}  // namespace vidur
