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

  bool operator==(const Summary&) const = default;
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
/// A sample may come with a weight w >= 1, standing for w copies of it
/// (add_each): a stream of many repeated values, such as a fleet's
/// inter-token gaps, which repeat one batch gap for every request in the
/// batch, is fed as one item per distinct occurrence.
///
/// The result equals Summary::of() of a SampleSeries holding every copy:
/// count, min, max and every quantile bit for bit, whatever the feed order
/// or the grouping into weights. Every quantile interpolates the same two
/// order statistics, found by an exact radix selection over order_key().
/// The sums run in feed order, each item adding x * w and w * (x - mean)^2,
/// so mean and stddev are bit-identical to the sort's for a stream of
/// weight-1 samples in the series' order, and otherwise differ from it by
/// summation rounding only. Each pass counts one 12-bit digit among the
/// samples sharing an order statistic's resolved key prefix (the first
/// digit is the sign and exponent); once at most kGatherMax copies share a
/// prefix, the next pass collects their keys, a weighted item adding w
/// keys, and selects among them. No stream takes more than six passes, and
/// the inter-token gaps of a fleet run take three. Memory is a 32 KB
/// histogram per open prefix (at most one per order statistic) plus at most
/// kGatherMax gathered keys per prefix, whatever the stream length. Samples
/// must not be NaN; a quantile landing among zeros of both signs may differ
/// from the sort's in that sign only.
class StreamSummary {
 public:
  /// Start the next pass; false once summary() is final.
  bool next_pass();
  /// Feed one sample of the current pass: add_each with one item of
  /// weight 1.
  void add(double x);
  /// Feed the items `visit` yields, in order: visit(sink) calls sink(x, w)
  /// once per item, w a std::uint64_t >= 1, for w copies of sample x. The
  /// one feed form: the bulk form of add(), for long streams that are not
  /// stored as one array.
  template <typename Visit>
  void add_each(const Visit& visit);
  /// Feed the gaps between consecutive entries of `times`, in order
  /// (times[1] - times[0], ...), each of weight 1: the per-token reference
  /// for weighted gap feeds.
  void add_gaps(const std::vector<double>& times);
  const Summary& summary() const { return out_; }

 private:
  static constexpr int kDigitBits = 12;
  /// Prefixes shared by at most this many samples (total weight) are
  /// gathered.
  static constexpr std::size_t kGatherMax = std::size_t{1} << 16;
  static constexpr std::size_t kRouteSize = std::size_t{1} << kDigitBits;
  static constexpr std::uint8_t kAmbiguous = 0xFF;

  /// The samples sharing one resolved key prefix in the current pass: a
  /// histogram of their next digit, or, for a small group, their keys.
  /// Sizes and counts are total weights.
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

template <typename Visit>
void StreamSummary::add_each(const Visit& visit) {
  // Accumulators live in locals for the whole stream (no store-to-load
  // chains through members), summing in stream order: the values, then
  // the squared deviations, each times its weight. Weight 1 multiplies
  // exactly, so a weight-1 stream sums exactly as SampleSeries does.
  const std::uint64_t mask = mask_;
  const int shift = shift_;
  const std::uint64_t digit_mask = (std::uint64_t{1} << width_) - 1;
  const std::uint8_t* const route_table = route_.data();
  const int route_shift = route_shift_;
  const std::uint64_t* const prefix = group_prefix_.data();
  const std::size_t num_groups = group_prefix_.size();
  const auto route = [&](std::uint64_t key, std::uint64_t w) {
    // The previous digit picks the candidate group; most samples stop here.
    std::size_t g = route_table[(key >> route_shift) & (kRouteSize - 1)];
    if (g == 0) return;
    const std::uint64_t top = key & mask;
    if (g == kAmbiguous) {
      g = 0;
      while (g < num_groups && prefix[g] != top) ++g;
      if (g == num_groups) return;
    } else if (prefix[--g] != top) {
      return;
    }
    Group& group = groups_[g];
    if (group.gather)
      group.keys.insert(group.keys.end(), w, key);
    else
      group.count[static_cast<std::size_t>((key >> shift) & digit_mask)] += w;
  };
  if (pass_ == 0) {
    // Every sample shares the empty prefix: count its first digit.
    std::uint64_t* const first = groups_[0].count.data();
    double sum = sum_, lo = min_, hi = max_;
    std::uint64_t n = n_;
    visit([&](double x, std::uint64_t w) {
      sum += x * static_cast<double>(w);
      n += w;
      if (x < lo) lo = x;
      if (hi < x) hi = x;
      first[order_key(x) >> shift] += w;
    });
    n_ = n;
    sum_ = sum;
    min_ = lo;
    max_ = hi;
  } else if (pass_ == 1 || num_groups > 0) {
    // Pass 1 also sums the squared deviations, which need pass 0's mean.
    // One loop serves pass 1 and later, so `route` has one call site and
    // stays inlined.
    const bool deviation = pass_ == 1;
    const double mean = mean_;
    double dev = dev_;
    visit([&](double x, std::uint64_t w) {
      if (deviation) dev += static_cast<double>(w) * ((x - mean) * (x - mean));
      route(order_key(x), w);
    });
    dev_ = dev;
  }
}

}  // namespace vidur
