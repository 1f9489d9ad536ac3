#include "common/stats.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/check.h"

namespace vidur {

void RunningStats::add(double x) {
  if (count_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

double RunningStats::mean() const { return count_ == 0 ? 0.0 : mean_; }

double RunningStats::variance() const {
  return count_ < 2 ? 0.0 : m2_ / static_cast<double>(count_);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double RunningStats::min() const {
  return count_ == 0 ? std::numeric_limits<double>::infinity() : min_;
}

double RunningStats::max() const {
  return count_ == 0 ? -std::numeric_limits<double>::infinity() : max_;
}

void RunningStats::merge(const RunningStats& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double n1 = static_cast<double>(count_);
  const double n2 = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  mean_ = (n1 * mean_ + n2 * other.mean_) / (n1 + n2);
  m2_ += other.m2_ + delta * delta * n1 * n2 / (n1 + n2);
  count_ += other.count_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

void SampleSeries::ensure_sorted() const {
  if (sorted_valid_ && sorted_.size() == samples_.size()) return;
  sorted_ = samples_;
  std::sort(sorted_.begin(), sorted_.end());
  sorted_valid_ = true;
}

double SampleSeries::mean() const {
  if (samples_.empty()) return 0.0;
  return sum() / static_cast<double>(samples_.size());
}

double SampleSeries::sum() const {
  return std::accumulate(samples_.begin(), samples_.end(), 0.0);
}

double SampleSeries::min() const {
  if (samples_.empty()) return std::numeric_limits<double>::infinity();
  return *std::min_element(samples_.begin(), samples_.end());
}

double SampleSeries::max() const {
  if (samples_.empty()) return -std::numeric_limits<double>::infinity();
  return *std::max_element(samples_.begin(), samples_.end());
}

double SampleSeries::stddev() const {
  if (samples_.size() < 2) return 0.0;
  const double m = mean();
  double acc = 0.0;
  for (double x : samples_) acc += (x - m) * (x - m);
  return std::sqrt(acc / static_cast<double>(samples_.size()));
}

double SampleSeries::quantile(double q) const {
  VIDUR_CHECK_MSG(!samples_.empty(), "quantile of an empty series");
  VIDUR_CHECK(q >= 0.0 && q <= 1.0);
  ensure_sorted();
  if (sorted_.size() == 1) return sorted_.front();
  const double pos = q * static_cast<double>(sorted_.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const auto hi = std::min(lo + 1, sorted_.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted_[lo] * (1.0 - frac) + sorted_[hi] * frac;
}

void SampleSeries::merge(const SampleSeries& other) {
  samples_.insert(samples_.end(), other.samples_.begin(),
                  other.samples_.end());
  sorted_valid_ = false;
}

Summary Summary::of(const SampleSeries& s) {
  Summary out;
  out.count = s.count();
  if (s.empty()) return out;
  out.mean = s.mean();
  out.stddev = s.stddev();
  out.min = s.min();
  out.p50 = s.quantile(0.50);
  out.p90 = s.quantile(0.90);
  out.p95 = s.quantile(0.95);
  out.p99 = s.quantile(0.99);
  out.max = s.max();
  return out;
}

namespace {

/// Inverse of order_key().
double from_order_key(std::uint64_t key) {
  return std::bit_cast<double>(
      key ^ (((key >> 63) - 1) | (std::uint64_t{1} << 63)));
}

}  // namespace

void StreamSummary::add(double x) {
  add_each([x](const auto& sink) { sink(x, std::uint64_t{1}); });
}

void StreamSummary::add_gaps(const std::vector<double>& times) {
  const double* const t = times.data();
  const std::size_t n = times.size();
  add_each([t, n](const auto& sink) {
    for (std::size_t i = 1; i < n; ++i) sink(t[i] - t[i - 1], std::uint64_t{1});
  });
}

bool StreamSummary::next_pass() {
  if (done_) return false;
  if (pass_ < 0) {
    // Pass 0: the moments, plus the first digit of every sample (all of
    // them share the empty prefix).
    min_ = std::numeric_limits<double>::infinity();
    max_ = -std::numeric_limits<double>::infinity();
    width_ = kDigitBits;
    shift_ = 64 - width_;
    mask_ = 0;
    // One stand-in target: every statistic shares the empty prefix, with
    // a sample count not known yet.
    targets_.push_back(
        Target{.shared = std::numeric_limits<std::uint64_t>::max()});
    open_groups();
    targets_.clear();
    pass_ = 0;
    return true;
  }
  if (pass_ == 0) {
    out_.count = n_;
    if (n_ == 0) {
      done_ = true;
      return false;
    }
    mean_ = sum_ / static_cast<double>(n_);
    out_.mean = mean_;
    out_.min = min_;
    out_.max = max_;
    // The two order statistics each quantile interpolates, ranked exactly
    // as SampleSeries::quantile ranks them.
    for (const double q : {0.50, 0.90, 0.95, 0.99}) {
      const double pos = q * static_cast<double>(n_ - 1);
      const auto lo = static_cast<std::size_t>(pos);
      for (const std::size_t rank : {lo, std::min(lo + 1, n_ - 1)}) {
        const bool known = std::any_of(
            targets_.begin(), targets_.end(),
            [rank](const Target& t) { return t.rank == rank; });
        if (!known)
          targets_.push_back(
              Target{.rank = rank, .residual = rank, .shared = n_});
      }
    }
  } else if (pass_ == 1) {
    out_.stddev = std::sqrt(dev_ / static_cast<double>(n_));
  }
  // Pass 1 also sums the squared deviations, which need pass 0's mean.
  const bool deviation_pending = pass_ == 0 && n_ >= 2;
  if (!plan_next_pass() && !deviation_pending) {
    out_.p50 = quantile(0.50);
    out_.p90 = quantile(0.90);
    out_.p95 = quantile(0.95);
    out_.p99 = quantile(0.99);
    groups_.clear();
    groups_.shrink_to_fit();
    done_ = true;
    return false;
  }
  ++pass_;
  return true;
}

bool StreamSummary::plan_next_pass() {
  for (Target& t : targets_) {
    if (t.resolved) continue;
    const auto g = static_cast<std::size_t>(
        std::find(group_prefix_.begin(), group_prefix_.end(), t.prefix) -
        group_prefix_.begin());
    Group& group = groups_[g];
    if (group.gather) {  // every key sharing the prefix is at hand
      VIDUR_CHECK_MSG(group.keys.size() == group.size,
                      "StreamSummary fed different samples across passes");
      const auto nth =
          group.keys.begin() + static_cast<std::ptrdiff_t>(t.residual);
      std::nth_element(group.keys.begin(), nth, group.keys.end());
      t.resolved = true;
      t.value = from_order_key(*nth);
    } else {  // descend into the digit bucket holding the residual rank
      std::size_t d = 0;
      while (d < group.count.size() && t.residual >= group.count[d])
        t.residual -= group.count[d++];
      VIDUR_CHECK_MSG(d < group.count.size(),
                      "StreamSummary fed different samples across passes");
      t.prefix |= static_cast<std::uint64_t>(d) << shift_;
      t.shared = group.count[d];
      if (shift_ == 0) {  // that was the last digit: the prefix is the key
        t.resolved = true;
        t.value = from_order_key(t.prefix);
      }
    }
  }
  mask_ |= ((std::uint64_t{1} << width_) - 1) << shift_;
  width_ = std::min(kDigitBits, shift_);
  shift_ -= width_;
  open_groups();
  return !group_prefix_.empty();
}

void StreamSummary::open_groups() {
  group_prefix_.clear();
  std::size_t used = 0;
  for (const Target& t : targets_) {
    if (t.resolved || std::find(group_prefix_.begin(), group_prefix_.end(),
                                t.prefix) != group_prefix_.end())
      continue;
    group_prefix_.push_back(t.prefix);
    if (groups_.size() < group_prefix_.size()) groups_.emplace_back();
    Group& group = groups_[used++];
    group.size = t.shared;
    group.gather = t.shared <= kGatherMax;
    group.keys.clear();
    if (group.gather) {
      group.count.clear();
      group.keys.reserve(group.size);
    } else {
      group.count.assign(std::size_t{1} << width_, 0);
    }
  }
  groups_.resize(used);
  // Route table over the digit just above the counted one: it names the
  // one group whose prefix ends in that digit value (0: none; kAmbiguous:
  // several, compare them all).
  route_.assign(kRouteSize, 0);
  route_shift_ = shift_ + width_;
  if (route_shift_ == 64) return;  // pass 0 counts without routing
  for (std::size_t g = 0; g < group_prefix_.size(); ++g) {
    std::uint8_t& slot =
        route_[(group_prefix_[g] >> route_shift_) & (kRouteSize - 1)];
    slot = slot == 0 ? static_cast<std::uint8_t>(g + 1) : kAmbiguous;
  }
}

double StreamSummary::order_statistic(std::uint64_t rank) const {
  for (const Target& t : targets_)
    if (t.rank == rank) return t.value;
  VIDUR_CHECK_MSG(false, "no order statistic of rank " << rank);
  return 0.0;
}

double StreamSummary::quantile(double q) const {
  // Mirrors SampleSeries::quantile term for term, so results match bit
  // for bit.
  if (n_ == 1) return order_statistic(0);
  const double pos = q * static_cast<double>(n_ - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const auto hi = std::min(lo + 1, n_ - 1);
  const double frac = pos - static_cast<double>(lo);
  return order_statistic(lo) * (1.0 - frac) + order_statistic(hi) * frac;
}

}  // namespace vidur
