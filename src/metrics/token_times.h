// Output-token emission times, stored once per batch (TBT metrics, paper
// §5.2).
//
// Every output token is emitted at the end of a batch, and every request in
// that batch shares the batch's end time. A run's TokenTimeline keeps each
// replica slot's batch-end times once, in batch order; a request's
// TokenTimes holds runs of consecutive batch indices into it. A request that
// decodes in back-to-back batches of one replica extends a single run, so a
// run costs 12 bytes however many tokens it covers.
//
// Exactness: each token time reads back as the very double the scheduler
// stored, in emission order, so every inter-token gap (t[i] - t[i-1]) is the
// same double a per-token vector would give, and so is every histogram and
// SLO verdict computed from them.
//
// The gaps inside a run are gaps between consecutive batch ends of its slot,
// shared by every request that decoded in both batches. So the TBT summary
// (MetricsCollector::finalize) reads each slot gap once, weighted by the runs
// spanning it, plus one gap per boundary between a request's runs: the same
// multiset as the per-token gaps (for_each_gap), at a cost per batch end and
// run instead of per token. Count, extrema and percentiles come out bit for
// bit; the mean and stddev sums run in slot order instead of token order.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <iterator>
#include <limits>
#include <memory>
#include <vector>

#include "common/check.h"
#include "common/types.h"

namespace vidur {

/// The batch-end times of every replica slot of one run. Slots are sized at
/// construction; only the thread running a slot appends to it, so sharded
/// rounds need no lock.
class TokenTimeline {
 public:
  explicit TokenTimeline(int num_slots);

  int num_slots() const { return static_cast<int>(slots_.size()); }
  /// Append the next batch-end time of `slot`; returns its batch index.
  std::uint32_t push(int slot, Seconds time) {
    std::vector<Seconds>& times = slots_[static_cast<std::size_t>(slot)].times;
    VIDUR_CHECK_MSG(times.size() < std::numeric_limits<std::uint32_t>::max(),
                    "slot " << slot << " outgrew the token timeline");
    times.push_back(time);
    return static_cast<std::uint32_t>(times.size() - 1);
  }
  /// `slot`'s batch-end times, oldest first.
  const std::vector<Seconds>& times(int slot) const {
    return slots_[static_cast<std::size_t>(slot)].times;
  }

 private:
  /// One cache line per slot: shard threads append to neighbouring slots
  /// concurrently.
  struct alignas(64) Slot {
    std::vector<Seconds> times;
  };
  std::vector<Slot> slots_;
};

/// One request's output-token times: runs of consecutive batch indices of
/// one timeline slot, plus the token count, the last time and the running
/// worst gap. A value type: copies share the timeline, which is held by
/// shared_ptr, so a record copied out of a Simulator stays valid after the
/// Simulator is gone.
class TokenTimes {
 public:
  /// `count` tokens at batch indices first, first + 1, ... of `slot`.
  struct Run {
    std::uint32_t slot = 0;
    std::uint32_t first = 0;
    std::uint32_t count = 0;
  };

  TokenTimes() = default;
  /// Explicit times (hand-built records), on a private one-slot timeline.
  TokenTimes(std::initializer_list<Seconds> times);
  explicit TokenTimes(const std::vector<Seconds>& times);

  /// Tie an empty record to the timeline it will be appended against, so
  /// appends never copy the shared_ptr (no atomic on the per-token path).
  void bind(std::shared_ptr<const TokenTimeline> timeline);

  /// One token emitted at the end of batch `index` of `slot`, which ended
  /// at `time`. An unbound record binds to `timeline` here; a record bound
  /// to another timeline fails a check.
  void append(const std::shared_ptr<TokenTimeline>& timeline, int slot,
              std::uint32_t index, Seconds time) {
    append(timeline, slot, index, 1, time, time, -1.0);
  }

  /// `count` tokens emitted at the ends of batches index .. index + count
  /// - 1 of `slot`: the first at `first`, the last at `last`, and
  /// `max_gap` the largest gap between two consecutive ones (ignored when
  /// it is below every gap, as -1 is). The worst gap comes out as count
  /// one-token appends would leave it: a max is exact in any order.
  void append(const std::shared_ptr<TokenTimeline>& timeline, int slot,
              std::uint32_t index, std::uint32_t count, Seconds first,
              Seconds last, Seconds max_gap) {
    if (timeline_.get() != timeline.get()) adopt(timeline);
    if (size_ > 0) worst_gap_ = std::max(worst_gap_, first - last_);
    worst_gap_ = std::max(worst_gap_, max_gap);
    last_ = last;
    size_ += count;
    const auto s = static_cast<std::uint32_t>(slot);
    if (!runs_.empty() && runs_.back().slot == s &&
        runs_.back().first + runs_.back().count == index) {
      runs_.back().count += count;
    } else {
      runs_.push_back(Run{s, index, count});
    }
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  /// The first and the last time; both require a non-empty record.
  Seconds front() const {
    VIDUR_CHECK(!empty());
    return *begin();
  }
  Seconds back() const {
    VIDUR_CHECK(!empty());
    return last_;
  }
  /// Largest gap between consecutive times; -1 when fewer than two.
  Seconds worst_gap() const { return worst_gap_; }
  const std::vector<Run>& runs() const { return runs_; }
  /// The timeline the runs index; null until the record is bound.
  const TokenTimeline* timeline() const { return timeline_.get(); }

  /// Forward iteration over the times, in emission order.
  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = Seconds;
    using difference_type = std::ptrdiff_t;
    using pointer = const Seconds*;
    using reference = const Seconds&;

    const_iterator() = default;
    reference operator*() const {
      return timeline_->times(static_cast<int>(run_->slot))[run_->first +
                                                            offset_];
    }
    const_iterator& operator++() {
      if (++offset_ == run_->count) {
        ++run_;
        offset_ = 0;
      }
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator old = *this;
      ++*this;
      return old;
    }
    bool operator==(const const_iterator& other) const {
      return run_ == other.run_ && offset_ == other.offset_;
    }

   private:
    friend class TokenTimes;
    const_iterator(const TokenTimeline* timeline, const Run* run)
        : timeline_(timeline), run_(run) {}
    const TokenTimeline* timeline_ = nullptr;
    const Run* run_ = nullptr;
    std::uint32_t offset_ = 0;
  };
  const_iterator begin() const { return {timeline_.get(), runs_.data()}; }
  const_iterator end() const {
    return {timeline_.get(), runs_.data() + runs_.size()};
  }

  /// Call f(t[i] - t[i-1]) for every consecutive pair of times, in order:
  /// size() - 1 calls, none for fewer than two times. The per-token
  /// reference for the TBT summary, which reads the same gaps off the
  /// runs and the timeline as weighted batch gaps.
  template <typename F>
  void for_each_gap(const F& f) const {
    if (runs_.empty()) return;
    // Loop invariants held in locals: f's stores never force a reload.
    const TokenTimeline& timeline = *timeline_;
    const Run& head = runs_.front();
    Seconds prev = timeline.times(static_cast<int>(head.slot))[head.first];
    std::uint32_t from = 1;  // the first time has no predecessor
    for (const Run& run : runs_) {
      const Seconds* const t =
          timeline.times(static_cast<int>(run.slot)).data() + run.first;
      const std::uint32_t count = run.count;
      for (std::uint32_t i = from; i < count; ++i) {
        f(t[i] - prev);
        prev = t[i];
      }
      from = 0;
    }
  }

 private:
  /// Bind an unbound record to `timeline`; fails a check if it is bound to
  /// another one.
  void adopt(const std::shared_ptr<TokenTimeline>& timeline);

  std::shared_ptr<const TokenTimeline> timeline_;
  std::vector<Run> runs_;
  std::size_t size_ = 0;
  Seconds last_ = 0.0;
  Seconds worst_gap_ = -1.0;
};

}  // namespace vidur
