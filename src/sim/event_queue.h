// Discrete-event engine: a time-ordered queue with stable FIFO ordering for
// simultaneous events (deterministic replay).
//
// The hot path is typed: simulator events are plain tagged records stored
// inline in a 4-ary min-heap (no per-event heap allocation, no virtual
// dispatch) and handed back to the owner, which dispatches them with a
// switch. A callback escape hatch remains for rare-path events (cluster
// scale-up chains, tests): those store their std::function in a side slab
// and the heap node carries only the slot index, so even the escape hatch
// never moves a std::function through the heap.
//
// Arrivals skip the heap. A simulation knows every arrival before it
// starts, so it hands them over once as a stream sorted by time
// (set_arrivals) and the queue pops whichever comes first, the stream head
// or the heap top. The stream reserves the sequence numbers the same
// arrivals would have taken had they been pushed one by one at that point,
// so the (time, seq) order of every event is unchanged by construction:
// events scheduled earlier (ticks at t=0) still run before an arrival at
// the same time, events scheduled later still run after it. The heap then
// holds only in-flight work instead of every future arrival.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/types.h"

namespace vidur {

struct RequestState;

enum class EventKind : std::uint8_t {
  kCallback = 0,    ///< escape hatch: slab-stored std::function
  kArrival,         ///< a request enters the system
  kStageEnd,        ///< a pipeline stage finished a micro-batch
  kDeliverToStage,  ///< activations arrive at a downstream stage
  kMigrated,        ///< disaggregation: KV transfer landed on a decode replica
  kAutoscalerTick,  ///< periodic cluster-manager decision point
};

/// One typed simulator event. Which fields are meaningful depends on `kind`;
/// unused fields keep their defaults. Trivially copyable by design — heap
/// sifts move these with plain stores.
struct SimEvent {
  EventKind kind = EventKind::kCallback;
  std::int32_t replica = -1;
  std::int32_t stage = -1;
  /// StageEnd/DeliverToStage: the in-flight batch handle.
  /// Callback: the slab slot holding the action.
  std::int64_t handle = -1;
  /// StageEnd under asynchronous pipelining: the activation-send lag that
  /// delays the downstream hand-off.
  Seconds comm_time = 0.0;
  RequestState* request = nullptr;  ///< Arrival/Migrated
};

class EventQueue {
 public:
  /// Escape hatch: schedule a callback at absolute time `time` (>= now).
  /// One slab slot per pending callback; prefer typed events on hot paths.
  void schedule(Seconds time, std::function<void()> action) {
    // Validate before claiming a slab slot so a rejected schedule leaks
    // nothing (push() re-checks for the typed path).
    VIDUR_CHECK_MSG(time >= now_, "event scheduled in the past");
    SimEvent ev;
    ev.kind = EventKind::kCallback;
    if (free_slots_.empty()) {
      ev.handle = static_cast<std::int64_t>(slab_.size());
      slab_.push_back(std::move(action));
    } else {
      ev.handle = free_slots_.back();
      free_slots_.pop_back();
      slab_[static_cast<std::size_t>(ev.handle)] = std::move(action);
    }
    push(time, ev);
  }

  /// Typed fast path: no allocation, no type erasure.
  void schedule_event(Seconds time, const SimEvent& ev) { push(time, ev); }

  /// Autoscaler decision tick; executed by the queue via the registered
  /// tick handler so standalone ClusterManager users need no dispatcher.
  void schedule_tick(Seconds time) {
    SimEvent ev;
    ev.kind = EventKind::kAutoscalerTick;
    push(time, ev);
  }

  /// Handler invoked for kAutoscalerTick events (set by ClusterManager,
  /// cleared on its destruction). Single slot: re-registering without
  /// clearing first would silently reroute another owner's ticks.
  void set_tick_handler(std::function<void()> handler) {
    VIDUR_CHECK_MSG(handler == nullptr || tick_handler_ == nullptr,
                    "tick handler already registered");
    tick_handler_ = std::move(handler);
  }

  /// One entry of the arrival stream: dispatched as a kArrival SimEvent.
  struct Arrival {
    Seconds time;
    RequestState* request;
  };

  /// Schedule every entry of `stream` (sorted by time, none in the past) as
  /// a kArrival event, exactly as schedule_event() in stream order would at
  /// this point: the stream takes the next stream.size() sequence numbers.
  /// At most one stream is pending at a time.
  void set_arrivals(std::vector<Arrival> stream) {
    VIDUR_CHECK_MSG(stream_pos_ == stream_.size(),
                    "an arrival stream is already pending");
    for (std::size_t i = 0; i < stream.size(); ++i) {
      VIDUR_CHECK_MSG(stream[i].time >= now_, "event scheduled in the past");
      VIDUR_CHECK_MSG(i == 0 || stream[i - 1].time <= stream[i].time,
                      "arrival stream is not sorted by time");
    }
    stream_ = std::move(stream);
    stream_pos_ = 0;
    stream_seq_ = next_seq_;
    next_seq_ += stream_.size();
  }

  bool empty() const { return heap_.empty() && stream_pos_ == stream_.size(); }
  std::size_t size() const {
    return heap_.size() + (stream_.size() - stream_pos_);
  }
  Seconds now() const { return now_; }
  /// Events executed so far (the denominator of events/s benchmarks).
  std::uint64_t num_processed() const { return num_processed_; }

  /// Pop and execute the earliest event; advances now(). Callback and tick
  /// events run internally; every other kind is passed to `dispatch`.
  template <class Dispatch>
  void run_next(Dispatch&& dispatch) {
    VIDUR_CHECK_MSG(!empty(), "run_next() on an empty queue");
    if (stream_first()) {
      SimEvent ev;
      ev.kind = EventKind::kArrival;
      ev.request = stream_[stream_pos_].request;
      now_ = stream_[stream_pos_].time;
      ++num_processed_;
      if (++stream_pos_ == stream_.size()) {
        stream_ = {};  // drained: give the memory back before finalize
        stream_pos_ = 0;
      }
      dispatch(ev);
      return;
    }
    const Node top = heap_.front();
    pop_min();
    now_ = top.time;
    ++num_processed_;
    switch (top.event.kind) {
      case EventKind::kCallback: {
        const auto slot = static_cast<std::size_t>(top.event.handle);
        // Move the action out before running it: the callback may schedule
        // new callbacks that immediately reuse the freed slot.
        auto action = std::move(slab_[slot]);
        slab_[slot] = nullptr;
        free_slots_.push_back(top.event.handle);
        action();
        break;
      }
      case EventKind::kAutoscalerTick:
        VIDUR_CHECK_MSG(tick_handler_ != nullptr,
                        "autoscaler tick with no tick handler registered");
        tick_handler_();
        break;
      default:
        dispatch(top.event);
    }
  }

  /// Callback-only convenience (tests, standalone ClusterManager): throws
  /// if a typed simulator event surfaces without a dispatcher.
  void run_next() {
    run_next([](const SimEvent&) {
      VIDUR_CHECK_MSG(false,
                      "typed simulator event popped without a dispatcher");
    });
  }

  /// Time of the earliest pending event.
  Seconds next_time() const {
    VIDUR_CHECK(!empty());
    return stream_first() ? stream_[stream_pos_].time : heap_.front().time;
  }

  /// Time of the next pending arrival of the stream; kInfiniteTime once
  /// the stream has drained. Arrivals never enter the heap, so this is the
  /// earliest moment new work can enter the system.
  Seconds next_arrival_time() const {
    return stream_pos_ == stream_.size() ? kInfiniteTime
                                         : stream_[stream_pos_].time;
  }

 private:
  struct Node {
    Seconds time;
    std::uint64_t seq;
    SimEvent event;
  };

  /// Strict (time, seq) order: seq breaks ties FIFO so same-time events
  /// replay in scheduling order — the determinism guarantee.
  static bool before(const Node& a, const Node& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }

  /// Whether the stream head precedes the heap top in (time, seq) order.
  /// No heap event holds a sequence number inside the stream's reserved
  /// range, so at equal times only which side of it the top lies on
  /// matters.
  bool stream_first() const {
    if (stream_pos_ == stream_.size()) return false;
    if (heap_.empty()) return true;
    const Seconds t = stream_[stream_pos_].time;
    const Node& top = heap_.front();
    if (t != top.time) return t < top.time;
    return top.seq > stream_seq_;
  }

  void push(Seconds time, const SimEvent& ev) {
    VIDUR_CHECK_MSG(time >= now_, "event scheduled in the past");
    heap_.push_back(Node{time, next_seq_++, ev});
    sift_up(heap_.size() - 1);
  }

  void pop_min() {
    heap_.front() = heap_.back();
    heap_.pop_back();
    if (heap_.size() > 1) sift_down(0);
  }

  // 4-ary heap: shallower than binary (log4 n levels) and the four children
  // share two cache lines, so pops do fewer, cheaper comparisons.
  static constexpr std::size_t kArity = 4;

  void sift_up(std::size_t i) {
    const Node node = heap_[i];
    while (i > 0) {
      const std::size_t parent = (i - 1) / kArity;
      if (!before(node, heap_[parent])) break;
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = node;
  }

  void sift_down(std::size_t i) {
    const Node node = heap_[i];
    const std::size_t n = heap_.size();
    for (;;) {
      const std::size_t first = kArity * i + 1;
      if (first >= n) break;
      std::size_t best = first;
      const std::size_t last = std::min(first + kArity, n);
      for (std::size_t c = first + 1; c < last; ++c)
        if (before(heap_[c], heap_[best])) best = c;
      if (!before(heap_[best], node)) break;
      heap_[i] = heap_[best];
      i = best;
    }
    heap_[i] = node;
  }

  std::vector<Node> heap_;
  std::vector<Arrival> stream_;  ///< sorted; [stream_pos_, end) pending
  std::size_t stream_pos_ = 0;
  std::uint64_t stream_seq_ = 0;  ///< first sequence number the stream took
  std::vector<std::function<void()>> slab_;  ///< pending callback actions
  std::vector<std::int64_t> free_slots_;
  std::function<void()> tick_handler_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t num_processed_ = 0;
  Seconds now_ = 0.0;
};

}  // namespace vidur
