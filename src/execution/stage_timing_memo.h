// StageTimingMemo: a fixed-size, lock-free table of predicted stage timings.
//
// ExecutionTimePredictor::stage_timing() is a pure function of a small batch
// signature (see StageTimingMemo::Key) once the estimator and the model are
// fixed. VidurSession keeps one memo per onboarded SKU, and every predictor
// of that SKU shares it: every replica of every simulation and every
// Vidur-Search probe, at every parallel layout (the layout is part of the
// key). Replicas of a fleet and successive probes mostly run the same batch
// shapes, so one shared table turns most of their lookups into hits.
//
// A second key kind serves the miss path: the running sum of a stage's
// leading token-count-only operators (Key::token_ops), a function of the
// layout, the stage and the batch's total q tokens. A miss adds the other
// operators to it in order, and 0.0 + x is exact, so the timing comes out
// bit-identical to summing every operator afresh.
//
// Layout: 4-way set-associative, one 64-byte slot per entry, with a
// round-robin victim per set. A full set evicts; nothing grows.
//
// Concurrency: shard threads and search workers share one memo. Each slot
// is a seqlock whose sequence number is odd while a writer fills it. Every
// slot field is a std::atomic, read with acquire loads and written with
// release stores between the sequence updates (rather than relaxed accesses
// plus standalone fences, which ThreadSanitizer does not model), so readers
// never block and never see a torn entry: a read that overlaps a write
// fails validation and counts as a miss. A writer claims its victim with a
// CAS on the sequence number and skips the insert if another writer holds
// it. Values are pure functions of their key, so eviction and races change
// only hit and miss counts, never a timing.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>

#include "common/types.h"

namespace vidur {

/// One stage execution, split into the on-device compute portion and the
/// inter-stage activation send (zero on the last stage). Synchronous
/// pipeline scheduling serializes the two; asynchronous scheduling overlaps
/// the send with the stage's next micro-batch (paper §4.5 future work).
struct StageTiming {
  Seconds compute = 0.0;
  Seconds comm = 0.0;

  Seconds total() const { return compute + comm; }
};

class StageTimingMemo {
 public:
  /// Everything a predicted stage timing depends on, for one estimator and
  /// one model: the batch aggregates decompose_stage() reads in
  /// equivalent-prefill mode (keep in sync with
  /// src/execution/stage_workload.cpp), the stage, and the parallel layout.
  /// The decode-KV sum is stored pre-bucketed with the estimator's own
  /// quantization. Layout fields must fit 16 bits (ExecutionTimePredictor
  /// checks).
  struct Key {
    std::int32_t stage = 0;
    std::int32_t tensor_parallel = 1;
    std::int32_t pipeline_parallel = 1;
    std::int32_t decodes = 0;
    std::int32_t sampled = 0;
    TokenCount q_tokens = 0;
    TokenCount prefill_eq = 0;
    TokenCount decode_kv_bucket = 0;

    /// Marks a token-operator key: batch signatures count decodes >= 0.
    static constexpr std::int32_t kTokenOps = -1;

    /// The key of the running sum of the token-count-only invocations that
    /// lead `stage`'s decomposition (see decompose_stage_into), stored as
    /// the compute part of a StageTiming with zero comm.
    static Key token_ops(std::int32_t stage, std::int32_t tensor_parallel,
                         std::int32_t pipeline_parallel, TokenCount q_tokens) {
      Key key;
      key.stage = stage;
      key.tensor_parallel = tensor_parallel;
      key.pipeline_parallel = pipeline_parallel;
      key.decodes = kTokenOps;
      key.q_tokens = q_tokens;
      return key;
    }
  };

  /// Entries of the table VidurSession shares per SKU (2 MiB).
  static constexpr std::size_t kSharedEntries = 32768;
  /// Entries of a predictor's private table when it is given no memo.
  static constexpr std::size_t kPrivateEntries = 4096;

  /// `entries` is rounded up to a power of two of at least 4 (one set).
  explicit StageTimingMemo(std::size_t entries);

  /// Copies the timing stored for `key` into `*out`. False on a miss, on
  /// a slot mid-write, and on a read that a write overlapped.
  bool lookup(const Key& key, StageTiming* out) const;
  /// Stores `timing` for `key` in the set's round-robin victim way, unless
  /// another writer holds that slot.
  void insert(const Key& key, const StageTiming& timing);

 private:
  static constexpr std::size_t kWays = 4;
  static constexpr std::size_t kKeyWords = 5;

  /// Sequence number, five packed key words, then the two timing doubles
  /// as bits. An all-zero key word 1 (no layout) marks an empty slot.
  struct alignas(64) Slot {
    std::atomic<std::uint64_t> seq{0};
    std::atomic<std::uint64_t> key[kKeyWords] = {};
    std::atomic<std::uint64_t> compute_bits{0};
    std::atomic<std::uint64_t> comm_bits{0};
  };
  static_assert(sizeof(Slot) == 64, "one slot per cache line");

  using PackedKey = std::uint64_t[kKeyWords];
  static void pack(const Key& key, PackedKey& words);
  std::size_t set_of(const PackedKey& words) const;

  std::unique_ptr<Slot[]> slots_;
  std::unique_ptr<std::atomic<std::uint8_t>[]> victims_;  ///< one per set
  std::size_t set_mask_ = 0;  ///< number of sets - 1 (a power of two)
};

}  // namespace vidur
