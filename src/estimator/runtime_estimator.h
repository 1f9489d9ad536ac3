// Runtime estimator (paper §4.4): trains one regression model per profiled
// operator variant and serves predictions through an operation-wise lookup
// table (a memo cache over quantized input sizes), which is what the
// simulator queries on its hot path.
//
// The lookup table is a fixed-capacity open-addressing flat table with
// atomic slots: the read path takes no lock (single-threaded simulation
// pays two atomic loads per hit; sweep threads sharing one estimator stop
// serializing on a mutex). Writers claim empty slots with a CAS and publish
// key-after-value, so readers never observe a half-written entry — at worst
// a concurrent reader misses an in-flight insert and recomputes the same
// deterministic value.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>

#include "estimator/regression.h"
#include "profiler/profile_db.h"

namespace vidur {

class RuntimeEstimator {
 public:
  struct Options {
    EstimatorKind kind = EstimatorKind::kRandomForest;
    std::uint64_t seed = 0x7e57ULL;
    /// Quantization of decode-attention KV totals for cache keys (tokens).
    long decode_kv_rounding = 64;
    /// Quantization of communication byte counts for cache keys.
    long comm_bytes_rounding = 4096;
    /// Slots in the open-addressing prediction cache (rounded up to a power
    /// of two). Inserts stop at 50% load; further misses recompute. The
    /// default does saturate: perfbench's `fleet-rr` (64-replica fleet) and
    /// `search` (Vidur-Search sweep) workloads fill all 32,768 insertable
    /// entries, while `session-cache` stops at 9,192. In a simulation only
    /// stage-timing memo misses reach the cache, so what fills it is the
    /// set of distinct batch signatures, not the call count. A miss looks
    /// up at most the five operators that read more than the token count;
    /// the ten token-count-only ones are looked up only when their memoized
    /// running sum (StageTimingMemo::Key::token_ops) misses too. One run of
    /// each workload's spec looks up 67k (`fleet-rr`), 236k
    /// (`session-cache`) and 358k (`search`) times, of which 47k, 9.2k and
    /// 166k miss the cache (123k, 797k and 1.08M lookups when every memo
    /// miss looked up every operator; 2.58M, 917k and 1.71M with
    /// per-replica memos). A miss past the cap costs one step-table read
    /// for every operator but prefill attention.
    std::size_t cache_slots = 1 << 16;
  };

  /// Trains all per-operator models from the profile database, in parallel
  /// on hardware_threads() workers. Model i in db.keys() order is seeded
  /// with options.seed + i, so the models do not depend on the thread
  /// count. The first fit failure in key order is rethrown.
  explicit RuntimeEstimator(const ProfileDb& db) : RuntimeEstimator(db, Options{}) {}
  RuntimeEstimator(const ProfileDb& db, Options options);

  const Options& options() const { return options_; }

  /// The decode-KV quantization predict() applies to kAttnDecode inputs.
  /// Public so dependants (the stage-timing memo) bucket with the exact
  /// same rounding instead of re-deriving it.
  long quantize_decode_kv(long kv_tokens) const;

  /// Predicted runtime of `op` (sharded at `shard`: TP degree for model ops,
  /// world size for collectives) with input `in`. Thread-safe; memoized;
  /// lock-free on both hit and miss paths.
  double predict(OpType op, int shard, const OpInput& in) const;

  /// Prediction bypassing the cache (used by tests and the ablation bench).
  double predict_uncached(OpType op, int shard, const OpInput& in) const;

  /// Held-out accuracy of the per-op model (MAPE over the given points).
  double evaluate_mape(const ProfileKey& key,
                       const std::vector<ProfilePoint>& heldout) const;

  bool has_model(OpType op, int shard) const;
  std::size_t cache_size() const {
    return cache_used_.load(std::memory_order_relaxed);
  }
  /// Calls into predict() — exactly one per call, hit or miss. A call whose
  /// input does not fit the packed key skips the cache and counts as a miss.
  std::size_t cache_lookups() const {
    return cache_lookups_.load(std::memory_order_relaxed);
  }
  std::size_t cache_hits() const {
    return cache_hits_.load(std::memory_order_relaxed);
  }
  /// Derived as lookups - hits, so cache_hits() + cache_misses() ==
  /// cache_lookups() holds exactly even while other threads are inside
  /// predict(). Hits are loaded first: a hit increment always follows its
  /// lookup increment, so the difference can never go negative for a given
  /// interleaving; the clamp guards the relaxed-ordering edge case.
  std::size_t cache_misses() const {
    const std::size_t hits = cache_hits_.load(std::memory_order_relaxed);
    const std::size_t lookups =
        cache_lookups_.load(std::memory_order_relaxed);
    return lookups > hits ? lookups - hits : 0;
  }

 private:
  /// One cache slot. `key` transitions kEmpty -> kBusy -> the real key;
  /// `value_bits` is the prediction's double, bit-cast, written before the
  /// key is published.
  struct Slot {
    std::atomic<std::uint64_t> key{kEmptyKey};
    std::atomic<std::uint64_t> value_bits{0};
  };

  /// Sentinels live outside the reachable key space: cache_key() packs the
  /// op id into the top bits, and no op id comes near 63.
  static constexpr std::uint64_t kEmptyKey = ~0ULL;
  static constexpr std::uint64_t kBusyKey = ~0ULL - 1;

  static std::size_t hash_key(std::uint64_t k) {
    // splitmix-style finalizer.
    k ^= k >> 33;
    k *= 0xff51afd7ed558ccdULL;
    k ^= k >> 33;
    return static_cast<std::size_t>(k);
  }

  /// Quantize inputs so near-identical queries share a cache entry.
  OpInput quantize(OpType op, OpInput in) const;
  /// The packed cache key, or nullopt when the shard or a key feature
  /// overflows its field (packing it would alias a smaller input).
  std::optional<std::uint64_t> cache_key(OpType op, int shard,
                                         const OpInput& in) const;

  bool cache_lookup(std::uint64_t key, double* value) const;
  void cache_insert(std::uint64_t key, double value) const;

  Options options_;
  std::map<ProfileKey, std::unique_ptr<RegressionModel>> models_;
  std::unique_ptr<Slot[]> slots_;
  std::size_t slot_mask_ = 0;  ///< capacity - 1 (capacity is a power of two)
  mutable std::atomic<std::size_t> cache_used_{0};
  mutable std::atomic<std::size_t> cache_lookups_{0};
  mutable std::atomic<std::size_t> cache_hits_{0};
};

}  // namespace vidur
