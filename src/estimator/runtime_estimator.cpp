#include "estimator/runtime_estimator.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <exception>

#include "common/check.h"
#include "common/thread_pool.h"

namespace vidur {

namespace {

long round_to(long value, long granule) {
  if (granule <= 1 || value <= 0) return value;
  return ((value + granule / 2) / granule) * granule;
}

}  // namespace

RuntimeEstimator::RuntimeEstimator(const ProfileDb& db, Options options)
    : options_(options) {
  const std::vector<ProfileKey> keys = db.keys();
  VIDUR_CHECK_MSG(!keys.empty(), "profile database is empty");
  // Pool tasks must not throw: each records its own failure, and the first
  // one in key order is rethrown once the pool has drained.
  std::vector<std::unique_ptr<RegressionModel>> models(keys.size());
  std::vector<std::exception_ptr> errors(keys.size());
  {
    ThreadPool pool(std::min<std::size_t>(hardware_threads(), keys.size()));
    parallel_for(pool, keys.size(), [&](std::size_t i) {
      try {
        Dataset data;
        for (const ProfilePoint& p : db.points(keys[i]))
          data.add(p.features, p.runtime);
        auto model = make_regression_model(options_.kind, options_.seed + i);
        model->fit(data);
        models[i] = std::move(model);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    });
  }
  for (const std::exception_ptr& error : errors)
    if (error) std::rethrow_exception(error);
  for (std::size_t i = 0; i < keys.size(); ++i)
    models_.emplace(keys[i], std::move(models[i]));

  const std::size_t capacity =
      std::bit_ceil(std::max<std::size_t>(options_.cache_slots, 64));
  slots_ = std::make_unique<Slot[]>(capacity);
  slot_mask_ = capacity - 1;
}

bool RuntimeEstimator::has_model(OpType op, int shard) const {
  return models_.count(ProfileKey{op, shard}) > 0;
}

long RuntimeEstimator::quantize_decode_kv(long kv_tokens) const {
  return round_to(kv_tokens, options_.decode_kv_rounding);
}

OpInput RuntimeEstimator::quantize(OpType op, OpInput in) const {
  if (op == OpType::kAttnDecode) {
    in.kv_tokens = quantize_decode_kv(in.kv_tokens);
  } else if (op_class(op) == OpClass::kCommunication) {
    in.bytes = round_to(in.bytes, options_.comm_bytes_rounding);
  }
  return in;
}

std::optional<std::uint64_t> RuntimeEstimator::cache_key(
    OpType op, int shard, const OpInput& in) const {
  // Layout: [op:6][shard:6][f0:28][f1:24]. An input that overflows a field
  // gets no key: masking it would alias a smaller input (a 2^28-byte
  // collective is reached at 16,384 tokens of an 8,192-wide model). Op ids
  // stay far below 62, so packed keys never collide with the slot sentinels.
  const auto [raw0, raw1] = in.key_features(op);
  const auto f0 = static_cast<std::uint64_t>(raw0 < 0 ? 0 : raw0);
  const auto f1 = static_cast<std::uint64_t>(raw1 < 0 ? 0 : raw1);
  const auto s = static_cast<std::uint64_t>(shard);  // negative: overflows
  if (s >> 6 != 0 || f0 >> 28 != 0 || f1 >> 24 != 0) return std::nullopt;
  std::uint64_t key = static_cast<std::uint64_t>(op) & 0x3f;
  key = (key << 6) | s;
  key = (key << 28) | f0;
  key = (key << 24) | f1;
  return key;
}

bool RuntimeEstimator::cache_lookup(std::uint64_t key, double* value) const {
  std::size_t idx = hash_key(key) & slot_mask_;
  for (std::size_t probes = 0; probes <= slot_mask_;
       ++probes, idx = (idx + 1) & slot_mask_) {
    const std::uint64_t k = slots_[idx].key.load(std::memory_order_acquire);
    if (k == key) {
      *value = std::bit_cast<double>(
          slots_[idx].value_bits.load(std::memory_order_acquire));
      return true;
    }
    if (k == kEmptyKey) return false;
    // kBusy (an insert mid-publication) or another key: keep probing. A
    // busy slot that turns out to be ours counts as a miss this time; the
    // recomputed value is identical, so the race is benign.
  }
  return false;
}

void RuntimeEstimator::cache_insert(std::uint64_t key, double value) const {
  // Load cap at 50%: probe chains stay short, and a saturated table
  // degrades to recomputing instead of probing forever.
  if (cache_used_.load(std::memory_order_relaxed) * 2 > slot_mask_) return;
  std::size_t idx = hash_key(key) & slot_mask_;
  for (std::size_t probes = 0; probes <= slot_mask_;
       ++probes, idx = (idx + 1) & slot_mask_) {
    std::uint64_t k = slots_[idx].key.load(std::memory_order_acquire);
    if (k == key) return;  // another thread published the same entry
    if (k != kEmptyKey) continue;
    std::uint64_t expected = kEmptyKey;
    if (slots_[idx].key.compare_exchange_strong(expected, kBusyKey,
                                                std::memory_order_acq_rel)) {
      // Value before key: a reader that sees the key also sees the value.
      slots_[idx].value_bits.store(std::bit_cast<std::uint64_t>(value),
                                   std::memory_order_release);
      slots_[idx].key.store(key, std::memory_order_release);
      cache_used_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    if (expected == key) return;  // lost the race to an identical insert
  }
}

double RuntimeEstimator::predict(OpType op, int shard,
                                 const OpInput& in) const {
  const OpInput q = quantize(op, in);
  const std::optional<std::uint64_t> key = cache_key(op, shard, q);
  // One lookup per call, counted unconditionally; misses are derived as
  // lookups - hits so hits + misses == lookups is an identity rather than
  // an invariant two racing counters could drift away from.
  cache_lookups_.fetch_add(1, std::memory_order_relaxed);
  if (!key) return predict_uncached(op, shard, q);  // a miss, uncacheable
  double value;
  if (cache_lookup(*key, &value)) {
    cache_hits_.fetch_add(1, std::memory_order_relaxed);
    return value;
  }
  value = predict_uncached(op, shard, q);
  cache_insert(*key, value);
  return value;
}

double RuntimeEstimator::predict_uncached(OpType op, int shard,
                                          const OpInput& in) const {
  auto it = models_.find(ProfileKey{op, shard});
  VIDUR_CHECK_MSG(it != models_.end(),
                  "no trained model for op=" << op_name(op)
                                             << " shard=" << shard
                                             << " — was it profiled?");
  const double value = it->second->predict(in.features(op));
  // Regression can undershoot near zero; runtimes are physical.
  return std::max(value, 1e-7);
}

double RuntimeEstimator::evaluate_mape(
    const ProfileKey& key, const std::vector<ProfilePoint>& heldout) const {
  auto it = models_.find(key);
  VIDUR_CHECK(it != models_.end());
  double acc = 0.0;
  std::size_t n = 0;
  for (const auto& p : heldout) {
    if (p.runtime <= 0.0) continue;
    acc += std::abs(it->second->predict(p.features) - p.runtime) / p.runtime;
    ++n;
  }
  VIDUR_CHECK(n > 0);
  return acc / static_cast<double>(n);
}

}  // namespace vidur
