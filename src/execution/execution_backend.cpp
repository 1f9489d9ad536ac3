#include "execution/execution_backend.h"

#include <algorithm>
#include <cmath>

#include "gpu/kernel_models.h"
#include "operators/ground_truth.h"

namespace vidur {

ExecutionTimePredictor::ExecutionTimePredictor(
    const RuntimeEstimator* estimator, const ModelSpec& model,
    const ParallelConfig& parallel, CpuOverheadModel cpu,
    StageTimingMemo* memo)
    : estimator_(estimator),
      shapes_(model, parallel.tensor_parallel),
      parallel_(parallel),
      cpu_(cpu),
      own_memo_(memo == nullptr ? std::make_unique<StageTimingMemo>(
                                      StageTimingMemo::kPrivateEntries)
                                : nullptr),
      memo_(memo == nullptr ? own_memo_.get() : memo) {
  VIDUR_CHECK(estimator != nullptr);
  parallel.validate();
  VIDUR_CHECK_MSG(parallel.tensor_parallel < (1 << 16) &&
                      parallel.pipeline_parallel < (1 << 16),
                  "parallel layout TP" << parallel.tensor_parallel << " x PP"
                                       << parallel.pipeline_parallel
                                       << " exceeds the 16-bit memo key");
}

StageTiming ExecutionTimePredictor::stage_timing(const BatchSpec& batch,
                                                 StageId stage) {
  return stage_timing(batch, batch.aggregates(), stage);
}

StageTiming ExecutionTimePredictor::stage_timing(const BatchSpec& /*batch*/,
                                                 const BatchAggregates& agg,
                                                 StageId stage) {
  StageTimingMemo::Key key;
  key.stage = stage;
  key.tensor_parallel = parallel_.tensor_parallel;
  key.pipeline_parallel = parallel_.pipeline_parallel;
  key.decodes = agg.decodes;
  key.sampled = agg.sampled;
  key.q_tokens = agg.total_q;
  key.prefill_eq = agg.prefill_equivalent_length();
  // Bucket exactly like the estimator quantizes decode KV: two batches in
  // the same bucket would produce identical predictions anyway, so the memo
  // is lossless while steady-state decode batches (whose KV sum creeps up
  // every iteration) keep hitting.
  key.decode_kv_bucket = estimator_->quantize_decode_kv(agg.decode_kv);

  StageTiming timing;
  if (memo_->lookup(key, &timing)) {
    ++timing_hits_;
    return timing;
  }
  ++timing_misses_;
  timing = compute_stage_timing(agg, stage);
  memo_->insert(key, timing);
  return timing;
}

StageTiming ExecutionTimePredictor::compute_stage_timing(
    const BatchAggregates& agg, StageId stage) {
  const std::size_t token_ops =
      decompose_stage_into(op_scratch_, shapes_, parallel_, agg, stage);
  auto add = [&](const OpInvocation& inv, StageTiming& timing) {
    const int shard = op_class(inv.op) == OpClass::kCommunication
                          ? inv.input.world
                          : parallel_.tensor_parallel;
    const Seconds t = estimator_->predict(inv.op, shard, inv.input) * inv.count;
    if (inv.op == OpType::kSendRecv)
      timing.comm += t;
    else
      timing.compute += t;
  };
  // The leading token-only invocations' running sum is shared by every
  // batch of this layout, stage and token count; the rest add onto it in
  // order, exactly as a sum over all invocations would.
  const StageTimingMemo::Key prefix_key = StageTimingMemo::Key::token_ops(
      stage, parallel_.tensor_parallel, parallel_.pipeline_parallel,
      agg.total_q);
  StageTiming timing;
  if (!memo_->lookup(prefix_key, &timing)) {
    for (std::size_t i = 0; i < token_ops; ++i) add(op_scratch_[i], timing);
    memo_->insert(prefix_key, timing);
  }
  for (std::size_t i = token_ops; i < op_scratch_.size(); ++i)
    add(op_scratch_[i], timing);
  return timing;
}

std::vector<std::pair<OpType, Seconds>> OpTimeBreakdown::sorted() const {
  std::vector<std::pair<OpType, Seconds>> out(per_op.begin(), per_op.end());
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  return out;
}

OpTimeBreakdown ExecutionTimePredictor::stage_breakdown(const BatchSpec& batch,
                                                        StageId stage) {
  const auto ops = decompose_stage(shapes_, parallel_, batch, stage,
                                   AttentionMode::kEquivalentPrefill);
  OpTimeBreakdown breakdown;
  for (const OpInvocation& inv : ops) {
    const int shard = op_class(inv.op) == OpClass::kCommunication
                          ? inv.input.world
                          : parallel_.tensor_parallel;
    const Seconds t = estimator_->predict(inv.op, shard, inv.input) * inv.count;
    breakdown.per_op[inv.op] += t;
    breakdown.total += t;
  }
  return breakdown;
}

Seconds ExecutionTimePredictor::cpu_overhead(const BatchSpec& batch) {
  // Deterministic: the median overhead measured during profiling.
  return cpu_.median_seconds(batch.size());
}

ReferenceExecutor::ReferenceExecutor(NodeSpec node, const ModelSpec& model,
                                     const ParallelConfig& parallel,
                                     std::uint64_t seed, CpuOverheadModel cpu,
                                     double kernel_jitter_sigma)
    : node_(std::move(node)),
      shapes_(model, parallel.tensor_parallel),
      parallel_(parallel),
      cpu_(cpu),
      kernel_jitter_sigma_(kernel_jitter_sigma),
      rng_(seed) {
  parallel.validate();
}

StageTiming ReferenceExecutor::stage_timing(const BatchSpec& batch,
                                            StageId stage) {
  const auto ops = decompose_stage(shapes_, parallel_, batch, stage,
                                   AttentionMode::kPerRequest);
  StageTiming timing;
  // Per-request prefill segments execute as one fused varlen kernel per
  // layer (FlashAttention varlen), not as separate launches.
  std::vector<gpu::PrefillSegment> prefill_segments;
  int prefill_layers = 0;
  auto jittered = [this](double truth, int count) {
    // Sum of `count` independently jittered kernels: for small sigma the
    // sum's relative jitter shrinks by sqrt(count), so one draw suffices.
    const double sigma =
        kernel_jitter_sigma_ / std::sqrt(static_cast<double>(count));
    return truth * std::exp(sigma * rng_.normal());
  };
  for (const OpInvocation& inv : ops) {
    if (inv.op == OpType::kAttnPrefill) {
      prefill_segments.push_back(
          {inv.input.q_tokens, inv.input.kv_tokens});
      prefill_layers = inv.count;
      continue;
    }
    const double truth =
        ground_truth_op_time(node_, shapes_, inv.op, inv.input) * inv.count;
    if (inv.op == OpType::kSendRecv)
      timing.comm += jittered(truth, inv.count);
    else
      timing.compute += jittered(truth, inv.count);
  }
  if (!prefill_segments.empty()) {
    const double truth =
        gpu::attention_prefill_varlen_time(node_.sku, prefill_segments,
                                           shapes_.q_heads_per_gpu(),
                                           shapes_.model().head_dim()) *
        prefill_layers;
    timing.compute += jittered(truth, prefill_layers);
  }
  return timing;
}

Seconds ReferenceExecutor::cpu_overhead(const BatchSpec& batch) {
  // Lognormal around the median: the real framework's scheduling jitter.
  return cpu_.median_seconds(batch.size()) *
         std::exp(cpu_.jitter_sigma * rng_.normal());
}

OpTimeBreakdown ReferenceExecutor::stage_breakdown(const BatchSpec& batch,
                                                   StageId stage) {
  // Noise-free ground-truth attribution (does not advance the RNG stream, so
  // enabling operator metrics never perturbs a reference run's timings).
  const auto ops = decompose_stage(shapes_, parallel_, batch, stage,
                                   AttentionMode::kPerRequest);
  OpTimeBreakdown breakdown;
  std::vector<gpu::PrefillSegment> prefill_segments;
  int prefill_layers = 0;
  for (const OpInvocation& inv : ops) {
    if (inv.op == OpType::kAttnPrefill) {
      prefill_segments.push_back({inv.input.q_tokens, inv.input.kv_tokens});
      prefill_layers = inv.count;
      continue;
    }
    const Seconds t =
        ground_truth_op_time(node_, shapes_, inv.op, inv.input) * inv.count;
    breakdown.per_op[inv.op] += t;
    breakdown.total += t;
  }
  if (!prefill_segments.empty()) {
    const Seconds t =
        gpu::attention_prefill_varlen_time(node_.sku, prefill_segments,
                                           shapes_.q_heads_per_gpu(),
                                           shapes_.model().head_dim()) *
        prefill_layers;
    breakdown.per_op[OpType::kAttnPrefill] += t;
    breakdown.total += t;
  }
  return breakdown;
}

}  // namespace vidur
