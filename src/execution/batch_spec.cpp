#include "execution/batch_spec.h"

#include <algorithm>
#include <cmath>

namespace vidur {

TokenCount BatchAggregates::prefill_equivalent_length() const {
  if (prefill_qkv <= 0.0) return 0;
  return static_cast<TokenCount>(std::ceil(std::sqrt(prefill_qkv)));
}

BatchAggregates BatchSpec::aggregates() const {
  BatchAggregates agg;
  for (const auto& item : items) {
    agg.total_q += item.q_tokens;
    if (item.is_prefill) {
      agg.prefill_qkv +=
          static_cast<double>(item.q_tokens) *
          static_cast<double>(item.kv_context + item.q_tokens);
      if (item.completes_prefill) ++agg.sampled;
    } else {
      ++agg.decodes;
      agg.decode_kv += item.kv_context + item.q_tokens;
      ++agg.sampled;
    }
  }
  return agg;
}

FlopCount batch_flops(const ModelSpec& model, const BatchAggregates& agg) {
  // flops(t, c) is affine in t and t*c, so the batch sum collapses to the
  // aggregates: sum_i flops(q_i, kv_i) = per_token * total_q
  //   + per_token_context * (prefill q*kv work + decode KV reads).
  return model.flops_per_token() * static_cast<double>(agg.total_q) +
         model.flops_per_token_context() *
             (agg.prefill_qkv + static_cast<double>(agg.decode_kv));
}

FlopCount batch_flops(const ModelSpec& model, const BatchSpec& batch) {
  return batch_flops(model, batch.aggregates());
}

ByteCount batch_hbm_bytes_per_gpu(const ModelSpec& model, int tensor_parallel,
                                  int pipeline_parallel,
                                  const BatchAggregates& agg) {
  const int gpus = tensor_parallel * pipeline_parallel;
  // Weight shard streamed once per iteration.
  ByteCount bytes = model.weight_bytes() / gpus;
  // KV reads: decode attention touches every cached token; KV heads are
  // replicated when tp exceeds them (GQA), so the per-GPU share floors.
  const int kv_shard =
      std::max(1, std::min(tensor_parallel, model.num_kv_heads));
  const ByteCount kv_per_token =
      model.kv_bytes_per_token() / (kv_shard * pipeline_parallel);
  bytes += agg.decode_kv * kv_per_token;
  // KV writes for the new tokens.
  bytes += agg.total_q * kv_per_token;
  return bytes;
}

ByteCount batch_hbm_bytes_per_gpu(const ModelSpec& model, int tensor_parallel,
                                  int pipeline_parallel,
                                  const BatchSpec& batch) {
  return batch_hbm_bytes_per_gpu(model, tensor_parallel, pipeline_parallel,
                                 batch.aggregates());
}

}  // namespace vidur
