#include "scheduler/memory.h"

#include <algorithm>

#include "common/check.h"
#include "operators/op_shapes.h"

namespace vidur {

MemoryPlan plan_memory(const ModelSpec& model, const NodeSpec& node,
                       const ParallelConfig& parallel,
                       double memory_utilization, ByteCount workspace_bytes) {
  model.validate();
  parallel.validate();
  VIDUR_CHECK(memory_utilization > 0 && memory_utilization <= 1.0);

  const OpShapes shapes(model, parallel.tensor_parallel);
  const ByteCount usable = static_cast<ByteCount>(
      static_cast<double>(node.sku.memory_bytes) * memory_utilization);

  MemoryPlan plan;
  plan.weight_bytes_per_gpu =
      model.weight_bytes() / parallel.gpus_per_replica();

  // The KV pool is limited by the most loaded pipeline stage.
  long min_blocks = -1;
  for (StageId stage = 0; stage < parallel.pipeline_parallel; ++stage) {
    const int layers = parallel.layers_per_stage(model, stage);
    const ByteCount kv_per_token =
        static_cast<ByteCount>(2) * layers * shapes.kv_heads_per_gpu() *
        model.head_dim() * kBytesPerElement;
    const ByteCount available =
        usable - plan.weight_bytes_per_gpu - workspace_bytes;
    VIDUR_CHECK_MSG(
        available > 0, "model " << model.name << " does not fit on "
                                << node.sku.name << " with tp="
                                << parallel.tensor_parallel
                                << " pp=" << parallel.pipeline_parallel);
    const long blocks = available / (plan.block_size * kv_per_token);
    if (min_blocks < 0 || blocks < min_blocks) {
      min_blocks = blocks;
      plan.kv_bytes_per_token_per_gpu = kv_per_token;
    }
  }
  plan.num_kv_blocks = min_blocks;
  VIDUR_CHECK_MSG(plan.num_kv_blocks > 0,
                  "no KV-cache memory left for " << model.name << " on "
                                                 << node.sku.name);
  return plan;
}

BlockManager::BlockManager(long total_blocks, TokenCount block_size)
    : total_blocks_(total_blocks), block_size_(block_size) {
  VIDUR_CHECK(total_blocks >= 0);
  VIDUR_CHECK(block_size > 0);
}

long BlockManager::blocks_for_tokens(TokenCount tokens) const {
  VIDUR_CHECK(tokens >= 0);
  return (tokens + block_size_ - 1) / block_size_;
}

bool BlockManager::grow_to(long& held, TokenCount total_tokens) {
  const long target = blocks_for_tokens(total_tokens);
  if (target <= held) return true;
  const long extra = target - held;
  if (!can_allocate(extra)) return false;
  held = target;
  used_blocks_ += extra;
  return true;
}

void BlockManager::release(long& held) {
  used_blocks_ -= held;
  held = 0;
}

void BlockManager::transfer_to_cache(long& held, long blocks) {
  VIDUR_CHECK_MSG(blocks >= 0 && blocks <= held,
                  "transfer_to_cache of " << blocks
                                          << " blocks exceeds the holder's "
                                          << held);
  held -= blocks;
  cached_blocks_ += blocks;
}

void BlockManager::release_cached(long blocks) {
  VIDUR_CHECK_MSG(blocks <= cached_blocks_,
                  "release_cached beyond the cached pool");
  cached_blocks_ -= blocks;
  used_blocks_ -= blocks;
}

}  // namespace vidur
