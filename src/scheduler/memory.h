// KV-cache memory planning and block-level management (paper §4.5: the
// replica scheduler's "memory planner" and "memory manager").
#pragma once

#include "common/types.h"
#include "hardware/parallel_config.h"
#include "hardware/sku.h"
#include "model/model_spec.h"

namespace vidur {

/// Static memory budget of one replica under a parallelism config.
struct MemoryPlan {
  ByteCount weight_bytes_per_gpu = 0;
  /// KV bytes one token occupies on the most loaded GPU of the replica.
  ByteCount kv_bytes_per_token_per_gpu = 0;
  /// Paged KV blocks available to the replica (bottleneck stage).
  long num_kv_blocks = 0;
  TokenCount block_size = kKvBlockSize;

  TokenCount max_kv_tokens() const { return num_kv_blocks * block_size; }
};

/// Computes the replica memory plan. Throws vidur::Error when the model does
/// not fit (weights + workspace exceed device memory).
MemoryPlan plan_memory(const ModelSpec& model, const NodeSpec& node,
                       const ParallelConfig& parallel,
                       double memory_utilization = 0.9,
                       ByteCount workspace_bytes = 2LL * 1024 * 1024 * 1024);

/// Paged KV-cache block allocator for one replica (vLLM-style). It keeps
/// pool totals only: each holder (a RequestState's kv_blocks) keeps its own
/// block count, which the calls below take by reference and update.
class BlockManager {
 public:
  BlockManager(long total_blocks, TokenCount block_size);

  long total_blocks() const { return total_blocks_; }
  long free_blocks() const { return total_blocks_ - used_blocks_; }
  long used_blocks() const { return used_blocks_; }
  double utilization() const {
    if (total_blocks_ == 0) return 0.0;
    return static_cast<double>(used_blocks_) /
           static_cast<double>(total_blocks_);
  }

  /// Blocks needed to hold `tokens` KV entries.
  long blocks_for_tokens(TokenCount tokens) const;

  bool can_allocate(long blocks) const { return blocks <= free_blocks(); }

  /// Grow a holder's `held` blocks to cover `total_tokens` KV entries.
  /// Returns false (and changes nothing) if the blocks are unavailable.
  bool grow_to(long& held, TokenCount total_tokens);

  /// Release all `held` blocks and zero the count (no-op when it is 0).
  void release(long& held);

  /// Blocks held by the prefix cache rather than any live request. They
  /// count as used (the KV-pressure signal sees retained prefixes) until
  /// the cache evicts them via release_cached.
  long cached_blocks() const { return cached_blocks_; }

  /// Move `blocks` of a holder's `held` blocks into the cached pool (the
  /// request completed but its prefix KV stays resident). used_blocks is
  /// unchanged; `held` shrinks.
  void transfer_to_cache(long& held, long blocks);

  /// Free `blocks` from the cached pool (prefix-cache eviction).
  void release_cached(long blocks);

 private:
  long total_blocks_;
  TokenCount block_size_;
  long used_blocks_ = 0;
  long cached_blocks_ = 0;
};

}  // namespace vidur
