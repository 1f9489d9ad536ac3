// Tests for src/scheduler memory planning and the paged block manager.
#include <gtest/gtest.h>

#include "common/check.h"
#include "scheduler/memory.h"

namespace vidur {
namespace {

NodeSpec a100_node() {
  NodeSpec node;
  node.sku = sku_by_name("a100");
  return node;
}

TEST(MemoryPlanner, SevenBFitsOnOneA100) {
  const MemoryPlan plan =
      plan_memory(model_by_name("llama2-7b"), a100_node(), {1, 1, 1});
  EXPECT_GT(plan.num_kv_blocks, 0);
  // ~13.5 GB of weights.
  EXPECT_NEAR(static_cast<double>(plan.weight_bytes_per_gpu), 13.5e9, 1.5e9);
  // KV pool should hold on the order of 100K tokens.
  EXPECT_GT(plan.max_kv_tokens(), 50000);
  EXPECT_LT(plan.max_kv_tokens(), 300000);
}

TEST(MemoryPlanner, SeventyBDoesNotFitOnOneA100) {
  EXPECT_THROW(plan_memory(model_by_name("llama2-70b"), a100_node(),
                           {1, 1, 1}),
               Error);
}

TEST(MemoryPlanner, SeventyBFitsAtTp4) {
  const MemoryPlan plan =
      plan_memory(model_by_name("llama2-70b"), a100_node(), {4, 1, 1});
  EXPECT_GT(plan.num_kv_blocks, 0);
  EXPECT_NEAR(static_cast<double>(plan.weight_bytes_per_gpu), 35e9, 4e9);
}

TEST(MemoryPlanner, GqaGivesLlamaFarMoreKvThanQwen) {
  // The paper's Qwen-72B observation: 8x KV load => much smaller KV pool.
  const MemoryPlan llama =
      plan_memory(model_by_name("llama2-70b"), a100_node(), {4, 1, 1});
  const MemoryPlan qwen =
      plan_memory(model_by_name("qwen-72b"), a100_node(), {4, 1, 1});
  EXPECT_GT(llama.max_kv_tokens(), 4 * qwen.max_kv_tokens());
}

TEST(MemoryPlanner, PipelineSplitsWeightsAndKv) {
  const ModelSpec model = model_by_name("llama2-70b");
  const MemoryPlan tp4 = plan_memory(model, a100_node(), {4, 1, 1});
  const MemoryPlan tp2pp2 = plan_memory(model, a100_node(), {2, 2, 1});
  EXPECT_EQ(tp4.weight_bytes_per_gpu, tp2pp2.weight_bytes_per_gpu);
  // Same GPUs per replica -> comparable pools (not exact: sharding differs).
  EXPECT_GT(tp2pp2.num_kv_blocks, 0);
}

TEST(MemoryPlanner, HigherUtilizationGivesMoreBlocks) {
  const ModelSpec model = model_by_name("llama2-7b");
  const MemoryPlan low = plan_memory(model, a100_node(), {1, 1, 1}, 0.8);
  const MemoryPlan high = plan_memory(model, a100_node(), {1, 1, 1}, 0.95);
  EXPECT_GT(high.num_kv_blocks, low.num_kv_blocks);
}

TEST(MemoryPlanner, InvalidUtilizationThrows) {
  EXPECT_THROW(plan_memory(model_by_name("llama2-7b"), a100_node(),
                           {1, 1, 1}, 0.0),
               Error);
  EXPECT_THROW(plan_memory(model_by_name("llama2-7b"), a100_node(),
                           {1, 1, 1}, 1.2),
               Error);
}

// ------------------------------------------------------------ BlockManager

TEST(BlockManager, BlocksForTokensCeilDivision) {
  BlockManager mgr(100, 16);
  EXPECT_EQ(mgr.blocks_for_tokens(0), 0);
  EXPECT_EQ(mgr.blocks_for_tokens(1), 1);
  EXPECT_EQ(mgr.blocks_for_tokens(16), 1);
  EXPECT_EQ(mgr.blocks_for_tokens(17), 2);
}

TEST(BlockManager, GrowAndRelease) {
  BlockManager mgr(10, 16);
  long held = 0;
  EXPECT_TRUE(mgr.grow_to(held, 50));  // 4 blocks
  EXPECT_EQ(mgr.used_blocks(), 4);
  EXPECT_EQ(held, 4);
  EXPECT_TRUE(mgr.grow_to(held, 60));  // still 4 blocks
  EXPECT_EQ(mgr.used_blocks(), 4);
  EXPECT_TRUE(mgr.grow_to(held, 65));  // 5 blocks
  EXPECT_EQ(mgr.used_blocks(), 5);
  mgr.release(held);
  EXPECT_EQ(mgr.used_blocks(), 0);
  EXPECT_EQ(held, 0);
}

TEST(BlockManager, GrowToNeverShrinks) {
  BlockManager mgr(10, 16);
  long held = 0;
  EXPECT_TRUE(mgr.grow_to(held, 160));  // 10 blocks
  EXPECT_TRUE(mgr.grow_to(held, 16));   // no-op, keeps 10
  EXPECT_EQ(held, 10);
}

TEST(BlockManager, FailedGrowLeavesStateUntouched) {
  BlockManager mgr(4, 16);
  long a = 0, b = 0;
  EXPECT_TRUE(mgr.grow_to(a, 48));   // 3 blocks
  EXPECT_FALSE(mgr.grow_to(b, 48));  // needs 3, only 1 free
  EXPECT_EQ(b, 0);
  EXPECT_EQ(mgr.used_blocks(), 3);
  EXPECT_TRUE(mgr.grow_to(b, 16));  // 1 block fits
}

TEST(BlockManager, UtilizationFraction) {
  BlockManager mgr(10, 16);
  EXPECT_DOUBLE_EQ(mgr.utilization(), 0.0);
  long held = 0;
  mgr.grow_to(held, 80);
  EXPECT_DOUBLE_EQ(mgr.utilization(), 0.5);
}

TEST(BlockManager, ReleaseUnknownIsNoop) {
  BlockManager mgr(10, 16);
  long held = 0;  // a holder that never allocated
  mgr.release(held);
  EXPECT_EQ(mgr.used_blocks(), 0);
  EXPECT_EQ(held, 0);
}

TEST(BlockManager, MultipleRequestsShareThePool) {
  BlockManager mgr(10, 16);
  long a = 0, b = 0, c = 0;
  EXPECT_TRUE(mgr.grow_to(a, 64));   // 4
  EXPECT_TRUE(mgr.grow_to(b, 64));   // 4
  EXPECT_FALSE(mgr.grow_to(c, 64));  // only 2 free
  EXPECT_TRUE(mgr.grow_to(c, 32));   // 2 fit
  EXPECT_EQ(mgr.free_blocks(), 0);
  mgr.release(b);
  EXPECT_EQ(mgr.free_blocks(), 4);
}

TEST(BlockManager, InvalidConstructionThrows) {
  EXPECT_THROW(BlockManager(-1, 16), Error);
  EXPECT_THROW(BlockManager(10, 0), Error);
}

TEST(BlockManager, ZeroBlockManagerIsValidAndIdle) {
  // A replica with no KV pool (e.g. a degenerate plan) is representable:
  // utilization is 0, not NaN, and nothing can be allocated.
  BlockManager mgr(0, 16);
  EXPECT_DOUBLE_EQ(mgr.utilization(), 0.0);
  EXPECT_EQ(mgr.total_blocks(), 0);
  EXPECT_EQ(mgr.free_blocks(), 0);
  long held = 0;
  EXPECT_FALSE(mgr.grow_to(held, 16));
  EXPECT_EQ(held, 0);
  mgr.release(held);  // no-op
  EXPECT_DOUBLE_EQ(mgr.utilization(), 0.0);
}

TEST(BlockManager, GrowToExactBlockBoundary) {
  // Exactly filling the last block must not allocate a spare block, and
  // one token past the boundary must take a fresh block.
  BlockManager mgr(10, 16);
  long held = 0;
  EXPECT_TRUE(mgr.grow_to(held, 32));  // exactly 2 blocks
  EXPECT_EQ(held, 2);
  EXPECT_TRUE(mgr.grow_to(held, 33));  // boundary + 1 -> 3 blocks
  EXPECT_EQ(held, 3);
  EXPECT_TRUE(mgr.grow_to(held, 48));  // back on a boundary, still 3
  EXPECT_EQ(held, 3);
  EXPECT_EQ(mgr.used_blocks(), 3);
}

TEST(BlockManager, CachedPoolAccounting) {
  BlockManager mgr(10, 16);
  long held = 0;
  EXPECT_TRUE(mgr.grow_to(held, 64));  // 4 blocks
  mgr.transfer_to_cache(held, 3);
  // The cached pool still counts as used (KV pressure sees retained KV).
  EXPECT_EQ(mgr.cached_blocks(), 3);
  EXPECT_EQ(mgr.used_blocks(), 4);
  EXPECT_EQ(held, 1);
  EXPECT_THROW(mgr.transfer_to_cache(held, 2), Error);  // holds only 1
  mgr.release(held);  // frees only the request's remaining block
  EXPECT_EQ(mgr.used_blocks(), 3);
  EXPECT_EQ(mgr.cached_blocks(), 3);
  mgr.release_cached(2);
  EXPECT_EQ(mgr.cached_blocks(), 1);
  EXPECT_EQ(mgr.used_blocks(), 1);
  mgr.release_cached(1);
  EXPECT_EQ(mgr.used_blocks(), 0);
  EXPECT_DOUBLE_EQ(mgr.utilization(), 0.0);
}

}  // namespace
}  // namespace vidur
