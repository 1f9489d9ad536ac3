// Tests for src/execution: batch accounting, per-stage operator
// decomposition, and the two timing backends (predictor vs reference).
#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "common/stats.h"
#include "execution/batch_spec.h"
#include "execution/execution_backend.h"
#include "execution/stage_workload.h"
#include "profiler/profiler.h"

namespace vidur {
namespace {

BatchItem prefill_item(RequestId id, TokenCount q, TokenCount kv = 0,
                       bool completes = true) {
  return BatchItem{id, q, kv, true, completes};
}

BatchItem decode_item(RequestId id, TokenCount kv) {
  return BatchItem{id, 1, kv, false, false};
}

TEST(BatchSpec, TokenAccounting) {
  BatchSpec batch;
  batch.items = {prefill_item(0, 100), prefill_item(1, 50, 200, false),
                 decode_item(2, 300), decode_item(3, 40)};
  const BatchAggregates agg = batch.aggregates();
  EXPECT_EQ(batch.size(), 4);
  EXPECT_EQ(agg.total_q, 152);
  EXPECT_EQ(agg.decodes, 2);
  EXPECT_EQ(batch.size() - agg.decodes, 2);  // prefill chunks
  EXPECT_EQ(agg.decode_kv, 301 + 41);
  // Sampled: 2 decodes + 1 completing prefill.
  EXPECT_EQ(agg.sampled, 3);
}

TEST(BatchSpec, PrefillEquivalentLengthMatchesPaperFormula) {
  // Paper §4.3: batch of prefills p_i ~ one prefill of sqrt(sum p_i^2).
  BatchSpec batch;
  batch.items = {prefill_item(0, 300), prefill_item(1, 400)};
  EXPECT_EQ(batch.aggregates().prefill_equivalent_length(),
            500);  // 3-4-5 triangle
}

TEST(BatchSpec, PrefillEquivalentAccountsForChunkPrefix) {
  // A chunk of q tokens attending over kv context contributes q*kv work.
  BatchSpec batch;
  batch.items = {prefill_item(0, 100, 300, false)};  // kv_total = 400
  EXPECT_EQ(batch.aggregates().prefill_equivalent_length(),
            static_cast<TokenCount>(std::ceil(std::sqrt(100.0 * 400.0))));
}

TEST(BatchSpec, DecodeOnlyBatchHasZeroEquivalent) {
  BatchSpec batch;
  batch.items = {decode_item(0, 100)};
  EXPECT_EQ(batch.aggregates().prefill_equivalent_length(), 0);
}

TEST(BatchSpec, FlopsPositiveAndMonotone) {
  const ModelSpec model = model_by_name("llama2-7b");
  BatchSpec small, large;
  small.items = {prefill_item(0, 128)};
  large.items = {prefill_item(0, 1024)};
  EXPECT_GT(batch_flops(model, small), 0);
  EXPECT_GT(batch_flops(model, large), batch_flops(model, small) * 7.9);
}

// ---------------------------------------------------------- decomposition

struct DecomposedOps {
  std::map<OpType, int> counts;  // total invocation count per op
};

DecomposedOps decompose(const ModelSpec& model, const ParallelConfig& par,
                        const BatchSpec& batch, StageId stage,
                        AttentionMode mode = AttentionMode::kEquivalentPrefill) {
  const OpShapes shapes(model, par.tensor_parallel);
  DecomposedOps out;
  for (const OpInvocation& inv :
       decompose_stage(shapes, par, batch, stage, mode))
    out.counts[inv.op] += inv.count;
  return out;
}

TEST(StageWorkload, SingleStageHasAllPieces) {
  const ModelSpec model = model_by_name("llama2-7b");
  BatchSpec batch;
  batch.items = {prefill_item(0, 128), decode_item(1, 500)};
  const auto ops = decompose(model, ParallelConfig{1, 1, 1}, batch, 0);
  EXPECT_EQ(ops.counts.at(OpType::kEmbedLookup), 1);
  EXPECT_EQ(ops.counts.at(OpType::kAttnQkvProj), 32);
  EXPECT_EQ(ops.counts.at(OpType::kRmsNorm), 2 * 32 + 1);  // + final norm
  EXPECT_EQ(ops.counts.at(OpType::kAttnPrefill), 32);
  EXPECT_EQ(ops.counts.at(OpType::kAttnDecode), 32);
  EXPECT_EQ(ops.counts.at(OpType::kLmHead), 1);
  EXPECT_EQ(ops.counts.count(OpType::kAllReduce), 0u);  // tp=1
  EXPECT_EQ(ops.counts.count(OpType::kSendRecv), 0u);   // single stage
}

TEST(StageWorkload, TensorParallelAddsAllReduces) {
  const ModelSpec model = model_by_name("llama2-7b");
  BatchSpec batch;
  batch.items = {decode_item(0, 100)};
  const auto ops = decompose(model, ParallelConfig{2, 1, 1}, batch, 0);
  EXPECT_EQ(ops.counts.at(OpType::kAllReduce), 2 * 32);
}

TEST(StageWorkload, PipelineSplitsLayersAndAddsSendRecv) {
  const ModelSpec model = model_by_name("llama2-7b");  // 32 layers
  const ParallelConfig par{1, 2, 1};
  BatchSpec batch;
  batch.items = {prefill_item(0, 64)};
  const auto first = decompose(model, par, batch, 0);
  const auto last = decompose(model, par, batch, 1);
  EXPECT_EQ(first.counts.at(OpType::kAttnQkvProj), 16);
  EXPECT_EQ(last.counts.at(OpType::kAttnQkvProj), 16);
  EXPECT_EQ(first.counts.at(OpType::kSendRecv), 1);
  EXPECT_EQ(first.counts.count(OpType::kLmHead), 0u);
  EXPECT_EQ(first.counts.count(OpType::kEmbedLookup), 1u);
  EXPECT_EQ(last.counts.count(OpType::kSendRecv), 0u);
  EXPECT_EQ(last.counts.at(OpType::kLmHead), 1);
  EXPECT_EQ(last.counts.count(OpType::kEmbedLookup), 0u);
}

TEST(StageWorkload, PerRequestModeEmitsOnePrefillKernelPerItem) {
  const ModelSpec model = model_by_name("llama2-7b");
  BatchSpec batch;
  batch.items = {prefill_item(0, 128), prefill_item(1, 256),
                 prefill_item(2, 64)};
  const OpShapes shapes(model, 1);
  int equivalent_kernels = 0, per_request_kernels = 0;
  for (const auto& inv :
       decompose_stage(shapes, ParallelConfig{1, 1, 1}, batch, 0,
                       AttentionMode::kEquivalentPrefill))
    equivalent_kernels += inv.op == OpType::kAttnPrefill ? 1 : 0;
  for (const auto& inv :
       decompose_stage(shapes, ParallelConfig{1, 1, 1}, batch, 0,
                       AttentionMode::kPerRequest))
    per_request_kernels += inv.op == OpType::kAttnPrefill ? 1 : 0;
  EXPECT_EQ(equivalent_kernels, 1);
  EXPECT_EQ(per_request_kernels, 3);
}

TEST(StageWorkload, NoLmHeadWhenNothingSampled) {
  const ModelSpec model = model_by_name("llama2-7b");
  BatchSpec batch;
  batch.items = {prefill_item(0, 128, 0, /*completes=*/false)};
  const auto ops = decompose(model, ParallelConfig{1, 1, 1}, batch, 0);
  EXPECT_EQ(ops.counts.count(OpType::kLmHead), 0u);
}

TEST(StageWorkload, EmptyBatchThrows) {
  const ModelSpec model = model_by_name("llama2-7b");
  const OpShapes shapes(model, 1);
  BatchSpec empty;
  EXPECT_THROW(decompose_stage(shapes, ParallelConfig{1, 1, 1}, empty, 0,
                               AttentionMode::kEquivalentPrefill),
               Error);
}

// ---------------------------------------------------------------- backends

class BackendTest : public ::testing::Test {
 protected:
  static const RuntimeEstimator& estimator() {
    static const RuntimeEstimator instance = [] {
      NodeSpec node;
      node.sku = sku_by_name("a100");
      ProfilerOptions opts;
      opts.max_tokens = 8192;
      return RuntimeEstimator(
          profile_model(model_by_name("llama2-7b"), node, {1}, opts));
    }();
    return instance;
  }

  NodeSpec node() const {
    NodeSpec n;
    n.sku = sku_by_name("a100");
    return n;
  }
};

TEST_F(BackendTest, PredictorTracksReferenceWithinTenPercent) {
  const ModelSpec model = model_by_name("llama2-7b");
  const ParallelConfig par{1, 1, 1};
  ExecutionTimePredictor predictor(&estimator(), model, par);
  ReferenceExecutor reference(node(), model, par, /*seed=*/7);

  Rng rng(3);
  for (int trial = 0; trial < 30; ++trial) {
    BatchSpec batch;
    const int decodes = static_cast<int>(rng.uniform_int(0, 32));
    for (int i = 0; i < decodes; ++i)
      batch.items.push_back(decode_item(i, rng.uniform_int(16, 2000)));
    if (rng.bernoulli(0.5) || decodes == 0)
      batch.items.push_back(prefill_item(99, rng.uniform_int(64, 2048)));
    const double pred = predictor.stage_time(batch, 0);
    const double real = reference.stage_time(batch, 0);
    EXPECT_NEAR(pred / real, 1.0, 0.10) << "trial " << trial;
  }
}

TEST_F(BackendTest, PredictorIsDeterministic) {
  const ModelSpec model = model_by_name("llama2-7b");
  ExecutionTimePredictor predictor(&estimator(), model,
                                   ParallelConfig{1, 1, 1});
  BatchSpec batch;
  batch.items = {prefill_item(0, 777), decode_item(1, 1234)};
  const double a = predictor.stage_time(batch, 0);
  const double b = predictor.stage_time(batch, 0);
  EXPECT_DOUBLE_EQ(a, b);
}

TEST_F(BackendTest, ReferenceJittersAroundItsMedian) {
  const ModelSpec model = model_by_name("llama2-7b");
  ReferenceExecutor reference(node(), model, ParallelConfig{1, 1, 1}, 11);
  BatchSpec batch;
  batch.items = {decode_item(0, 500)};
  SampleSeries times;
  for (int i = 0; i < 400; ++i) times.add(reference.stage_time(batch, 0));
  EXPECT_GT(times.stddev(), 0.0);
  EXPECT_LT(times.stddev() / times.mean(), 0.05);
}

TEST_F(BackendTest, CpuOverheadScalesWithBatchSize) {
  const ModelSpec model = model_by_name("llama2-7b");
  ExecutionTimePredictor predictor(&estimator(), model,
                                   ParallelConfig{1, 1, 1});
  BatchSpec small, large;
  small.items = {decode_item(0, 10)};
  for (int i = 0; i < 100; ++i) large.items.push_back(decode_item(i, 10));
  EXPECT_GT(predictor.cpu_overhead(large), predictor.cpu_overhead(small));
}

TEST_F(BackendTest, ReferenceCpuOverheadHasHeavierMeanThanMedian) {
  // Profiling records medians; real runs jitter lognormally, so the real
  // mean exceeds the predictor value — the paper's 7B bias mechanism.
  const ModelSpec model = model_by_name("llama2-7b");
  const ParallelConfig par{1, 1, 1};
  ExecutionTimePredictor predictor(&estimator(), model, par);
  ReferenceExecutor reference(node(), model, par, 13);
  BatchSpec batch;
  batch.items = {decode_item(0, 10)};
  RunningStats real;
  for (int i = 0; i < 20000; ++i) real.add(reference.cpu_overhead(batch));
  EXPECT_GT(real.mean(), predictor.cpu_overhead(batch) * 1.02);
}

}  // namespace
}  // namespace vidur

// Appended coverage: HBM byte accounting and operator-level breakdown.
namespace vidur {
namespace {

TEST(BatchHbmBytes, DecodeKvDominatesLongContexts) {
  const ModelSpec model = model_by_name("llama2-7b");
  BatchSpec short_ctx, long_ctx;
  short_ctx.items = {decode_item(0, 100)};
  long_ctx.items = {decode_item(0, 100000)};
  EXPECT_GT(batch_hbm_bytes_per_gpu(model, 1, 1, long_ctx),
            2 * batch_hbm_bytes_per_gpu(model, 1, 1, short_ctx));
}

TEST(BatchHbmBytes, ShardsAcrossGpus) {
  const ModelSpec model = model_by_name("llama2-7b");
  BatchSpec batch;
  batch.items = {decode_item(0, 5000)};
  EXPECT_LT(batch_hbm_bytes_per_gpu(model, 4, 1, batch),
            batch_hbm_bytes_per_gpu(model, 1, 1, batch));
}

TEST(BatchHbmBytes, GqaReplicationFloorsKvShare) {
  // LLaMA2-70B has 8 KV heads: beyond tp=8 the per-GPU KV share stops
  // shrinking even though the weight shard keeps halving.
  const ModelSpec model = model_by_name("llama2-70b");
  BatchSpec batch;
  batch.items = {decode_item(0, 50000)};
  const ByteCount weights16 = model.weight_bytes() / 16;
  const ByteCount kv8 =
      batch_hbm_bytes_per_gpu(model, 8, 1, batch) - model.weight_bytes() / 8;
  const ByteCount kv16 = batch_hbm_bytes_per_gpu(model, 16, 1, batch) -
                         weights16;
  EXPECT_EQ(kv8, kv16);
}

TEST_F(BackendTest, BreakdownSumsToStageTime) {
  const ModelSpec model = model_by_name("llama2-7b");
  ExecutionTimePredictor predictor(&estimator(), model,
                                   ParallelConfig{1, 1, 1});
  BatchSpec batch;
  batch.items = {prefill_item(0, 512), decode_item(1, 3000)};
  const OpTimeBreakdown breakdown = predictor.stage_breakdown(batch, 0);
  EXPECT_NEAR(breakdown.total, predictor.stage_time(batch, 0), 1e-12);
  double sum = 0.0;
  for (const auto& [op, t] : breakdown.per_op) sum += t;
  EXPECT_NEAR(sum, breakdown.total, 1e-12);
  // sorted() is descending and covers every op in the map.
  const auto sorted = breakdown.sorted();
  EXPECT_EQ(sorted.size(), breakdown.per_op.size());
  for (std::size_t i = 1; i < sorted.size(); ++i)
    EXPECT_GE(sorted[i - 1].second, sorted[i].second);
}

TEST_F(BackendTest, GemmsAreTheHeavyOpsForPrefill) {
  // Paper §5.2's purpose for operator metrics: find heavy-duty operators.
  // For a big prefill batch the MLP GEMMs must dominate norms/rotary.
  const ModelSpec model = model_by_name("llama2-7b");
  ExecutionTimePredictor predictor(&estimator(), model,
                                   ParallelConfig{1, 1, 1});
  BatchSpec batch;
  batch.items = {prefill_item(0, 2048)};
  const OpTimeBreakdown breakdown = predictor.stage_breakdown(batch, 0);
  EXPECT_GT(breakdown.per_op.at(OpType::kMlpGateUpProj),
            breakdown.per_op.at(OpType::kRmsNorm));
  EXPECT_GT(breakdown.per_op.at(OpType::kMlpDownProj),
            breakdown.per_op.at(OpType::kRotaryEmbed));
}

// ------------------------------------------------------------ stage timing

TEST_F(BackendTest, CommIsZeroWithoutPipeline) {
  const ModelSpec model = model_by_name("llama2-7b");
  ExecutionTimePredictor predictor(&estimator(), model,
                                   ParallelConfig{1, 1, 1});
  BatchSpec batch;
  batch.items = {prefill_item(0, 512)};
  const StageTiming timing = predictor.stage_timing(batch, 0);
  EXPECT_GT(timing.compute, 0.0);
  EXPECT_DOUBLE_EQ(timing.comm, 0.0);
  EXPECT_DOUBLE_EQ(timing.total(), timing.compute);
}

TEST_F(BackendTest, NonFinalStagesPayActivationSend) {
  const ModelSpec model = model_by_name("llama2-7b");
  const ParallelConfig par{1, 2, 1};
  ExecutionTimePredictor predictor(&estimator(), model, par);
  BatchSpec batch;
  batch.items = {prefill_item(0, 512)};
  const StageTiming first = predictor.stage_timing(batch, 0);
  const StageTiming last = predictor.stage_timing(batch, 1);
  EXPECT_GT(first.comm, 0.0);            // ships activations downstream
  EXPECT_DOUBLE_EQ(last.comm, 0.0);      // final stage samples instead
  // PP comm is cheap relative to compute (the paper's rationale for PP's
  // favorable compute-communication ratio, §2.2).
  EXPECT_LT(first.comm, first.compute * 0.05);
}

TEST_F(BackendTest, ReferenceStageTimingSplitsCommToo) {
  const ModelSpec model = model_by_name("llama2-7b");
  const ParallelConfig par{1, 2, 1};
  ReferenceExecutor reference(node(), model, par, /*seed=*/3);
  BatchSpec batch;
  batch.items = {prefill_item(0, 512)};
  const StageTiming timing = reference.stage_timing(batch, 0);
  EXPECT_GT(timing.compute, 0.0);
  EXPECT_GT(timing.comm, 0.0);
  EXPECT_DOUBLE_EQ(reference.stage_timing(batch, 1).comm, 0.0);
}

TEST_F(BackendTest, ReferenceBreakdownIsNoiseFree) {
  // stage_breakdown must not consume RNG state: the next stage_time draw is
  // identical whether or not a breakdown was taken in between.
  const ModelSpec model = model_by_name("llama2-7b");
  BatchSpec batch;
  batch.items = {prefill_item(0, 256), decode_item(1, 500)};

  ReferenceExecutor with(node(), model, ParallelConfig{1, 1, 1}, 17);
  ReferenceExecutor without(node(), model, ParallelConfig{1, 1, 1}, 17);
  (void)with.stage_breakdown(batch, 0);
  EXPECT_DOUBLE_EQ(with.stage_time(batch, 0), without.stage_time(batch, 0));
}

}  // namespace
}  // namespace vidur
