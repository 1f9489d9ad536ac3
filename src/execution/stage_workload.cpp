#include "execution/stage_workload.h"

namespace vidur {

std::vector<OpInvocation> decompose_stage(const OpShapes& shapes,
                                          const ParallelConfig& parallel,
                                          const BatchSpec& batch,
                                          StageId stage, AttentionMode mode) {
  std::vector<OpInvocation> ops;
  decompose_stage_into(ops, shapes, parallel, batch, stage, mode);
  return ops;
}

namespace {

/// The one op list. With `per_request` null, batched prefill attention is
/// the single equivalent prefill read off `agg`; otherwise it is one kernel
/// per prefill item of `*per_request` (whose aggregates `agg` must be).
std::size_t emit_stage_ops(std::vector<OpInvocation>& ops,
                           const OpShapes& shapes,
                           const ParallelConfig& parallel,
                           const BatchAggregates& agg, StageId stage,
                           const BatchSpec* per_request) {
  VIDUR_CHECK(stage >= 0 && stage < parallel.pipeline_parallel);

  const ModelSpec& model = shapes.model();
  const int layers = parallel.layers_per_stage(model, stage);
  const int tp = parallel.tensor_parallel;
  const TokenCount t = agg.total_q;
  VIDUR_CHECK(t > 0);

  ops.clear();
  ops.reserve(16 + (per_request != nullptr ? per_request->items.size()
                                           : std::size_t{1}));

  auto token_op = [&](OpType op, int count) {
    OpInput in;
    in.tokens = t;
    ops.push_back({op, in, count});
  };

  const bool first_stage = stage == 0;
  const bool last_stage = stage == parallel.pipeline_parallel - 1;

  if (first_stage) token_op(OpType::kEmbedLookup, 1);

  // Per-layer token-level operators.
  token_op(OpType::kRmsNorm, 2 * layers);
  token_op(OpType::kAttnQkvProj, layers);
  token_op(OpType::kRotaryEmbed, layers);
  token_op(OpType::kKvCacheSave, layers);
  token_op(OpType::kAttnOutProj, layers);
  token_op(OpType::kMlpGateUpProj, layers);
  token_op(OpType::kActMul, layers);
  token_op(OpType::kMlpDownProj, layers);
  token_op(OpType::kResidualAdd, 2 * layers);
  const std::size_t token_only = ops.size();

  // Sequence-level attention.
  if (per_request == nullptr) {
    const TokenCount eq = agg.prefill_equivalent_length();
    if (eq > 0) {
      OpInput in;
      in.q_tokens = eq;
      in.kv_tokens = eq;
      ops.push_back({OpType::kAttnPrefill, in, layers});
    }
  } else {
    for (const auto& item : per_request->items) {
      if (!item.is_prefill) continue;
      OpInput in;
      in.q_tokens = item.q_tokens;
      in.kv_tokens = item.kv_context + item.q_tokens;
      ops.push_back({OpType::kAttnPrefill, in, layers});
    }
  }
  if (agg.decodes > 0) {
    OpInput in;
    in.kv_tokens = agg.decode_kv;
    in.batch_size = agg.decodes;
    ops.push_back({OpType::kAttnDecode, in, layers});
  }

  // TP collectives: one all-reduce after attention and one after the MLP.
  if (tp > 1) {
    OpInput in;
    in.bytes = shapes.allreduce_bytes(t);
    in.world = tp;
    ops.push_back(
        {OpType::kAllReduce, in, OpShapes::kAllReducesPerLayer * layers});
  }

  if (last_stage) {
    if (agg.sampled > 0) {
      OpInput norm_in;
      norm_in.tokens = agg.sampled;
      ops.push_back({OpType::kRmsNorm, norm_in, 1});
      OpInput head_in;
      head_in.tokens = agg.sampled;
      ops.push_back({OpType::kLmHead, head_in, 1});
    }
  } else {
    // Synchronous pipeline: ship activations to the next stage.
    OpInput in;
    in.bytes = shapes.send_recv_bytes(t);
    ops.push_back({OpType::kSendRecv, in, 1});
  }
  return token_only;
}

}  // namespace

void decompose_stage_into(std::vector<OpInvocation>& ops,
                          const OpShapes& shapes,
                          const ParallelConfig& parallel,
                          const BatchSpec& batch, StageId stage,
                          AttentionMode mode) {
  VIDUR_CHECK(!batch.empty());
  emit_stage_ops(ops, shapes, parallel, batch.aggregates(), stage,
                 mode == AttentionMode::kPerRequest ? &batch : nullptr);
}

std::size_t decompose_stage_into(std::vector<OpInvocation>& ops,
                                 const OpShapes& shapes,
                                 const ParallelConfig& parallel,
                                 const BatchAggregates& agg, StageId stage) {
  return emit_stage_ops(ops, shapes, parallel, agg, stage, nullptr);
}

}  // namespace vidur
