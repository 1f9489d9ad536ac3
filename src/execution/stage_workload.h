// Decomposition of a (micro)batch into per-stage operator invocations.
//
// Both execution backends (runtime-estimator predictions and the
// ground-truth reference executor) walk the same invocation list, so the
// structure of an iteration — which operators run, how many times, with
// which input sizes — is shared; only the per-operator timing source
// differs. The one structural difference is batched prefill attention:
// the simulator uses the paper's single-equivalent-prefill approximation,
// the reference executes each request's attention individually.
#pragma once

#include <cstddef>
#include <vector>

#include "execution/batch_spec.h"
#include "hardware/parallel_config.h"
#include "operators/op_shapes.h"
#include "operators/op_type.h"

namespace vidur {

struct OpInvocation {
  OpType op;
  OpInput input;
  int count = 1;  ///< consecutive identical invocations (e.g. once per layer)
};

enum class AttentionMode {
  kEquivalentPrefill,  ///< simulator: one sqrt(sum q_i*kv_i) prefill kernel
  kPerRequest,         ///< reference: one kernel per prefill item
};

/// Operator invocations executed by `stage` of a replica for one iteration
/// of `batch`. Includes TP collectives and (for non-final stages) the
/// pipeline send of output activations.
///
/// In kEquivalentPrefill mode the output is a function of the batch's
/// aggregates only (total q tokens, prefill-equivalent length, decode
/// count, decode-KV total, tokens sampled) — ExecutionTimePredictor's
/// stage-timing memo keys on exactly these; extend StageTimingMemo::Key if
/// a new per-batch input is added here.
std::vector<OpInvocation> decompose_stage(const OpShapes& shapes,
                                          const ParallelConfig& parallel,
                                          const BatchSpec& batch,
                                          StageId stage, AttentionMode mode);

/// decompose_stage() into caller-owned storage (cleared first), so hot
/// callers can reuse one buffer across invocations.
void decompose_stage_into(std::vector<OpInvocation>& ops,
                          const OpShapes& shapes,
                          const ParallelConfig& parallel,
                          const BatchSpec& batch, StageId stage,
                          AttentionMode mode);

/// The kEquivalentPrefill decomposition read off a batch's aggregates
/// (the batch form computes them and delegates here), so callers that
/// froze them skip walking the items. Returns how many leading invocations
/// depend on nothing but `agg.total_q` (given the layout and the stage):
/// the embedding on stage 0 and the per-layer token operators. The
/// stage-timing memo keeps their running sum under its own key.
std::size_t decompose_stage_into(std::vector<OpInvocation>& ops,
                                 const OpShapes& shapes,
                                 const ParallelConfig& parallel,
                                 const BatchAggregates& agg, StageId stage);

}  // namespace vidur
