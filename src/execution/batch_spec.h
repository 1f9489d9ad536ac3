// The unit a replica scheduler submits for execution: one iteration's batch,
// possibly mixing prefill chunks and decodes (continuous batching).
#pragma once

#include <vector>

#include "common/types.h"
#include "model/model_spec.h"

namespace vidur {

struct RequestState;

/// One request's contribution to an iteration.
struct BatchItem {
  RequestId request = -1;
  /// New tokens processed this iteration: the prompt-chunk size during
  /// prefill, 1 during decode.
  TokenCount q_tokens = 0;
  /// Tokens of this request already in the KV cache before this iteration.
  TokenCount kv_context = 0;
  /// True while the request is still processing its prompt.
  bool is_prefill = false;
  /// True when this iteration finishes the prompt (produces the 1st token).
  bool completes_prefill = false;
  /// Owning request (set by the scheduler when it forms the batch; spares
  /// the batch-end bookkeeping an id lookup per item). May be null in
  /// hand-built test batches that never reach on_batch_end.
  RequestState* state = nullptr;
};

/// Per-iteration aggregates of one batch, computed in a single pass over
/// the items. Everything that reads a batch as a whole — FLOP accounting,
/// stage-timing memo keys, the operator decomposition, HBM accounting —
/// reads one of these; the simulator freezes it once per batch.
struct BatchAggregates {
  /// Total new tokens this iteration (drives all token-level operators).
  TokenCount total_q = 0;
  /// KV entries read by decode attention (context incl. current token).
  TokenCount decode_kv = 0;
  /// Sum over prefill items of q * (kv_context + q): the batched-prefill
  /// attention work (paper §4.3) and the context term of the FLOP count.
  double prefill_qkv = 0.0;
  /// Number of decode items.
  int decodes = 0;
  /// Items that produce an output token this iteration (decodes plus
  /// prompt-completing chunks) — the rows fed to the LM head.
  int sampled = 0;

  /// Equivalent single-prefill length for batched prefill attention
  /// (paper §4.3): ceil(sqrt(prefill_qkv)).
  TokenCount prefill_equivalent_length() const;
};

struct BatchSpec {
  std::vector<BatchItem> items;

  bool empty() const { return items.empty(); }
  int size() const { return static_cast<int>(items.size()); }

  /// All aggregates in one walk over the items.
  BatchAggregates aggregates() const;
};

/// Model FLOPs consumed by one iteration of this batch (for MFU accounting).
FlopCount batch_flops(const ModelSpec& model, const BatchAggregates& agg);
FlopCount batch_flops(const ModelSpec& model, const BatchSpec& batch);

/// HBM bytes one GPU moves for one iteration of this batch: its weight
/// shard (read once per iteration) plus its share of KV-cache reads and
/// writes. Used for MBU (model bandwidth utilization) accounting.
ByteCount batch_hbm_bytes_per_gpu(const ModelSpec& model, int tensor_parallel,
                                  int pipeline_parallel,
                                  const BatchAggregates& agg);
ByteCount batch_hbm_bytes_per_gpu(const ModelSpec& model, int tensor_parallel,
                                  int pipeline_parallel,
                                  const BatchSpec& batch);

}  // namespace vidur
