// Timing backends for the event-driven simulator.
//
// The simulator core asks a backend two questions per iteration:
//   * how long does this (micro)batch take on pipeline stage s?
//   * how much non-overlapped CPU time does the serving framework add?
//
// Two implementations exist:
//   * ExecutionTimePredictor — Vidur proper: queries the runtime estimator
//     (trained on profiled data); deterministic.
//   * ReferenceExecutor — the stand-in for the paper's real testbed: queries
//     the ground-truth kernel models with per-invocation measurement-scale
//     jitter and a stochastic CPU overhead. Fidelity experiments run the
//     same scheduling stack over both backends and compare request metrics.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "common/random.h"
#include "estimator/runtime_estimator.h"
#include "execution/stage_timing_memo.h"
#include "execution/stage_workload.h"
#include "hardware/sku.h"

namespace vidur {

/// Serving-framework CPU overhead per scheduler iteration (non-overlapped
/// with GPU work). The paper attributes its higher 7B error to exactly this
/// component: it is a larger fraction of short iterations.
struct CpuOverheadModel {
  double base_seconds = 1.2e-3;
  double per_sequence_seconds = 4.0e-6;
  /// Lognormal jitter sigma applied by the reference executor. The predictor
  /// uses the distribution median (profiling records medians), so the real
  /// mean exceeds the prediction by exp(sigma^2/2).
  double jitter_sigma = 0.35;

  double median_seconds(int batch_size) const {
    return base_seconds + per_sequence_seconds * batch_size;
  }
};

/// Per-operator share of one stage's predicted execution time (the paper's
/// operator-level metrics, §5.2: used to identify heavy-duty operators).
struct OpTimeBreakdown {
  std::map<OpType, Seconds> per_op;
  Seconds total = 0.0;

  /// Operators sorted by descending time share.
  std::vector<std::pair<OpType, Seconds>> sorted() const;
};

class ExecutionBackend {
 public:
  virtual ~ExecutionBackend() = default;

  /// GPU time for `stage` to run one iteration of `batch`, split into
  /// compute and pipeline-send components.
  virtual StageTiming stage_timing(const BatchSpec& batch, StageId stage) = 0;

  /// stage_timing() with the batch's aggregates already computed (the
  /// simulator freezes them once per batch). Backends that only need the
  /// aggregates override this to skip re-walking the items.
  virtual StageTiming stage_timing(const BatchSpec& batch,
                                   const BatchAggregates& agg, StageId stage) {
    (void)agg;
    return stage_timing(batch, stage);
  }

  /// Convenience: compute + comm (the synchronous-pipeline stage time).
  Seconds stage_time(const BatchSpec& batch, StageId stage) {
    return stage_timing(batch, stage).total();
  }

  /// Non-overlapped CPU time charged once per replica-level iteration.
  virtual Seconds cpu_overhead(const BatchSpec& batch) = 0;

  /// Operator-level time attribution for one stage execution (paper §5.2).
  /// Noise-free: for stochastic backends the itemized total may differ from
  /// a stage_timing() draw, but the relative shares are exact.
  virtual OpTimeBreakdown stage_breakdown(const BatchSpec& batch,
                                          StageId stage) = 0;
};

/// Vidur's predictor: estimator-backed, deterministic.
///
/// stage_timing() is memoized on a batch signature (StageTimingMemo::Key):
/// in equivalent-prefill mode (the one the predictor uses),
/// decompose_stage() depends on the batch only through a handful of
/// aggregates, so batches sharing the signature are guaranteed the same
/// timing — steady-state iterations skip the whole per-op prediction loop.
/// The KV aggregate is bucketed with the estimator's own decode-KV
/// quantization, so memoized results stay bit-identical to unmemoized ones.
/// The memo is either shared (VidurSession passes its per-SKU table, so
/// every replica and every search probe reuses the same entries) or, when
/// none is given, a private table of StageTimingMemo::kPrivateEntries.
/// A miss reads the aggregates once and takes the running sum of the
/// token-count-only operators from the same memo (StageTimingMemo::Key::
/// token_ops), predicting it only on that entry's own miss.
class ExecutionTimePredictor final : public ExecutionBackend {
 public:
  /// `estimator` must outlive this object (shared across simulations so the
  /// operation-wise lookup cache is reused). A non-null `memo` must outlive
  /// it too, and may only be shared by predictors over the same estimator
  /// and model: its key holds the parallel layout but neither of those.
  ExecutionTimePredictor(const RuntimeEstimator* estimator,
                         const ModelSpec& model,
                         const ParallelConfig& parallel,
                         CpuOverheadModel cpu = CpuOverheadModel(),
                         StageTimingMemo* memo = nullptr);

  StageTiming stage_timing(const BatchSpec& batch, StageId stage) override;
  StageTiming stage_timing(const BatchSpec& batch, const BatchAggregates& agg,
                           StageId stage) override;
  Seconds cpu_overhead(const BatchSpec& batch) override;

  /// Operator-level decomposition of stage_timing (same numbers, itemized).
  OpTimeBreakdown stage_breakdown(const BatchSpec& batch,
                                  StageId stage) override;

  /// This predictor's memo traffic (hits + misses == stage_timing calls),
  /// whether its memo is shared or private. Token-operator lookups on the
  /// miss path are not stage_timing calls and count in neither.
  std::size_t timing_cache_hits() const { return timing_hits_; }
  std::size_t timing_cache_misses() const { return timing_misses_; }

 private:
  StageTiming compute_stage_timing(const BatchAggregates& agg, StageId stage);

  const RuntimeEstimator* estimator_;
  OpShapes shapes_;
  ParallelConfig parallel_;
  CpuOverheadModel cpu_;
  std::unique_ptr<StageTimingMemo> own_memo_;  ///< set when none is shared
  StageTimingMemo* memo_;
  std::vector<OpInvocation> op_scratch_;  ///< miss-path decomposition buffer
  std::size_t timing_hits_ = 0;
  std::size_t timing_misses_ = 0;
};

/// Ground-truth backend standing in for the real serving testbed.
class ReferenceExecutor final : public ExecutionBackend {
 public:
  ReferenceExecutor(NodeSpec node, const ModelSpec& model,
                    const ParallelConfig& parallel, std::uint64_t seed,
                    CpuOverheadModel cpu = CpuOverheadModel(),
                    double kernel_jitter_sigma = 0.015);

  StageTiming stage_timing(const BatchSpec& batch, StageId stage) override;
  Seconds cpu_overhead(const BatchSpec& batch) override;
  OpTimeBreakdown stage_breakdown(const BatchSpec& batch,
                                  StageId stage) override;

 private:
  NodeSpec node_;
  OpShapes shapes_;
  ParallelConfig parallel_;
  CpuOverheadModel cpu_;
  double kernel_jitter_sigma_;
  Rng rng_;
};

}  // namespace vidur
