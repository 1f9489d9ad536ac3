// The five batching policies shipped with Vidur (paper §4.5 / §5).
//
// Classification per Agrawal et al. 2024 (discussed in paper §2.2):
//   * decode-prioritizing:  FasterTransformer (request-level batching)
//   * prefill-prioritizing: Orca+, vLLM, LightLLM
//   * hybrid (chunked):     Sarathi-Serve
#pragma once

#include "scheduler/replica_scheduler.h"

namespace vidur {

/// Request-level (static) batching: a group of requests is admitted
/// together, prefilled in one iteration, then decoded in lockstep until
/// every member finishes; only then is the next group admitted. KV memory
/// for the whole sequence is reserved up front.
class FasterTransformerScheduler final : public ReplicaScheduler {
 public:
  using ReplicaScheduler::ReplicaScheduler;

 protected:
  void fill_batch(BatchSpec& batch, Seconds now) override;
};

/// Orca+ (Orca on paged attention): iteration-level continuous batching.
/// New requests join with their *whole* prompt as one chunk; running decodes
/// are batched alongside. Prefill-prioritizing: admission happens before
/// decodes are collected.
class OrcaScheduler final : public ReplicaScheduler {
 public:
  using ReplicaScheduler::ReplicaScheduler;

 protected:
  void fill_batch(BatchSpec& batch, Seconds now) override;
};

/// vLLM: throughput-oriented. Eagerly schedules prefill-only batches while
/// any request waits (pausing ongoing decodes); otherwise runs a decode
/// batch. Preempts (restarts) the latest-arrived request on KV exhaustion.
class VllmScheduler final : public ReplicaScheduler {
 public:
  using ReplicaScheduler::ReplicaScheduler;

 protected:
  void fill_batch(BatchSpec& batch, Seconds now) override;
};

/// Sarathi-Serve: hybrid batches under a fixed per-iteration token budget
/// (`chunk_size`). Decodes are never paused; leftover budget is filled with
/// (partial) prefill chunks.
class SarathiScheduler final : public ReplicaScheduler {
 public:
  using ReplicaScheduler::ReplicaScheduler;

 protected:
  void fill_batch(BatchSpec& batch, Seconds now) override;
};

/// LightLLM-style: continuous batching with token-granular, conservative
/// admission — a request is admitted only if the KV pool can hold every
/// running request at its *maximum* future length, so decodes never preempt.
class LightLlmScheduler final : public ReplicaScheduler {
 public:
  using ReplicaScheduler::ReplicaScheduler;

 protected:
  void fill_batch(BatchSpec& batch, Seconds now) override;
};

}  // namespace vidur
