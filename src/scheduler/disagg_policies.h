// Replica schedulers for disaggregated prefill/decode serving
// (Splitwise, Patel et al. 2023; DistServe, Zhong et al. 2024 — discussed in
// paper §2.2). Prefill replicas run only prompt processing; completed
// prompts hand their KV cache to a decode replica over the cluster
// interconnect, where a dedicated decode scheduler batches token generation.
//
// The simulator core performs the hand-off (see SimulationConfig::disagg);
// these policies define what each role executes per iteration.
#pragma once

#include "scheduler/replica_scheduler.h"

namespace vidur {

/// Prefill-role replica: Sarathi-style chunked prompt processing under the
/// `chunk_size` token budget (set chunk_size >= the longest prompt for
/// whole-prompt Orca-style prefills). Never schedules decodes; the simulator
/// extracts each request as soon as its prompt completes.
class DisaggPrefillScheduler final : public ReplicaScheduler {
 public:
  using ReplicaScheduler::ReplicaScheduler;

 protected:
  void fill_batch(BatchSpec& batch, Seconds now) override;
};

/// Decode-role replica: admits migrated requests (prompt KV already
/// resident) with conservative peak-memory admission — every admitted
/// request can grow to its maximum length, so decodes never preempt and a
/// transferred KV cache is never thrown away.
class DisaggDecodeScheduler final : public ReplicaScheduler {
 public:
  using ReplicaScheduler::ReplicaScheduler;

 protected:
  void fill_batch(BatchSpec& batch, Seconds now) override;
};

}  // namespace vidur
