// A deployment configuration: the point in the paper's configuration space
// that Vidur-Search optimizes over (SKU x parallelism x scheduler x knobs).
#pragma once

#include <string>
#include <vector>

#include "cluster/autoscaler.h"
#include "cluster/pool.h"
#include "fault/fault_config.h"
#include "hardware/parallel_config.h"
#include "hardware/sku.h"
#include "kvcache/prefix_cache_config.h"
#include "scheduler/global_scheduler.h"
#include "scheduler/scheduler_config.h"
#include "sim/disagg_config.h"

namespace vidur {

struct DeploymentConfig {
  std::string sku_name = "a100";
  ParallelConfig parallel;
  SchedulerConfig scheduler;
  GlobalSchedulerKind global_scheduler = GlobalSchedulerKind::kRoundRobin;
  /// Overlap pipeline activation sends with the next micro-batch's compute
  /// (paper §4.5 future work; no effect when PP = 1).
  bool async_pipeline_comm = false;
  /// Prefill/decode disaggregation (Splitwise / DistServe, paper §2.2).
  DisaggConfig disagg;
  /// Elastic fleet (src/cluster/): when enabled, parallel.num_replicas is
  /// the slot ceiling and the autoscaler drives the active replica count.
  AutoscalerConfig autoscale;
  /// Heterogeneous pool deployment: named pools, each with its own SKU,
  /// parallelism, role (unified / prefill / decode) and per-pool
  /// autoscaling policy. When non-empty, `sku_name`, `parallel`,
  /// `disagg.num_prefill_replicas` and `autoscale` above are superseded
  /// and must stay at their disabled defaults; `scheduler` and
  /// `global_scheduler` still apply fleet-wide.
  std::vector<PoolSpec> pools;
  /// Per-replica prefix cache (src/kvcache/): KV reuse across multi-turn
  /// sessions and shared system prompts. Pair with
  /// `global_scheduler = cache_aware` for affinity routing.
  PrefixCacheConfig prefix_cache;
  /// Fault injection (src/fault/): per-pool crash / spot-preemption /
  /// straggler profiles plus the retry and shed policies the fleet answers
  /// them with. Disabled by default (no profiles = immortal replicas).
  FaultConfig faults;
  /// Worker threads of the sharded simulation core (spec: `execution.
  /// threads`). Results are bit-identical at every value. Only untraced
  /// static round-robin fleets shard; > 1 runs their replica timelines in
  /// parallel between degrade edges. Every other run, traced runs
  /// included, plays on the central queue, where the value changes
  /// nothing. Must stay 1 for disaggregated deployments and operator-metric
  /// collection (validated).
  int threads = 1;

  int total_gpus() const {
    if (pools.empty()) return parallel.total_gpus();
    int total = 0;
    for (const PoolSpec& pool : pools)
      total += pool.slots() * pool.gpus_per_replica();
    return total;
  }

  /// Rental cost of all GPUs (every pool at its slot ceiling), USD/hour.
  double cost_per_hour() const {
    if (pools.empty())
      return sku_by_name(sku_name).cost_per_hour * total_gpus();
    double total = 0.0;
    for (const PoolSpec& pool : pools)
      total += pool.replica_cost_per_hour() * pool.slots();
    return total;
  }

  /// Human-readable one-liner, e.g.
  /// "h100 tp2 pp2 x4 sarathi(bs=256, chunk=512)".
  std::string to_string() const;

  bool operator==(const DeploymentConfig&) const = default;
};

}  // namespace vidur
