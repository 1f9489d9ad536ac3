// Metric collection (Vidur-Bench, paper §5.2): request-level, replica-level
// and cluster-level performance metrics gathered during a simulation.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "cluster/replica_state.h"
#include "common/stats.h"
#include "common/types.h"
#include "execution/batch_spec.h"
#include "metrics/token_times.h"
#include "model/model_spec.h"
#include "obs/registry.h"
#include "obs/rolling.h"
#include "operators/op_type.h"

namespace vidur {

/// Latency targets for one tenant's traffic. A request meets its SLO when it
/// completes and every enabled target holds: TTFT within `ttft_target`, and
/// the worst inter-token gap within `tbt_target`. Zero disables a target.
struct SloSpec {
  Seconds ttft_target = 0.0;
  Seconds tbt_target = 0.0;

  bool enabled() const { return ttft_target > 0.0 || tbt_target > 0.0; }

  bool operator==(const SloSpec&) const = default;
};

/// Identity of one tenant for metric attribution (name, priority, SLO).
/// The scenario engine builds these; hand-rolled simulations may pass their
/// own to get per-tenant breakdowns on any tagged trace.
struct TenantInfo {
  TenantId id = 0;
  std::string name;
  int priority = 0;
  SloSpec slo;

  bool operator==(const TenantInfo&) const = default;
};

/// Per-request lifecycle timestamps, filled in by the scheduler stack. A
/// self-contained value: copies keep their token times readable (the
/// TokenTimes share the run's timeline).
struct RequestRecord {
  RequestId id = -1;
  TenantId tenant = 0;
  Seconds arrival_time = 0.0;
  Seconds first_scheduled_time = -1.0;
  Seconds prefill_completed_time = -1.0;  ///< first output token (TTFT end)
  Seconds completed_time = -1.0;
  TokenCount prefill_tokens = 0;
  TokenCount decode_tokens = 0;
  int num_restarts = 0;  ///< vLLM-style preempt-and-restart events
  int num_retries = 0;   ///< replica-failure retries (backoff + re-route)
  int num_handoffs = 0;  ///< queued-on-a-dead-replica immediate re-routes
  bool shed = false;     ///< dropped by the graceful-degradation floor
  bool lost = false;     ///< recovery attempts exhausted (terminal)
  /// Output-token emission times (TBT), as runs over the run's per-slot
  /// batch-end timeline. A request restarted by preemption keeps the times
  /// of its earlier attempts and re-emits after them.
  TokenTimes token_times;

  bool completed() const { return completed_time >= 0.0; }
  /// Touched by a fault: displaced, handed off, shed or lost.
  bool fault_impacted() const {
    return num_retries > 0 || num_handoffs > 0 || shed || lost;
  }
  Seconds scheduling_delay() const {
    return first_scheduled_time - arrival_time;
  }
  Seconds ttft() const { return prefill_completed_time - arrival_time; }
  Seconds e2e_latency() const { return completed_time - arrival_time; }
  /// End-to-end latency per output token (the paper's normalized latency).
  Seconds normalized_e2e_latency() const {
    return e2e_latency() / static_cast<double>(decode_tokens);
  }
  /// Execution-only latency per output token (static-workload metric,
  /// paper §7.2: excludes scheduling delay).
  Seconds normalized_execution_latency() const {
    return (completed_time - first_scheduled_time) /
           static_cast<double>(decode_tokens);
  }
  /// Worst inter-token gap; -1 when fewer than two tokens were emitted.
  /// Kept as the tokens are appended, so O(1).
  Seconds worst_tbt() const { return token_times.worst_gap(); }
};

/// The SLO verdict of one request: it completed and every enabled target of
/// `slo` holds (see SloSpec).
bool meets_slo(const RequestRecord& record, const SloSpec& slo);

/// Read-only view of request records where they are stored: a vector of
/// records, or one record member of every element of a vector of larger
/// structs (the simulator's request states). finalize() aggregates through
/// it, so a run's records are never copied.
class RequestRecordView {
 public:
  RequestRecordView() = default;
  explicit RequestRecordView(const std::vector<RequestRecord>& records)
      : items_(records.data()),
        size_(records.size()),
        at_([](const void* items, std::size_t i) -> const RequestRecord& {
          return static_cast<const RequestRecord*>(items)[i];
        }) {}
  /// The `Member` record of every element of `items`.
  template <auto Member, typename T>
  static RequestRecordView members(const std::vector<T>& items) {
    RequestRecordView view;
    view.items_ = items.data();
    view.size_ = items.size();
    view.at_ = [](const void* all, std::size_t i) -> const RequestRecord& {
      return static_cast<const T*>(all)[i].*Member;
    };
    return view;
  }

  std::size_t size() const { return size_; }
  const RequestRecord& operator[](std::size_t i) const {
    return at_(items_, i);
  }

 private:
  const void* items_ = nullptr;
  std::size_t size_ = 0;
  const RequestRecord& (*at_)(const void*, std::size_t) = nullptr;
};

/// One executed iteration (replica-level accounting).
struct BatchRecord {
  ReplicaId replica = 0;
  Seconds start_time = 0.0;
  Seconds end_time = 0.0;
  TokenCount q_tokens = 0;
  int batch_size = 0;
  FlopCount flops = 0.0;
  ByteCount hbm_bytes_per_gpu = 0;  ///< HBM traffic per GPU (MBU accounting)
  double kv_utilization = 0.0;  ///< blocks in use / total, at submission
};

/// One pool's per-GPU resource rates. Power draw follows a linear
/// utilization model: a GPU running a batch at intensity u (its FLOP or
/// bandwidth utilization, whichever is higher) draws idle + (peak - idle) *
/// u watts; an idle GPU draws idle watts.
struct PoolResources {
  std::string name;
  int gpus_per_replica = 1;
  double peak_flops_per_gpu = 0.0;
  double hbm_bytes_per_sec_per_gpu = 0.0;
  double idle_watts_per_gpu = 0.0;
  double peak_watts_per_gpu = 0.0;  ///< 0 disables energy accounting
};

/// A fleet of identical replicas: the one-pool case of PoolResources.
struct ClusterResources {
  int num_replicas = 1;
  int gpus_per_replica = 1;
  double peak_flops_per_gpu = 0.0;
  double hbm_bytes_per_sec_per_gpu = 0.0;
  double idle_watts_per_gpu = 0.0;
  double peak_watts_per_gpu = 0.0;  ///< 0 disables energy accounting
};

/// Exact prefix-cache accounting aggregated across a run's replicas
/// (src/kvcache/). Conservation invariants: hits + misses == lookups, and
/// tokens_saved is exactly the prefill compute the schedulers skipped.
struct PrefixCacheMetrics {
  bool enabled = false;
  std::int64_t lookups = 0;
  std::int64_t hits = 0;
  std::int64_t misses = 0;
  std::int64_t inserted_blocks = 0;
  std::int64_t evicted_blocks = 0;
  TokenCount tokens_saved = 0;       ///< prefill tokens served from cache
  double bytes_saved = 0.0;          ///< KV bytes not recomputed (replica-wide)
  /// Sessions with resident KV at the end of the run, distinct across
  /// replicas (a session resident on two replicas counts once).
  std::int64_t resident_sessions = 0;

  double hit_rate() const {
    return lookups == 0
               ? 0.0
               : static_cast<double>(hits) / static_cast<double>(lookups);
  }

  /// Per-tenant / per-pool slice of the cache traffic.
  struct Slice {
    std::string name;
    std::int64_t lookups = 0;
    std::int64_t hits = 0;
    std::int64_t misses = 0;
    TokenCount tokens_saved = 0;

    double hit_rate() const {
      return lookups == 0
                 ? 0.0
                 : static_cast<double>(hits) / static_cast<double>(lookups);
    }

    bool operator==(const Slice&) const = default;
  };
  std::vector<Slice> by_tenant;  ///< sorted by tenant id
  std::vector<Slice> by_pool;    ///< pool order

  bool operator==(const PrefixCacheMetrics&) const = default;
};

/// Resilience accounting of a faulted run (src/fault/): what the injected
/// failures cost and how recovery answered. Conservation invariant over the
/// workload: arrived == completed + shed + lost (every arrival terminal in
/// exactly one bucket).
struct ResilienceMetrics {
  bool enabled = false;
  // Fault events injected.
  std::int64_t num_crashes = 0;
  std::int64_t num_spot_reclaims = 0;   ///< replicas reclaimed by spot windows
  std::int64_t num_degrade_events = 0;  ///< straggler episodes started
  // Recovery traffic.
  std::int64_t num_retries = 0;     ///< backoff-and-re-route events
  std::int64_t num_handoffs = 0;    ///< queued casualties re-routed at once
  std::int64_t num_shed = 0;        ///< requests dropped by the shed floor
  std::int64_t num_lost = 0;        ///< requests out of recovery attempts
  TokenCount tokens_reprefilled = 0;   ///< prefill work redone after failures
  TokenCount decode_tokens_discarded = 0;  ///< decode progress thrown away
  // Repair: capacity-hole close-out by the autoscaler.
  std::int64_t num_repairs = 0;  ///< replacement activations after kills
  Seconds mttr_s = 0.0;          ///< mean kill -> replacement-active time
  // SLO attainment, fault-blame split: `clean` counts only requests no
  // fault touched; `impacted` counts only touched ones (shed/lost = miss).
  // -1 when the slice is empty or no tenant carries an SLO.
  double slo_attainment_clean = -1.0;
  double slo_attainment_impacted = -1.0;

  bool operator==(const ResilienceMetrics&) const = default;
};

/// Aggregated output of one simulation.
struct SimulationMetrics {
  // Request-level.
  Summary scheduling_delay;
  Summary ttft;
  Summary tbt;
  Summary normalized_e2e_latency;
  Summary normalized_execution_latency;
  std::size_t num_requests = 0;
  std::size_t num_completed = 0;
  std::int64_t num_restarts = 0;
  /// Discrete events executed by the simulation (engine-throughput metric:
  /// events / wall-second is what the core-perf benchmarks track).
  std::uint64_t num_sim_events = 0;

  // Replica/cluster-level.
  Seconds makespan = 0.0;
  double throughput_qps = 0.0;     ///< completed requests / makespan
  double output_tokens_per_sec = 0.0;
  double mfu = 0.0;                ///< model FLOPs utilization
  double mbu = 0.0;                ///< model bandwidth utilization
  double mean_batch_size = 0.0;
  double mean_kv_utilization = 0.0;
  double busy_fraction = 0.0;      ///< replica busy time / makespan

  // Energy (zero when the cluster spec carries no power model).
  double total_energy_joules = 0.0;        ///< cluster GPU energy, whole run
  double energy_per_output_token = 0.0;    ///< joules per generated token
  double mean_cluster_power_watts = 0.0;   ///< total energy / makespan

  // Operator-level (paper §5.2; only filled when the simulation opts in via
  // SimulationConfig::collect_operator_metrics).
  struct OperatorStats {
    std::int64_t invocations = 0;  ///< stage executions including this op
    Seconds total_seconds = 0.0;   ///< summed per-stage time attribution

    bool operator==(const OperatorStats&) const = default;
  };
  std::map<OpType, OperatorStats> operator_stats;

  // Per-tenant breakdown (only filled when the trace carries tenant tags or
  // tenant infos were registered; single-tenant runs leave it empty unless
  // infos were provided for tenant 0).
  struct TenantMetrics {
    TenantInfo info;
    std::size_t num_requests = 0;
    std::size_t num_completed = 0;
    Summary scheduling_delay;
    Summary ttft;
    Summary tbt;
    double throughput_qps = 0.0;
    double output_tokens_per_sec = 0.0;
    /// Fraction of this tenant's requests meeting their SLO (incomplete
    /// requests count as misses). -1 when the tenant carries no SLO.
    double slo_attainment = -1.0;

    bool operator==(const TenantMetrics&) const = default;
  };
  std::vector<TenantMetrics> tenant_metrics;  ///< sorted by tenant id

  /// Replica-count and GPU-hour/cost accounting of the run's fleet, broken
  /// out per pool. Filled by the simulator: a flat fixed-fleet report
  /// normally, the full scaling timeline when an autoscaler managed the
  /// replicas (src/cluster/).
  ClusterScalingReport scaling;

  /// Final observability-registry state: every counter/gauge/histogram the
  /// simulator, schedulers and cluster manager maintained during the run
  /// (src/obs/registry.h). Always filled by the simulator.
  RegistrySnapshot registry;

  /// Rolling windowed metric tracks ("cluster", "tenant:<name>",
  /// "pool:<name>"); empty unless the simulation enabled a rolling window
  /// (SimObs::rolling_window_s > 0).
  std::vector<RollingTrack> rolling;

  /// Estimator prediction-cache traffic attributable to this run (filled by
  /// VidurSession::simulate; zero for reference replays, which bypass the
  /// estimator). Deltas of the estimators' relaxed atomic counters — exact
  /// for serial runs, approximate when sweeps share estimators across
  /// threads.
  std::int64_t estimator_cache_hits = 0;
  std::int64_t estimator_cache_misses = 0;

  /// Prefix-cache traffic (KV reuse); enabled=false when the deployment
  /// ran without a prefix cache.
  PrefixCacheMetrics prefix_cache;

  /// Fault-injection and recovery accounting; enabled=false when the
  /// deployment ran without a faults block.
  ResilienceMetrics resilience;

  /// Cluster-wide SLO attainment: the fraction of all requests (across
  /// every SLO-carrying tenant, weighted by traffic) that met their
  /// tenant's SLO. -1 when no tenant carries an SLO.
  double aggregate_slo_attainment() const;

  /// Rendered operator time table, heaviest first (empty when no operator
  /// metrics were collected).
  std::string operator_table() const;

  /// Rendered per-tenant breakdown table (empty when single-tenant).
  std::string tenant_table() const;

  std::string to_string() const;

  bool operator==(const SimulationMetrics&) const = default;
};

/// Accumulates batch sums during a run and aggregates them, with the run's
/// request records, at the end. The fleet is a list of pools: every batch
/// is billed at its own pool's rates, and the fleet's MFU, MBU and energy
/// are exact sums over the pools.
class MetricsCollector {
 public:
  /// `pools` carries each pool's rates in pool order (the scaling report's
  /// pool order); `pool_of_slot` maps every replica slot to its pool index.
  MetricsCollector(std::vector<PoolResources> pools,
                   std::vector<int> pool_of_slot);
  /// One pool of `cluster.num_replicas` identical slots.
  explicit MetricsCollector(ClusterResources cluster);
  /// Convenience overload used widely by tests; no power model.
  MetricsCollector(int num_replicas, double peak_flops_per_gpu,
                   int gpus_per_replica,
                   double hbm_bytes_per_sec_per_gpu = 0.0);

  /// Register tenant identities for per-tenant attribution. Records tagged
  /// with an unregistered tenant id still get a breakdown row under a
  /// generated name. May be called at any time before finalize().
  void set_tenants(std::vector<TenantInfo> tenants);

  /// Add one batch to its replica slot's sums. Only that slot is written,
  /// so threads recording batches of distinct replicas never race, and the
  /// result does not depend on how the replicas' batches interleave.
  void record_batch(const BatchRecord& record);
  /// Keep a copy of one request's record for the finalize() overloads
  /// without a record view (standalone callers; the simulator aggregates
  /// its own records in place).
  void record_request(const RequestRecord& record);
  /// Accumulate one stage execution's per-operator time attribution.
  void record_operators(const std::map<OpType, Seconds>& per_op);

  /// Aggregate. `now` is the simulation end time (makespan). The overloads
  /// taking the fleet's scaling report attach it to the result and bill
  /// each pool's idle energy on the pool's actual paid GPU-time — an
  /// autoscaled run pays idle watts only while a replica is up
  /// (provisioning through decommission), not for the whole static slot
  /// ceiling. The report breaks the paid time out per pool, in pool order;
  /// a one-pool collector also takes a report without that breakout and
  /// bills the fleet's paid time. The one-argument form assumes a fixed
  /// one-pool fleet, every slot active the whole run. Without `records`,
  /// the copies passed to record_request() are aggregated. Replica sums
  /// fold in slot order.
  SimulationMetrics finalize(Seconds now) const;
  SimulationMetrics finalize(Seconds now,
                             const ClusterScalingReport& scaling) const;
  SimulationMetrics finalize(Seconds now, const ClusterScalingReport& scaling,
                             RequestRecordView records) const;

 private:
  /// Batch sums of one replica slot (or of one pool, or the fleet, when
  /// folded). Cache-line aligned: shard threads write neighbouring slots
  /// concurrently.
  struct alignas(64) BatchSums {
    double flops = 0.0;
    double hbm_bytes = 0.0;
    double busy_time = 0.0;
    double weighted_kv_util = 0.0;
    double weighted_batch_size = 0.0;
    double busy_energy_joules = 0.0;  ///< at the slot's own pool rates

    void add(const BatchSums& other);
  };

  std::vector<TenantInfo> tenants_;
  std::vector<RequestRecord> requests_;
  std::vector<PoolResources> pools_;
  std::vector<int> pool_of_slot_;
  std::vector<BatchSums> replica_sums_;  ///< one per replica slot
  std::map<OpType, SimulationMetrics::OperatorStats> operator_stats_;
};

}  // namespace vidur
