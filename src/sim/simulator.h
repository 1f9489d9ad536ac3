// The Vidur event-driven simulator core (paper Fig. 2, component 4).
//
// Wires together the three-tier scheduler stack, an execution backend (the
// runtime-estimator predictor, or the ground-truth reference executor), and
// metric collection, then plays a request trace to completion.
#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "cluster/cluster_manager.h"
#include "cluster/pool.h"
#include "common/thread_pool.h"
#include "execution/execution_backend.h"
#include "fault/fault_config.h"
#include "fault/fault_injector.h"
#include "hardware/parallel_config.h"
#include "hardware/sku.h"
#include "kvcache/prefix_cache.h"
#include "kvcache/prefix_cache_config.h"
#include "metrics/metrics.h"
#include "model/model_spec.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "scheduler/global_scheduler.h"
#include "scheduler/replica_scheduler.h"
#include "scheduler/stage_scheduler.h"
#include "sim/disagg_config.h"
#include "sim/event_queue.h"
#include "workload/request.h"

namespace vidur {

class RollingCollector;

/// Observability attachments of one run (src/obs/). All optional: with the
/// defaults the simulator still maintains its internal metrics registry
/// (snapshotted into SimulationMetrics) but records no trace and no rolling
/// windows. Pointers are borrowed — the caller keeps them alive across
/// run().
struct SimObs {
  /// Lifecycle/batch/cluster event recorder; nullptr disables tracing
  /// (the hot path then pays a single branch per would-be record). A
  /// recorder keeps the run on the central event queue, one event per
  /// iteration: no shards, no stable decode windows.
  TraceRecorder* trace = nullptr;
  /// Rolling windowed metrics (per-tenant/per-pool TTFT/TBT/SLO/queue
  /// depth): window length in simulated seconds; 0 disables.
  Seconds rolling_window_s = 0.0;
};

/// One simulation's inputs. The deployment is written either as `pools` or
/// in the homogeneous shorthand (`node`, `parallel`, `disagg.
/// num_prefill_replicas`, `autoscale`); deployment_pools() lowers the
/// shorthand, and the engine only ever runs pools.
struct SimulationConfig {
  ModelSpec model;
  /// Shorthand: the SKU of a homogeneous fleet (a built-in SKU; pools name
  /// theirs).
  NodeSpec node;
  /// Shorthand: TP/PP and slot count of a homogeneous fleet.
  ParallelConfig parallel;
  SchedulerConfig scheduler;
  GlobalSchedulerKind global_scheduler = GlobalSchedulerKind::kRoundRobin;
  double memory_utilization = 0.9;
  /// Safety cutoff; events beyond this simulated time are not executed.
  Seconds max_sim_time = kInfiniteTime;
  /// Collect per-operator time attribution (paper §5.2). Costs one extra
  /// backend decomposition per stage execution; off by default.
  bool collect_operator_metrics = false;
  /// Overlap inter-stage activation sends with the sending stage's next
  /// micro-batch (paper §4.5 future work: asynchronous-communication
  /// pipeline scheduling). The send still delays the downstream stage; it
  /// just no longer occupies the upstream one. No effect when PP = 1.
  bool async_pipeline_comm = false;
  /// KV hand-off parameters (transfer_*) of every disaggregated deployment.
  /// Shorthand: num_prefill_replicas > 0 splits the homogeneous fleet into
  /// a "prefill" pool of that many slots and a "decode" pool of the rest;
  /// `scheduler.kind` is then ignored (each role runs its dedicated policy).
  DisaggConfig disagg;
  /// Tenant identities for per-tenant metric attribution (scenario engine).
  /// Empty for single-tenant runs.
  std::vector<TenantInfo> tenants;
  /// Shorthand: the homogeneous fleet's autoscaling policy. When enabled,
  /// `parallel.num_replicas` becomes the fleet's slot count (the scale-up
  /// ceiling) and a ClusterManager drives replica lifecycles. Not
  /// combinable with the disaggregation shorthand (pools autoscale
  /// disaggregated roles independently).
  AutoscalerConfig autoscale;
  /// The deployment as pools: replica slots are laid out pool by pool, each
  /// pool with its own SKU, parallelism, role and (optional) autoscaling
  /// policy. When non-empty, the shorthand fields above must stay at their
  /// defaults. Fleet MFU/MBU/energy are exact sums over the pools.
  std::vector<PoolSpec> pools;
  /// Per-replica prefix cache (KV reuse across sessions and shared system
  /// prompts). Each replica gets its own cache sized to capacity_fraction
  /// of its pool's KV blocks; retained blocks count in the KV-pressure
  /// signal and are reclaimed on demand by active work.
  PrefixCacheConfig prefix_cache;
  /// Fault injection (src/fault/): crash/spot/degrade profiles plus the
  /// recovery and load-shedding policies. Profiles that kill replicas
  /// require an elastic fleet (autoscaling repairs the capacity hole);
  /// degrade-only profiles work anywhere.
  FaultConfig faults;
  /// Worker threads of the sharded simulation core (spec knob
  /// `execution.threads`, default 1). An untraced static round-robin fleet
  /// advances each replica on a private event queue inside conservative
  /// time windows bounded by the next central event (a degrade edge); a
  /// window's shards run as tasks on one ThreadPool and touch nothing
  /// shared, so the result is bit-identical at every thread count. Every
  /// other run, traced runs included, plays on the central queue, where the
  /// knob changes nothing. Must be 1 for configurations whose cross-shard
  /// events have zero lookahead or whose collection is not thread-safe
  /// (disaggregated serving, operator metrics).
  int threads = 1;
  /// Observability: trace recorder and rolling windows.
  SimObs obs;
};

/// The deployment of `config` as pools: `pools` when set, otherwise the
/// shorthand lowered to one unified pool named "fleet" (carrying
/// `autoscale`), or — under `disagg.num_prefill_replicas` — a "prefill"
/// pool of that many slots followed by a "decode" pool of the rest. Throws
/// vidur::Error on an inconsistent deployment.
std::vector<PoolSpec> deployment_pools(const SimulationConfig& config);

/// Creates the per-replica timing backend (a predictor shared across
/// replicas, or per-replica reference executors with forked RNG streams).
using BackendFactory =
    std::function<std::unique_ptr<ExecutionBackend>(ReplicaId)>;

class Simulator {
 public:
  /// Throws vidur::Error on invalid configuration (model does not fit,
  /// inconsistent parallelism, ...). The trace is read here and not kept:
  /// every request state carries its own Request.
  Simulator(SimulationConfig config, const Trace& trace,
            BackendFactory factory);

  /// Play the trace to completion and aggregate metrics.
  SimulationMetrics run();

  const std::vector<RequestState>& request_states() const { return states_; }
  /// The elastic-fleet manager, or nullptr for fixed-fleet runs.
  const ClusterManager* cluster() const { return cluster_.get(); }
  /// Fleet slot count (fixed fleets: the configured replica count).
  int num_slots() const { return num_slots_; }
  /// One slot's prefix-cache pool, or nullptr when caching is off.
  const PrefixCache* prefix_cache(ReplicaId r) const {
    return replicas_[static_cast<std::size_t>(r)].cache.get();
  }

  /// The stable decode windows of a finished run (run_decode_window): how
  /// many opened, and how many iterations ran inside them, each a stage-end
  /// event the engine did not queue. For tests and measurements; not part
  /// of the run's results.
  struct DecodeWindowStats {
    std::uint64_t windows = 0;
    std::uint64_t iterations = 0;
  };
  DecodeWindowStats decode_window_stats() const;

 private:
  struct InFlightBatch {
    BatchSpec spec;
    /// Aggregates frozen at submission (items do not change in flight);
    /// saves re-walking the batch for FLOP/HBM/token accounting.
    BatchAggregates agg;
    ReplicaId replica = 0;
    Seconds start_time = 0.0;
    FlopCount flops = 0.0;
    double kv_utilization = 0.0;
    std::int64_t trace_seq = -1;  ///< batch sequence number when tracing
    /// Slot-liveness guard: a stale/duplicated handle reaching the stage
    /// machinery fails fast instead of silently reading a recycled slot.
    bool live = false;
    /// The batch's replica died mid-flight: the pipeline events still
    /// drain (they were already scheduled), but the batch produces no
    /// metrics, no request progress and no follow-on scheduling.
    bool cancelled = false;
  };

  struct Replica {
    std::unique_ptr<ReplicaScheduler> scheduler;
    std::unique_ptr<ExecutionBackend> backend;
    std::vector<StageScheduler> stages;
    std::unique_ptr<PrefixCache> cache;  ///< null when prefix caching off
    int batches_in_flight = 0;
    /// Straggler mode (src/fault/): execution-time predictions are scaled
    /// by this factor while > 1.0. Reset to 1.0 when the replica dies.
    double slow_factor = 1.0;
    /// In-flight batches live in recycled slots indexed by their handle:
    /// lookup is a vector index, and a reused slot's BatchSpec keeps its
    /// item capacity, so steady-state iterations form batches without
    /// allocating. Per replica — never shared across shard threads.
    std::vector<InFlightBatch> in_flight;
    std::vector<StageScheduler::BatchHandle> free_handles;
    /// Scheduler preemption/admission and batch/completion tallies, kept
    /// replica-private so shard threads never race on the registry
    /// counters; summed into `scheduler.preemptions`,
    /// `scheduler.admissions`, `sim.batches` and `sim.requests_completed`
    /// at end of run.
    Counter preemptions;
    Counter admissions;
    Counter batches;
    Counter completions;
    /// Stable decode windows opened here, the iterations they ran (each
    /// counts in `sim.events` as the stage end it replaces) and the latest
    /// such iteration's end (counts in the run horizon).
    std::uint64_t decode_windows = 0;
    std::uint64_t window_iterations = 0;
    Seconds window_end = 0.0;
  };

  /// Typed-event switch: the single dispatch point of the hot loop.
  void dispatch(const SimEvent& event);
  void on_arrival(RequestState* request);
  /// Route (or re-route) a request through the global scheduler.
  void route_request(RequestState* request);
  /// Drain started on `replica_id`: push its queued-but-unstarted requests
  /// back through the global scheduler so surviving replicas take them.
  void reroute_waiting(ReplicaId replica_id);
  void try_schedule(ReplicaId replica_id);
  void start_stage(ReplicaId replica_id, StageId stage,
                   StageScheduler::BatchHandle handle);
  /// How long `batch` occupies `stage` (the backend's stage timing, plus
  /// the CPU overhead on stage 0, scaled by the straggler factor); sets
  /// `handoff_lag` to the send delay an asynchronous pipeline adds
  /// downstream. Draws from the backend exactly once per call.
  Seconds stage_busy(Replica& replica, const InFlightBatch& batch,
                     StageId stage, Seconds& handoff_lag);
  /// The replica-level accounting of `batch` ending at `end`.
  BatchRecord batch_record(ReplicaId replica_id, const InFlightBatch& batch,
                           Seconds end) const;
  /// Stable decode window: `batch` just started as a stable decode batch
  /// (ReplicaScheduler::stable_decode) and ends at `end`. Runs the
  /// identical iterations that would follow it in a loop, each accounted
  /// as its own stage-end event would, and stops before the first that
  /// would form at or after window_edge(), end after max_sim_time, finish
  /// a request or need KV blocks that are not free. Leaves `batch` formed
  /// as the window's last iteration and returns that iteration's end (and
  /// its `handoff_lag`), for which the caller queues the one stage-end
  /// event.
  Seconds run_decode_window(ReplicaId replica_id, InFlightBatch& batch,
                            Seconds end, Seconds& handoff_lag);
  /// The time of the next event able to reach a replica from the calling
  /// context: in a shard, its queue's next event or the round's end; on
  /// the central queue, the next arrival (the only event that reaches
  /// another replica in a run that opens windows there).
  Seconds window_edge() const;
  void on_stage_end(ReplicaId replica_id, StageId stage,
                    StageScheduler::BatchHandle handle, Seconds comm_time);
  /// Micro-batch (activations included) arrives at `stage`.
  void deliver_to_stage(ReplicaId replica_id, StageId stage,
                        StageScheduler::BatchHandle handle);
  void finish_batch(ReplicaId replica_id,
                    StageScheduler::BatchHandle handle);
  void pull_deferred(ReplicaId replica_id);

  // ---- sharded windowed engine ----
  /// One replica's private simulation timeline: its own event queue.
  /// Everything a shard task mutates while running events lives here, in
  /// the matching Replica, or in the replica's own slot of the metrics
  /// collector — nothing shared, no locks on the hot path. Sharded runs
  /// record no trace, so a shard emits nothing that would need ordering
  /// against the others.
  struct SimShard {
    ReplicaId replica = -1;
    EventQueue events;
    std::int64_t arrivals = 0;  ///< summed into requests.arrivals at end
    /// The running round's end: central events at this time run before
    /// any shard event at it.
    Seconds round_end = kInfiniteTime;
  };

  /// Shard-local clock/queue of the calling thread, falling back to the
  /// central ones outside a window round. tls_shard_ is the only
  /// thread-local switch: every handler reads time and schedules follow-on
  /// events through these, so one code path serves both engines.
  Seconds sim_now() const;
  EventQueue& local_events();
  /// Run one shard's events strictly below `window` (and within
  /// max_sim_time), with tls_shard_ pointing at it.
  void run_shard(SimShard& shard, Seconds window);
  /// One conservative round: advance every shard with pending work below
  /// `window` (one pool task per shard when a pool exists), then recount
  /// the remaining work from the replicas' completion tallies. Rethrows the
  /// lowest-numbered failing shard's error, whatever the thread count.
  void shard_round(Seconds window);

  // ---- pools ----
  /// Pool owning a slot.
  const PoolSpec& pool_of(ReplicaId r) const {
    return config_.pools[static_cast<std::size_t>(
        pool_of_slot_[static_cast<std::size_t>(r)])];
  }
  /// May this slot receive arrivals (role-wise; elastic activity aside)?
  bool arrival_eligible(ReplicaId r) const {
    return pool_of(r).role != PoolRole::kDecode;
  }
  /// Role-aware arrival mask: arrival-eligible AND (if elastic) active.
  /// Returns a member scratch buffer, rebuilt per call.
  const std::vector<bool>& arrival_mask() const;

  // ---- disaggregated serving ----
  bool is_prefill_replica(ReplicaId r) const {
    return pool_of(r).role == PoolRole::kPrefill;
  }
  /// Hand prefilled requests of a completed batch to decode replicas.
  void migrate_prefilled(ReplicaId replica_id, const BatchSpec& batch);
  /// KV transfer finished: route to the least-loaded decode replica.
  void on_migrated(RequestState* request);
  Seconds kv_transfer_time(const RequestState& request) const;

  // ---- fault injection & recovery (src/fault/) ----
  /// Construct the FaultInjector and its hooks (constructor helper).
  void setup_faults();
  /// Abrupt replica failure (crash or expired spot notice): cancel its
  /// in-flight batches, tear down scheduler + KV + prefix-cache state,
  /// fail the slot through the cluster lifecycle (held until `hold_until`
  /// for spot reclaims), then classify and recover every casualty.
  /// Tolerates replicas that already left the active/draining states.
  void kill_replica(ReplicaId replica_id, Seconds hold_until, bool spot);
  /// Recovery classification of one casualty of `replica_id`'s failure:
  /// queued-but-unstarted work hands off immediately; started work retries
  /// with exponential backoff + jitter until max_attempts, then is lost.
  void recover_request(RequestState* request, ReplicaId replica_id);
  /// Re-entry point of a backoff retry; applies the shed gate, then routes.
  void reenter_request(RequestState* request);
  /// Graceful degradation: true when the admission controller sheds this
  /// request (capacity below the floor and priority at/below the cutoff).
  bool maybe_shed(RequestState* request);
  /// Priority of a request's tenant (untagged tenants are priority 0).
  int tenant_priority(TenantId tenant) const;
  /// Enabled SLO of a tenant, or nullptr when it has none (or is unknown).
  const SloSpec* tenant_slo(TenantId tenant) const;
  /// Fill metrics.resilience from the injector log + recovery tallies and
  /// mirror it into the `faults.*` registry counters.
  void aggregate_resilience(ResilienceMetrics& out);

  // ---- observability (src/obs/) ----
  /// Wire the registry counters and the trace/rolling attachments; called
  /// once from the constructor after replicas and cluster manager exist.
  void setup_observability();
  /// Rolling track of a tenant, or -1 when rolling is off / unmapped.
  int tenant_track(TenantId tenant) const;
  /// In-system depth change of the cluster + tenant tracks.
  void rolling_request_delta(const RequestState& request, int delta);
  /// Outstanding-work depth change of a replica's pool track.
  void rolling_pool_delta(ReplicaId replica_id, int delta);
  /// Completion accounting across cluster, tenant and pool tracks.
  void rolling_completions(ReplicaId replica_id,
                           const std::vector<RequestState*>& finished);
  /// Merge every replica's prefix-cache stats into `out` (totals,
  /// per-tenant and per-pool slices) and mirror them into the registry.
  void aggregate_prefix_cache(PrefixCacheMetrics& out);

  /// The configuration as run: `pools` holds the deployment, the
  /// shorthand fields are cleared.
  SimulationConfig config_;
  int num_slots_ = 0;  ///< total replica slots over all pools
  /// Prefill/decode pools (validate_pools allows no unified pool then).
  bool disaggregated_ = false;
  EventQueue events_;
  GlobalScheduler global_;
  /// Per-pool memory plans and the slot -> pool index map.
  std::vector<MemoryPlan> pool_plans_;
  std::vector<int> pool_of_slot_;
  mutable std::vector<bool> arrival_mask_scratch_;
  std::vector<Replica> replicas_;
  /// Batch-end times of every slot, shared by all request records: each
  /// replica appends to its own slot (its scheduler at a batch end, its
  /// decode windows for the iterations they run), and every record is
  /// bound to it up front, so token appends copy no shared_ptr.
  std::shared_ptr<TokenTimeline> timeline_;
  std::vector<RequestState> states_;
  MetricsCollector metrics_;
  std::unique_ptr<ClusterManager> cluster_;  ///< elastic fleets only
  std::size_t remaining_requests_ = 0;       ///< not yet completed
  /// Time of the last batch end, central engine only (elastic fleets end
  /// their accounting there; they never shard).
  Seconds last_batch_end_ = 0.0;
  bool ran_ = false;

  // ---- fault injection state ----
  std::unique_ptr<FaultInjector> injector_;  ///< null = faults off
  Rng retry_rng_;  ///< backoff jitter draws (seeded off faults.seed)
  /// Kill times awaiting repair, FIFO: each autoscaler activation after a
  /// kill closes the oldest hole (MTTR = mean close - open).
  std::deque<Seconds> pending_repairs_;
  Seconds mttr_sum_ = 0.0;
  std::int64_t num_repairs_ = 0;
  std::int64_t num_retries_ = 0;
  std::int64_t num_handoffs_ = 0;
  std::int64_t num_shed_ = 0;
  std::int64_t num_lost_ = 0;
  TokenCount tokens_reprefilled_ = 0;
  TokenCount decode_tokens_discarded_ = 0;
  std::vector<int> tenant_priority_by_id_;  ///< tenant id -> priority

  // ---- observability state ----
  TraceRecorder* trace_rec_ = nullptr;  ///< nullptr = tracing off
  MetricsRegistry registry_;
  std::unique_ptr<RollingCollector> rolling_;  ///< nullptr = rolling off
  /// Counter handles resolved once; hot-path increments are pointer adds.
  Counter* ctr_arrivals_ = nullptr;
  Counter* ctr_completions_ = nullptr;
  Counter* ctr_batches_ = nullptr;
  Counter* ctr_migrations_ = nullptr;
  Counter* ctr_reroutes_ = nullptr;
  std::int64_t next_batch_seq_ = 0;

  // ---- sharded windowed engine state ----
  /// Arrivals pre-routable? True exactly when routing is a pure function
  /// of the arrival order (round-robin over a static, fault-degrade-only,
  /// non-disaggregated fleet without rolling windows or operator
  /// metrics) and no trace is recorded: targets are then known up front,
  /// arrivals seed per-replica shard queues, and the stretches between
  /// central events run sharded. Otherwise every arrival stays a central
  /// event and the run degenerates to the legacy single-queue order
  /// exactly.
  bool preroute_ = false;
  /// Stable decode windows allowed on PP = 1 replicas (decided in run()
  /// from the configuration): no trace recorder, no operator metrics, and
  /// on the central queue nothing but arrivals that can reach a replica
  /// between its own events.
  bool decode_windows_ = false;
  std::vector<SimShard> shards_;  ///< one per slot when preroute_, else empty
  std::vector<int> dirty_scratch_;  ///< shards with work this round
  std::unique_ptr<ThreadPool> pool_;  ///< threads > 1 and > 1 shard only
  /// The running thread's shard during a window round, null in central
  /// context (and always without pre-routing).
  static thread_local SimShard* tls_shard_;

  /// Rolling-track layout: 0 = cluster, then tenants, then pools.
  std::vector<int> tenant_track_by_id_;  ///< tenant id -> track (-1: none)
  std::vector<const SloSpec*> tenant_slo_by_id_;  ///< nullptr: no enabled SLO
  int pool_track_base_ = -1;  ///< first pool track (rolling on)
};

}  // namespace vidur
