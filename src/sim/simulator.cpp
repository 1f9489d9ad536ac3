#include "sim/simulator.h"

#include <algorithm>
#include <cmath>
#include <exception>

#include "common/check.h"
#include "obs/rolling.h"
#include "obs/trace.h"
#include "scheduler/disagg_policies.h"

namespace vidur {

namespace {

/// The configuration the engine runs: the deployment lowered to pools and
/// the shorthand fields cleared, so nothing downstream can read them.
SimulationConfig lower(SimulationConfig c) {
  c.pools = deployment_pools(c);
  c.node = NodeSpec{};
  c.parallel = ParallelConfig{};
  c.disagg.num_prefill_replicas = 0;
  c.autoscale = AutoscalerConfig{};
  return c;
}

/// Each pool's SKU rates, in pool order: the metrics collector bills every
/// batch at its own pool's rates.
std::vector<PoolResources> pool_resources(const std::vector<PoolSpec>& pools) {
  std::vector<PoolResources> out;
  for (const PoolSpec& pool : pools) {
    const SkuSpec sku = sku_by_name(pool.sku_name);
    out.push_back(PoolResources{
        .name = pool.name,
        .gpus_per_replica = pool.gpus_per_replica(),
        .peak_flops_per_gpu = sku.peak_flops(),
        .hbm_bytes_per_sec_per_gpu = sku.hbm_bytes_per_sec(),
        .idle_watts_per_gpu = sku.idle_watts,
        .peak_watts_per_gpu = sku.peak_watts});
  }
  return out;
}

}  // namespace

std::vector<PoolSpec> deployment_pools(const SimulationConfig& c) {
  c.disagg.validate();
  std::vector<PoolSpec> pools = c.pools;
  if (!pools.empty()) {
    VIDUR_CHECK_MSG(!c.disagg.enabled(),
                    "pool deployments define disaggregation through pool "
                    "roles; leave disagg.num_prefill_replicas at 0 (the "
                    "transfer_* fields still parameterize KV hand-off)");
    VIDUR_CHECK_MSG(!c.autoscale.enabled(),
                    "pool deployments autoscale per pool; leave the "
                    "top-level autoscale disabled");
  } else {
    VIDUR_CHECK_MSG(!(c.autoscale.enabled() && c.disagg.enabled()),
                    "autoscaling is not supported with legacy "
                    "disaggregated serving; use a pool deployment with "
                    "prefill/decode pools instead");
    PoolSpec fleet;
    fleet.name = "fleet";
    fleet.sku_name = c.node.sku.name;
    fleet.parallel = c.parallel;
    fleet.autoscale = c.autoscale;
    if (!c.disagg.enabled()) {
      pools.push_back(std::move(fleet));
    } else {
      VIDUR_CHECK_MSG(
          c.disagg.num_prefill_replicas < c.parallel.num_replicas,
          "disaggregation requires at least one decode replica");
      PoolSpec prefill = fleet;
      prefill.name = "prefill";
      prefill.role = PoolRole::kPrefill;
      prefill.parallel.num_replicas = c.disagg.num_prefill_replicas;
      PoolSpec decode = std::move(fleet);
      decode.name = "decode";
      decode.role = PoolRole::kDecode;
      decode.parallel.num_replicas -= c.disagg.num_prefill_replicas;
      pools.push_back(std::move(prefill));
      pools.push_back(std::move(decode));
    }
  }
  validate_pools(pools);
  return pools;
}

thread_local Simulator::SimShard* Simulator::tls_shard_ = nullptr;

Seconds Simulator::sim_now() const {
  return tls_shard_ != nullptr ? tls_shard_->events.now() : events_.now();
}

EventQueue& Simulator::local_events() {
  return tls_shard_ != nullptr ? tls_shard_->events : events_;
}

Simulator::Simulator(SimulationConfig config, const Trace& trace,
                     BackendFactory factory)
    : config_(lower(std::move(config))),
      num_slots_(total_pool_slots(config_.pools)),
      disaggregated_(pools_disaggregated(config_.pools)),
      global_(config_.global_scheduler, num_slots_),
      pool_of_slot_(pool_slot_layout(config_.pools)),
      timeline_(std::make_shared<TokenTimeline>(num_slots_)),
      metrics_(pool_resources(config_.pools), pool_of_slot_) {
  config_.model.validate();
  config_.scheduler.validate();
  VIDUR_CHECK(factory != nullptr);

  VIDUR_CHECK_MSG(config_.threads >= 1,
                  "execution.threads must be >= 1 (got " << config_.threads
                                                         << ")");
  if (config_.threads > 1) {
    // KV hand-offs between roles have zero lookahead (a prefill's end is
    // the decode's input), so disaggregated serving cannot shard; operator
    // metrics aggregate into one collector from every stage execution.
    VIDUR_CHECK_MSG(!disaggregated_,
                    "execution.threads > 1 is not supported with "
                    "role-disaggregated pools; run with threads = 1");
    VIDUR_CHECK_MSG(!config_.collect_operator_metrics,
                    "execution.threads > 1 is not supported with operator "
                    "metrics collection; run with threads = 1");
  }

  for (const PoolSpec& pool : config_.pools) {
    const NodeSpec node{.sku = sku_by_name(pool.sku_name)};
    pool_plans_.push_back(plan_memory(config_.model, node, pool.parallel,
                                      config_.memory_utilization));
  }

  replicas_.reserve(static_cast<std::size_t>(num_slots_));
  for (ReplicaId r = 0; r < num_slots_; ++r) {
    Replica replica;
    const MemoryPlan& plan = pool_plans_[static_cast<std::size_t>(
        pool_of_slot_[static_cast<std::size_t>(r)])];
    if (!disaggregated_) {
      replica.scheduler = make_replica_scheduler(config_.scheduler, plan);
    } else if (is_prefill_replica(r)) {
      replica.scheduler = std::make_unique<DisaggPrefillScheduler>(
          config_.scheduler, plan);
    } else {
      replica.scheduler = std::make_unique<DisaggDecodeScheduler>(
          config_.scheduler, plan);
    }
    replica.scheduler->set_timeline(timeline_, r);
    if (config_.prefix_cache.enabled) {
      config_.prefix_cache.validate();
      const long capacity = static_cast<long>(
          config_.prefix_cache.capacity_fraction *
          static_cast<double>(plan.num_kv_blocks));
      replica.cache = std::make_unique<PrefixCache>(capacity, plan.block_size);
      replica.scheduler->set_prefix_cache(replica.cache.get());
    }
    replica.backend = factory(r);
    VIDUR_CHECK(replica.backend != nullptr);
    replica.stages.resize(
        static_cast<std::size_t>(pool_of(r).parallel.pipeline_parallel));
    replicas_.push_back(std::move(replica));
  }

  // Read live, per candidate, only by the policies that weigh load.
  global_.set_load_probe([this](ReplicaId r) {
    return replicas_[static_cast<std::size_t>(r)].scheduler->outstanding();
  });
  if (config_.global_scheduler == GlobalSchedulerKind::kCacheAware &&
      config_.prefix_cache.enabled) {
    // Read-only probe: routing must not perturb cache stats or LRU order.
    global_.set_cache_probe([this](const Request& req, ReplicaId r) {
      const PrefixCache* cache =
          replicas_[static_cast<std::size_t>(r)].cache.get();
      return cache == nullptr ? TokenCount{0} : cache->probe(req);
    });
  }

  metrics_.set_tenants(config_.tenants);

  if (any_pool_autoscaled(config_.pools)) {
    ClusterManager::Hooks hooks;
    // outstanding() already covers requests inside in-flight batches (they
    // stay in the running set until their batch ends), so it serves both
    // as the sizing signal and as the drain-idle predicate.
    hooks.replica_load = [this](ReplicaId r) {
      return replicas_[static_cast<std::size_t>(r)].scheduler->outstanding();
    };
    hooks.parked_requests = [this] {
      return static_cast<int>(global_.num_parked());
    };
    hooks.work_remaining = [this] { return remaining_requests_ > 0; };
    // Every activation after a fault closes the oldest open capacity hole
    // (FIFO): MTTR is the mean open->close interval. Load-driven scale-ups
    // count too — any new capacity repairs the hole.
    hooks.on_activated = [this](ReplicaId r) {
      if (!pending_repairs_.empty()) {
        mttr_sum_ += events_.now() - pending_repairs_.front();
        pending_repairs_.pop_front();
        ++num_repairs_;
      }
      try_schedule(r);
    };
    hooks.on_draining = [this](ReplicaId r) { reroute_waiting(r); };
    // Slot released (drain completed or failed): tear down the replica's
    // prefix-cache pool so cached blocks never leak across scale-downs.
    hooks.on_decommissioned = [this](ReplicaId r) {
      replicas_[static_cast<std::size_t>(r)].scheduler->release_cached();
    };
    hooks.replica_kv_utilization = [this](ReplicaId r) {
      return replicas_[static_cast<std::size_t>(r)]
          .scheduler->blocks()
          .utilization();
    };
    // Cost-aware placement ranks pools by $/SLO-point; the capacity side
    // comes from the spec (estimator-derived by VidurSession). If any pool
    // left it unset, fall back to the SKU's peak FLOPs for every pool, so
    // the ranking never mixes sources.
    bool all_caps = true;
    for (const PoolSpec& pool : config_.pools)
      all_caps &= pool.capacity_qps > 0;
    std::vector<ClusterManager::ManagedPool> managed;
    for (const PoolSpec& pool : config_.pools) {
      ClusterManager::ManagedPool m;
      m.name = pool.name;
      m.sku = pool.sku_name;
      m.role = pool.role;
      m.slots = pool.slots();
      m.autoscale = pool.autoscale;
      m.gpus_per_replica = pool.gpus_per_replica();
      m.cost_per_gpu_hour = pool.effective_cost_per_gpu_hour();
      m.capacity_qps = all_caps
                           ? pool.capacity_qps
                           : sku_by_name(pool.sku_name).peak_fp16_tflops;
      managed.push_back(std::move(m));
    }
    cluster_ = std::make_unique<ClusterManager>(std::move(managed), &events_,
                                                std::move(hooks));
  }

  // Request states must never reallocate: schedulers hold raw pointers.
  states_.reserve(trace.size());
  for (const Request& req : trace) {
    RequestState state;
    state.request = req;
    state.record.id = req.id;
    state.record.tenant = req.tenant;
    state.record.arrival_time = req.arrival_time;
    state.record.prefill_tokens = req.prefill_tokens;
    state.record.decode_tokens = req.decode_tokens;
    state.record.token_times.bind(timeline_);
    states_.push_back(std::move(state));
  }

  setup_observability();
  setup_faults();
}

void Simulator::setup_faults() {
  if (!config_.faults.enabled()) return;
  config_.faults.validate();
  VIDUR_CHECK_MSG(!config_.faults.any_kills() || cluster_ != nullptr,
                  "fault profiles with crashes or spot preemption require an "
                  "elastic fleet (the autoscaler repairs the capacity hole); "
                  "degrade-only profiles work on static fleets");
  // Distinct lineage from the injector's per-profile streams (which fork
  // off the seed directly): recovery jitter draws never perturb fault
  // timing, and vice versa.
  retry_rng_ = Rng(config_.faults.seed ^ 0x7265747279ULL);
  TenantId max_id = -1;
  for (const TenantInfo& t : config_.tenants) max_id = std::max(max_id, t.id);
  if (max_id >= 0)
    tenant_priority_by_id_.assign(static_cast<std::size_t>(max_id) + 1, 0);
  for (const TenantInfo& t : config_.tenants)
    if (t.id >= 0)
      tenant_priority_by_id_[static_cast<std::size_t>(t.id)] = t.priority;

  FaultInjector::Hooks hooks;
  hooks.active_replicas = [this](const std::string& pool) {
    std::vector<ReplicaId> out;
    const bool fleet = pool.empty() || pool == "fleet";
    for (ReplicaId r = 0; r < num_slots_; ++r) {
      if (!fleet && pool_of(r).name != pool) continue;
      if (cluster_ && !cluster_->is_routable(r)) continue;
      out.push_back(r);
    }
    return out;
  };
  hooks.kill = [this](ReplicaId r, Seconds hold_until, bool spot) {
    kill_replica(r, hold_until, spot);
  };
  hooks.drain = [this](ReplicaId r) {
    if (cluster_) cluster_->drain_replica(r);
  };
  hooks.set_slow_factor = [this](ReplicaId r, double factor) {
    replicas_[static_cast<std::size_t>(r)].slow_factor = factor;
  };
  hooks.work_remaining = [this] { return remaining_requests_ > 0; };
  injector_ = std::make_unique<FaultInjector>(config_.faults, &events_,
                                              std::move(hooks));
  injector_->set_trace(trace_rec_);
}

void Simulator::kill_replica(ReplicaId replica_id, Seconds hold_until,
                             bool spot) {
  VIDUR_CHECK(cluster_ != nullptr);
  const ReplicaState st = cluster_->state(replica_id);
  // A drained-out spot victim (its slot already released before the notice
  // expired) has nothing left to kill; the hold is forfeited with it.
  if (st != ReplicaState::kActive && st != ReplicaState::kDraining) return;
  Replica& replica = replicas_[static_cast<std::size_t>(replica_id)];
  // Cancel live batches first: their pipeline events still drain (the
  // stage queues must advance) but produce no metrics and no progress.
  for (InFlightBatch& b : replica.in_flight) {
    if (!b.live || b.cancelled) continue;
    b.cancelled = true;
    if (b.trace_seq >= 0) {
      trace_emit(trace_rec_, TraceEventKind::kBatchEnd, events_.now(),
                 replica_id, b.trace_seq, b.spec.size());
      b.trace_seq = -1;
    }
  }
  std::vector<RequestState*> victims = replica.scheduler->fail_all();
  replica.slow_factor = 1.0;
  // fail_replica's on_decommissioned hook tears down the prefix-cache pool
  // (the replica's cached KV dies with it), after fail_all dropped pins.
  cluster_->fail_replica(replica_id, hold_until);
  trace_emit(trace_rec_, TraceEventKind::kReplicaFault, events_.now(),
             replica_id, -1, static_cast<std::int64_t>(victims.size()), 0,
             spot ? 2 : 0);
  pending_repairs_.push_back(events_.now());
  for (RequestState* r : victims) {
    rolling_pool_delta(replica_id, -1);
    recover_request(r, replica_id);
  }
}

void Simulator::recover_request(RequestState* request, ReplicaId replica_id) {
  request->in_flight = false;
  request->replica = -1;
  RequestRecord& rec = request->record;
  if (!request->admitted) {
    // Queued casualty: nothing this replica computed is lost. A prefilled
    // hand-off waiting at a dead decode replica keeps its context (the KV
    // travels with it, paying the transfer again); anything else re-enters
    // cold — cache-served progress lived in the dead replica's pool.
    ++rec.num_handoffs;
    ++num_handoffs_;
    trace_emit(trace_rec_, TraceEventKind::kRequestRetry, events_.now(),
               replica_id, rec.id, rec.num_handoffs, 0, 2);
    if (pool_of(replica_id).role == PoolRole::kDecode &&
        request->prefill_complete()) {
      trace_emit(trace_rec_, TraceEventKind::kMigrateStart, events_.now(),
                 replica_id, rec.id, request->kv_context);
      SimEvent ev;
      ev.kind = EventKind::kMigrated;
      ev.request = request;
      events_.schedule_event(events_.now() + kv_transfer_time(*request), ev);
      return;
    }
    request->prefill_done = 0;
    request->kv_context = 0;
    request->kv_cached = 0;
    request->prefix_checked = false;
    reenter_request(request);
    return;
  }
  // Started casualty: computed work dies with the replica's KV. The cached
  // prefix (kv_cached) was never computed here, so the re-prefill bill is
  // the cold part only; produced decode tokens are discarded outright.
  tokens_reprefilled_ += request->prefill_done - request->kv_cached;
  decode_tokens_discarded_ += request->decode_done;
  request->restart();
  request->in_flight = false;
  const RecoveryPolicy& policy = config_.faults.recovery;
  if (rec.num_retries >= policy.max_attempts) {
    trace_emit(trace_rec_, TraceEventKind::kRequestRetry, events_.now(),
               replica_id, rec.id, rec.num_retries, 0, 1);
    rec.lost = true;
    --remaining_requests_;
    ++num_lost_;
    rolling_request_delta(*request, -1);
    return;
  }
  ++rec.num_retries;
  ++num_retries_;
  const double exponent = static_cast<double>(rec.num_retries - 1);
  const Seconds delay =
      policy.backoff_base_s * std::pow(policy.backoff_multiplier, exponent) *
      (1.0 + policy.jitter * retry_rng_.uniform());
  trace_emit(trace_rec_, TraceEventKind::kRequestRetry, events_.now(),
             replica_id, rec.id, rec.num_retries,
             static_cast<std::int64_t>(delay * 1e9), 0);
  events_.schedule(events_.now() + delay,
                   [this, request] { reenter_request(request); });
}

void Simulator::reenter_request(RequestState* request) {
  if (maybe_shed(request)) return;
  route_request(request);
}

bool Simulator::maybe_shed(RequestState* request) {
  const ShedPolicy& shed = config_.faults.shed;
  if (!shed.enabled() || cluster_ == nullptr) return false;
  const int active = cluster_->num_active();
  if (active >= shed.min_active_replicas) return false;
  const int priority = tenant_priority(request->record.tenant);
  if (priority > shed.max_shed_priority) return false;
  trace_emit(trace_rec_, TraceEventKind::kRequestShed, events_.now(), -1,
             request->record.id, priority, active, 0);
  request->record.shed = true;
  --remaining_requests_;
  ++num_shed_;
  rolling_request_delta(*request, -1);
  return true;
}

int Simulator::tenant_priority(TenantId tenant) const {
  if (tenant < 0 ||
      static_cast<std::size_t>(tenant) >= tenant_priority_by_id_.size())
    return 0;
  return tenant_priority_by_id_[static_cast<std::size_t>(tenant)];
}

const SloSpec* Simulator::tenant_slo(TenantId tenant) const {
  if (tenant < 0 ||
      static_cast<std::size_t>(tenant) >= tenant_slo_by_id_.size())
    return nullptr;
  return tenant_slo_by_id_[static_cast<std::size_t>(tenant)];
}

void Simulator::setup_observability() {
  trace_rec_ = config_.obs.trace;
  ctr_arrivals_ = registry_.counter("sim.requests_arrived");
  ctr_completions_ = registry_.counter("sim.requests_completed");
  ctr_batches_ = registry_.counter("sim.batches");
  ctr_migrations_ = registry_.counter("sim.migrations");
  ctr_reroutes_ = registry_.counter("sim.reroutes");

  // The registry entries exist up front (snapshots always carry the keys),
  // but each scheduler counts into its own replica's tallies — shard
  // threads then never race on the shared counters; run() folds the
  // tallies in after the last event.
  registry_.counter("scheduler.preemptions");
  registry_.counter("scheduler.admissions");
  for (ReplicaId r = 0; r < num_slots_; ++r) {
    Replica& replica = replicas_[static_cast<std::size_t>(r)];
    replica.scheduler->set_obs(r, trace_rec_, &replica.preemptions,
                               &replica.admissions);
  }
  if (cluster_) cluster_->set_obs(trace_rec_, &registry_);

  // The tenant -> SLO map serves both the rolling windows and the
  // resilience SLO-attainment split, so it is built unconditionally.
  {
    TenantId max_id = -1;
    for (const TenantInfo& t : config_.tenants)
      max_id = std::max(max_id, t.id);
    if (max_id >= 0)
      tenant_slo_by_id_.assign(static_cast<std::size_t>(max_id) + 1, nullptr);
    for (const TenantInfo& t : config_.tenants)
      if (t.id >= 0 && t.slo.enabled())
        tenant_slo_by_id_[static_cast<std::size_t>(t.id)] = &t.slo;
  }

  if (config_.obs.rolling_window_s > 0) {
    std::vector<std::string> names;
    names.push_back("cluster");
    TenantId max_id = -1;
    for (const TenantInfo& t : config_.tenants)
      max_id = std::max(max_id, t.id);
    if (max_id >= 0)
      tenant_track_by_id_.assign(static_cast<std::size_t>(max_id) + 1, -1);
    for (const TenantInfo& t : config_.tenants) {
      if (t.id < 0) continue;
      tenant_track_by_id_[static_cast<std::size_t>(t.id)] =
          static_cast<int>(names.size());
      names.push_back("tenant:" + t.name);
    }
    pool_track_base_ = static_cast<int>(names.size());
    for (const PoolSpec& pool : config_.pools)
      names.push_back("pool:" + pool.name);
    rolling_ = std::make_unique<RollingCollector>(config_.obs.rolling_window_s,
                                                  std::move(names));
  }
}

int Simulator::tenant_track(TenantId tenant) const {
  if (tenant < 0 ||
      static_cast<std::size_t>(tenant) >= tenant_track_by_id_.size())
    return -1;
  return tenant_track_by_id_[static_cast<std::size_t>(tenant)];
}

void Simulator::rolling_request_delta(const RequestState& request, int delta) {
  if (!rolling_) return;
  rolling_->on_queue_delta(0, events_.now(), delta);
  const int track = tenant_track(request.record.tenant);
  if (track >= 0) rolling_->on_queue_delta(track, events_.now(), delta);
}

void Simulator::rolling_pool_delta(ReplicaId replica_id, int delta) {
  if (!rolling_) return;
  const int pool = pool_of_slot_[static_cast<std::size_t>(replica_id)];
  rolling_->on_queue_delta(pool_track_base_ + pool, events_.now(), delta);
}

void Simulator::rolling_completions(
    ReplicaId replica_id, const std::vector<RequestState*>& finished) {
  if (!rolling_ || finished.empty()) return;
  const Seconds now = events_.now();
  for (const RequestState* r : finished) {
    const RequestRecord& rec = r->record;
    const Seconds worst_tbt = rec.worst_tbt();
    const SloSpec* slo = tenant_slo(rec.tenant);
    const int slo_state = slo == nullptr ? -1 : meets_slo(rec, *slo) ? 1 : 0;
    rolling_->on_completion(0, now, rec.ttft(), worst_tbt, slo_state);
    const int track = tenant_track(rec.tenant);
    if (track >= 0)
      rolling_->on_completion(track, now, rec.ttft(), worst_tbt, slo_state);
    const int pool = pool_of_slot_[static_cast<std::size_t>(replica_id)];
    rolling_->on_completion(pool_track_base_ + pool, now, rec.ttft(),
                            worst_tbt, slo_state);
    rolling_request_delta(*r, -1);
    rolling_pool_delta(replica_id, -1);
  }
}

SimulationMetrics Simulator::run() {
  VIDUR_CHECK_MSG(!ran_, "Simulator::run() may only be called once");
  ran_ = true;

  remaining_requests_ = states_.size();
  if (cluster_) cluster_->start();
  if (injector_) injector_->start();

  // Sharded windowed engine eligibility: round-robin routing over a static
  // fleet is a pure counter, so every arrival's target is known up front.
  // Arrivals then seed per-replica shard queues and the stretches between
  // central events (degrade edges) advance shard-parallel. Any policy that
  // consults shared state at event time — elastic fleets, rolling windows,
  // cache/load-aware routing, disaggregation, operator metrics — keeps
  // every arrival central, and the run replays the legacy single-queue
  // order exactly. So does a trace recorder: a traced run is the central,
  // per-iteration reference of the sharded, windowed one, and its records
  // come out in the queue's global order with nothing to merge.
  preroute_ = config_.global_scheduler == GlobalSchedulerKind::kRoundRobin &&
              cluster_ == nullptr && rolling_ == nullptr && !disaggregated_ &&
              !config_.collect_operator_metrics && trace_rec_ == nullptr &&
              num_slots_ > 0;
  // Stable decode windows run a replica's repeated all-decode iterations
  // in one loop, so nothing may look at the replica between them: no trace
  // recorder (a traced run is the per-iteration reference) and no operator
  // metrics. A shard's own queue and its round's end bound everything else
  // that can reach it. On the central queue only arrivals may: no rolling
  // windows, elastic fleet, fault injector or disaggregation, and routing
  // that binds each arrival as it comes (no parked requests to pull).
  const GlobalSchedulerKind routing = config_.global_scheduler;
  decode_windows_ =
      trace_rec_ == nullptr && !config_.collect_operator_metrics &&
      (preroute_ ||
       (rolling_ == nullptr && cluster_ == nullptr && injector_ == nullptr &&
        !disaggregated_ &&
        (routing == GlobalSchedulerKind::kRoundRobin ||
         routing == GlobalSchedulerKind::kLeastOutstanding ||
         routing == GlobalSchedulerKind::kCacheAware)));
  // Every arrival, in the order the legacy queue popped them when they
  // were pushed in trace order: (arrival_time, trace position).
  std::vector<EventQueue::Arrival> arrivals;
  arrivals.reserve(states_.size());
  for (RequestState& state : states_)
    arrivals.push_back({state.request.arrival_time, &state});
  const auto by_time = [](const EventQueue::Arrival& a,
                          const EventQueue::Arrival& b) {
    return a.time < b.time;
  };
  if (!std::is_sorted(arrivals.begin(), arrivals.end(), by_time))
    std::stable_sort(arrivals.begin(), arrivals.end(), by_time);
  if (preroute_) {
    shards_.resize(static_cast<std::size_t>(num_slots_));
    for (ReplicaId r = 0; r < num_slots_; ++r)
      shards_[static_cast<std::size_t>(r)].replica = r;
    // Routed in pop order, so the round-robin counter assigns every
    // request the same target it always did, and each shard's stream comes
    // out sorted. Round-robin reads no load.
    std::vector<std::vector<EventQueue::Arrival>> streams(shards_.size());
    for (auto& stream : streams)  // exact for round-robin's even split
      stream.reserve(arrivals.size() / streams.size() + 1);
    for (const EventQueue::Arrival& arrival : arrivals) {
      const ReplicaId target = global_.route(arrival.request);
      VIDUR_CHECK(target >= 0);
      streams[static_cast<std::size_t>(target)].push_back(arrival);
    }
    arrivals = {};
    for (std::size_t r = 0; r < shards_.size(); ++r)
      shards_[r].events.set_arrivals(std::move(streams[r]));
    if (config_.threads > 1 && num_slots_ > 1)
      pool_ = std::make_unique<ThreadPool>(static_cast<std::size_t>(
          std::min(config_.threads, num_slots_)));
  } else {
    events_.set_arrivals(std::move(arrivals));
  }

  // One conservative round per central timestamp: every shard first
  // advances privately to (not including) the next central event's time,
  // then the central events at that time run. Without pre-routed shards
  // the shard phase is empty and this is exactly the legacy single-queue
  // loop.
  for (;;) {
    const Seconds window =
        events_.empty() ? kInfiniteTime : events_.next_time();
    if (preroute_) shard_round(window);
    if (events_.empty() || events_.next_time() > config_.max_sim_time) break;
    do {
      events_.run_next([this](const SimEvent& ev) { dispatch(ev); });
    } while (!events_.empty() && events_.next_time() == window);
  }

  // Replica-private tallies fold into the shared counters once, after the
  // last event: shard threads never touch the registry.
  {
    Counter* preemptions = registry_.counter("scheduler.preemptions");
    Counter* admissions = registry_.counter("scheduler.admissions");
    for (const Replica& replica : replicas_) {
      preemptions->value += replica.preemptions.value;
      admissions->value += replica.admissions.value;
      ctr_batches_->value += replica.batches.value;
      ctr_completions_->value += replica.completions.value;
    }
    for (const SimShard& shard : shards_)
      ctr_arrivals_->value += static_cast<std::uint64_t>(shard.arrivals);
  }
  // The run's horizon is the latest clock of any timeline (sharded runs:
  // the last shard event usually outlasts the last central one).
  // Each iteration a decode window ran counts as the stage-end event it
  // replaced, at its end time.
  std::uint64_t num_events = events_.num_processed();
  Seconds horizon = events_.now();
  for (const SimShard& shard : shards_) {
    num_events += shard.events.num_processed();
    horizon = std::max(horizon, shard.events.now());
  }
  for (const Replica& replica : replicas_) {
    num_events += replica.window_iterations;
    horizon = std::max(horizon, replica.window_end);
  }
  // Elastic runs leave one trailing autoscaler tick behind the last batch
  // end; account the run up to the last real progress instead so the
  // static-vs-autoscaled makespan/cost comparison stays apples-to-apples.
  const Seconds end_time = cluster_ && remaining_requests_ == 0
                               ? last_batch_end_
                               : horizon;
  // The scaling report feeds finalize() so each pool's idle energy is
  // billed on its actual paid GPU-time, not the static slot ceiling.
  const ClusterScalingReport report =
      cluster_ ? cluster_->report(end_time)
               : static_pools_report(config_.pools, end_time);
  // Final registry state: per-request latency histograms plus engine-level
  // gauges, then the snapshot travels with the metrics.
  LatencyHistogram* ttft_hist = registry_.histogram("request.ttft_s");
  LatencyHistogram* tbt_hist = registry_.histogram("request.tbt_worst_s");
  LatencyHistogram* e2e_hist = registry_.histogram("request.e2e_s");
  for (const RequestState& state : states_) {
    const RequestRecord& rec = state.record;
    if (!rec.completed()) continue;
    ttft_hist->record(rec.ttft());
    e2e_hist->record(rec.e2e_latency());
    const Seconds worst_tbt = rec.worst_tbt();
    if (worst_tbt >= 0) tbt_hist->record(worst_tbt);
  }
  registry_.counter("sim.events")->value = num_events;
  registry_.gauge("sim.makespan_s")->set(end_time);

  // The request records are aggregated where they live, never copied.
  SimulationMetrics metrics = metrics_.finalize(
      end_time, report,
      RequestRecordView::members<&RequestState::record>(states_));
  if (config_.prefix_cache.enabled)
    aggregate_prefix_cache(metrics.prefix_cache);
  if (config_.faults.enabled()) aggregate_resilience(metrics.resilience);
  metrics.num_sim_events = num_events;
  metrics.registry = registry_.snapshot();
  if (rolling_) metrics.rolling = rolling_->finalize(end_time);
  return metrics;
}

void Simulator::shard_round(Seconds window) {
  dirty_scratch_.clear();
  for (int r = 0; r < num_slots_; ++r) {
    const EventQueue& queue = shards_[static_cast<std::size_t>(r)].events;
    if (queue.empty()) continue;
    const Seconds t = queue.next_time();
    if (t < window && t <= config_.max_sim_time) dirty_scratch_.push_back(r);
  }
  if (dirty_scratch_.empty()) return;
  if (pool_ != nullptr && dirty_scratch_.size() > 1) {
    // One task per dirty shard. Which thread runs which shard never
    // affects the result: everything a shard touches is private. Each task
    // keeps its own error, and the lowest-numbered shard's is rethrown, as
    // the serial loop below would throw it.
    std::vector<std::exception_ptr> errors(dirty_scratch_.size());
    parallel_for(*pool_, dirty_scratch_.size(), [&](std::size_t i) {
      try {
        run_shard(shards_[static_cast<std::size_t>(dirty_scratch_[i])],
                  window);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    });
    for (const std::exception_ptr& error : errors)
      if (error) std::rethrow_exception(error);
  } else {
    for (const int r : dirty_scratch_)
      run_shard(shards_[static_cast<std::size_t>(r)], window);
  }
  // Sharded runs lose and shed nothing (both need an elastic fleet), so the
  // work left is the trace minus the replicas' completions. Fault renewals
  // at the next central event read it.
  std::uint64_t completed = 0;
  for (const Replica& replica : replicas_)
    completed += replica.completions.value;
  remaining_requests_ = states_.size() - static_cast<std::size_t>(completed);
}

void Simulator::run_shard(SimShard& shard, Seconds window) {
  SimShard* const prev = tls_shard_;
  tls_shard_ = &shard;
  shard.round_end = window;
  try {
    // Strictly below the window: a shard event at exactly the window time
    // must observe the central events there first (a degrade edge at t
    // changes the slow factor for the batch starting at t, as it would in
    // the single-queue order).
    while (!shard.events.empty()) {
      const Seconds t = shard.events.next_time();
      if (t >= window || t > config_.max_sim_time) break;
      shard.events.run_next([this](const SimEvent& ev) { dispatch(ev); });
    }
  } catch (...) {
    tls_shard_ = prev;
    throw;
  }
  tls_shard_ = prev;
}

void Simulator::dispatch(const SimEvent& event) {
  switch (event.kind) {
    case EventKind::kArrival:
      on_arrival(event.request);
      break;
    case EventKind::kStageEnd:
      on_stage_end(event.replica, event.stage, event.handle, event.comm_time);
      break;
    case EventKind::kDeliverToStage:
      deliver_to_stage(event.replica, event.stage, event.handle);
      break;
    case EventKind::kMigrated:
      on_migrated(event.request);
      break;
    default:
      VIDUR_CHECK_MSG(false, "unhandled simulator event kind");
  }
}

void Simulator::on_arrival(RequestState* request) {
  if (tls_shard_ != nullptr) {
    // Pre-routed arrival on the shard's own timeline: the target was fixed
    // at run start, so routing reduces to the local enqueue. The arrival
    // tally is shard-private (folded into the counter at end of run).
    // Shedding needs an elastic fleet and never applies here.
    SimShard& shard = *tls_shard_;
    ++shard.arrivals;
    request->replica = shard.replica;
    request->queue_entry_time = sim_now();
    replicas_[static_cast<std::size_t>(shard.replica)].scheduler->enqueue(
        request);
    try_schedule(shard.replica);
    return;
  }
  // detail carries tenant+1 so untagged (tenant -1) stays the 0 default;
  // the analysis engine uses it for per-tenant blame attribution.
  const int tenant = static_cast<int>(request->record.tenant);
  const auto tenant_detail = static_cast<std::uint8_t>(
      tenant < 0 ? 0 : std::min(tenant + 1, 255));
  trace_emit(trace_rec_, TraceEventKind::kArrival, events_.now(), -1,
       request->record.id, request->record.prefill_tokens,
       request->record.decode_tokens, tenant_detail);
  ctr_arrivals_->inc();
  if (rolling_) {
    rolling_->on_arrival(0, events_.now());
    const int track = tenant_track(request->record.tenant);
    if (track >= 0) rolling_->on_arrival(track, events_.now());
    rolling_request_delta(*request, +1);
  }
  // Graceful degradation: under a fault-induced capacity floor breach the
  // admission controller sheds the lowest-priority tenants at the door.
  if (maybe_shed(request)) return;
  route_request(request);
}

const std::vector<bool>& Simulator::arrival_mask() const {
  arrival_mask_scratch_.resize(static_cast<std::size_t>(num_slots_));
  for (ReplicaId r = 0; r < num_slots_; ++r)
    arrival_mask_scratch_[static_cast<std::size_t>(r)] =
        arrival_eligible(r) && (!cluster_ || cluster_->is_routable(r));
  return arrival_mask_scratch_;
}

void Simulator::route_request(RequestState* request) {
  static const std::vector<bool> kEveryReplica;  // empty mask = all routable
  // Routing spans every slot. Decode slots never take arrivals, so only a
  // disaggregated fleet needs the role-aware mask; otherwise the mask is
  // the elastic fleet's activity, or empty for a static one.
  const std::vector<bool>& mask =
      disaggregated_ ? arrival_mask()
      : cluster_     ? cluster_->routable_mask()
                     : kEveryReplica;
  const ReplicaId target = global_.route(request, mask);
  trace_emit(trace_rec_, TraceEventKind::kRouted, events_.now(), target,
       request->record.id);
  if (target >= 0) {
    request->replica = target;
    request->queue_entry_time = events_.now();
    rolling_pool_delta(target, +1);
    replicas_[static_cast<std::size_t>(target)].scheduler->enqueue(request);
    try_schedule(target);
  } else {
    // Deferred binding: every routable replica with room may pull it.
    for (ReplicaId r = 0; r < num_slots_; ++r) try_schedule(r);
  }
}

void Simulator::reroute_waiting(ReplicaId replica_id) {
  Replica& replica = replicas_[static_cast<std::size_t>(replica_id)];
  // The draining replica is already masked out of the routable set, so
  // these land on surviving (or parked for warming) capacity.
  for (RequestState* r : replica.scheduler->take_waiting()) {
    r->replica = -1;
    ctr_reroutes_->inc();
    rolling_pool_delta(replica_id, -1);
    if (pool_of(replica_id).role == PoolRole::kDecode) {
      // A draining decode replica's queued work is already prefilled: it
      // moves to another decode replica, paying the KV transfer again.
      trace_emit(trace_rec_, TraceEventKind::kMigrateStart, events_.now(),
           replica_id, r->record.id, r->kv_context);
      SimEvent ev;
      ev.kind = EventKind::kMigrated;
      ev.request = r;
      events_.schedule_event(events_.now() + kv_transfer_time(*r), ev);
    } else {
      route_request(r);
    }
  }
}

void Simulator::pull_deferred(ReplicaId replica_id) {
  // Shard context: pre-routing implies round-robin, which never parks, so
  // there is nothing to pull — and the central scheduler must not be
  // touched from a shard thread anyway.
  if (tls_shard_ != nullptr) return;
  if (!global_.has_parked_requests()) return;
  // Decode replicas never pull arrivals; their work comes via hand-off.
  if (!arrival_eligible(replica_id)) return;
  // Elastic fleets: only active replicas take new work (draining replicas
  // finish what they already own; cold replicas have nothing to run on).
  if (cluster_ && !cluster_->is_routable(replica_id)) return;
  Replica& replica = replicas_[static_cast<std::size_t>(replica_id)];
  // Keep at most one request staged locally; binding happens as late as
  // possible so a faster replica can take the next arrival.
  if (replica.scheduler->num_waiting() > 0) return;
  for (RequestState* r : global_.pull(replica_id, 1)) {
    r->replica = replica_id;
    r->queue_entry_time = events_.now();
    trace_emit(trace_rec_, TraceEventKind::kRouted, events_.now(), replica_id,
         r->record.id);
    rolling_pool_delta(replica_id, +1);
    replica.scheduler->enqueue(r);
  }
}

void Simulator::try_schedule(ReplicaId replica_id) {
  Replica& replica = replicas_[static_cast<std::size_t>(replica_id)];
  // Synchronous pipeline: at most one micro-batch per stage in flight.
  // stages was sized to the replica's own pipeline depth (per pool).
  while (replica.batches_in_flight < static_cast<int>(replica.stages.size())) {
    pull_deferred(replica_id);
    StageScheduler::BatchHandle handle;
    if (replica.free_handles.empty()) {
      handle =
          static_cast<StageScheduler::BatchHandle>(replica.in_flight.size());
      replica.in_flight.emplace_back();
    } else {
      handle = replica.free_handles.back();
      replica.free_handles.pop_back();
    }
    InFlightBatch& record = replica.in_flight[static_cast<std::size_t>(handle)];
    replica.scheduler->schedule_into(record.spec, sim_now());
    if (record.spec.empty()) {
      replica.free_handles.push_back(handle);
      return;
    }
    record.agg = record.spec.aggregates();
    record.replica = replica_id;
    record.start_time = sim_now();
    record.flops = batch_flops(config_.model, record.agg);
    record.kv_utilization = replica.scheduler->blocks().utilization();
    record.live = true;
    record.cancelled = false;
    // Traced runs never shard, so the recorder and the sequence counter
    // are only ever touched from the central queue.
    if (trace_rec_ != nullptr) {
      record.trace_seq = next_batch_seq_++;
      trace_emit(trace_rec_, TraceEventKind::kBatchStart, sim_now(),
                 replica_id, record.trace_seq, record.spec.size(),
                 record.agg.total_q);
    }

    ++replica.batches_in_flight;
    if (replica.stages[0].submit(handle)) start_stage(replica_id, 0, handle);
  }
}

void Simulator::start_stage(ReplicaId replica_id, StageId stage,
                            StageScheduler::BatchHandle handle) {
  Replica& replica = replicas_[static_cast<std::size_t>(replica_id)];
  InFlightBatch& batch = replica.in_flight[static_cast<std::size_t>(handle)];
  VIDUR_CHECK_MSG(batch.live, "stage started for a retired batch handle");
  if (batch.cancelled) {
    // Dead replica's pipeline: the stage queues still advance (events that
    // were already scheduled must drain) but no backend time is modeled.
    SimEvent ev;
    ev.kind = EventKind::kStageEnd;
    ev.replica = replica_id;
    ev.stage = stage;
    ev.handle = handle;
    ev.comm_time = 0.0;
    local_events().schedule_event(sim_now(), ev);
    return;
  }
  Seconds handoff_lag = 0.0;
  Seconds end = sim_now() + stage_busy(replica, batch, stage, handoff_lag);
  if (decode_windows_ && replica.stages.size() == 1 &&
      replica.scheduler->stable_decode(batch.spec))
    end = run_decode_window(replica_id, batch, end, handoff_lag);
  SimEvent ev;
  ev.kind = EventKind::kStageEnd;
  ev.replica = replica_id;
  ev.stage = stage;
  ev.handle = handle;
  ev.comm_time = handoff_lag;
  local_events().schedule_event(end, ev);
}

Seconds Simulator::stage_busy(Replica& replica, const InFlightBatch& batch,
                              StageId stage, Seconds& handoff_lag) {
  const StageTiming timing =
      replica.backend->stage_timing(batch.spec, batch.agg, stage);
  VIDUR_CHECK(timing.compute >= 0 && timing.comm >= 0);
  // Synchronous pipeline: the send occupies the stage. Asynchronous: the
  // stage frees after compute; the send delays only the downstream hand-off.
  Seconds busy = config_.async_pipeline_comm ? timing.compute : timing.total();
  handoff_lag = config_.async_pipeline_comm ? timing.comm : 0.0;
  if (stage == 0) busy += replica.backend->cpu_overhead(batch.spec);
  // Straggler mode (src/fault/): a degraded replica runs everything slower.
  busy *= replica.slow_factor;
  if (config_.collect_operator_metrics)
    metrics_.record_operators(
        replica.backend->stage_breakdown(batch.spec, stage).per_op);
  return busy;
}

Seconds Simulator::window_edge() const {
  if (tls_shard_ == nullptr) return events_.next_arrival_time();
  const EventQueue& queue = tls_shard_->events;
  return queue.empty() ? tls_shard_->round_end
                       : std::min(tls_shard_->round_end, queue.next_time());
}

Seconds Simulator::run_decode_window(ReplicaId replica_id, InFlightBatch& batch,
                                     Seconds end, Seconds& handoff_lag) {
  Replica& replica = replicas_[static_cast<std::size_t>(replica_id)];
  ReplicaScheduler& scheduler = *replica.scheduler;
  // Neither bound moves inside the window: nothing else runs until the
  // caller queues the last iteration's end.
  const Seconds edge = window_edge();
  const TokenCount steps_left = scheduler.decode_steps_left(batch.spec);
  TokenCount steps = 0;
  std::uint32_t first_index = 0;
  Seconds first_end = end;
  Seconds last_end = end;
  Seconds max_gap = -1.0;
  // The running iteration ends at `end`; the identical next one forms
  // then, as the stage-end event would have formed it.
  while (steps < steps_left && end < edge && end <= config_.max_sim_time &&
         scheduler.next_decode_step(batch.spec)) {
    // finish_batch's accounting of the iteration that ended (its record
    // reads the aggregates, not the items just advanced) ...
    metrics_.record_batch(batch_record(replica_id, batch, end));
    replica.batches.inc();
    const std::uint32_t index = timeline_->push(replica_id, end);
    if (steps == 0) {
      first_index = index;
      first_end = end;
    } else {
      max_gap = std::max(max_gap, end - last_end);
    }
    last_end = end;
    ++steps;
    // ... then try_schedule's for the one that formed: every item reads
    // one more KV token.
    batch.agg.decode_kv += batch.agg.decodes;
    batch.flops = batch_flops(config_.model, batch.agg);
    batch.kv_utilization = scheduler.blocks().utilization();
    batch.start_time = end;
    end += stage_busy(replica, batch, 0, handoff_lag);
  }
  if (steps > 0) {
    scheduler.end_decode_window(batch.spec, steps, first_index, first_end,
                                last_end, max_gap);
    ++replica.decode_windows;
    replica.window_iterations += static_cast<std::uint64_t>(steps);
    replica.window_end = std::max(replica.window_end, last_end);
  }
  return end;
}

Simulator::DecodeWindowStats Simulator::decode_window_stats() const {
  DecodeWindowStats stats;
  for (const Replica& replica : replicas_) {
    stats.windows += replica.decode_windows;
    stats.iterations += replica.window_iterations;
  }
  return stats;
}

void Simulator::on_stage_end(ReplicaId replica_id, StageId stage,
                             StageScheduler::BatchHandle handle,
                             Seconds comm_time) {
  Replica& replica = replicas_[static_cast<std::size_t>(replica_id)];

  // Advance this stage's queue.
  const auto next = replica.stages[static_cast<std::size_t>(stage)].complete();
  if (next >= 0) start_stage(replica_id, stage, next);

  if (stage + 1 < static_cast<int>(replica.stages.size())) {
    if (comm_time > 0) {
      // Asynchronous send: activations arrive downstream after the wire
      // delay, while this stage is already free for its next micro-batch.
      SimEvent ev;
      ev.kind = EventKind::kDeliverToStage;
      ev.replica = replica_id;
      ev.stage = stage + 1;
      ev.handle = handle;
      local_events().schedule_event(sim_now() + comm_time, ev);
    } else {
      deliver_to_stage(replica_id, stage + 1, handle);
    }
  } else {
    finish_batch(replica_id, handle);
  }
  // Stage 0 freeing up or a batch completing can unblock scheduling.
  try_schedule(replica_id);
}

void Simulator::deliver_to_stage(ReplicaId replica_id, StageId stage,
                                 StageScheduler::BatchHandle handle) {
  Replica& replica = replicas_[static_cast<std::size_t>(replica_id)];
  if (replica.stages[static_cast<std::size_t>(stage)].submit(handle))
    start_stage(replica_id, stage, handle);
}

void Simulator::finish_batch(ReplicaId replica_id,
                             StageScheduler::BatchHandle handle) {
  Replica& replica = replicas_[static_cast<std::size_t>(replica_id)];
  VIDUR_CHECK(handle >= 0 &&
              static_cast<std::size_t>(handle) < replica.in_flight.size());
  InFlightBatch& batch = replica.in_flight[static_cast<std::size_t>(handle)];
  VIDUR_CHECK_MSG(batch.live, "batch finished twice for one handle");

  if (batch.cancelled) {
    // The kill already emitted this batch's end record and recovered its
    // requests; just retire the slot (no metrics, no request progress).
    --replica.batches_in_flight;
    batch.live = false;
    batch.cancelled = false;
    replica.free_handles.push_back(handle);
    return;
  }

  const BatchRecord record = batch_record(replica_id, batch, sim_now());
  if (batch.trace_seq != -1) {
    trace_emit(trace_rec_, TraceEventKind::kBatchEnd, sim_now(), replica_id,
               batch.trace_seq, batch.spec.size());
    batch.trace_seq = -1;
  }

  const auto finished = replica.scheduler->on_batch_end(batch.spec, sim_now());
  // Batch sums and tallies land in this replica's own slots, so a shard
  // thread touches nothing another thread writes; the fleet figures fold
  // from them after the run.
  metrics_.record_batch(record);
  replica.batches.inc();
  replica.completions.inc(finished.size());
  if (tls_shard_ == nullptr) {
    // Central context only: shared state the sharded engine never needs
    // mid-round (its merge barrier recounts the remaining work).
    rolling_completions(replica_id, finished);
    remaining_requests_ -= finished.size();
    last_batch_end_ = events_.now();
  }
  if (is_prefill_replica(replica_id)) migrate_prefilled(replica_id, batch.spec);
  --replica.batches_in_flight;
  batch.live = false;
  replica.free_handles.push_back(handle);
  // A draining replica that just ran dry hands its slot back.
  if (cluster_ && replica.batches_in_flight == 0 &&
      replica.scheduler->outstanding() == 0)
    cluster_->notify_idle(replica_id);
}

BatchRecord Simulator::batch_record(ReplicaId replica_id,
                                    const InFlightBatch& batch,
                                    Seconds end) const {
  BatchRecord record;
  record.replica = replica_id;
  record.start_time = batch.start_time;
  record.end_time = end;
  record.q_tokens = batch.agg.total_q;
  record.batch_size = batch.spec.size();
  record.flops = batch.flops;
  const ParallelConfig& parallel = pool_of(replica_id).parallel;
  record.hbm_bytes_per_gpu = batch_hbm_bytes_per_gpu(
      config_.model, parallel.tensor_parallel, parallel.pipeline_parallel,
      batch.agg);
  record.kv_utilization = batch.kv_utilization;
  return record;
}

void Simulator::migrate_prefilled(ReplicaId replica_id,
                                  const BatchSpec& batch) {
  ReplicaScheduler& scheduler =
      *replicas_[static_cast<std::size_t>(replica_id)].scheduler;
  for (const BatchItem& item : batch.items) {
    if (!item.completes_prefill) continue;
    RequestState* r = item.state;
    // Requests that finished at prefill (single output token), were
    // restarted concurrently, or already left the scheduler are not
    // migrated.
    if (r == nullptr || !r->admitted || !r->prefill_complete() ||
        r->finished())
      continue;
    scheduler.extract(r);
    trace_emit(trace_rec_, TraceEventKind::kMigrateStart, events_.now(), replica_id,
         r->record.id, r->kv_context);
    rolling_pool_delta(replica_id, -1);
    SimEvent ev;
    ev.kind = EventKind::kMigrated;
    ev.request = r;
    events_.schedule_event(events_.now() + kv_transfer_time(*r), ev);
  }
}

void Simulator::on_migrated(RequestState* request) {
  // Least-outstanding routing among the active decode replicas
  // (deterministic: strictly-lower wins, so the lowest eligible id takes
  // every tie; an elastic decode pool's floor >= 1 guarantees one exists).
  ReplicaId best = -1;
  int best_count = 0;
  for (ReplicaId r = 0; r < num_slots_; ++r) {
    if (pool_of(r).role != PoolRole::kDecode) continue;
    if (cluster_ && !cluster_->is_routable(r)) continue;
    const int count =
        replicas_[static_cast<std::size_t>(r)].scheduler->outstanding();
    if (best < 0 || count < best_count) {
      best = r;
      best_count = count;
    }
  }
  VIDUR_CHECK_MSG(best >= 0,
                  "no active decode replica to receive a prefilled request");
  request->replica = best;
  request->queue_entry_time = events_.now();
  // Next batch membership on the decode replica emits a resume record, so
  // the analysis engine can separate decode-queue wait from decode proper.
  request->resched_pending = true;
  trace_emit(trace_rec_, TraceEventKind::kMigrateEnd, events_.now(), best,
       request->record.id);
  ctr_migrations_->inc();
  rolling_pool_delta(best, +1);
  replicas_[static_cast<std::size_t>(best)].scheduler->enqueue(request);
  try_schedule(best);
}

Seconds Simulator::kv_transfer_time(const RequestState& request) const {
  const auto bytes = static_cast<double>(request.kv_context) *
                     static_cast<double>(config_.model.kv_bytes_per_token());
  return bytes / (config_.disagg.transfer_bandwidth_gbps * 1e9) +
         config_.disagg.transfer_latency;
}

void Simulator::aggregate_prefix_cache(PrefixCacheMetrics& out) {
  out.enabled = true;
  std::map<TenantId, PrefixCacheMetrics::Slice> by_tenant;
  std::vector<PrefixCacheMetrics::Slice> by_pool(config_.pools.size());
  for (std::size_t p = 0; p < config_.pools.size(); ++p)
    by_pool[p].name = config_.pools[p].name;
  // A session whose turns landed on several replicas is resident on each;
  // it counts once.
  std::vector<std::int64_t> sessions;
  for (ReplicaId r = 0; r < num_slots_; ++r) {
    const PrefixCache* cache = replicas_[static_cast<std::size_t>(r)].cache.get();
    if (cache == nullptr) continue;
    const PrefixCacheStats& s = cache->stats();
    out.lookups += static_cast<std::int64_t>(s.lookups);
    out.hits += static_cast<std::int64_t>(s.hits);
    out.misses += static_cast<std::int64_t>(s.misses);
    out.inserted_blocks += static_cast<std::int64_t>(s.inserted_blocks);
    out.evicted_blocks += static_cast<std::int64_t>(s.evicted_blocks);
    out.tokens_saved += s.tokens_saved;
    const std::vector<std::int64_t> ids = cache->resident_session_ids();
    sessions.insert(sessions.end(), ids.begin(), ids.end());
    // Replica-wide KV bytes the hit prefills did not recompute, at the
    // slot's own memory plan (heterogeneous pools differ per slot).
    const auto pool = static_cast<std::size_t>(
        pool_of_slot_[static_cast<std::size_t>(r)]);
    out.bytes_saved +=
        static_cast<double>(s.tokens_saved) *
        static_cast<double>(pool_plans_[pool].kv_bytes_per_token_per_gpu) *
        static_cast<double>(config_.pools[pool].gpus_per_replica());
    for (const auto& [tenant, ts] : cache->tenant_stats()) {
      PrefixCacheMetrics::Slice& slice = by_tenant[tenant];
      slice.lookups += static_cast<std::int64_t>(ts.lookups);
      slice.hits += static_cast<std::int64_t>(ts.hits);
      slice.misses += static_cast<std::int64_t>(ts.misses);
      slice.tokens_saved += ts.tokens_saved;
    }
    PrefixCacheMetrics::Slice& slice = by_pool[pool];
    slice.lookups += static_cast<std::int64_t>(s.lookups);
    slice.hits += static_cast<std::int64_t>(s.hits);
    slice.misses += static_cast<std::int64_t>(s.misses);
    slice.tokens_saved += s.tokens_saved;
  }
  std::sort(sessions.begin(), sessions.end());
  out.resident_sessions = std::unique(sessions.begin(), sessions.end()) -
                          sessions.begin();
  for (auto& [tenant, slice] : by_tenant) {
    slice.name = "tenant-" + std::to_string(tenant);
    for (const TenantInfo& info : config_.tenants)
      if (info.id == tenant) slice.name = info.name;
    out.by_tenant.push_back(std::move(slice));
  }
  out.by_pool = std::move(by_pool);
  // The registry snapshot carries the same totals for dashboards.
  registry_.counter("kvcache.lookups")->value =
      static_cast<std::uint64_t>(out.lookups);
  registry_.counter("kvcache.hits")->value =
      static_cast<std::uint64_t>(out.hits);
  registry_.counter("kvcache.misses")->value =
      static_cast<std::uint64_t>(out.misses);
  registry_.counter("kvcache.inserted_blocks")->value =
      static_cast<std::uint64_t>(out.inserted_blocks);
  registry_.counter("kvcache.evicted_blocks")->value =
      static_cast<std::uint64_t>(out.evicted_blocks);
  registry_.counter("kvcache.prefill_tokens_saved")->value =
      static_cast<std::uint64_t>(out.tokens_saved);
}

void Simulator::aggregate_resilience(ResilienceMetrics& out) {
  out.enabled = true;
  const FaultInjector::Log& log = injector_->log();
  out.num_crashes = log.crashes;
  out.num_spot_reclaims = log.spot_reclaims;
  out.num_degrade_events = log.degrade_events;
  out.num_retries = num_retries_;
  out.num_handoffs = num_handoffs_;
  out.num_shed = num_shed_;
  out.num_lost = num_lost_;
  out.tokens_reprefilled = tokens_reprefilled_;
  out.decode_tokens_discarded = decode_tokens_discarded_;
  out.num_repairs = num_repairs_;
  out.mttr_s =
      num_repairs_ > 0 ? mttr_sum_ / static_cast<double>(num_repairs_) : 0.0;
  // SLO attainment split: requests of SLO-carrying tenants, fault-impacted
  // (retried / handed off / shed / lost) vs clean. Shed and lost requests
  // never completed — they count as missed on the impacted side, which is
  // what makes the with-vs-without-faults delta honest.
  std::int64_t clean_total = 0, clean_met = 0, impacted_total = 0,
               impacted_met = 0;
  for (const RequestState& state : states_) {
    const RequestRecord& rec = state.record;
    const SloSpec* slo = tenant_slo(rec.tenant);
    if (slo == nullptr) continue;
    // Never finished for another reason (max_sim_time cutoff): not counted.
    if (!rec.completed() && !rec.shed && !rec.lost) continue;
    const bool met = meets_slo(rec, *slo);
    if (rec.fault_impacted()) {
      ++impacted_total;
      impacted_met += met ? 1 : 0;
    } else {
      ++clean_total;
      clean_met += met ? 1 : 0;
    }
  }
  out.slo_attainment_clean =
      clean_total > 0
          ? static_cast<double>(clean_met) / static_cast<double>(clean_total)
          : -1.0;
  out.slo_attainment_impacted =
      impacted_total > 0 ? static_cast<double>(impacted_met) /
                               static_cast<double>(impacted_total)
                         : -1.0;
  // The registry snapshot carries the same tallies for dashboards.
  registry_.counter("faults.crashes")->value =
      static_cast<std::uint64_t>(out.num_crashes);
  registry_.counter("faults.spot_reclaims")->value =
      static_cast<std::uint64_t>(out.num_spot_reclaims);
  registry_.counter("faults.degrade_events")->value =
      static_cast<std::uint64_t>(out.num_degrade_events);
  registry_.counter("faults.retries")->value =
      static_cast<std::uint64_t>(out.num_retries);
  registry_.counter("faults.handoffs")->value =
      static_cast<std::uint64_t>(out.num_handoffs);
  registry_.counter("faults.shed")->value =
      static_cast<std::uint64_t>(out.num_shed);
  registry_.counter("faults.lost")->value =
      static_cast<std::uint64_t>(out.num_lost);
  registry_.counter("faults.repairs")->value =
      static_cast<std::uint64_t>(out.num_repairs);
  registry_.counter("faults.tokens_reprefilled")->value =
      static_cast<std::uint64_t>(out.tokens_reprefilled);
  registry_.counter("faults.decode_tokens_discarded")->value =
      static_cast<std::uint64_t>(out.decode_tokens_discarded);
  registry_.gauge("faults.mttr_s")->set(out.mttr_s);
}

}  // namespace vidur
