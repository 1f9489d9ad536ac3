// Tests for src/cluster: autoscaler policies (hysteresis, predictive
// lookahead), ClusterManager lifecycle transitions (cold start, draining),
// and end-to-end elastic simulations on time-varying scenarios.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>

#include "cluster/autoscaler.h"
#include "cluster/cluster_manager.h"
#include "common/check.h"
#include "scenario/scenario.h"
#include "sim/simulator.h"

namespace vidur {
namespace {

// ------------------------------------------------------------- policies

AutoscalerConfig reactive_config() {
  AutoscalerConfig config;
  config.kind = AutoscalerKind::kReactive;
  config.min_replicas = 1;
  config.target_load_per_replica = 10.0;
  config.scale_up_load = 20.0;
  config.scale_down_load = 4.0;
  return config;
}

ClusterSample sample(int active, int outstanding, int max_replicas = 8) {
  ClusterSample s;
  s.active = active;
  s.outstanding = outstanding;
  s.min_replicas = 1;
  s.max_replicas = max_replicas;
  return s;
}

TEST(Autoscaler, NamesRoundTrip) {
  for (const auto kind : {AutoscalerKind::kNone, AutoscalerKind::kReactive,
                          AutoscalerKind::kPredictive})
    EXPECT_EQ(autoscaler_from_name(autoscaler_name(kind)), kind);
  EXPECT_THROW(autoscaler_from_name("magic"), Error);
}

TEST(Autoscaler, ConfigValidationCatchesBadThresholds) {
  AutoscalerConfig config = reactive_config();
  config.scale_down_load = 25.0;  // band inverted
  EXPECT_THROW(config.validate(), Error);
  config = reactive_config();
  config.target_load_per_replica = 30.0;  // sizing outside the band
  EXPECT_THROW(config.validate(), Error);
  config = reactive_config();
  config.decision_interval = 0.0;
  EXPECT_THROW(config.validate(), Error);
  config = AutoscalerConfig{};  // disabled configs need no tuning
  config.decision_interval = 0.0;
  EXPECT_NO_THROW(config.validate());
}

TEST(Autoscaler, ReactiveScalesUpUnderLoadAndDownWhenIdle) {
  auto policy = make_autoscaler_policy(reactive_config());
  // 90 outstanding on 2 replicas: load 45 > 20, size for 90/10 = 9 -> 8.
  EXPECT_EQ(policy->desired_replicas(sample(2, 90)), 8);
  // 2 outstanding on 4 replicas: load 0.5 < 4, size for ceil(2/10) = 1.
  EXPECT_EQ(policy->desired_replicas(sample(4, 2)), 1);
  // Zero outstanding still clamps at min_replicas.
  EXPECT_EQ(policy->desired_replicas(sample(4, 0)), 1);
}

TEST(Autoscaler, ReactiveCountsPendingCapacityAgainstLoad) {
  auto policy = make_autoscaler_policy(reactive_config());
  ClusterSample s = sample(1, 90);
  s.pending = 7;  // capacity for the backlog is already provisioning
  // 90 / 8 effective = 11.25, inside the band: hold at effective.
  EXPECT_EQ(policy->desired_replicas(s), 8);
}

TEST(Autoscaler, HysteresisBandPreventsFlappingUnderNoisyLoad) {
  // Load oscillates between 16 and 24 outstanding on 2 replicas
  // (8..12 per replica). The wide band [4, 20] swallows the noise; a
  // degenerate band [9.5, 10] re-decides on nearly every sample.
  AutoscalerConfig wide = reactive_config();
  AutoscalerConfig narrow = reactive_config();
  narrow.scale_down_load = 9.5;
  narrow.scale_up_load = 10.0;
  narrow.target_load_per_replica = 10.0;

  const auto count_changes = [](AutoscalerPolicy& policy) {
    int active = 2;
    int changes = 0;
    for (int i = 0; i < 20; ++i) {
      const int outstanding = i % 2 == 0 ? 24 : 16;
      const int desired = std::clamp(
          policy.desired_replicas(sample(active, outstanding)), 1, 8);
      if (desired != active) ++changes;
      active = desired;  // assume instant application (worst case)
    }
    return changes;
  };

  auto wide_policy = make_autoscaler_policy(wide);
  auto narrow_policy = make_autoscaler_policy(narrow);
  EXPECT_EQ(count_changes(*wide_policy), 0);
  EXPECT_GE(count_changes(*narrow_policy), 10);
}

TEST(Autoscaler, PredictiveSizesForTheLookaheadWindow) {
  AutoscalerConfig config;
  config.kind = AutoscalerKind::kPredictive;
  config.provision_delay = 20.0;
  config.warmup_delay = 10.0;  // lookahead horizon = 30s
  config.profile = RateProfile::spike(/*baseline=*/1.0, /*spike=*/4.0,
                                      /*spike_start=*/100.0,
                                      /*spike_duration=*/60.0);
  config.baseline_qps = 2.0;
  config.replica_capacity_qps = 2.0;
  config.headroom = 0.0;
  auto policy = make_autoscaler_policy(config);

  // Far before the spike: sized for baseline (2 qps / 2 qps-per-replica).
  ClusterSample s = sample(1, 0);
  s.now = 10.0;
  EXPECT_EQ(policy->desired_replicas(s), 1);
  // The spike enters the 30s lookahead window at t = 70: provision now so
  // the capacity is active when the crowd lands.
  s.now = 75.0;
  EXPECT_EQ(policy->desired_replicas(s), 4);
  // After the spike passes out of the window, back to baseline sizing.
  s.now = 200.0;
  EXPECT_EQ(policy->desired_replicas(s), 1);
}

// ------------------------------------------------------- ClusterManager

struct ManagerHarness {
  EventQueue events;
  std::map<ReplicaId, int> load;  // per-replica outstanding work
  int parked = 0;
  bool work = true;
  std::vector<ReplicaId> activated;
  std::vector<ReplicaId> drained;
  std::unique_ptr<ClusterManager> manager;

  /// One elastic pool of `fleet` slots.
  ManagerHarness(AutoscalerConfig config, int fleet, int gpus_per_replica = 1,
                 double cost_per_gpu_hour = 0.0) {
    ClusterManager::Hooks hooks;
    hooks.replica_load = [this](ReplicaId r) { return load[r]; };
    hooks.parked_requests = [this] { return parked; };
    hooks.work_remaining = [this] { return work; };
    hooks.on_activated = [this](ReplicaId r) { activated.push_back(r); };
    hooks.on_draining = [this](ReplicaId r) { drained.push_back(r); };
    ClusterManager::ManagedPool pool;
    pool.slots = fleet;
    pool.autoscale = config;
    pool.gpus_per_replica = gpus_per_replica;
    pool.cost_per_gpu_hour = cost_per_gpu_hour;
    std::vector<ClusterManager::ManagedPool> pools;
    pools.push_back(std::move(pool));
    manager = std::make_unique<ClusterManager>(std::move(pools), &events,
                                               std::move(hooks));
    manager->start();
  }

  void run_until(Seconds t) {
    while (!events.empty() && events.next_time() <= t) events.run_next();
  }
};

AutoscalerConfig manager_config() {
  AutoscalerConfig config = reactive_config();
  config.decision_interval = 5.0;
  config.provision_delay = 20.0;
  config.warmup_delay = 10.0;
  config.scale_down_cooldown = 0.0;
  return config;
}

TEST(ClusterManager, InitialReplicasAreActiveImmediately) {
  AutoscalerConfig config = manager_config();
  config.min_replicas = 2;
  ManagerHarness h(config, 4);
  EXPECT_EQ(h.manager->num_active(), 2);
  EXPECT_EQ(h.manager->routable_mask(),
            (std::vector<bool>{true, true, false, false}));
  EXPECT_EQ(h.manager->state(2), ReplicaState::kDecommissioned);
}

TEST(ClusterManager, ColdStartDelaysNewCapacity) {
  ManagerHarness h(manager_config(), 4);
  h.parked = 200;  // overload from the start

  // First decision at t=5: slots begin provisioning, but nothing is
  // routable until provision (20s) + warmup (10s) have elapsed.
  h.run_until(6.0);
  EXPECT_EQ(h.manager->num_active(), 1);
  EXPECT_GE(h.manager->num_pending(), 1);
  h.run_until(25.0 + 5.0);  // warming, still not active
  EXPECT_EQ(h.manager->num_active(), 1);
  h.run_until(36.0);  // 5 + 20 + 10 = 35: capacity finally lands
  EXPECT_GT(h.manager->num_active(), 1);
  EXPECT_FALSE(h.activated.empty());

  const auto report = h.manager->report(36.0);
  // Every activation after t=0 paid the full cold start.
  for (const auto& e : report.events) {
    if (e.time > 0 && e.to == ReplicaState::kActive) {
      EXPECT_GE(e.time, 5.0 + 20.0 + 10.0);
    }
  }
}

TEST(ClusterManager, DrainingWaitsForInFlightWorkBeforeDecommission) {
  AutoscalerConfig config = manager_config();
  config.initial_replicas = 3;
  ManagerHarness h(config, 4);
  EXPECT_EQ(h.manager->num_active(), 3);
  h.load[2] = 7;  // replica 2 still owns work; 0 and 1 are idle

  // No outstanding anywhere else: the policy wants 1 replica. The manager
  // drains the highest ids first: replica 2 (busy) must wait, replica 1
  // (idle) decommissions immediately.
  h.run_until(6.0);
  EXPECT_EQ(h.manager->state(2), ReplicaState::kDraining);
  EXPECT_EQ(h.manager->state(1), ReplicaState::kDecommissioned);
  EXPECT_EQ(h.manager->state(0), ReplicaState::kActive);

  // The drained replica finishes its work only later.
  h.run_until(12.0);
  EXPECT_EQ(h.manager->state(2), ReplicaState::kDraining);
  h.load[2] = 0;
  h.manager->notify_idle(2);
  EXPECT_EQ(h.manager->state(2), ReplicaState::kDecommissioned);

  // notify_idle on a non-draining replica is a no-op.
  h.manager->notify_idle(0);
  EXPECT_EQ(h.manager->state(0), ReplicaState::kActive);
}

TEST(ClusterManager, DoesNotDrainWhileOrderedCapacityIsStillColdStarting) {
  AutoscalerConfig config = manager_config();
  config.initial_replicas = 2;
  ManagerHarness h(config, 4);

  // Overload at the first tick orders more capacity...
  h.parked = 200;
  h.run_until(6.0);
  EXPECT_EQ(h.manager->num_pending(), 2);
  // ...then the load evaporates before the cold start completes. Draining
  // active replicas now would overshoot below the desired fleet while the
  // ordered slots are still warming, so the manager must hold.
  h.parked = 0;
  h.run_until(34.0);  // provisioning lands at 5 + 20 + 10 = 35
  EXPECT_EQ(h.manager->num_active(), 2);
  EXPECT_EQ(h.manager->num_draining(), 0);
  // Once the cold starts land, the surplus drains normally.
  h.run_until(50.0);
  EXPECT_EQ(h.manager->num_pending(), 0);
  EXPECT_EQ(h.manager->num_active(), 1);
}

TEST(ClusterManager, DrainingFiresTheRerouteHook) {
  AutoscalerConfig config = manager_config();
  config.initial_replicas = 3;
  ManagerHarness h(config, 4);
  // Zero load: the first tick drains down to min_replicas (1), highest
  // ids first, firing on_draining for each before any decommission.
  h.run_until(6.0);
  ASSERT_EQ(h.drained.size(), 2u);
  EXPECT_EQ(h.drained[0], 2);
  EXPECT_EQ(h.drained[1], 1);
}

TEST(ClusterManager, NeverDrainsBelowMinReplicas) {
  AutoscalerConfig config = manager_config();
  config.min_replicas = 2;
  config.initial_replicas = 3;
  ManagerHarness h(config, 4);
  h.run_until(30.0);  // zero load the whole time
  EXPECT_EQ(h.manager->num_active(), 2);
}

TEST(ClusterManager, StopsReschedulingWhenWorkIsDone) {
  ManagerHarness h(manager_config(), 2);
  h.work = false;  // all requests completed
  h.run_until(1e9);
  EXPECT_TRUE(h.events.empty());  // the decision loop wound down
}

TEST(ClusterManager, ReportAccountsPaidReplicaTime) {
  AutoscalerConfig config = manager_config();
  config.initial_replicas = 2;
  ManagerHarness h(config, 4, /*gpus_per_replica=*/2,
                   /*cost_per_gpu_hour=*/3.0);
  h.run_until(4.0);       // before the first decision tick
  h.work = false;         // let the queue drain
  h.run_until(1e9);

  // Drains happen at the t=5 tick (replica 1 idle -> immediate release);
  // replica 0 stays up to the horizon.
  const auto report = h.manager->report(100.0);
  EXPECT_TRUE(report.enabled);
  EXPECT_EQ(report.peak_active, 2);
  const double expected_replica_seconds = 100.0 + 5.0;
  EXPECT_NEAR(report.replica_hours, expected_replica_seconds / 3600.0, 1e-9);
  EXPECT_NEAR(report.gpu_hours, report.replica_hours * 2, 1e-12);
  EXPECT_NEAR(report.cost_usd, report.gpu_hours * 3.0, 1e-12);
  EXPECT_GT(report.mean_active_replicas, 1.0);
  EXPECT_LT(report.mean_active_replicas, 2.0);
}

TEST(ClusterManager, StaticFleetReportIsFlat) {
  const auto report = static_fleet_report(3, 7200.0, 2, 2.0);
  EXPECT_FALSE(report.enabled);
  EXPECT_EQ(report.peak_active, 3);
  EXPECT_DOUBLE_EQ(report.mean_active_replicas, 3.0);
  EXPECT_DOUBLE_EQ(report.replica_hours, 6.0);
  EXPECT_DOUBLE_EQ(report.gpu_hours, 12.0);
  EXPECT_DOUBLE_EQ(report.cost_usd, 24.0);
}

// ------------------------------------------------- end-to-end simulator

Scenario spike_scenario(int num_requests, double spike_factor = 6.0) {
  Scenario s;
  s.name = "test-spike";
  s.tenants = {TenantSpec{.name = "chat",
                          .trace = trace_by_name("chat1m"),
                          .share = 1.0,
                          .priority = 0,
                          .slo = SloSpec{2.0, 0.5}}};
  s.arrival = ArrivalSpec{ArrivalKind::kPoisson, /*qps=*/2.0, /*cv=*/0};
  s.profile = RateProfile::spike(/*baseline=*/1.0, spike_factor,
                                 /*spike_start=*/30.0,
                                 /*spike_duration=*/60.0);
  s.num_requests = num_requests;
  return s;
}

SimulationConfig elastic_config(int fleet, AutoscalerConfig autoscale) {
  SimulationConfig config;
  config.model = model_by_name("llama2-7b");
  config.node.sku = sku_by_name("a100");
  config.parallel = ParallelConfig{1, 1, fleet};
  config.scheduler.kind = SchedulerKind::kVllm;
  config.scheduler.max_batch_size = 32;
  config.scheduler.chunk_size = 512;
  config.global_scheduler = GlobalSchedulerKind::kLeastOutstanding;
  config.autoscale = autoscale;
  return config;
}

BackendFactory reference_factory(const SimulationConfig& config,
                                 std::uint64_t seed = 1) {
  const ModelSpec model = config.model;
  const NodeSpec node = config.node;
  const ParallelConfig parallel = config.parallel;
  return [model, node, parallel, seed](ReplicaId r) {
    return std::make_unique<ReferenceExecutor>(
        node, model, parallel, seed + static_cast<std::uint64_t>(r));
  };
}

AutoscalerConfig fast_reactive() {
  AutoscalerConfig config = reactive_config();
  config.decision_interval = 2.0;
  config.provision_delay = 5.0;
  config.warmup_delay = 2.0;
  config.scale_down_cooldown = 20.0;
  config.target_load_per_replica = 8.0;
  config.scale_up_load = 12.0;
  config.scale_down_load = 2.0;
  return config;
}

TEST(ElasticSimulation, CompletesEveryRequestWhileScaling) {
  const Trace trace = generate_scenario_trace(spike_scenario(220), 7);
  const SimulationConfig config = elastic_config(4, fast_reactive());
  Simulator sim(config, trace, reference_factory(config));
  const SimulationMetrics m = sim.run();

  EXPECT_EQ(m.num_completed, trace.size());
  EXPECT_TRUE(m.scaling.enabled);
  EXPECT_GE(m.scaling.num_scale_up_events, 1);
  EXPECT_LE(m.scaling.peak_active, 4);
  EXPECT_GT(m.scaling.mean_active_replicas, 0.0);
  EXPECT_LT(m.scaling.mean_active_replicas, 4.0);
  // Elastic GPU-hours must undercut the equivalent always-on fleet.
  const double static_gpu_hours = 4.0 * m.makespan / 3600.0;
  EXPECT_LT(m.scaling.gpu_hours, static_gpu_hours);
  // The timeline is chronological and the event log well-formed.
  for (std::size_t i = 1; i < m.scaling.active_timeline.size(); ++i)
    EXPECT_GE(m.scaling.active_timeline[i].time,
              m.scaling.active_timeline[i - 1].time);
  for (std::size_t i = 1; i < m.scaling.events.size(); ++i)
    EXPECT_GE(m.scaling.events[i].time, m.scaling.events[i - 1].time);
}

TEST(ElasticSimulation, ColdStartMakesCapacityArriveLate) {
  const Scenario scenario = spike_scenario(220);
  const Trace trace = generate_scenario_trace(scenario, 7);

  AutoscalerConfig fast = fast_reactive();
  fast.provision_delay = 0.5;
  fast.warmup_delay = 0.0;
  AutoscalerConfig slow = fast_reactive();
  slow.provision_delay = 30.0;
  slow.warmup_delay = 10.0;

  SimulationConfig fast_config = elastic_config(4, fast);
  SimulationConfig slow_config = elastic_config(4, slow);
  fast_config.tenants = scenario.tenant_infos();
  slow_config.tenants = scenario.tenant_infos();
  Simulator fast_sim(fast_config, trace, reference_factory(fast_config));
  Simulator slow_sim(slow_config, trace, reference_factory(slow_config));
  const SimulationMetrics fast_m = fast_sim.run();
  const SimulationMetrics slow_m = slow_sim.run();

  // Every post-t0 activation pays the full configured cold start between
  // the provisioning order and the capacity becoming routable.
  std::map<ReplicaId, Seconds> ordered;
  int activations = 0;
  for (const auto& e : slow_m.scaling.events) {
    if (e.to == ReplicaState::kProvisioning) ordered[e.replica] = e.time;
    if (e.time > 0 && e.to == ReplicaState::kActive) {
      ASSERT_TRUE(ordered.count(e.replica));
      EXPECT_NEAR(e.time - ordered[e.replica], 30.0 + 10.0, 1e-9);
      ++activations;
    }
  }
  EXPECT_GE(activations, 1);

  // The first capacity the fast config adds lands well before the slow
  // config's (same trace, same decision cadence, 40s shorter cold start).
  const auto first_activation = [](const SimulationMetrics& m) {
    for (const auto& e : m.scaling.events)
      if (e.time > 0 && e.to == ReplicaState::kActive) return e.time;
    return kInfiniteTime;
  };
  EXPECT_LT(first_activation(fast_m) + 30.0, first_activation(slow_m));

  // The 40s capacity gap during a 6x flash crowd shows up as queueing.
  EXPECT_GT(slow_m.scheduling_delay.p99, fast_m.scheduling_delay.p99);
  EXPECT_LT(slow_m.aggregate_slo_attainment(),
            fast_m.aggregate_slo_attainment());
}

TEST(ElasticSimulation, ScaleDownDrainsBeforeDecommission) {
  // Busy start, quiet tail: the fleet must shrink, and every drained
  // replica finishes the work already routed to it first.
  Scenario s = spike_scenario(260);
  s.profile = RateProfile::piecewise(
      {RateStep{0.0, 3.0}, RateStep{60.0, 0.25}});
  const Trace trace = generate_scenario_trace(s, 11);

  AutoscalerConfig autoscale = fast_reactive();
  autoscale.initial_replicas = 4;
  const SimulationConfig config = elastic_config(4, autoscale);
  Simulator sim(config, trace, reference_factory(config));
  const SimulationMetrics m = sim.run();

  EXPECT_EQ(m.num_completed, trace.size());  // nothing lost in a drain
  EXPECT_GE(m.scaling.num_scale_down_events, 1);

  // Drain -> decommission per replica, in order, never below min.
  std::map<ReplicaId, Seconds> drain_started;
  for (const auto& e : m.scaling.events) {
    if (e.to == ReplicaState::kDraining) {
      drain_started[e.replica] = e.time;
    } else if (e.from == ReplicaState::kDraining) {
      EXPECT_EQ(e.to, ReplicaState::kDecommissioned);
      ASSERT_TRUE(drain_started.count(e.replica));
      EXPECT_GE(e.time, drain_started[e.replica]);
      drain_started.erase(e.replica);
    }
  }
  int active = 0;
  for (const auto& sample : m.scaling.active_timeline)
    active = sample.active;
  EXPECT_GE(active, 1);
}

TEST(ElasticSimulation, DrainReroutesQueuedButUnstartedRequests) {
  // Two active replicas at batch size 1, ten requests at t=0 split 5/5 by
  // least-outstanding routing: each replica runs one request and queues
  // four. The first decision tick (t=1) sees load below the scale-down
  // threshold and drains replica 1, whose four queued-but-unstarted
  // requests must leave through the global scheduler — only the single
  // running request may still complete on the drained replica.
  const Trace trace =
      generate_trace(trace_by_name("chat1m"),
                     ArrivalSpec{ArrivalKind::kStatic, 0, 0}, 10, 21);

  AutoscalerConfig autoscale;
  autoscale.kind = AutoscalerKind::kReactive;
  autoscale.min_replicas = 1;
  autoscale.initial_replicas = 2;
  autoscale.decision_interval = 1.0;
  autoscale.scale_down_cooldown = 0.0;
  autoscale.target_load_per_replica = 10.0;
  autoscale.scale_up_load = 20.0;
  autoscale.scale_down_load = 6.0;

  SimulationConfig config = elastic_config(2, autoscale);
  config.scheduler.max_batch_size = 1;
  Simulator sim(config, trace, reference_factory(config));
  const SimulationMetrics m = sim.run();

  EXPECT_EQ(m.num_completed, trace.size());
  ASSERT_GE(m.scaling.num_scale_down_events, 1);
  Seconds drain_time = -1.0;
  for (const auto& e : m.scaling.events)
    if (e.to == ReplicaState::kDraining && e.replica == 1) {
      drain_time = e.time;
      break;
    }
  ASSERT_GE(drain_time, 0.0);

  // Completions on the drained replica after the drain started: exactly
  // the one request that was already running (its queue re-routed away).
  int completed_on_drained = 0;
  for (const RequestState& r : sim.request_states())
    if (r.replica == 1 && r.record.completed_time > drain_time)
      ++completed_on_drained;
  EXPECT_EQ(completed_on_drained, 1);
}

TEST(ElasticSimulation, AutoscaleRejectsDisaggregation) {
  SimulationConfig config = elastic_config(4, fast_reactive());
  config.disagg.num_prefill_replicas = 2;
  config.disagg.transfer_bandwidth_gbps = 50.0;
  const Trace trace = generate_scenario_trace(spike_scenario(20), 3);
  EXPECT_THROW(Simulator(config, trace, reference_factory(config)), Error);
}

}  // namespace
}  // namespace vidur
