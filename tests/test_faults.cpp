// Tests for the fault-injection subsystem (src/fault/ and its wiring):
// config validation, spec round-trips with did-you-mean, deterministic
// injection (same seed, same kills), same-seed bit-identical chaos replay
// with everything on, the request-conservation property under churn, the
// decommission prefix-cache teardown, and the preempt-restart cache-credit
// fix.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "api/run.h"
#include "cluster/cluster_manager.h"
#include "common/check.h"
#include "fault/fault_config.h"
#include "fault/fault_injector.h"
#include "kvcache/prefix_cache.h"
#include "obs/trace.h"
#include "scenario/registry.h"
#include "scenario/scenario.h"
#include "scheduler/memory.h"
#include "sim/simulator.h"

namespace vidur {
namespace {

// ------------------------------------------------------------ validation

FaultProfile crash_profile(Seconds mtbf = 120.0) {
  FaultProfile p;
  p.crash_mtbf_s = mtbf;
  return p;
}

TEST(FaultConfig, ValidateCatchesBadParameters) {
  FaultConfig c;
  c.profiles = {crash_profile(-1.0)};
  EXPECT_THROW(c.validate(), Error);

  c.profiles = {crash_profile()};
  c.profiles[0].degrade_mtbf_s = 60.0;  // degrades with factor 1.0
  EXPECT_THROW(c.validate(), Error);
  c.profiles[0].degrade_factor = 1.5;   // ... still no duration
  EXPECT_THROW(c.validate(), Error);
  c.profiles[0].degrade_duration_s = 10.0;
  EXPECT_NO_THROW(c.validate());

  c.profiles[0].spot_windows = {SpotWindow{10.0, 20.0, 1, 25.0}};
  EXPECT_THROW(c.validate(), Error);  // notice > duration
  c.profiles[0].spot_windows = {SpotWindow{10.0, 20.0, 0, 0.0}};
  EXPECT_THROW(c.validate(), Error);  // zero replicas
  c.profiles[0].spot_windows = {SpotWindow{10.0, 20.0, 1, 5.0}};
  EXPECT_NO_THROW(c.validate());

  c.recovery.max_attempts = 0;
  EXPECT_THROW(c.validate(), Error);
  c.recovery.max_attempts = 3;
  c.recovery.jitter = 1.0;
  EXPECT_THROW(c.validate(), Error);
  c.recovery.jitter = 0.1;
  c.shed.min_active_replicas = -1;
  EXPECT_THROW(c.validate(), Error);
}

// ----------------------------------------------------------- spec wiring

FaultConfig chaos_config() {
  FaultConfig c;
  c.seed = 99;
  FaultProfile p;
  p.crash_mtbf_s = 300.0;
  p.spot_windows = {SpotWindow{20.0, 40.0, 2, 0.0},
                    SpotWindow{70.0, 30.0, 1, 5.0}};
  p.degrade_mtbf_s = 200.0;
  p.degrade_factor = 2.5;
  p.degrade_duration_s = 15.0;
  c.profiles = {p};
  c.recovery.max_attempts = 5;
  c.recovery.backoff_base_s = 0.25;
  c.shed.min_active_replicas = 2;
  c.shed.max_shed_priority = 1;
  return c;
}

TEST(FaultSpec, RoundTripsAndDefaultsAreOmitted) {
  ExperimentSpec spec;
  spec.with_scenario("spot-churn").with_faults(chaos_config());
  const ExperimentSpec reparsed = ExperimentSpec::from_json(spec.to_json());
  EXPECT_EQ(reparsed, spec);
  EXPECT_EQ(reparsed.deployment.faults, chaos_config());

  // A default spec keeps the section out of the canonical serialization.
  EXPECT_EQ(ExperimentSpec{}.to_json_string().find("faults"),
            std::string::npos);
}

TEST(FaultSpec, TypoedKeyGetsDidYouMean) {
  const std::string json = R"({
    "name": "x", "model": "llama2-7b",
    "deployment": {"faults": {"profiles": [{"crash_mtbf": 100.0}]}},
    "workload": {"scenario": "spot-churn"}
  })";
  try {
    ExperimentSpec::from_json_string(json);
    FAIL() << "expected a did-you-mean error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("did you mean 'crash_mtbf_s'"),
              std::string::npos)
        << e.what();
  }
}

TEST(FaultSpec, KillsRequireAnElasticFleet) {
  ExperimentSpec spec;
  FaultConfig faults;
  faults.profiles = {crash_profile()};
  spec.with_scenario("spot-churn").with_faults(faults);
  try {
    spec.validate();
    FAIL() << "expected validate() to reject kills on a static fleet";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("autoscal"), std::string::npos)
        << e.what();
  }

  // Degrade-only profiles are fine on a static fleet (no capacity lost).
  FaultConfig degrade_only;
  FaultProfile p;
  p.degrade_mtbf_s = 100.0;
  p.degrade_factor = 2.0;
  p.degrade_duration_s = 5.0;
  degrade_only.profiles = {p};
  spec.with_faults(degrade_only);
  EXPECT_NO_THROW(spec.validate());
}

// ------------------------------------------------------ injector engine

/// Drive a standalone injector against a fake fleet: the hooks maintain the
/// active set, so kills shrink capacity exactly as the cluster would.
struct FakeFleet {
  std::vector<ReplicaId> active;
  std::vector<ReplicaId> killed;
  std::vector<ReplicaId> drained;
  int budget = 0;  ///< work_remaining() countdown, decremented per crash ask

  FaultInjector::Hooks hooks() {
    FaultInjector::Hooks h;
    h.active_replicas = [this](const std::string&) { return active; };
    h.kill = [this](ReplicaId r, Seconds, bool) {
      killed.push_back(r);
      std::erase(active, r);
    };
    h.drain = [this](ReplicaId r) {
      drained.push_back(r);
      std::erase(active, r);
    };
    h.set_slow_factor = [](ReplicaId, double) {};
    h.work_remaining = [this] { return --budget > 0; };
    return h;
  }
};

TEST(FaultInjector, DeterministicAndNeverKillsLastActive) {
  FaultConfig config;
  config.seed = 17;
  config.profiles = {crash_profile(/*mtbf=*/5.0)};

  const auto run_once = [&config] {
    FakeFleet fleet;
    fleet.active = {0, 1, 2, 3};
    fleet.budget = 50;
    EventQueue events;
    FaultInjector injector(config, &events, fleet.hooks());
    injector.start();
    while (!events.empty()) events.run_next();
    return fleet;
  };

  const FakeFleet a = run_once();
  const FakeFleet b = run_once();
  // The crash stream keeps firing while work remains, but the last active
  // replica is never taken: capacity bottoms out at one.
  EXPECT_EQ(a.killed.size(), 3u);
  EXPECT_EQ(a.active.size(), 1u);
  // Same config, same seed: the identical victim sequence.
  EXPECT_EQ(a.killed, b.killed);
  EXPECT_EQ(a.active, b.active);
}

TEST(FaultInjector, SpotWindowDrainsOnNoticeThenKills) {
  FaultConfig config;
  config.profiles = {FaultProfile{}};
  config.profiles[0].spot_windows = {SpotWindow{10.0, 30.0, 1, 5.0}};

  FakeFleet fleet;
  fleet.active = {0, 1, 2};
  fleet.budget = 1000;
  EventQueue events;
  TraceRecorder rec;
  FaultInjector injector(config, &events, fleet.hooks());
  injector.set_trace(&rec);
  injector.start();
  while (!events.empty()) events.run_next();

  // The highest-id active replica drains at t=10 and dies at t=15.
  ASSERT_EQ(fleet.drained.size(), 1u);
  ASSERT_EQ(fleet.killed.size(), 1u);
  EXPECT_EQ(fleet.drained[0], 2);
  EXPECT_EQ(fleet.killed[0], 2);
  EXPECT_EQ(injector.log().spot_reclaims, 1);
  ASSERT_EQ(rec.records().size(), 1u);  // the notice record
  EXPECT_EQ(rec.records()[0].kind, TraceEventKind::kReplicaFault);
  EXPECT_EQ(rec.records()[0].detail, 1);
  EXPECT_DOUBLE_EQ(rec.records()[0].time, 10.0);
}

// --------------------------------------------------- end-to-end chaos sim

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

SimulationConfig chaos_sim_config(int fleet) {
  SimulationConfig config;
  config.model = model_by_name("llama2-7b");
  config.node.sku = sku_by_name("a100");
  config.parallel = ParallelConfig{1, 1, fleet};
  config.scheduler.kind = SchedulerKind::kSarathi;
  config.scheduler.max_batch_size = 32;
  config.scheduler.chunk_size = 512;
  config.global_scheduler = GlobalSchedulerKind::kCacheAware;
  config.prefix_cache.enabled = true;
  config.autoscale.kind = AutoscalerKind::kReactive;
  // A sticky fleet: floor of two and a reluctant scale-down, so the chaos
  // tests measure fault-driven capacity loss, not load-driven shrinkage.
  config.autoscale.min_replicas = 2;
  config.autoscale.initial_replicas = fleet;
  config.autoscale.decision_interval = 2.0;
  config.autoscale.provision_delay = 2.0;
  config.autoscale.warmup_delay = 1.0;
  config.autoscale.scale_down_cooldown = 60.0;
  config.autoscale.target_load_per_replica = 6.0;
  config.autoscale.scale_up_load = 10.0;
  config.autoscale.scale_down_load = 0.25;
  return config;
}

Trace chaos_trace(const char* scenario_name, int n, std::uint64_t seed) {
  Scenario s = scenario_by_name(scenario_name);
  s.num_requests = n;
  return generate_scenario_trace(s, seed);
}

TEST(FaultSim, SameSeedChaosReplayIsBitIdentical) {
  // The paranoid determinism case, now with failures: faults (crash + spot
  // + degrade) + autoscaling + cache-aware routing + prefix cache +
  // tracing, twice, must agree record for record.
  SimulationConfig config = chaos_sim_config(4);
  config.faults = chaos_config();
  config.faults.profiles[0].crash_mtbf_s = 120.0;
  config.tenants = scenario_by_name("spot-churn").tenant_infos();
  const Trace trace = chaos_trace("spot-churn", 160, 23);

  TraceRecorder first, second;
  const auto run_once = [&](TraceRecorder* rec) {
    SimulationConfig c = config;
    c.obs.trace = rec;
    Simulator sim(c, trace, reference_factory(c));
    return sim.run();
  };
  const SimulationMetrics m1 = run_once(&first);
  const SimulationMetrics m2 = run_once(&second);

  ASSERT_GT(first.records().size(), 0u);
  ASSERT_EQ(first.records().size(), second.records().size());
  for (std::size_t i = 0; i < first.records().size(); ++i)
    ASSERT_EQ(first.records()[i], second.records()[i]) << "record " << i;
  EXPECT_EQ(m1.num_completed, m2.num_completed);
  EXPECT_EQ(m1.resilience.num_retries, m2.resilience.num_retries);
  EXPECT_EQ(m1.resilience.num_shed, m2.resilience.num_shed);
  EXPECT_EQ(m1.resilience.tokens_reprefilled,
            m2.resilience.tokens_reprefilled);

  bool saw_fault = false;
  for (const TraceRecord& r : first.records())
    saw_fault |= r.kind == TraceEventKind::kReplicaFault;
  EXPECT_TRUE(saw_fault);
  EXPECT_GT(m1.resilience.num_spot_reclaims, 0);
}

TEST(FaultSim, RequestConservationUnderChaos) {
  // The property the recovery engine must never break: every arrival ends
  // in exactly one of completed / shed / retries-exhausted — no request
  // is double-completed, none vanishes. Checked from the trace itself, on
  // both chaos scenarios, with every fault source active and a retry
  // budget small enough that some requests genuinely run out.
  for (const char* name : {"spot-churn", "straggler-tail"}) {
    SimulationConfig config = chaos_sim_config(3);
    config.faults = chaos_config();
    config.faults.profiles[0].crash_mtbf_s = 12.0;  // violent churn
    config.faults.recovery.max_attempts = 1;
    config.tenants = scenario_by_name(name).tenant_infos();
    TraceRecorder rec;
    config.obs.trace = &rec;
    const Trace trace = chaos_trace(name, 140, 31);

    Simulator sim(config, trace, reference_factory(config));
    const SimulationMetrics m = sim.run();

    std::set<RequestId> arrived;
    std::map<RequestId, int> terminal;
    for (const TraceRecord& r : rec.records()) {
      switch (r.kind) {
        case TraceEventKind::kArrival:
          EXPECT_TRUE(arrived.insert(r.id).second) << "duplicate arrival";
          break;
        case TraceEventKind::kCompleted:
          ++terminal[r.id];
          break;
        case TraceEventKind::kRequestShed:
          ++terminal[r.id];
          break;
        case TraceEventKind::kRequestRetry:
          if (r.detail == 1) ++terminal[r.id];  // attempts exhausted: lost
          break;
        default:
          break;
      }
    }
    EXPECT_EQ(arrived.size(), trace.size()) << name;
    for (const RequestId id : arrived)
      EXPECT_EQ(terminal[id], 1) << "request " << id << " in " << name;
    for (const auto& [id, n] : terminal)
      EXPECT_TRUE(arrived.count(id)) << "terminal for unknown " << id;

    ASSERT_TRUE(m.resilience.enabled);
    EXPECT_EQ(static_cast<std::int64_t>(m.num_completed) +
                  m.resilience.num_shed + m.resilience.num_lost,
              static_cast<std::int64_t>(trace.size()))
        << name;
    EXPECT_GT(m.resilience.num_crashes, 0) << name;
  }
}

TEST(FaultSim, DegradedReplicaStretchesExecutionDeterministically) {
  // Straggler mode is a pure timing effect: same trace, same seed, but a
  // degraded window must make the run strictly slower, lose nothing, and
  // leave the fault trail in the trace.
  SimulationConfig clean = chaos_sim_config(2);
  clean.autoscale.kind = AutoscalerKind::kNone;  // fixed fleet: degrade-only
  SimulationConfig slowed = clean;
  FaultProfile p;
  p.degrade_mtbf_s = 30.0;
  p.degrade_factor = 3.0;
  p.degrade_duration_s = 20.0;
  slowed.faults.seed = 5;
  slowed.faults.profiles = {p};
  const Trace trace = chaos_trace("straggler-tail", 120, 9);

  Simulator clean_sim(clean, trace, reference_factory(clean));
  const SimulationMetrics m_clean = clean_sim.run();
  TraceRecorder rec;
  slowed.obs.trace = &rec;
  Simulator slow_sim(slowed, trace, reference_factory(slowed));
  const SimulationMetrics m_slow = slow_sim.run();

  EXPECT_EQ(m_clean.num_completed, trace.size());
  EXPECT_EQ(m_slow.num_completed, trace.size());
  ASSERT_TRUE(m_slow.resilience.enabled);
  EXPECT_GT(m_slow.resilience.num_degrade_events, 0);
  EXPECT_EQ(m_slow.resilience.num_lost, 0);
  EXPECT_GT(m_slow.makespan, m_clean.makespan);
  EXPECT_GT(m_slow.tbt.p99, m_clean.tbt.p99);

  int starts = 0, ends = 0;
  for (const TraceRecord& r : rec.records()) {
    if (r.kind != TraceEventKind::kReplicaFault) continue;
    if (r.detail == 3) ++starts;
    if (r.detail == 4) ++ends;
  }
  EXPECT_EQ(starts, m_slow.resilience.num_degrade_events);
  EXPECT_EQ(ends, starts);  // every degraded episode is restored
}

// --------------------------------- decommission cache teardown (regression)

TEST(FaultSim, DecommissionTearsDownPrefixCachePool) {
  // Busy start, quiet tail: the fleet must shrink, and every replica that
  // drained + decommissioned must have returned its whole prefix-cache
  // pool — cluster-wide cached blocks on dead replicas drop to zero
  // (previously the pool leaked across scale-downs).
  Scenario s = scenario_by_name("spot-churn");
  s.profile = RateProfile::piecewise(
      {RateStep{0.0, 3.0}, RateStep{25.0, 0.1}});
  s.num_requests = 150;
  const Trace trace = generate_scenario_trace(s, 13);

  SimulationConfig config = chaos_sim_config(4);
  config.tenants = s.tenant_infos();
  Simulator sim(config, trace, reference_factory(config));
  const SimulationMetrics m = sim.run();

  EXPECT_EQ(m.num_completed, trace.size());
  ASSERT_TRUE(m.scaling.enabled);
  ASSERT_GE(m.scaling.num_scale_down_events, 1);
  ASSERT_NE(sim.cluster(), nullptr);

  int decommissioned_with_traffic = 0;
  long dead_resident_blocks = 0;
  for (ReplicaId r = 0; r < sim.num_slots(); ++r) {
    if (sim.cluster()->state(r) != ReplicaState::kDecommissioned) continue;
    const PrefixCache* cache = sim.prefix_cache(r);
    ASSERT_NE(cache, nullptr);
    if (cache->stats().inserted_blocks > 0) ++decommissioned_with_traffic;
    dead_resident_blocks += cache->resident_blocks();
  }
  // The regression only bites if a torn-down replica actually held cache
  // state; the busy phase guarantees at least one did.
  EXPECT_GE(decommissioned_with_traffic, 1);
  EXPECT_EQ(dead_resident_blocks, 0);
}

// --------------------------------- preempt-restart cache credit (regression)

/// A turn of a multi-turn conversation.
Request session_turn(RequestId id, std::int64_t session, int turn,
                     TokenCount prefill, TokenCount decode) {
  Request r;
  r.id = id;
  r.session = session;
  r.turn = turn;
  r.prefill_tokens = prefill;
  r.decode_tokens = decode;
  return r;
}

TEST(FaultRecovery, PreemptedRestartKeepsCachedPrefix) {
  // A session turn attaches 64 cached prefix tokens, gets preempted on KV
  // exhaustion, and must re-enter the queue with the resident prefix
  // re-attached: each of its prefill passes charges only the 64-token cold
  // suffix (previously the restart re-charged the full 128).
  SchedulerConfig sconfig;
  sconfig.kind = SchedulerKind::kVllm;
  sconfig.max_batch_size = 8;
  sconfig.max_tokens_per_iteration = 4096;
  MemoryPlan plan;
  plan.num_kv_blocks = 20;  // 320 tokens
  plan.block_size = 16;
  auto scheduler = make_replica_scheduler(sconfig, plan);
  PrefixCache cache(/*capacity_blocks=*/8, /*block_size=*/16);
  scheduler->set_prefix_cache(&cache);

  std::vector<std::unique_ptr<RequestState>> states;
  const auto add = [&](Request request) {
    auto state = std::make_unique<RequestState>();
    state->request = request;
    state->record.id = request.id;
    RequestState* ptr = state.get();
    states.push_back(std::move(state));
    scheduler->enqueue(ptr);
    return ptr;
  };
  Seconds now = 0.0;
  TokenCount b_prefill_tokens = 0;
  const auto run_all = [&](RequestId track) {
    int steps = 0;
    BatchSpec batch;
    while (scheduler->has_work()) {
      VIDUR_CHECK_MSG(++steps <= 100000, "scheduler made no progress");
      scheduler->schedule_into(batch, now);
      now += 0.01;
      if (batch.empty()) continue;
      for (const BatchItem& item : batch.items)
        if (item.request == track && item.is_prefill)
          b_prefill_tokens += item.q_tokens;
      scheduler->on_batch_end(batch, now);
    }
  };

  // Turn 0 completes and donates its 64-token prefix (4 whole blocks of
  // the 68 KV tokens) to the cache.
  RequestState* a = add(session_turn(0, /*session=*/7, /*turn=*/0,
                                     /*prefill=*/64, /*decode=*/4));
  run_all(-1);
  ASSERT_TRUE(a->finished());
  ASSERT_EQ(cache.resident_blocks(), 4);

  // A bulky rival admits first; the follow-up turn hits the cached prefix.
  RequestState* rival = add(Request{1, now, /*prefill=*/150, /*decode=*/40});
  RequestState* b = add(session_turn(2, /*session=*/7, /*turn=*/1,
                                     /*prefill=*/128, /*decode=*/40));
  run_all(/*track=*/2);

  ASSERT_TRUE(rival->finished());
  ASSERT_TRUE(b->finished());
  // Decode growth exhausted the 20-block pool: the later arrival (the
  // session turn) was the preemption victim.
  EXPECT_EQ(rival->record.num_restarts, 0);
  ASSERT_GE(b->record.num_restarts, 1);
  // The cache credit survived the restart: the initial attach AND one
  // re-attach per restart (hits), and every prefill pass charged exactly
  // the 64-token cold suffix — not the full 128-token prompt.
  EXPECT_EQ(static_cast<int>(cache.stats().hits),
            1 + b->record.num_restarts);
  EXPECT_EQ(b_prefill_tokens,
            static_cast<TokenCount>(64 * (1 + b->record.num_restarts)));
}

}  // namespace
}  // namespace vidur
