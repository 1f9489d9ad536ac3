// Tests for the trace analytics engine (src/obs/analysis.*): the
// hand-computed preemption + migration waterfall fixture, the conservation
// property over seeded end-to-end runs (fixed, autoscaled and
// disaggregated fleets), determinism of the JSON rendering, and the
// report/options JSON round-trips behind `vidur analyze`.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cluster/replica_state.h"
#include "common/check.h"
#include "common/random.h"
#include "obs/analysis.h"
#include "obs/trace.h"
#include "sim/simulator.h"
#include "workload/trace_generator.h"

namespace vidur {
namespace {

TraceRecord rec(TraceEventKind kind, Seconds time, std::int32_t replica,
                std::int64_t id, std::int64_t a = 0, std::int64_t b = 0,
                std::uint8_t detail = 0) {
  TraceRecord r;
  r.kind = kind;
  r.detail = detail;
  r.replica = replica;
  r.id = id;
  r.a = a;
  r.b = b;
  r.time = time;
  return r;
}

constexpr auto P = [](LatencyPhase p) { return static_cast<std::size_t>(p); };

/// One request (id 7, tenant 2) that queues, prefills, is preempted and
/// restarted, migrates to a decode replica, queues again and decodes.
/// Every segment boundary is a dyadic rational, so all phase durations are
/// exact in floating point and the pins below use EXPECT_DOUBLE_EQ.
///
///   0.0  arrival
///   0.5  routed to replica 0 (queue-entry timestamp)
///   1.0  first scheduled          -> sched 0.5, queue 0.5
///   2.0  preempted                -> prefill 1.0
///   3.0  resumed (restart)        -> stall 1.0
///   4.5  prefill done (TTFT 4.5)  -> prefill 1.5
///   5.0  KV hand-off starts       -> decode 0.5
///   5.25 lands on replica 1       -> migration 0.25
///   5.75 scheduled on replica 1   -> queue 0.5 (decode-side wait)
///   8.0  completed                -> decode 2.25
std::vector<TraceRecord> fixture_records() {
  return {
      rec(TraceEventKind::kArrival, 0.0, -1, 7, 100, 10, /*tenant 2*/ 3),
      rec(TraceEventKind::kRouted, 0.5, 0, 7),
      rec(TraceEventKind::kBatchStart, 1.0, 0, 0, 1, 100),
      rec(TraceEventKind::kScheduled, 1.0, 0, 7, /*queue-entry ns*/ 500000000),
      rec(TraceEventKind::kPreempted, 2.0, 0, 7),
      rec(TraceEventKind::kBatchEnd, 2.0, 0, 0, 1),
      rec(TraceEventKind::kBatchStart, 3.0, 0, 1, 1, 100),
      rec(TraceEventKind::kScheduled, 3.0, 0, 7, -1, 0, /*resume*/ 1),
      rec(TraceEventKind::kPrefillDone, 4.5, 0, 7, 1),
      rec(TraceEventKind::kBatchEnd, 4.5, 0, 1, 1),
      rec(TraceEventKind::kMigrateStart, 5.0, 0, 7, 100),
      rec(TraceEventKind::kMigrateEnd, 5.25, 1, 7),
      rec(TraceEventKind::kBatchStart, 5.75, 1, 2, 1, 0),
      rec(TraceEventKind::kScheduled, 5.75, 1, 7, -1, 0, /*resume*/ 1),
      rec(TraceEventKind::kCompleted, 8.0, 1, 7, /*restarts*/ 1, 1),
      rec(TraceEventKind::kBatchEnd, 8.0, 1, 2, 1),
  };
}

AnalysisOptions fixture_options() {
  AnalysisOptions options;
  options.ttft_target = 2.0;
  options.tbt_target = 0.2;
  options.tenants = {{2, "acme", -1.0, -1.0}};
  options.replica_pools = {"prefill", "decode"};
  return options;
}

// ------------------------------------- hand-computed waterfall fixture

TEST(AnalysisFixture, PreemptionAndMigrationWaterfallMatchesHandComputed) {
  const AnalysisReport r = analyze_trace(fixture_records(), fixture_options());

  ASSERT_EQ(r.num_records, 16u);
  ASSERT_EQ(r.num_completed, 1);
  EXPECT_EQ(r.num_incomplete, 0);
  EXPECT_EQ(r.num_truncated, 0);

  ASSERT_EQ(r.waterfalls.size(), 1u);
  const RequestWaterfall& wf = r.waterfalls[0];
  EXPECT_EQ(wf.id, 7);
  EXPECT_EQ(wf.tenant, 2);
  EXPECT_EQ(wf.first_replica, 0);
  EXPECT_EQ(wf.last_replica, 1);
  EXPECT_DOUBLE_EQ(wf.arrival, 0.0);
  EXPECT_DOUBLE_EQ(wf.completed, 8.0);
  EXPECT_DOUBLE_EQ(wf.e2e, 8.0);
  EXPECT_DOUBLE_EQ(wf.ttft, 4.5);
  EXPECT_EQ(wf.prefill_tokens, 100);
  EXPECT_EQ(wf.decode_tokens, 10);
  EXPECT_EQ(wf.num_restarts, 1);
  EXPECT_TRUE(wf.migrated);

  // The full decomposition: 0.5 routing, 0.5 + 0.5 queue (arrival-side +
  // decode-side), 1.0 + 1.5 prefill (the preempted attempt's progress is
  // still prefill time), 1.0 stall, 0.25 migration, 0.5 + 2.25 decode.
  EXPECT_DOUBLE_EQ(wf.phase[P(LatencyPhase::kSchedulingDelay)], 0.5);
  EXPECT_DOUBLE_EQ(wf.phase[P(LatencyPhase::kQueueWait)], 1.0);
  EXPECT_DOUBLE_EQ(wf.phase[P(LatencyPhase::kPrefillCompute)], 2.5);
  EXPECT_DOUBLE_EQ(wf.phase[P(LatencyPhase::kPreemptionStall)], 1.0);
  EXPECT_DOUBLE_EQ(wf.phase[P(LatencyPhase::kKvMigration)], 0.25);
  EXPECT_DOUBLE_EQ(wf.phase[P(LatencyPhase::kDecode)], 2.75);
  EXPECT_DOUBLE_EQ(wf.conservation_error, 0.0);
  EXPECT_TRUE(r.conservation_ok);

  // TTFT split: everything before the 4.5 s prefill completion.
  EXPECT_DOUBLE_EQ(wf.ttft_phase[P(LatencyPhase::kSchedulingDelay)], 0.5);
  EXPECT_DOUBLE_EQ(wf.ttft_phase[P(LatencyPhase::kQueueWait)], 0.5);
  EXPECT_DOUBLE_EQ(wf.ttft_phase[P(LatencyPhase::kPrefillCompute)], 2.5);
  EXPECT_DOUBLE_EQ(wf.ttft_phase[P(LatencyPhase::kPreemptionStall)], 1.0);
  EXPECT_DOUBLE_EQ(wf.ttft_phase[P(LatencyPhase::kDecode)], 0.0);
  EXPECT_DOUBLE_EQ(wf.decode_phase[P(LatencyPhase::kQueueWait)], 0.5);
  EXPECT_DOUBLE_EQ(wf.decode_phase[P(LatencyPhase::kKvMigration)], 0.25);
  EXPECT_DOUBLE_EQ(wf.decode_phase[P(LatencyPhase::kDecode)], 2.75);

  EXPECT_EQ(r.e2e.count, 1u);
  EXPECT_DOUBLE_EQ(r.e2e.mean, 8.0);
  EXPECT_DOUBLE_EQ(r.ttft.mean, 4.5);
}

TEST(AnalysisFixture, SloViolationsCarryDominantAndMarginalPhases) {
  const AnalysisReport r = analyze_trace(fixture_records(), fixture_options());

  ASSERT_EQ(r.violations.size(), 2u);
  const SloViolation& ttft = r.violations[0];
  EXPECT_EQ(ttft.metric, SloMetric::kTtft);
  EXPECT_EQ(ttft.id, 7);
  EXPECT_EQ(ttft.replica, 0);  // blamed on the first (prefill) replica
  EXPECT_DOUBLE_EQ(ttft.observed, 4.5);
  EXPECT_DOUBLE_EQ(ttft.target, 2.0);
  EXPECT_DOUBLE_EQ(ttft.excess, 2.5);
  EXPECT_EQ(ttft.dominant, LatencyPhase::kPrefillCompute);
  // Only removing prefill (2.5 s) brings 4.5 s under the 2 s target; the
  // 1 s stall alone would not.
  ASSERT_TRUE(ttft.has_marginal);
  EXPECT_EQ(ttft.marginal, LatencyPhase::kPrefillCompute);

  const SloViolation& tbt = r.violations[1];
  EXPECT_EQ(tbt.metric, SloMetric::kTbt);
  EXPECT_EQ(tbt.replica, 1);  // blamed on the last (decode) replica
  // Mean TBT = (e2e - ttft) / (decode_tokens - 1) = 3.5 / 9.
  EXPECT_DOUBLE_EQ(tbt.observed, 3.5 / 9.0);
  EXPECT_DOUBLE_EQ(tbt.excess, 3.5 / 9.0 - 0.2);
  EXPECT_EQ(tbt.dominant, LatencyPhase::kDecode);
  ASSERT_TRUE(tbt.has_marginal);
  EXPECT_EQ(tbt.marginal, LatencyPhase::kDecode);

  // Blame tables: the tenant override's display name keys the tenant
  // bucket; TTFT lands on the prefill pool, TBT on the decode pool.
  ASSERT_EQ(r.blame_by_tenant.size(), 1u);
  EXPECT_EQ(r.blame_by_tenant[0].key, "acme");
  EXPECT_EQ(r.blame_by_tenant[0].violations, 2);
  EXPECT_DOUBLE_EQ(r.blame_by_tenant[0].excess_seconds,
                   2.5 + (3.5 / 9.0 - 0.2));
  EXPECT_EQ(r.blame_by_tenant[0].top_phase, LatencyPhase::kPrefillCompute);

  ASSERT_EQ(r.blame_by_pool.size(), 2u);
  EXPECT_EQ(r.blame_by_pool[0].key, "prefill");  // 2.5 s > 0.19 s
  EXPECT_DOUBLE_EQ(r.blame_by_pool[0].excess_seconds, 2.5);
  EXPECT_EQ(r.blame_by_pool[1].key, "decode");
  ASSERT_EQ(r.blame_by_replica.size(), 2u);
  EXPECT_EQ(r.blame_by_replica[0].key, "replica-0");
  EXPECT_EQ(r.blame_by_replica[1].key, "replica-1");
}

TEST(AnalysisFixture, ReplicaAuditClassifiesIdleGaps) {
  const AnalysisReport r = analyze_trace(fixture_records(), fixture_options());

  ASSERT_EQ(r.replicas.size(), 2u);
  const ReplicaAudit& a0 = r.replicas[0];
  EXPECT_EQ(a0.replica, 0);
  EXPECT_EQ(a0.pool, "prefill");
  EXPECT_DOUBLE_EQ(a0.span, 8.0);
  EXPECT_DOUBLE_EQ(a0.busy, 2.5);  // batches [1, 2] and [3, 4.5]
  EXPECT_DOUBLE_EQ(a0.idle, 5.5);
  EXPECT_DOUBLE_EQ(a0.off, 0.0);
  EXPECT_EQ(a0.num_batches, 2);
  ASSERT_EQ(a0.num_gaps, 3);
  ASSERT_EQ(a0.top_gaps.size(), 3u);
  // Longest gap first; the tail gap has no waiter (the request left for
  // the decode pool), the two early gaps had request 7 waiting.
  EXPECT_DOUBLE_EQ(a0.top_gaps[0].start, 4.5);
  EXPECT_DOUBLE_EQ(a0.top_gaps[0].end, 8.0);
  EXPECT_EQ(a0.top_gaps[0].cause, IdleGapCause::kNoRoutableWork);
  EXPECT_DOUBLE_EQ(a0.top_gaps[1].start, 0.0);
  EXPECT_EQ(a0.top_gaps[1].cause, IdleGapCause::kAdmissionLimited);
  EXPECT_DOUBLE_EQ(a0.top_gaps[2].start, 2.0);
  EXPECT_EQ(a0.top_gaps[2].cause, IdleGapCause::kAdmissionLimited);

  const ReplicaAudit& a1 = r.replicas[1];
  EXPECT_EQ(a1.replica, 1);
  EXPECT_EQ(a1.pool, "decode");
  EXPECT_DOUBLE_EQ(a1.busy, 2.25);
  EXPECT_DOUBLE_EQ(a1.idle, 5.75);
  ASSERT_EQ(a1.top_gaps.size(), 1u);
  // The migrated request waited here from 5.25, inside this gap.
  EXPECT_EQ(a1.top_gaps[0].cause, IdleGapCause::kAdmissionLimited);

  // Queueing decomposition: one first-schedule, 1.0 s arrival-to-batch,
  // classified as plain saturation (not parked, no inversion, no idle
  // foreign pool before 1.0 s).
  ASSERT_EQ(r.queue_causes.size(), 1u);
  EXPECT_EQ(r.queue_causes[0].cause, QueueWaitCause::kReplicaSaturation);
  EXPECT_EQ(r.queue_causes[0].wait.count, 1u);
  EXPECT_DOUBLE_EQ(r.queue_causes[0].wait.mean, 1.0);
  EXPECT_DOUBLE_EQ(r.queue_causes[0].wait.max, 1.0);
}

TEST(AnalysisFixture, ReplicaLifecycleSplitsOffWarmingAndDraining) {
  const auto S = [](ReplicaState s) {
    return static_cast<std::uint8_t>(s);
  };
  const std::vector<TraceRecord> records = {
      rec(TraceEventKind::kReplicaTransition, 0.0, 0, 0, 1, 0,
          S(ReplicaState::kProvisioning)),
      rec(TraceEventKind::kReplicaTransition, 1.0, 0, 0, 1, 0,
          S(ReplicaState::kWarming)),
      rec(TraceEventKind::kReplicaTransition, 2.0, 0, 0, 1, 0,
          S(ReplicaState::kActive)),
      rec(TraceEventKind::kBatchStart, 3.0, 0, 0, 1, 0),
      rec(TraceEventKind::kBatchEnd, 5.0, 0, 0, 1),
      rec(TraceEventKind::kReplicaTransition, 6.0, 0, 0, 0, 0,
          S(ReplicaState::kDraining)),
      rec(TraceEventKind::kReplicaTransition, 7.0, 0, 0, 0, 0,
          S(ReplicaState::kDecommissioned)),
      rec(TraceEventKind::kScaleDecision, 8.0, -1, 0, 0, 0),
  };
  const AnalysisReport r = analyze_trace(records, {});

  ASSERT_EQ(r.replicas.size(), 1u);
  const ReplicaAudit& a = r.replicas[0];
  EXPECT_DOUBLE_EQ(a.span, 8.0);
  EXPECT_DOUBLE_EQ(a.busy, 2.0);
  // Provisioning [0,1) and decommissioned [7,8) are off, not idle.
  EXPECT_DOUBLE_EQ(a.off, 2.0);
  EXPECT_DOUBLE_EQ(a.idle, 4.0);
  EXPECT_DOUBLE_EQ(a.warming, 1.0);
  EXPECT_DOUBLE_EQ(a.draining, 1.0);
  ASSERT_EQ(a.num_gaps, 4);
  // All four classified gaps are 1 s; stable sort keeps timeline order.
  EXPECT_EQ(a.top_gaps[0].cause, IdleGapCause::kWarming);
  EXPECT_EQ(a.top_gaps[1].cause, IdleGapCause::kNoRoutableWork);
  EXPECT_EQ(a.top_gaps[2].cause, IdleGapCause::kNoRoutableWork);
  EXPECT_EQ(a.top_gaps[3].cause, IdleGapCause::kDraining);
}

TEST(AnalysisFixture, UnknownQueueEntryCountsWholeWaitAsQueueTime) {
  const std::vector<TraceRecord> records = {
      rec(TraceEventKind::kArrival, 0.0, -1, 1, 50, 1),
      rec(TraceEventKind::kScheduled, 2.0, 0, 1, /*unknown*/ -1),
      rec(TraceEventKind::kPrefillDone, 3.0, 0, 1, 1),
      rec(TraceEventKind::kCompleted, 4.0, 0, 1, 0, 1),
  };
  const AnalysisReport r = analyze_trace(records, {});
  ASSERT_EQ(r.waterfalls.size(), 1u);
  const RequestWaterfall& wf = r.waterfalls[0];
  EXPECT_DOUBLE_EQ(wf.phase[P(LatencyPhase::kSchedulingDelay)], 0.0);
  EXPECT_DOUBLE_EQ(wf.phase[P(LatencyPhase::kQueueWait)], 2.0);
  EXPECT_DOUBLE_EQ(wf.phase[P(LatencyPhase::kPrefillCompute)], 1.0);
  EXPECT_DOUBLE_EQ(wf.phase[P(LatencyPhase::kDecode)], 1.0);
  EXPECT_DOUBLE_EQ(wf.conservation_error, 0.0);
}

TEST(AnalysisFixture, IncompleteAndTruncatedRequestsAreCountedNotDropped) {
  const std::vector<TraceRecord> records = {
      // Arrived but never completed (still running at the end of the run).
      rec(TraceEventKind::kArrival, 0.0, -1, 1, 50, 4),
      rec(TraceEventKind::kScheduled, 1.0, 0, 1, 0),
      // Lifecycle without an arrival: the ring buffer dropped its head.
      rec(TraceEventKind::kScheduled, 2.0, 0, 2, -1),
      rec(TraceEventKind::kCompleted, 3.0, 0, 2, 0, 1),
  };
  const AnalysisReport r = analyze_trace(records, {});
  EXPECT_EQ(r.num_completed, 0);
  EXPECT_EQ(r.num_incomplete, 1);
  EXPECT_EQ(r.num_truncated, 1);
  EXPECT_TRUE(r.waterfalls.empty());
  EXPECT_TRUE(r.conservation_ok);
}

// ------------------------------- conservation property over real runs

SimulationConfig base_config(int replicas, SchedulerKind kind) {
  SimulationConfig config;
  config.model = model_by_name("llama2-7b");
  config.node.sku = sku_by_name("a100");
  config.parallel = ParallelConfig{1, 1, replicas};
  config.scheduler.kind = kind;
  config.scheduler.max_batch_size = 32;
  config.scheduler.chunk_size = 512;
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

Trace poisson_trace(int n, double qps, std::uint64_t seed) {
  return generate_trace(trace_by_name("chat1m"),
                        ArrivalSpec{ArrivalKind::kPoisson, qps, 0}, n, seed);
}

AnalysisReport analyze_run(SimulationConfig config, const Trace& trace,
                           std::uint64_t* completed = nullptr) {
  TraceRecorder recorder;
  config.obs.trace = &recorder;
  Simulator sim(config, trace, reference_factory(config));
  const SimulationMetrics m = sim.run();
  if (completed != nullptr) *completed = m.num_completed;
  EXPECT_EQ(recorder.num_dropped(), 0u);
  return analyze_trace(recorder.records(), {});
}

TEST(AnalysisProperty, ConservationHoldsAcrossSeededRuns) {
  for (const std::uint64_t seed : {3u, 11u, 42u}) {
    std::uint64_t completed = 0;
    const AnalysisReport r = analyze_run(
        base_config(2, SchedulerKind::kSarathi), poisson_trace(60, 2.0, seed),
        &completed);
    EXPECT_TRUE(r.conservation_ok) << "seed " << seed << ": max error "
                                   << r.max_conservation_error;
    EXPECT_EQ(static_cast<std::uint64_t>(r.num_completed), completed)
        << "seed " << seed;
    EXPECT_EQ(r.num_truncated, 0) << "seed " << seed;
  }
}

TEST(AnalysisProperty, ConservationHoldsUnderAutoscaling) {
  SimulationConfig config = base_config(4, SchedulerKind::kSarathi);
  config.autoscale.kind = AutoscalerKind::kReactive;
  config.autoscale.min_replicas = 1;
  config.autoscale.initial_replicas = 1;
  config.autoscale.decision_interval = 2.0;
  config.autoscale.provision_delay = 1.0;
  config.autoscale.warmup_delay = 0.5;
  config.autoscale.scale_down_cooldown = 10.0;
  for (const std::uint64_t seed : {5u, 17u}) {
    const AnalysisReport r =
        analyze_run(config, poisson_trace(80, 4.0, seed));
    EXPECT_TRUE(r.conservation_ok) << "seed " << seed << ": max error "
                                   << r.max_conservation_error;
    EXPECT_GT(r.num_completed, 0);
  }
}

TEST(AnalysisProperty, ConservationHoldsUnderDisaggWithMigrations) {
  SimulationConfig config = base_config(3, SchedulerKind::kVllm);
  config.disagg.num_prefill_replicas = 1;
  const AnalysisReport r =
      analyze_run(config, poisson_trace(50, 2.0, 23));
  EXPECT_TRUE(r.conservation_ok) << "max error "
                                 << r.max_conservation_error;
  // Multi-token requests migrate prefill -> decode pool; the KV hand-off
  // phase must actually appear, not vanish into queue wait.
  bool saw_migration = false;
  for (const RequestWaterfall& wf : r.waterfalls)
    saw_migration |= wf.migrated &&
                     wf.phase[P(LatencyPhase::kKvMigration)] > 0.0;
  EXPECT_TRUE(saw_migration);
}

// --------------------------------------- determinism and JSON round-trip

TEST(AnalysisDeterminism, SameSeedRendersBitIdenticalJson) {
  const SimulationConfig config = base_config(2, SchedulerKind::kSarathi);
  const Trace trace = poisson_trace(40, 2.0, 9);
  AnalysisOptions options;
  options.ttft_target = 0.5;
  options.tbt_target = 0.05;
  options.replica_pools = {"main", "main"};

  std::string dumps[2];
  for (std::string& dump : dumps) {
    TraceRecorder recorder;
    SimulationConfig run = config;
    run.obs.trace = &recorder;
    Simulator sim(run, trace, reference_factory(run));
    sim.run();
    dump = analysis_json(analyze_trace(recorder.records(), options)).dump();
  }
  EXPECT_EQ(dumps[0], dumps[1]);
}

TEST(AnalysisJson, FixtureReportRoundTripsExactly) {
  const AnalysisReport r = analyze_trace(fixture_records(), fixture_options());
  const JsonValue j = analysis_json(r);
  const AnalysisReport reloaded =
      analysis_report_from_json(JsonValue::parse(j.dump()));
  // analysis_json(from_json(j)) == j: the rendering is a lossless encoding
  // of everything `vidur analyze` consumes.
  EXPECT_EQ(analysis_json(reloaded).dump(), j.dump());
  EXPECT_EQ(reloaded.num_completed, r.num_completed);
  ASSERT_EQ(reloaded.waterfalls.size(), 1u);
  EXPECT_DOUBLE_EQ(
      reloaded.waterfalls[0].decode_phase[P(LatencyPhase::kDecode)], 2.75);
  ASSERT_EQ(reloaded.violations.size(), 2u);
  EXPECT_EQ(reloaded.violations[0].marginal, LatencyPhase::kPrefillCompute);
  EXPECT_EQ(reloaded.options.tenants.size(), 1u);
  EXPECT_EQ(reloaded.options.replica_pools,
            (std::vector<std::string>{"prefill", "decode"}));
}

TEST(AnalysisJson, RealRunReportRoundTripsExactly) {
  TraceRecorder recorder;
  SimulationConfig config = base_config(2, SchedulerKind::kSarathi);
  config.obs.trace = &recorder;
  Simulator sim(config, poisson_trace(40, 2.0, 31), reference_factory(config));
  sim.run();
  AnalysisOptions options;
  options.ttft_target = 0.3;
  options.tbt_target = 0.03;
  const JsonValue j =
      analysis_json(analyze_trace(recorder.records(), options));
  EXPECT_EQ(analysis_json(analysis_report_from_json(j)).dump(), j.dump());
}

TEST(AnalysisJson, OptionsRoundTripThroughContext) {
  const AnalysisOptions options = fixture_options();
  const AnalysisOptions reloaded =
      analysis_options_from_json(analysis_options_json(options));
  EXPECT_DOUBLE_EQ(reloaded.ttft_target, 2.0);
  EXPECT_DOUBLE_EQ(reloaded.tbt_target, 0.2);
  EXPECT_EQ(reloaded.top_k, options.top_k);
  ASSERT_EQ(reloaded.tenants.size(), 1u);
  EXPECT_EQ(reloaded.tenants[0].tenant, 2);
  EXPECT_EQ(reloaded.tenants[0].name, "acme");
  EXPECT_EQ(reloaded.replica_pools, options.replica_pools);
}

TEST(AnalysisJson, SchemaMismatchIsRejectedWithActionableError) {
  JsonValue j = analysis_json(analyze_trace(fixture_records(), {}));
  j.set("schema", static_cast<std::int64_t>(kTraceSchemaVersion - 1));
  EXPECT_THROW(analysis_report_from_json(j), Error);
}

TEST(AnalysisJson, OutOfRangeIntegersAreRejectedNamingTheKey) {
  const JsonValue good = analysis_json(analyze_trace(fixture_records(), {}));
  const auto message = [&](const char* key, std::int64_t value) {
    JsonValue j = JsonValue::parse(good.dump());
    JsonValue requests = j.at("requests");
    requests.set(key, value);
    j.set("requests", std::move(requests));
    try {
      analysis_report_from_json(j);
    } catch (const Error& e) {
      return std::string(e.what());
    }
    return std::string("loaded");
  };
  // A count past 32 bits used to wrap to 0, and a negative size to 2^64-5.
  EXPECT_NE(message("completed", 4294967296).find("'completed'"),
            std::string::npos);
  EXPECT_NE(message("records", -5).find("'records'"), std::string::npos);
  EXPECT_NE(message("truncated", -1).find("'truncated'"), std::string::npos);
  EXPECT_EQ(message("completed", 2147483647), "loaded");
}

TEST(AnalysisJson, MutatedReportFailsOnlyWithVidurErrors) {
  // Seeded byte flips, truncations, short deletions, hostile token
  // insertions and number swaps in the report of a disaggregated run with
  // SLO targets, so waterfalls, violations, blame, audits and queueing all
  // have rows. Each mutant must reload or throw vidur::Error; every report
  // that reloads must hold its counts in range and render both ways.
  SimulationConfig config = base_config(3, SchedulerKind::kVllm);
  config.disagg.num_prefill_replicas = 1;
  TraceRecorder recorder;
  config.obs.trace = &recorder;
  Simulator sim(config, poisson_trace(30, 2.0, 23), reference_factory(config));
  sim.run();
  AnalysisOptions options;
  options.ttft_target = 0.3;
  options.tbt_target = 0.03;
  options.replica_pools = {"prefill", "decode", "decode"};
  const std::string text =
      analysis_json(analyze_trace(recorder.records(), options)).dump();
  std::vector<std::size_t> numbers;  // offsets of object-member numbers
  for (std::size_t i = 2; i < text.size(); ++i)
    if (text[i - 2] == ':' && text[i - 1] == ' ' &&
        (text[i] == '-' || (text[i] >= '0' && text[i] <= '9')))
      numbers.push_back(i);
  ASSERT_GT(numbers.size(), 100u);
  const std::vector<std::string> tokens = {
      "-1", "-5", "0", "-0", "0.5", "1e400", "2147483647", "2147483648",
      "-2147483649", "4294967296", "9223372036854775807",
      "9223372036854775808", "nan", "null", "true", "\"x\"", "[", "]",
      "{}", ","};
  Rng rng(20261019);
  const auto below = [&rng](std::size_t n) {
    return static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
  };
  int loaded = 0;
  for (int i = 0; i < 3000; ++i) {
    std::string mutant = text;
    const std::size_t pos = below(mutant.size());
    switch (rng.uniform_int(0, 4)) {
      case 0:
        mutant[pos] = static_cast<char>(mutant[pos] ^ (1 << below(8)));
        break;
      case 1:
        mutant.resize(pos);
        break;
      case 2:
        mutant.erase(pos, 1 + below(8));
        break;
      case 3:
        mutant.insert(pos, tokens[below(tokens.size())]);
        break;
      default: {
        const std::size_t at = numbers[below(numbers.size())];
        const std::size_t end = mutant.find_first_of(",\n}]", at);
        mutant.replace(at, end - at, tokens[below(tokens.size())]);
      }
    }
    try {
      const AnalysisReport r =
          analysis_report_from_json(JsonValue::parse(mutant));
      ++loaded;
      EXPECT_TRUE(r.num_completed >= 0 && r.num_incomplete >= 0 &&
                  r.num_truncated >= 0)
          << mutant;
      for (const RequestWaterfall& wf : r.waterfalls)
        EXPECT_TRUE(wf.num_restarts >= 0 && wf.num_retries >= 0 &&
                    wf.num_handoffs >= 0);
      for (const ReplicaAudit& a : r.replicas)
        EXPECT_TRUE(a.num_batches >= 0 && a.num_gaps >= 0);
      EXPECT_FALSE(analysis_to_string(r).empty());
      EXPECT_FALSE(analysis_json(r).dump().empty());
    } catch (const Error&) {
    } catch (const std::exception& e) {
      ADD_FAILURE() << e.what() << " escaped for\n" << mutant;
    }
  }
  // Enough mutants must reload for the checks to mean something.
  EXPECT_GT(loaded, 500);
}

TEST(AnalysisJson, HumanReportMentionsEverySection) {
  const std::string s =
      analysis_to_string(analyze_trace(fixture_records(), fixture_options()));
  for (const char* needle :
       {"conservation", "latency waterfall", "slowest requests",
        "slo violations", "blame by tenant", "blame by pool",
        "replica timeline audit", "queueing decomposition", "migrated",
        "1 restart"}) {
    EXPECT_NE(s.find(needle), std::string::npos) << "missing: " << needle;
  }
}

TEST(AnalysisJson, EmptyRecordStreamYieldsEmptyButValidReport) {
  const AnalysisReport r = analyze_trace({}, {});
  EXPECT_EQ(r.num_records, 0u);
  EXPECT_EQ(r.num_completed, 0);
  EXPECT_TRUE(r.conservation_ok);
  const JsonValue j = analysis_json(r);
  EXPECT_EQ(analysis_json(analysis_report_from_json(j)).dump(), j.dump());
  EXPECT_NE(analysis_to_string(r).find("0 completed"), std::string::npos);
}

}  // namespace
}  // namespace vidur
