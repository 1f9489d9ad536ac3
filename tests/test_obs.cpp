// Tests for the observability subsystem (src/obs/ and its wiring): trace
// determinism and zero-impact, Chrome trace export shape, registry and
// rolling-window primitives, exact per-pool MFU/MBU/energy attribution
// against hand-computed values, ObsSpec serialization, and the result-file
// comparator behind `vidur compare`.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "api/compare.h"
#include "api/run.h"
#include "common/check.h"
#include "common/random.h"
#include "metrics/metrics.h"
#include "obs/analysis.h"
#include "obs/registry.h"
#include "obs/rolling.h"
#include "obs/trace.h"
#include "workload/trace_generator.h"

namespace vidur {
namespace {

// ------------------------------------------------------ shared fixtures

/// An autoscaled deployment: scale events, warming/draining transitions
/// and reroutes all show up in the trace, which is exactly the machinery
/// determinism must cover.
DeploymentConfig autoscaled_config() {
  DeploymentConfig config;
  config.sku_name = "a100";
  config.parallel = ParallelConfig{1, 1, 4};
  config.scheduler.kind = SchedulerKind::kSarathi;
  config.scheduler.max_batch_size = 32;
  config.autoscale.kind = AutoscalerKind::kReactive;
  config.autoscale.min_replicas = 1;
  config.autoscale.initial_replicas = 1;
  config.autoscale.decision_interval = 2.0;
  config.autoscale.provision_delay = 1.0;
  config.autoscale.warmup_delay = 0.5;
  config.autoscale.scale_down_cooldown = 10.0;
  return config;
}

Trace bursty_trace(int n) {
  return generate_trace(trace_by_name("chat1m"),
                        ArrivalSpec{ArrivalKind::kPoisson, 4.0, 0}, n, 17);
}

VidurSession& shared_session() {
  static VidurSession session(model_by_name("llama2-7b"));
  return session;
}

// ---------------------------------------------------- trace determinism

TEST(TraceDeterminism, SameSeedYieldsBitIdenticalRecords) {
  VidurSession& session = shared_session();
  const DeploymentConfig config = autoscaled_config();
  const Trace trace = bursty_trace(80);

  TraceRecorder first, second;
  SimObs obs;
  obs.trace = &first;
  session.simulate(config, trace, {}, obs);
  obs.trace = &second;
  session.simulate(config, trace, {}, obs);

  ASSERT_GT(first.records().size(), 0u);
  ASSERT_EQ(first.records().size(), second.records().size());
  for (std::size_t i = 0; i < first.records().size(); ++i)
    ASSERT_EQ(first.records()[i], second.records()[i]) << "record " << i;
  EXPECT_EQ(first.num_dropped(), 0u);

  // The autoscaler's activity is part of the stream, not just requests.
  bool saw_scale_decision = false, saw_transition = false;
  for (const TraceRecord& r : first.records()) {
    saw_scale_decision |= r.kind == TraceEventKind::kScaleDecision;
    saw_transition |= r.kind == TraceEventKind::kReplicaTransition;
  }
  EXPECT_TRUE(saw_scale_decision);
  EXPECT_TRUE(saw_transition);
}

TEST(TraceDeterminism, TracingDoesNotChangeResults) {
  VidurSession& session = shared_session();
  const DeploymentConfig config = autoscaled_config();
  const Trace trace = bursty_trace(80);

  const SimulationMetrics off = session.simulate(config, trace);
  TraceRecorder recorder;
  SimObs obs;
  obs.trace = &recorder;
  obs.rolling_window_s = 5.0;
  const SimulationMetrics on = session.simulate(config, trace, {}, obs);

  EXPECT_EQ(on.num_completed, off.num_completed);
  EXPECT_DOUBLE_EQ(on.makespan, off.makespan);
  EXPECT_DOUBLE_EQ(on.ttft.p90, off.ttft.p90);
  EXPECT_DOUBLE_EQ(on.tbt.p99, off.tbt.p99);
  EXPECT_DOUBLE_EQ(on.throughput_qps, off.throughput_qps);
  EXPECT_EQ(on.scaling.num_scale_up_events, off.scaling.num_scale_up_events);
  EXPECT_EQ(on.scaling.num_scale_down_events,
            off.scaling.num_scale_down_events);
  EXPECT_DOUBLE_EQ(on.scaling.gpu_hours, off.scaling.gpu_hours);
}

TEST(TraceRecorder, RingBufferDropsBeyondCapacityAndCounts) {
  TraceRecorder recorder(4);
  for (int i = 0; i < 10; ++i) {
    TraceRecord r;
    r.kind = TraceEventKind::kArrival;
    r.id = i;
    r.time = static_cast<Seconds>(i);
    recorder.emit(r);
  }
  EXPECT_EQ(recorder.records().size(), 4u);
  EXPECT_EQ(recorder.num_emitted(), 10u);
  EXPECT_EQ(recorder.num_dropped(), 6u);
  // The ring keeps the newest records in chronological order; the drop
  // counter reports the truncated head honestly.
  EXPECT_EQ(recorder.records()[0].id, 6);
  EXPECT_EQ(recorder.records()[3].id, 9);
}

TEST(TraceRecorder, ZeroCapacityIsRejected) {
  // emit() writes the ring's head slot unconditionally, so an empty ring
  // must never exist (the spec layer rejects obs.trace_capacity <= 0 too).
  EXPECT_THROW(TraceRecorder recorder(0), Error);
  EXPECT_EQ(TraceRecorder{1}.capacity(), 1u);
}

// -------------------------------------------------- chrome trace export

TEST(ChromeTrace, ExportValidatesAndCountsEveryPhase) {
  VidurSession& session = shared_session();
  TraceRecorder recorder;
  SimObs obs;
  obs.trace = &recorder;
  session.simulate(autoscaled_config(), bursty_trace(60), {}, obs);

  const JsonValue doc = chrome_trace_json(recorder.records());
  const TraceValidation v = validate_chrome_trace(doc);
  EXPECT_GT(v.num_complete_spans, 0u);   // request lifetimes + batches
  EXPECT_GT(v.num_instants, 0u);         // scale decisions, migrations
  EXPECT_GT(v.num_counter_samples, 0u);  // active-replica counter track
  EXPECT_EQ(v.num_events,
            JsonValue::parse(doc.dump()).at("traceEvents").size());
}

TEST(ChromeTrace, ValidatorRejectsOverlappingSpans) {
  // Two "X" events on one (pid, tid) that partially overlap cannot nest.
  JsonValue events = JsonValue::array();
  const auto span = [](double ts, double dur) {
    JsonValue e = JsonValue::object();
    e.set("ph", std::string("X"));
    e.set("name", std::string("s"));
    e.set("pid", static_cast<std::int64_t>(1));
    e.set("tid", static_cast<std::int64_t>(1));
    e.set("ts", ts);
    e.set("dur", dur);
    return e;
  };
  events.push(span(0.0, 10.0));
  events.push(span(5.0, 10.0));
  JsonValue doc = JsonValue::object();
  doc.set("traceEvents", std::move(events));
  EXPECT_THROW(validate_chrome_trace(doc), Error);
}

// ----------------------------------------------------- metrics registry

TEST(MetricsRegistry, CountersAreStableAndSnapshotSorted) {
  MetricsRegistry registry;
  Counter* a = registry.counter("zeta");
  Counter* b = registry.counter("alpha");
  a->inc(3);
  b->inc();
  EXPECT_EQ(registry.counter("zeta"), a);  // same name, same cell

  const RegistrySnapshot snap = registry.snapshot();
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters[0].name, "alpha");
  EXPECT_EQ(snap.counters[0].value, 1u);
  EXPECT_EQ(snap.counters[1].name, "zeta");
  EXPECT_EQ(snap.counters[1].value, 3u);
  EXPECT_EQ(snap.counter("zeta"), 3u);
  EXPECT_EQ(snap.counter("nope"), 0u);  // missing reads as zero
}

TEST(LatencyHistogram, QuantilesLandInTheRecordingBucket) {
  LatencyHistogram h;
  for (int i = 0; i < 1000; ++i) h.record(1e-3);
  h.record(1.0);
  EXPECT_EQ(h.count(), 1001u);
  EXPECT_NEAR(h.mean(), (1000 * 1e-3 + 1.0) / 1001, 1e-12);
  EXPECT_DOUBLE_EQ(h.max_seen(), 1.0);
  // 4 buckets per octave => the reported quantile sits within one bucket
  // (a 2^(1/4) factor) of the recorded value.
  EXPECT_LE(h.quantile(0.5), 1e-3 * std::pow(2.0, 0.25) * 1.001);
  EXPECT_GE(h.quantile(0.5), 1e-3 / std::pow(2.0, 0.25) / 1.001);
  EXPECT_GE(h.quantile(0.9999), 0.5);
}

TEST(SimulatorRegistry, CountersMatchTheRunsTotals) {
  VidurSession& session = shared_session();
  const Trace trace = bursty_trace(50);
  const SimulationMetrics m =
      session.simulate(autoscaled_config(), trace, {}, SimObs{});

  ASSERT_FALSE(m.registry.empty());
  const auto counter = [&](const std::string& name) {
    return m.registry.counter(name);
  };
  EXPECT_EQ(counter("sim.requests_arrived"), 50u);
  EXPECT_EQ(counter("sim.requests_completed"), m.num_completed);
  EXPECT_EQ(counter("sim.events"), m.num_sim_events);
  EXPECT_GT(counter("sim.batches"), 0u);
  EXPECT_GT(counter("cluster.ticks"), 0u);
  EXPECT_EQ(counter("cluster.scale_ups"),
            static_cast<std::uint64_t>(m.scaling.num_scale_up_events));

  bool found_ttft = false;
  for (const auto& h : m.registry.histograms) {
    if (h.name != "request.ttft_s") continue;
    found_ttft = true;
    EXPECT_EQ(h.count, m.num_completed);
    EXPECT_NEAR(h.max, m.ttft.max, m.ttft.max * 0.2 + 1e-9);
  }
  EXPECT_TRUE(found_ttft);
}

// ------------------------------------------------------ rolling windows

TEST(RollingCollector, WindowAggregatesAndQueueIntegralAreExact) {
  RollingCollector rolling(10.0, {"cluster"});
  rolling.on_arrival(0, 1.0);
  rolling.on_queue_delta(0, 1.0, 1);   // depth 1 from t=1
  rolling.on_arrival(0, 4.0);
  rolling.on_queue_delta(0, 4.0, 1);   // depth 2 from t=4
  rolling.on_completion(0, 6.0, /*ttft=*/0.5, /*worst_tbt=*/0.05,
                        /*slo_state=*/1);
  rolling.on_queue_delta(0, 6.0, -1);  // depth 1 from t=6
  rolling.on_completion(0, 12.0, /*ttft=*/1.5, /*worst_tbt=*/-1.0,
                        /*slo_state=*/0);
  rolling.on_queue_delta(0, 12.0, -1);

  const std::vector<RollingTrack> tracks = rolling.finalize(15.0);
  ASSERT_EQ(tracks.size(), 1u);
  EXPECT_EQ(tracks[0].name, "cluster");
  ASSERT_EQ(tracks[0].windows.size(), 2u);

  const WindowSample& w0 = tracks[0].windows[0];
  EXPECT_DOUBLE_EQ(w0.start, 0.0);
  EXPECT_DOUBLE_EQ(w0.end, 10.0);
  EXPECT_EQ(w0.arrivals, 2);
  EXPECT_EQ(w0.completions, 1);
  EXPECT_DOUBLE_EQ(w0.mean_ttft(), 0.5);
  EXPECT_DOUBLE_EQ(w0.mean_tbt(), 0.05);
  EXPECT_DOUBLE_EQ(w0.slo_attainment(), 1.0);
  // Depth: 0 over [0,1), 1 over [1,4), 2 over [4,6), 1 over [6,10) => 11.
  EXPECT_DOUBLE_EQ(w0.queue_depth_time, 11.0);
  EXPECT_DOUBLE_EQ(w0.mean_queue_depth(), 1.1);

  const WindowSample& w1 = tracks[0].windows[1];
  EXPECT_DOUBLE_EQ(w1.end, 15.0);  // final window closed at end_time
  EXPECT_EQ(w1.completions, 1);
  EXPECT_EQ(w1.tbt_count, 0);  // single-token request carries no TBT
  EXPECT_DOUBLE_EQ(w1.slo_attainment(), 0.0);
  // Depth 1 over [10,12), 0 after => 2 over a 5 s window.
  EXPECT_DOUBLE_EQ(w1.queue_depth_time, 2.0);
}

TEST(RollingCollector, EventExactlyOnBoundaryOpensTheNextWindow) {
  // Windows are [start, end): an event at exactly t = window lands in the
  // second window, not the first.
  RollingCollector rolling(10.0, {"t"});
  rolling.on_arrival(0, 10.0);
  const std::vector<RollingTrack> tracks = rolling.finalize(20.0);
  ASSERT_EQ(tracks[0].windows.size(), 2u);
  EXPECT_EQ(tracks[0].windows[0].arrivals, 0);
  EXPECT_DOUBLE_EQ(tracks[0].windows[0].end, 10.0);
  EXPECT_EQ(tracks[0].windows[1].arrivals, 1);
  EXPECT_DOUBLE_EQ(tracks[0].windows[1].start, 10.0);
}

TEST(RollingCollector, QuietWindowsAreEmittedEmptyNotSkipped) {
  // A long quiet stretch still produces every intermediate window, so the
  // series has no time gaps; the empty windows read as all-zero.
  RollingCollector rolling(10.0, {"t"});
  rolling.on_arrival(0, 1.0);
  rolling.on_arrival(0, 35.0);
  const std::vector<RollingTrack> tracks = rolling.finalize(36.0);
  ASSERT_EQ(tracks[0].windows.size(), 4u);
  const WindowSample& empty = tracks[0].windows[1];
  EXPECT_DOUBLE_EQ(empty.start, 10.0);
  EXPECT_DOUBLE_EQ(empty.end, 20.0);
  EXPECT_EQ(empty.arrivals, 0);
  EXPECT_EQ(empty.completions, 0);
  EXPECT_DOUBLE_EQ(empty.queue_depth_time, 0.0);
  EXPECT_DOUBLE_EQ(empty.mean_ttft(), 0.0);
  EXPECT_DOUBLE_EQ(empty.slo_attainment(), -1.0);  // nothing eligible
  EXPECT_EQ(tracks[0].windows[3].arrivals, 1);
  EXPECT_DOUBLE_EQ(tracks[0].windows[3].end, 36.0);  // partial final window
}

TEST(RollingCollector, FinalizeOnWindowBoundaryEmitsNoEmptyTail) {
  RollingCollector rolling(10.0, {"t"});
  rolling.on_arrival(0, 3.0);
  // end_time == the open window's start: nothing to report there.
  const std::vector<RollingTrack> tracks = rolling.finalize(10.0);
  ASSERT_EQ(tracks[0].windows.size(), 1u);
  EXPECT_DOUBLE_EQ(tracks[0].windows[0].end, 10.0);
}

TEST(LatencyHistogram, QuantileInterpolationMatchesHandComputedEdges) {
  // 99 samples of 10µs and one of 1s. 10µs lands in bucket
  // floor(log2(10) * 4) = 13, whose edges are 2^3.25µs and 2^3.5µs.
  LatencyHistogram h;
  for (int i = 0; i < 99; ++i) h.record(1e-5);
  h.record(1.0);

  const double lo = 1e-6 * std::pow(2.0, 13.0 / 4.0);
  const double hi = 1e-6 * std::pow(2.0, 14.0 / 4.0);
  // p50: target rank 50 of 99 in-bucket samples, linearly interpolated.
  EXPECT_DOUBLE_EQ(h.quantile(0.50), lo + (hi - lo) * (50.0 / 99.0));
  // p99: rank 99 = the bucket's full width, i.e. its upper edge.
  EXPECT_DOUBLE_EQ(h.quantile(0.99), hi);
  // p100 falls into the 1s sample's bucket, clamped to the observed max.
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 1.0);
}

TEST(RollingCollector, SimulationFillsClusterTrack) {
  VidurSession& session = shared_session();
  SimObs obs;
  obs.rolling_window_s = 5.0;
  const SimulationMetrics m =
      session.simulate(autoscaled_config(), bursty_trace(60), {}, obs);

  ASSERT_FALSE(m.rolling.empty());
  EXPECT_EQ(m.rolling[0].name, "cluster");
  std::int64_t arrivals = 0, completions = 0;
  Seconds prev_end = 0.0;
  for (const WindowSample& w : m.rolling[0].windows) {
    EXPECT_DOUBLE_EQ(w.start, prev_end);  // consecutive, gap-free
    prev_end = w.end;
    arrivals += w.arrivals;
    completions += w.completions;
  }
  EXPECT_EQ(arrivals, 60);
  EXPECT_EQ(completions, static_cast<std::int64_t>(m.num_completed));
  EXPECT_DOUBLE_EQ(prev_end, m.makespan);
}

// ------------------------------------- exact per-pool attribution (pin)

TEST(PoolAttribution, TwoPoolRunMatchesHandComputedValues) {
  // Scripted run: two pools with different SKU rates, one batch each, all
  // numbers chosen so MFU/MBU/energy are exact by hand.
  PoolResources fast;  // slot 0
  fast.name = "fast";
  fast.gpus_per_replica = 1;
  fast.peak_flops_per_gpu = 100.0;
  fast.hbm_bytes_per_sec_per_gpu = 50.0;
  fast.idle_watts_per_gpu = 10.0;
  fast.peak_watts_per_gpu = 110.0;
  PoolResources slow;  // slot 1: half the FLOPs, double the bandwidth
  slow.name = "slow";
  slow.gpus_per_replica = 1;
  slow.peak_flops_per_gpu = 50.0;
  slow.hbm_bytes_per_sec_per_gpu = 100.0;
  slow.idle_watts_per_gpu = 20.0;
  slow.peak_watts_per_gpu = 120.0;
  MetricsCollector collector({fast, slow}, {0, 1});

  BatchRecord b0;  // 4 s on the fast pool at 50% FLOP / 25% BW intensity
  b0.replica = 0;
  b0.start_time = 0.0;
  b0.end_time = 4.0;
  b0.flops = 200.0;
  b0.hbm_bytes_per_gpu = 50;
  b0.batch_size = 1;
  collector.record_batch(b0);

  BatchRecord b1;  // 2 s on the slow pool at 100% FLOP / 50% BW intensity
  b1.replica = 1;
  b1.start_time = 0.0;
  b1.end_time = 2.0;
  b1.flops = 100.0;
  b1.hbm_bytes_per_gpu = 100;
  b1.batch_size = 1;
  collector.record_batch(b1);

  // Paid time: each pool billed one replica for the full 10 s run.
  ClusterScalingReport scaling;
  scaling.fleet_size = 2;
  scaling.replica_hours = 20.0 / 3600.0;
  scaling.gpu_hours = 20.0 / 3600.0;
  for (const PoolResources& res : {fast, slow}) {
    PoolScalingReport pool;
    pool.name = res.name;
    pool.slots = 1;
    pool.gpus_per_replica = res.gpus_per_replica;
    pool.replica_hours = 10.0 / 3600.0;
    pool.gpu_hours = 10.0 / 3600.0;
    scaling.pools.push_back(pool);
  }

  const SimulationMetrics m = collector.finalize(10.0, scaling);
  ASSERT_EQ(m.scaling.pools.size(), 2u);
  const PoolScalingReport& f = m.scaling.pools[0];
  const PoolScalingReport& s = m.scaling.pools[1];

  // fast: 200 flops / (10 s * 100 flop/s) = 0.2; 50 B / (10 s * 50 B/s)
  // = 0.1; busy 4/10; energy = 4 s * (10 + 100 * max(0.5, 0.25)) W
  // + 6 idle s * 10 W = 240 + 60 = 300 J.
  EXPECT_DOUBLE_EQ(f.mfu, 0.2);
  EXPECT_DOUBLE_EQ(f.mbu, 0.1);
  EXPECT_DOUBLE_EQ(f.busy_fraction, 0.4);
  EXPECT_DOUBLE_EQ(f.energy_joules, 300.0);

  // slow: 100 / (10 * 50) = 0.2; 100 / (10 * 100) = 0.1; busy 2/10;
  // energy = 2 s * (20 + 100 * max(1.0, 0.5)) W + 8 idle s * 20 W
  // = 240 + 160 = 400 J.
  EXPECT_DOUBLE_EQ(s.mfu, 0.2);
  EXPECT_DOUBLE_EQ(s.mbu, 0.1);
  EXPECT_DOUBLE_EQ(s.busy_fraction, 0.2);
  EXPECT_DOUBLE_EQ(s.energy_joules, 400.0);

  // Fleet figures are exact sums over the pools: 300 flops / (10 s * (100
  // + 50) flop/s) = 0.2; 150 B / (10 s * (50 + 100) B/s) = 0.1; energy is
  // the pools' own 300 J + 400 J.
  EXPECT_DOUBLE_EQ(m.mfu, 0.2);
  EXPECT_DOUBLE_EQ(m.mbu, 0.1);
  EXPECT_DOUBLE_EQ(m.total_energy_joules, 700.0);
  EXPECT_DOUBLE_EQ(m.mean_cluster_power_watts, 70.0);
  EXPECT_DOUBLE_EQ(m.busy_fraction, 6.0 / 20.0);
}

// ------------------------------------------------- ObsSpec round-trips

TEST(ObsSpec, RoundTripsAndDefaultsAreOmitted) {
  ExperimentSpec spec;
  spec.obs.trace = true;
  spec.obs.trace_capacity = 4096;
  spec.obs.rolling_window_s = 30.0;
  const ExperimentSpec reparsed = ExperimentSpec::from_json(spec.to_json());
  EXPECT_EQ(reparsed, spec);
  EXPECT_EQ(reparsed.obs.trace_capacity, 4096);

  // A default obs section stays out of the canonical serialization.
  EXPECT_EQ(ExperimentSpec{}.to_json().find("obs"), nullptr);
}

TEST(ObsSpec, ValidateRejectsDegenerateValues) {
  ExperimentSpec spec;
  spec.obs.trace_capacity = 0;
  EXPECT_THROW(spec.validate(), Error);
  spec = ExperimentSpec{};
  spec.obs.rolling_window_s = -1.0;
  EXPECT_THROW(spec.validate(), Error);
}

TEST(RunExperiment, TraceSpecProducesValidatedTraceDocument) {
  ExperimentSpec spec;
  spec.with_trace("chat1m", 2.0, 40).with_seed(9);
  spec.obs.trace = true;
  spec.obs.rolling_window_s = 10.0;
  const ExperimentResult result = run_experiment(spec);
  ASSERT_TRUE(result.has_trace());
  const TraceValidation v = validate_chrome_trace(result.trace);
  EXPECT_GT(v.num_complete_spans, 0u);
  // Rolling + registry sections ride along in the result JSON.
  const JsonValue j = result.to_json();
  ASSERT_NE(j.find("registry"), nullptr);
  ASSERT_NE(j.find("rolling"), nullptr);
  ASSERT_NE(j.find("estimator"), nullptr);
  EXPECT_GT(j.at("estimator").at("cache_hits").as_int(), 0);
}

// ------------------------------------------------------- vidur compare

TEST(CompareJson, EqualDocumentsProduceNoEntries) {
  const JsonValue doc = JsonValue::parse(
      R"({"a": 1, "b": [1.0, {"c": "x"}], "d": null})");
  const CompareReport report = compare_json(doc, doc, 0.0);
  EXPECT_TRUE(report.entries.empty());
  EXPECT_TRUE(report.within_tolerance());
  EXPECT_NE(report.to_string().find("match"), std::string::npos);
}

TEST(CompareJson, NumericDriftRespectsTolerance) {
  const JsonValue a = JsonValue::parse(R"({"qps": 100.0, "p99": 1.0})");
  const JsonValue b = JsonValue::parse(R"({"qps": 101.0, "p99": 1.5})");
  const CompareReport report = compare_json(a, b, 0.02);
  ASSERT_EQ(report.entries.size(), 2u);
  EXPECT_EQ(report.num_numeric(), 2u);
  EXPECT_EQ(report.num_exceeding(), 1u);  // 1% within, 33% beyond
  EXPECT_FALSE(report.within_tolerance());

  const CompareEntry& p99 = report.entries[1];
  EXPECT_EQ(p99.path, "p99");
  EXPECT_NEAR(p99.rel_delta, 0.5 / 1.5, 1e-12);
}

TEST(CompareJson, StructuralDifferencesAlwaysExceed) {
  const JsonValue a =
      JsonValue::parse(R"({"kept": 1, "gone": 2, "t": "x", "arr": [1, 2]})");
  const JsonValue b =
      JsonValue::parse(R"({"kept": 1, "added": 3, "t": 4, "arr": [1]})");
  const CompareReport report = compare_json(a, b, 1.0);
  EXPECT_FALSE(report.within_tolerance());

  std::vector<std::string> paths;
  for (const CompareEntry& e : report.entries) paths.push_back(e.path);
  EXPECT_EQ(paths, (std::vector<std::string>{"gone", "t", "arr[1]", "added"}));
  EXPECT_EQ(report.entries[0].kind, CompareEntry::Kind::kOnlyInA);
  EXPECT_EQ(report.entries[1].kind, CompareEntry::Kind::kTypeChanged);
  EXPECT_EQ(report.entries[2].kind, CompareEntry::Kind::kOnlyInA);
  EXPECT_EQ(report.entries[3].kind, CompareEntry::Kind::kOnlyInB);
}

TEST(CompareJson, IntAndDoubleRepresentationsCompareAsNumbers) {
  const JsonValue a = JsonValue::parse(R"({"n": 5})");
  const JsonValue b = JsonValue::parse(R"({"n": 5.0})");
  EXPECT_TRUE(compare_json(a, b, 0.0).entries.empty());
}

TEST(CompareJson, MissingSubtreeReportsEveryAbsentLeaf) {
  // A whole section present on one side only (e.g. a result that was run
  // with obs.analyze against one that was not) must expand to one row per
  // leaf — not collapse into a single "<object, N keys>" summary.
  const JsonValue a = JsonValue::parse(R"({
    "metrics": {"qps": 1.0},
    "analysis": {
      "schema": 2,
      "requests": {"completed": 5, "incomplete": 0},
      "waterfalls": [{"id": 0}, {"id": 1}],
      "empty": {}
    }
  })");
  const JsonValue b = JsonValue::parse(R"({"metrics": {"qps": 1.0}})");
  const CompareReport report = compare_json(a, b, 1.0);

  std::vector<std::string> paths;
  for (const CompareEntry& e : report.entries) {
    EXPECT_EQ(e.kind, CompareEntry::Kind::kOnlyInA) << e.path;
    paths.push_back(e.path);
  }
  EXPECT_EQ(paths, (std::vector<std::string>{
                       "analysis.schema", "analysis.requests.completed",
                       "analysis.requests.incomplete",
                       "analysis.waterfalls[0].id",
                       "analysis.waterfalls[1].id", "analysis.empty"}));
  // Structural rows always fail the comparison — `vidur compare` exits 1.
  EXPECT_EQ(report.num_exceeding(), report.entries.size());
  EXPECT_FALSE(report.within_tolerance());
}

// ---------------------------------------------- raw-record trace sidecar

TEST(TraceSidecar, RecordsRoundTripBitForBit) {
  VidurSession& session = shared_session();
  TraceRecorder recorder;
  SimObs obs;
  obs.trace = &recorder;
  session.simulate(autoscaled_config(), bursty_trace(40), {}, obs);
  const std::vector<TraceRecord> records = recorder.records();
  ASSERT_FALSE(records.empty());

  // Through the sidecar encoding and a text round-trip: still identical.
  const JsonValue sidecar =
      JsonValue::parse(trace_records_json(records).dump());
  const std::vector<TraceRecord> reloaded = trace_records_from_json(sidecar);
  ASSERT_EQ(reloaded.size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i)
    ASSERT_EQ(reloaded[i], records[i]) << "record " << i;

  // The Chrome export embeds the sidecar, and validation counts it.
  const JsonValue doc = chrome_trace_json(records);
  EXPECT_EQ(validate_chrome_trace(doc).num_raw_records, records.size());
  const std::vector<TraceRecord> from_doc =
      trace_records_from_json(doc.at("vidur"));
  EXPECT_EQ(from_doc.size(), records.size());
}

TEST(TraceSidecar, SchemaMismatchIsRejected) {
  JsonValue sidecar = trace_records_json({TraceRecord{}});
  sidecar.set("schema",
              static_cast<std::int64_t>(kTraceSchemaVersion + 1));
  EXPECT_THROW(trace_records_from_json(sidecar), Error);

  JsonValue doc = chrome_trace_json({TraceRecord{}});
  JsonValue bad = doc.at("vidur");
  bad.set("schema", static_cast<std::int64_t>(1));
  doc.set("vidur", std::move(bad));
  EXPECT_THROW(validate_chrome_trace(doc), Error);
}

/// A one-record sidecar whose record has `field` (0-based) replaced.
JsonValue sidecar_with(std::size_t field, JsonValue value) {
  TraceRecord record;
  record.kind = TraceEventKind::kArrival;
  record.time = 1.0;
  const JsonValue doc = trace_records_json({record});
  JsonValue row = doc.at("records").items().front();
  JsonValue patched = JsonValue::array();
  for (std::size_t i = 0; i < row.items().size(); ++i)
    patched.push(i == field ? value : row.items()[i]);
  JsonValue rows = JsonValue::array();
  rows.push(std::move(patched));
  JsonValue out = doc;
  out.set("records", std::move(rows));
  return out;
}

void expect_rejected(const JsonValue& sidecar, const std::string& field) {
  try {
    trace_records_from_json(sidecar);
    ADD_FAILURE() << "sidecar with a bad " << field << " loaded";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("trace record 1 has " + field), std::string::npos)
        << what;
  }
}

TEST(TraceSidecar, DetailOutsideEightBitsIsRejected) {
  expect_rejected(sidecar_with(1, JsonValue(std::int64_t{256})), "detail");
  expect_rejected(sidecar_with(1, JsonValue(std::int64_t{-1})), "detail");
  EXPECT_EQ(trace_records_from_json(
                sidecar_with(1, JsonValue(std::int64_t{255})))[0]
                .detail,
            255);
}

TEST(TraceSidecar, ReplicaOutside32BitsIsRejected) {
  expect_rejected(sidecar_with(2, JsonValue(std::int64_t{2147483648})),
                  "replica");
  expect_rejected(sidecar_with(2, JsonValue(std::int64_t{-2})), "replica");
  EXPECT_EQ(trace_records_from_json(
                sidecar_with(2, JsonValue(std::int64_t{2147483647})))[0]
                .replica,
            2147483647);
}

TEST(TraceSidecar, NegativeTimeIsRejected) {
  expect_rejected(sidecar_with(6, JsonValue(-5.0)), "time");
  EXPECT_EQ(trace_records_from_json(sidecar_with(6, JsonValue(0.0)))[0].time,
            0.0);
}

TEST(TraceSidecar, AnalysisRefusesRecordsOutOfTimeOrder) {
  // A damaged sidecar can load with its records out of order; analysis
  // cuts spans at record times and must refuse it, naming the record.
  TraceRecord arrival;
  arrival.kind = TraceEventKind::kArrival;
  arrival.time = 2.0;
  TraceRecord scheduled;
  scheduled.kind = TraceEventKind::kScheduled;
  scheduled.replica = 0;
  scheduled.a = -1;
  scheduled.time = 1.0;
  try {
    analyze_trace({arrival, scheduled});
    ADD_FAILURE() << "out-of-order records were analyzed";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("trace record 2 (time 1)"),
              std::string::npos)
        << e.what();
  }
}

TEST(TraceSidecar, MutatedSidecarFailsOnlyWithVidurErrors) {
  // Seeded byte flips, truncations, short deletions, hostile token
  // insertions and number swaps in the sidecar of a small traced run. Each
  // mutant must import and analyze, or throw vidur::Error; every record
  // that imports must hold the field ranges the engine relies on.
  VidurSession& session = shared_session();
  TraceRecorder recorder;
  SimObs obs;
  obs.trace = &recorder;
  session.simulate(autoscaled_config(), bursty_trace(12), {}, obs);
  const std::string text = trace_records_json(recorder.records()).dump(0);
  std::vector<std::size_t> numbers;  // offsets of array-element numbers
  for (std::size_t i = 2; i < text.size(); ++i)
    if ((text[i - 2] == '[' || text[i - 2] == ',') && text[i - 1] == '\n' &&
        (text[i] == '-' || (text[i] >= '0' && text[i] <= '9')))
      numbers.push_back(i);
  ASSERT_GT(numbers.size(), 100u);
  const std::vector<std::string> tokens = {
      "-1", "-2", "-5", "256", "255", "-0", "0.5", "1e400", "-1e400",
      "2147483647", "2147483648", "-2147483649", "9223372036854775807",
      "9223372036854775808", "nan", "[", "]", ",", "{}"};
  Rng rng(20261018);
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
        const std::size_t end = mutant.find_first_of(",\n]", at);
        mutant.replace(at, end - at, tokens[below(tokens.size())]);
      }
    }
    try {
      const std::vector<TraceRecord> records =
          trace_records_from_json(JsonValue::parse(mutant));
      ++loaded;
      for (const TraceRecord& r : records) {
        EXPECT_GE(r.replica, -1) << mutant;
        EXPECT_TRUE(std::isfinite(r.time) && r.time >= 0) << mutant;
      }
      const AnalysisReport report = analyze_trace(records);
      EXPECT_FALSE(analysis_to_string(report).empty());
    } catch (const Error&) {
    } catch (const std::exception& e) {
      ADD_FAILURE() << e.what() << " escaped for\n" << mutant;
    }
  }
  // Enough mutants must import for the checks to mean something.
  EXPECT_GT(loaded, 500);
}

TEST(TraceSidecar, ScheduledRecordsCarryQueueEntryAndResumeMarkers) {
  // Schema v2 field contract on a real run: every first kScheduled carries
  // a plausible queue-entry timestamp, resumes carry none; completions
  // carry a final batch size; arrivals carry the tenant tag.
  VidurSession& session = shared_session();
  TraceRecorder recorder;
  SimObs obs;
  obs.trace = &recorder;
  session.simulate(autoscaled_config(), bursty_trace(40), {}, obs);

  std::size_t first_scheds = 0, completions = 0;
  for (const TraceRecord& r : recorder.records()) {
    if (r.kind == TraceEventKind::kScheduled && r.detail == 0) {
      ++first_scheds;
      ASSERT_GE(r.a, 0);  // queue-entry nanoseconds, always known here
      EXPECT_LE(static_cast<double>(r.a) * 1e-9, r.time + 1e-9);
    }
    if (r.kind == TraceEventKind::kScheduled && r.detail == 1) {
      EXPECT_EQ(r.a, -1);
    }
    if (r.kind == TraceEventKind::kCompleted) {
      ++completions;
      EXPECT_GT(r.b, 0);  // final batch size
    }
    if (r.kind == TraceEventKind::kPrefillDone && r.detail == 0) {
      EXPECT_GT(r.a, 0);  // completing batch size
    }
  }
  EXPECT_EQ(first_scheds, 40u);
  EXPECT_EQ(completions, 40u);
}

}  // namespace
}  // namespace vidur
