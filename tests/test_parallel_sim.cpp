// Cross-thread determinism suite for the sharded simulation core: the
// `execution.threads` knob must never change results. Same-seed runs at
// threads=1/2/8 are compared *byte for byte* — result JSON (headline
// metrics + full registry snapshot) and the exported trace document — for
//
//   - the committed golden chaos/cache specs (spot-churn, session-chat),
//     whose cache-aware routing keeps them on the central path, and
//   - a round-robin fleet that actually engages the sharded engine when
//     untraced; its traced run plays on the central queue and must agree
//     with it, request records included,
//
// plus the error a failing shard reports (the lowest-numbered shard's, at
// every thread count), the spec-layer contract (threads round-trips
// losslessly, invalid values rejected), the run_sweep() ordering pin
// (results keyed by sweep index, byte-stable across worker counts), and
// the hardware_threads() clamp pin.
#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "api/result.h"
#include "api/run.h"
#include "common/check.h"
#include "common/thread_pool.h"
#include "obs/trace.h"
#include "sim/simulator.h"
#include "workload/trace_generator.h"

namespace vidur {
namespace {

ExperimentSpec load_spec(const std::string& name) {
  const std::string path = std::string(VIDUR_SPEC_DIR) + "/" + name;
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream text;
  text << in.rdbuf();
  return ExperimentSpec::from_json_string(text.str());
}

/// One run's complete observable output, serialized for byte comparison.
struct RunDump {
  std::string result;  ///< ExperimentResult::to_json() (metrics + registry)
  std::string trace;   ///< Chrome trace document (the run's trace records)
};

/// Run `spec` at the given thread count in a fresh session (cold estimator
/// cache, so the cache-traffic counters are comparable across runs).
RunDump run_fresh(ExperimentSpec spec, int threads) {
  spec.deployment.threads = threads;
  spec.obs.trace = true;
  const ExperimentResult result = run_experiment(spec);
  EXPECT_FALSE(result.failed()) << result.error;
  return {result.to_json().dump(), result.trace.dump()};
}

/// Same, against a caller-owned (typically pre-warmed) session.
RunDump run_shared(VidurSession& session, ExperimentSpec spec, int threads,
                   bool traced) {
  spec.deployment.threads = threads;
  spec.obs.trace = traced;
  const ExperimentResult result = run_experiment(session, spec);
  EXPECT_FALSE(result.failed()) << result.error;
  return {result.to_json().dump(), result.trace.dump()};
}

TEST(ParallelSim, GoldenSpecsBitIdenticalAcrossThreadCounts) {
  // The committed chaos and prefix-cache specs: autoscaling, fault
  // injection, cache-aware routing and tracing all enabled. Their routing
  // needs fleet-global state every decision, so the engine must keep them
  // on the central path — and the knob must be a provable no-op.
  for (const char* name : {"spot-churn.json", "session-chat.json"}) {
    const ExperimentSpec spec = load_spec(name);
    const RunDump base = run_fresh(spec, 1);
    for (const int threads : {2, 8}) {
      const RunDump run = run_fresh(spec, threads);
      EXPECT_EQ(run.result, base.result)
          << name << ": result JSON diverged at threads=" << threads;
      EXPECT_EQ(run.trace, base.trace)
          << name << ": trace diverged at threads=" << threads;
    }
  }
}

TEST(ParallelSim, ShardedFleetBitIdenticalAcrossThreadCounts) {
  // A deployment the sharded engine actually parallelizes when untraced:
  // static round-robin fleet, no pools/autoscale/faults. The session is
  // shared and pre-warmed so the estimator-cache traffic attributed to
  // each measured run is identical (all hits) regardless of which shard
  // thread performs the lookups. Traced, the fleet plays on the central
  // queue, so its result and trace document are thread-count-free too.
  ExperimentSpec spec;
  spec.name = "parallel-fleet";
  spec.with_parallelism(1, 1, 8)
      .with_scheduler(SchedulerKind::kVllm, 64)
      .with_trace("chat1m", 8.0, 800)
      .with_seed(7);

  VidurSession session(model_by_name(spec.model));
  run_shared(session, spec, 1, false);  // warm the estimator cache, discarded

  const RunDump base = run_shared(session, spec, 1, false);
  const RunDump traced = run_shared(session, spec, 1, true);
  for (const int threads : {2, 8}) {
    EXPECT_EQ(run_shared(session, spec, threads, false).result, base.result)
        << "result JSON diverged at threads=" << threads;
    const RunDump run = run_shared(session, spec, threads, true);
    EXPECT_EQ(run.result, traced.result)
        << "traced result JSON diverged at threads=" << threads;
    EXPECT_EQ(run.trace, traced.trace)
        << "trace diverged at threads=" << threads;
  }
}

/// A request record as text: lifecycle fields, then every token time and
/// the batch-end runs they are stored as, doubles in hexfloat (exact).
std::string record_text(const RequestRecord& r) {
  std::ostringstream os;
  os << std::hexfloat << r.id << ' ' << r.tenant << ' ' << r.arrival_time
     << ' ' << r.first_scheduled_time << ' ' << r.prefill_completed_time
     << ' ' << r.completed_time << ' ' << r.prefill_tokens << ' '
     << r.decode_tokens << ' ' << r.num_restarts << ' ' << r.num_retries
     << ' ' << r.num_handoffs << ' ' << r.shed << r.lost << " |";
  for (const Seconds t : r.token_times) os << ' ' << t;
  os << " | " << r.token_times.worst_gap() << " |";
  for (const TokenTimes::Run& run : r.token_times.runs())
    os << ' ' << run.slot << ':' << run.first << '+' << run.count;
  return os.str();
}

TEST(ParallelSim, TracedFleetRunIsTheShardedRunsCentralReference) {
  // A fleet like the one above, driven through the Simulator so its
  // request records are visible. Untraced, it runs as one shard round with stable decode
  // windows; traced, it plays on the central queue, one event per
  // iteration. Both must report exactly the same run. Registry-free
  // predictors keep the estimator's cache counters, which count a cache
  // shared across runs, out of the comparison.
  SimulationConfig config;
  config.model = model_by_name("llama2-7b");
  config.node.sku = sku_by_name("a100");
  config.parallel = ParallelConfig{1, 1, 8};
  config.scheduler.kind = SchedulerKind::kVllm;
  config.scheduler.max_batch_size = 64;
  const Trace trace =
      generate_trace(trace_by_name("chat1m"),
                     ArrivalSpec{ArrivalKind::kPoisson, 8.0, 2.0}, 800, 7);
  VidurSession session(config.model);
  const RuntimeEstimator* estimator = &session.estimator("a100");
  const BackendFactory backends = [estimator, model = config.model,
                                   parallel = config.parallel](ReplicaId) {
    return std::make_unique<ExecutionTimePredictor>(estimator, model,
                                                    parallel);
  };

  struct Run {
    std::string result;
    std::vector<std::string> records;
  };
  const auto run = [&](TraceRecorder* recorder) {
    SimulationConfig observed = config;
    observed.obs.trace = recorder;
    Simulator sim(observed, trace, backends);
    Run out{metrics_to_json(sim.run()).dump(), {}};
    for (const RequestState& state : sim.request_states())
      out.records.push_back(record_text(state.record));
    return out;
  };
  TraceRecorder recorder;
  const Run sharded = run(nullptr);
  const Run central = run(&recorder);
  EXPECT_GT(recorder.num_emitted(), 0u);
  EXPECT_EQ(central.result, sharded.result)
      << "the central traced run diverged from the sharded one";
  EXPECT_EQ(central.records, sharded.records)
      << "request records diverged between the central traced run and the "
         "sharded one";
}

TEST(ParallelSim, FailingShardsReportTheLowestNumberedShard) {
  // Round-robin over two replicas: request 0 decodes on replica 0, request
  // 1 reaches replica 1 at t = 0 and request 2 reaches replica 0 at
  // t = 30 s. Requests 1 and 2 can never fit the KV pool, so both shards'
  // enqueues throw, replica 1's first in wall time when the shards run in
  // parallel. run() must report replica 0's error, request 2, as the
  // serial loop over the shards does.
  const Trace trace = {
      Request{.id = 0, .arrival_time = 0.0, .prefill_tokens = 512,
              .decode_tokens = 2000},
      Request{.id = 1, .arrival_time = 0.0, .prefill_tokens = 4'000'000,
              .decode_tokens = 16},
      Request{.id = 2, .arrival_time = 30.0, .prefill_tokens = 4'000'000,
              .decode_tokens = 16}};
  for (const int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    SimulationConfig config;
    config.model = model_by_name("llama2-7b");
    config.node.sku = sku_by_name("a100");
    config.parallel = ParallelConfig{1, 1, 2};
    config.threads = threads;
    Simulator sim(config, trace,
                  [node = config.node, model = config.model,
                   parallel = config.parallel](ReplicaId r) {
                    return std::make_unique<ReferenceExecutor>(
                        node, model, parallel,
                        1 + static_cast<std::uint64_t>(r));
                  });
    try {
      sim.run();
      ADD_FAILURE() << "run() accepted requests that exceed the KV pool";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("request 2 ("), std::string::npos)
          << e.what();
    }
  }
}

TEST(ParallelSim, ThreadsKnobRoundTripsLosslessly) {
  // Non-default values survive to_json/from_json; the default is omitted
  // entirely so committed specs stay canonically serialized.
  ExperimentSpec spec;
  spec.deployment.threads = 4;
  const std::string text = spec.to_json_string();
  EXPECT_NE(text.find("\"execution\""), std::string::npos);
  EXPECT_EQ(ExperimentSpec::from_json_string(text).deployment.threads, 4);

  spec.deployment.threads = 1;
  EXPECT_EQ(spec.to_json_string().find("\"execution\""), std::string::npos);
}

TEST(ParallelSim, ThreadsKnobValidation) {
  ExperimentSpec spec;
  spec.deployment.threads = 0;
  EXPECT_THROW(spec.validate(), Error);

  spec.deployment.threads = 2;
  EXPECT_NO_THROW(spec.validate());

  // Disaggregated deployments synchronize on KV transfers every iteration;
  // the sharded core refuses them rather than silently serializing.
  spec.deployment.disagg.num_prefill_replicas = 1;
  spec.deployment.parallel.num_replicas = 2;
  EXPECT_THROW(spec.validate(), Error);
}

TEST(ParallelSim, SweepResultsKeyedBySweepIndex) {
  // run_sweep must key results by sweep index, not worker completion
  // order: the same sweep run with 1 worker and 4 workers must produce
  // byte-identical JSON at every index. Reference mode keeps the runs
  // estimator-free, so there is no shared-cache traffic to attribute and
  // the comparison can be exact.
  ExperimentSpec spec;
  spec.name = "sweep-order";
  spec.mode = ExperimentMode::kReference;
  spec.with_trace("chat1m", 2.0, 60).with_seed(11);
  spec.sweep.qps = {0.5, 1.0, 2.0, 4.0};
  spec.sweep.num_replicas = {1, 2};

  const std::vector<ExperimentSpec> points = spec.expand_sweep();
  ASSERT_EQ(points.size(), 8u);

  spec.num_threads = 1;
  const std::vector<ExperimentResult> serial = run_sweep(spec);
  spec.num_threads = 4;
  const std::vector<ExperimentResult> pooled = run_sweep(spec);
  ASSERT_EQ(serial.size(), points.size());
  ASSERT_EQ(pooled.size(), points.size());

  for (std::size_t i = 0; i < points.size(); ++i) {
    // Each slot holds the point the expansion order put there...
    EXPECT_EQ(serial[i].spec.name, points[i].name);
    EXPECT_EQ(pooled[i].spec.name, points[i].name);
    EXPECT_EQ(pooled[i].spec.workload.arrival.qps,
              points[i].workload.arrival.qps);
    // ...and its payload is byte-stable across worker counts.
    EXPECT_EQ(pooled[i].to_json().dump(), serial[i].to_json().dump())
        << "sweep point " << i << " (" << points[i].name
        << ") diverged across worker counts";
  }
}

TEST(ParallelSim, HardwareThreadsIsClampedToAtLeastOne) {
  // Every call site (run_sweep, search, bench meta) sizes pools off this;
  // std::thread::hardware_concurrency() may return 0 and must never
  // propagate.
  EXPECT_GE(hardware_threads(), 1u);
}

}  // namespace
}  // namespace vidur
