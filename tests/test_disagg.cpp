// Tests for disaggregated prefill/decode serving (Splitwise / DistServe,
// paper §2.2): role assignment, KV-transfer hand-off, decode-side admission,
// and the latency signature that motivates the technique.
#include <gtest/gtest.h>

#include <algorithm>

#include "sim/simulator.h"
#include "workload/trace_generator.h"

namespace vidur {
namespace {

SimulationConfig disagg_config(int prefill_replicas, int decode_replicas,
                               SchedulerKind unified_kind = SchedulerKind::kVllm) {
  SimulationConfig config;
  config.model = model_by_name("llama2-7b");
  config.node.sku = sku_by_name("a100");
  config.parallel = ParallelConfig{1, 1, prefill_replicas + decode_replicas};
  config.scheduler.kind = unified_kind;  // ignored when disagg is on
  config.scheduler.max_batch_size = 32;
  config.scheduler.chunk_size = 512;
  config.disagg.num_prefill_replicas = prefill_replicas;
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

Trace poisson_trace(int n, double qps, std::uint64_t seed = 11) {
  return generate_trace(trace_by_name("chat1m"),
                        ArrivalSpec{ArrivalKind::kPoisson, qps, 0}, n, seed);
}

TEST(Disagg, CompletesAllRequests) {
  const SimulationConfig config = disagg_config(1, 1);
  const Trace trace = poisson_trace(60, 1.0);
  Simulator sim(config, trace, reference_factory(config));
  const SimulationMetrics m = sim.run();
  EXPECT_EQ(m.num_completed, 60u);
  EXPECT_GT(m.ttft.p50, 0.0);
  EXPECT_GT(m.tbt.p50, 0.0);
  for (const RequestState& r : sim.request_states()) {
    EXPECT_TRUE(r.finished());
    EXPECT_GE(r.record.e2e_latency(), r.record.ttft());
  }
}

TEST(Disagg, MultiTokenRequestsFinishOnDecodeReplicas) {
  const SimulationConfig config = disagg_config(1, 2);
  Trace trace;
  for (int i = 0; i < 24; ++i) trace.push_back(Request{i, 0.1 * i, 256, 32});
  Simulator sim(config, trace, reference_factory(config));
  sim.run();
  for (const RequestState& r : sim.request_states()) {
    EXPECT_TRUE(r.finished());
    // Final owner is the decode replica it migrated to.
    EXPECT_GE(r.replica, 1);
    EXPECT_LE(r.replica, 2);
  }
}

TEST(Disagg, SingleTokenRequestsFinishOnPrefillReplica) {
  // decode_tokens == 1 means the first (prefill-produced) token completes
  // the request: no KV transfer, no decode replica involved.
  const SimulationConfig config = disagg_config(1, 1);
  Trace trace;
  for (int i = 0; i < 8; ++i) trace.push_back(Request{i, 0.0, 128, 1});
  Simulator sim(config, trace, reference_factory(config));
  const SimulationMetrics m = sim.run();
  EXPECT_EQ(m.num_completed, 8u);
  for (const RequestState& r : sim.request_states()) EXPECT_EQ(r.replica, 0);
}

TEST(Disagg, DecodeRepliasNeverPreempt) {
  // Conservative admission on the decode role must never throw away a
  // transferred KV cache, even under memory pressure.
  SimulationConfig config = disagg_config(1, 1);
  config.memory_utilization = 0.3;
  const Trace trace = generate_trace(
      trace_by_name("bwb4k"), ArrivalSpec{ArrivalKind::kStatic, 0, 0}, 24, 9);
  Simulator sim(config, trace, reference_factory(config));
  const SimulationMetrics m = sim.run();
  EXPECT_EQ(m.num_completed, 24u);
  EXPECT_EQ(m.num_restarts, 0);
}

TEST(Disagg, TransferLatencyDelaysDecodeNotTtft) {
  // The KV transfer happens after the first token, so a large transfer
  // latency inflates e2e latency but leaves TTFT essentially unchanged.
  Trace trace;
  for (int i = 0; i < 16; ++i) trace.push_back(Request{i, 0.5 * i, 256, 16});

  SimulationConfig fast = disagg_config(1, 1);
  fast.disagg.transfer_latency = 0.0;
  Simulator sim_fast(fast, trace, reference_factory(fast, 3));
  const SimulationMetrics m_fast = sim_fast.run();

  SimulationConfig slow = disagg_config(1, 1);
  slow.disagg.transfer_latency = 0.5;
  Simulator sim_slow(slow, trace, reference_factory(slow, 3));
  const SimulationMetrics m_slow = sim_slow.run();

  EXPECT_NEAR(m_slow.ttft.p50, m_fast.ttft.p50, 1e-6);
  EXPECT_GT(m_slow.normalized_e2e_latency.p50,
            m_fast.normalized_e2e_latency.p50);
}

TEST(Disagg, SlowerTransferLinkRaisesLatency) {
  Trace trace;
  for (int i = 0; i < 16; ++i) trace.push_back(Request{i, 0.5 * i, 2048, 16});

  SimulationConfig fast = disagg_config(1, 1);
  fast.disagg.transfer_bandwidth_gbps = 100.0;
  Simulator sim_fast(fast, trace, reference_factory(fast, 3));
  const double fast_e2e = sim_fast.run().normalized_e2e_latency.p50;

  SimulationConfig slow = disagg_config(1, 1);
  slow.disagg.transfer_bandwidth_gbps = 1.0;
  Simulator sim_slow(slow, trace, reference_factory(slow, 3));
  const double slow_e2e = sim_slow.run().normalized_e2e_latency.p50;

  EXPECT_GT(slow_e2e, fast_e2e);
}

TEST(Disagg, ShieldsDecodesFromPrefillInterference) {
  // The motivating effect (paper §2.2): a unified prefill-prioritizing
  // scheduler pauses ongoing decodes to run arriving prompts, producing TBT
  // spikes; disaggregation gives decodes their own replica, so tail TBT
  // drops even though total GPU count is equal.
  Trace trace;
  for (int i = 0; i < 48; ++i) trace.push_back(Request{i, 0.25 * i, 1024, 96});

  SimulationConfig unified = disagg_config(1, 1);
  unified.disagg.num_prefill_replicas = 0;  // plain 2-replica vLLM
  Simulator sim_unified(unified, trace, reference_factory(unified, 5));
  const SimulationMetrics m_unified = sim_unified.run();

  const SimulationConfig split = disagg_config(1, 1);
  Simulator sim_split(split, trace, reference_factory(split, 5));
  const SimulationMetrics m_split = sim_split.run();

  EXPECT_EQ(m_split.num_completed, 48u);
  EXPECT_LT(m_split.tbt.p99, m_unified.tbt.p99);
}

TEST(Disagg, RequiresOneDecodeReplica) {
  SimulationConfig config = disagg_config(1, 1);
  config.disagg.num_prefill_replicas = 2;  // == num_replicas: no decode role
  EXPECT_THROW(
      Simulator(config, poisson_trace(4, 1.0), reference_factory(config)),
      Error);
}

TEST(Disagg, BadTransferParametersThrow) {
  SimulationConfig config = disagg_config(1, 1);
  config.disagg.transfer_bandwidth_gbps = 0.0;
  EXPECT_THROW(
      Simulator(config, poisson_trace(4, 1.0), reference_factory(config)),
      Error);
  SimulationConfig config2 = disagg_config(1, 1);
  config2.disagg.transfer_latency = -1.0;
  EXPECT_THROW(
      Simulator(config2, poisson_trace(4, 1.0), reference_factory(config2)),
      Error);
}

TEST(Disagg, DeterministicForSameSeed) {
  const SimulationConfig config = disagg_config(2, 2);
  const Trace trace = poisson_trace(40, 2.0);
  Simulator a(config, trace, reference_factory(config, 7));
  Simulator b(config, trace, reference_factory(config, 7));
  EXPECT_DOUBLE_EQ(a.run().makespan, b.run().makespan);
}

TEST(Disagg, ComposesWithDeferredGlobalScheduler) {
  // Deferred routing parks arrivals centrally; only prefill replicas may
  // pull them, decode replicas still receive work via hand-off only.
  SimulationConfig config = disagg_config(2, 2);
  config.global_scheduler = GlobalSchedulerKind::kDeferred;
  const Trace trace = poisson_trace(50, 3.0);
  Simulator sim(config, trace, reference_factory(config));
  const SimulationMetrics m = sim.run();
  EXPECT_EQ(m.num_completed, 50u);
  for (const RequestState& r : sim.request_states()) {
    if (r.request.decode_tokens > 1) {
      EXPECT_GE(r.replica, 2);
    }
  }
}

TEST(Disagg, ComposesWithAsyncPipelineParallelism) {
  SimulationConfig config = disagg_config(1, 1);
  config.parallel.tensor_parallel = 1;
  config.parallel.pipeline_parallel = 2;
  config.async_pipeline_comm = true;
  const Trace trace = poisson_trace(30, 1.0);
  Simulator sim(config, trace, reference_factory(config));
  EXPECT_EQ(sim.run().num_completed, 30u);
}

// Property sweep: every trace x role split completes everything with sane
// per-request invariants (prefill time precedes completion, no restarts on
// decode replicas, monotone token times).
struct DisaggCase {
  const char* trace;
  int prefill;
  int decode;
};

class DisaggPropertyTest : public ::testing::TestWithParam<DisaggCase> {};

TEST_P(DisaggPropertyTest, CompletesWithRequestInvariants) {
  const DisaggCase& param = GetParam();
  const SimulationConfig config = disagg_config(param.prefill, param.decode);
  const Trace trace =
      generate_trace(trace_by_name(param.trace),
                     ArrivalSpec{ArrivalKind::kPoisson, 1.0, 0}, 40, 17);
  Simulator sim(config, trace, reference_factory(config));
  const SimulationMetrics m = sim.run();
  EXPECT_EQ(m.num_completed, 40u);
  EXPECT_EQ(m.num_restarts, 0);  // both roles are preemption-free
  for (const RequestState& r : sim.request_states()) {
    EXPECT_TRUE(r.finished());
    EXPECT_GE(r.record.prefill_completed_time,
              r.record.first_scheduled_time);
    EXPECT_GE(r.record.completed_time, r.record.prefill_completed_time);
    EXPECT_TRUE(std::is_sorted(r.record.token_times.begin(),
                               r.record.token_times.end()));
  }
}

INSTANTIATE_TEST_SUITE_P(
    TracesAndSplits, DisaggPropertyTest,
    ::testing::Values(DisaggCase{"chat1m", 1, 1}, DisaggCase{"chat1m", 1, 3},
                      DisaggCase{"chat1m", 3, 1}, DisaggCase{"arxiv4k", 2, 2},
                      DisaggCase{"bwb4k", 1, 3}),
    [](const ::testing::TestParamInfo<DisaggCase>& info) {
      return std::string(info.param.trace) + "_" +
             std::to_string(info.param.prefill) + "P" +
             std::to_string(info.param.decode) + "D";
    });

}  // namespace
}  // namespace vidur
