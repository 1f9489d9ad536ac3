// Tests for src/sim: the event queue and the end-to-end simulator across
// schedulers, parallelism configs and global routing policies.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <string>

#include "common/random.h"
#include "core/session.h"
#include "scenario/registry.h"
#include "sim/event_queue.h"
#include "sim/simulator.h"
#include "workload/trace_generator.h"

namespace vidur {
namespace {

// ------------------------------------------------------------ event queue

TEST(EventQueue, OrdersByTime) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(3.0, [&] { order.push_back(3); });
  q.schedule(1.0, [&] { order.push_back(1); });
  q.schedule(2.0, [&] { order.push_back(2); });
  while (!q.empty()) q.run_next();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(q.now(), 3.0);
}

TEST(EventQueue, SimultaneousEventsAreFifo) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) q.schedule(1.0, [&, i] { order.push_back(i); });
  while (!q.empty()) q.run_next();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(EventQueue, EventsCanScheduleEvents) {
  EventQueue q;
  int fired = 0;
  q.schedule(1.0, [&] {
    ++fired;
    q.schedule(2.0, [&] { ++fired; });
  });
  while (!q.empty()) q.run_next();
  EXPECT_EQ(fired, 2);
  EXPECT_DOUBLE_EQ(q.now(), 2.0);
}

TEST(EventQueue, SchedulingInThePastThrows) {
  EventQueue q;
  q.schedule(5.0, [] {});
  q.run_next();
  EXPECT_THROW(q.schedule(4.0, [] {}), Error);
}

TEST(EventQueue, RunNextOnEmptyThrows) {
  EventQueue q;
  EXPECT_THROW(q.run_next(), Error);
}

TEST(EventQueue, NowIsMonotonicAcrossInterleavedSchedules) {
  EventQueue q;
  Rng rng(17);
  Seconds last = -1.0;
  int executed = 0;
  // Events re-schedule future events at random offsets; now() must never
  // move backwards no matter how the heap interleaves them.
  std::function<void()> chain = [&] {
    EXPECT_GE(q.now(), last);
    last = q.now();
    ++executed;
    if (executed < 200) {
      q.schedule(q.now() + rng.uniform(0.0, 2.0), chain);
      q.schedule(q.now() + rng.uniform(0.0, 2.0), chain);
    }
  };
  q.schedule(0.5, chain);
  while (!q.empty()) q.run_next();
  EXPECT_GE(executed, 200);
  EXPECT_DOUBLE_EQ(q.now(), last);
}

TEST(EventQueue, TypedEventsInterleaveFifoWithCallbacks) {
  EventQueue q;
  std::vector<std::int64_t> order;
  auto typed = [&](EventKind kind, std::int64_t marker) {
    SimEvent ev;
    ev.kind = kind;
    ev.handle = marker;
    q.schedule_event(1.0, ev);
  };
  q.schedule(1.0, [&] { order.push_back(0); });
  typed(EventKind::kStageEnd, 1);
  q.schedule(1.0, [&] { order.push_back(2); });
  typed(EventKind::kDeliverToStage, 3);
  typed(EventKind::kStageEnd, 4);
  while (!q.empty())
    q.run_next([&](const SimEvent& ev) { order.push_back(ev.handle); });
  EXPECT_EQ(order, (std::vector<std::int64_t>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, MatchesReferenceOrderAcross10kRandomSchedules) {
  // Random interleaving of pushes and pops against a brute-force reference:
  // the heap must pop in exact (time, scheduling order) sequence. Times are
  // quantized so simultaneous events are common.
  EventQueue q;
  Rng rng(2024);
  std::vector<std::pair<Seconds, std::int64_t>> reference;  // insertion order
  std::int64_t next_id = 0;
  int executed = 0;
  const auto push = [&] {
    const Seconds t =
        q.now() + std::floor(rng.uniform(0.0, 40.0)) * 0.25;
    SimEvent ev;
    ev.kind = EventKind::kStageEnd;
    ev.handle = next_id;
    q.schedule_event(t, ev);
    reference.emplace_back(t, next_id++);
  };
  const auto pop = [&] {
    // Reference: earliest time, first-scheduled among ties.
    std::size_t best = 0;
    for (std::size_t i = 1; i < reference.size(); ++i)
      if (reference[i].first < reference[best].first) best = i;
    std::int64_t popped = -1;
    q.run_next([&](const SimEvent& ev) { popped = ev.handle; });
    EXPECT_EQ(popped, reference[best].second);
    EXPECT_DOUBLE_EQ(q.now(), reference[best].first);
    reference.erase(reference.begin() + static_cast<std::ptrdiff_t>(best));
    ++executed;
  };
  for (int step = 0; step < 10000; ++step) {
    if (reference.empty() || rng.uniform(0.0, 1.0) < 0.5)
      push();
    else
      pop();
  }
  while (!reference.empty()) pop();
  EXPECT_TRUE(q.empty());
  EXPECT_GE(executed, 4000);
}

TEST(EventQueue, ArrivalStreamPopsLikePushedArrivals) {
  // Seeded schedules run on two queues: one receives every arrival by
  // schedule_event() in trace order, the other the same arrivals as one
  // sorted stream. Ticks, callbacks and typed events go to both before the
  // stream (many at t=0) and during the run (some at exactly an arrival's
  // time). Pop order, now() and num_processed() must match step for step.
  struct Popped {
    int kind;  // 0 callback, 1 tick, 2 typed, 3 arrival
    std::int64_t id;
    Seconds now;
    std::uint64_t processed;
    bool operator==(const Popped&) const = default;
  };
  for (std::uint64_t seed = 0; seed < 300; ++seed) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    EventQueue pushed, streamed;
    std::vector<Popped> log[2];
    EventQueue* queues[2] = {&pushed, &streamed};
    for (int q = 0; q < 2; ++q)
      queues[q]->set_tick_handler([&log, q, queues] {
        log[q].push_back({1, -1, queues[q]->now(), 0});
      });
    const auto quantized = [&rng](Seconds base) {
      return base + std::floor(rng.uniform(0.0, 8.0)) * 0.5;
    };
    std::int64_t next_id = 0;
    std::vector<Seconds> arrival_times;
    // The same scheduling call on both queues at time `t`.
    const auto schedule_both = [&](Seconds t) {
      const std::int64_t id = next_id++;
      switch (rng.uniform_int(0, 2)) {
        case 0:
          for (int q = 0; q < 2; ++q)
            queues[q]->schedule(t, [&log, q, queues, id] {
              log[q].push_back({0, id, queues[q]->now(), 0});
            });
          break;
        case 1:
          for (EventQueue* queue : queues) queue->schedule_tick(t);
          break;
        default: {
          SimEvent ev;
          ev.kind = EventKind::kStageEnd;
          ev.handle = id;
          for (EventQueue* queue : queues) queue->schedule_event(t, ev);
        }
      }
    };
    const int before = static_cast<int>(rng.uniform_int(0, 6));
    for (int i = 0; i < before; ++i)
      schedule_both(rng.bernoulli(0.5) ? 0.0 : quantized(0.0));

    // Trace order is unsorted with many ties; an empty stream is covered.
    const int n = static_cast<int>(rng.uniform_int(0, 40));
    std::vector<RequestState> states(static_cast<std::size_t>(n));
    std::vector<EventQueue::Arrival> stream;
    for (RequestState& state : states) {
      const Seconds t = rng.bernoulli(0.2) ? 0.0 : quantized(0.0);
      arrival_times.push_back(t);
      stream.push_back({t, &state});
      SimEvent ev;
      ev.kind = EventKind::kArrival;
      ev.request = &state;
      pushed.schedule_event(t, ev);
    }
    std::stable_sort(
        stream.begin(), stream.end(),
        [](const auto& a, const auto& b) { return a.time < b.time; });
    streamed.set_arrivals(std::move(stream));

    for (int step = 0; !pushed.empty() || !streamed.empty(); ++step) {
      ASSERT_EQ(pushed.size(), streamed.size());
      ASSERT_EQ(pushed.empty(), streamed.empty());
      ASSERT_EQ(pushed.next_time(), streamed.next_time());
      if (step < 60 && rng.bernoulli(0.4)) {
        // During the run: at now, at a pending arrival's time, or later.
        Seconds t = quantized(pushed.now());
        const auto pick = static_cast<std::size_t>(
            rng.uniform_int(0, std::max(n, 1) - 1));
        if (n > 0 && rng.bernoulli(0.5) &&
            arrival_times[pick] >= pushed.now())
          t = arrival_times[pick];
        schedule_both(t);
        continue;
      }
      for (int q = 0; q < 2; ++q) {
        queues[q]->run_next([&log, q, queues, &states](const SimEvent& ev) {
          const bool arrival = ev.kind == EventKind::kArrival;
          log[q].push_back({arrival ? 3 : 2,
                            arrival ? ev.request - states.data() : ev.handle,
                            queues[q]->now(), 0});
        });
        log[q].back().processed = queues[q]->num_processed();
      }
      ASSERT_EQ(log[0], log[1]);
    }
    EXPECT_EQ(pushed.num_processed(), streamed.num_processed());
    EXPECT_EQ(pushed.now(), streamed.now());
  }
}

TEST(EventQueue, ArrivalStreamKeepsThePastTimeCheck) {
  EventQueue q;
  RequestState a, b;
  q.schedule(5.0, [] {});
  q.run_next();
  EXPECT_THROW(q.set_arrivals({{4.0, &a}}), Error);  // in the past
  EXPECT_THROW(q.set_arrivals({{7.0, &a}, {6.0, &b}}), Error);  // unsorted
  EXPECT_TRUE(q.empty());
  q.set_arrivals({{5.0, &a}, {6.0, &b}});
  EXPECT_THROW(q.set_arrivals({{9.0, &a}}), Error);  // one stream at a time
  EXPECT_EQ(q.size(), 2u);
  std::vector<RequestState*> order;
  while (!q.empty())
    q.run_next([&](const SimEvent& ev) { order.push_back(ev.request); });
  EXPECT_EQ(order, (std::vector<RequestState*>{&a, &b}));
  EXPECT_EQ(q.num_processed(), 3u);
  EXPECT_DOUBLE_EQ(q.now(), 6.0);
}

TEST(EventQueue, TickHandlerRunsOnScheduledTicks) {
  EventQueue q;
  int ticks = 0;
  q.set_tick_handler([&] {
    if (++ticks < 3) q.schedule_tick(q.now() + 1.0);
  });
  q.schedule_tick(1.0);
  while (!q.empty()) q.run_next();
  EXPECT_EQ(ticks, 3);
  EXPECT_DOUBLE_EQ(q.now(), 3.0);
}

// -------------------------------------------------------------- simulator

SimulationConfig base_config(SchedulerKind kind = SchedulerKind::kVllm,
                             int tp = 1, int pp = 1, int replicas = 1) {
  SimulationConfig config;
  config.model = model_by_name("llama2-7b");
  config.node.sku = sku_by_name("a100");
  config.parallel = ParallelConfig{tp, pp, replicas};
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
    return std::make_unique<ReferenceExecutor>(node, model, parallel,
                                               seed + static_cast<std::uint64_t>(r));
  };
}

Trace poisson_trace(int n, double qps, std::uint64_t seed = 11) {
  return generate_trace(trace_by_name("chat1m"),
                        ArrivalSpec{ArrivalKind::kPoisson, qps, 0}, n, seed);
}

class SimulatorPolicyTest : public ::testing::TestWithParam<SchedulerKind> {};

TEST_P(SimulatorPolicyTest, CompletesAllRequestsWithSaneMetrics) {
  const SimulationConfig config = base_config(GetParam());
  const Trace trace = poisson_trace(60, 1.0);
  Simulator sim(config, trace, reference_factory(config));
  const SimulationMetrics m = sim.run();
  EXPECT_EQ(m.num_completed, 60u);
  EXPECT_GT(m.makespan, 0.0);
  EXPECT_GT(m.throughput_qps, 0.0);
  EXPECT_GT(m.mfu, 0.0);
  EXPECT_LT(m.mfu, 1.0);
  EXPECT_LE(m.busy_fraction, 1.0 + 1e-9);
  EXPECT_GT(m.ttft.p50, 0.0);
  EXPECT_GT(m.tbt.p50, 0.0);
  // Per-request invariants.
  for (const RequestState& r : sim.request_states()) {
    EXPECT_TRUE(r.finished());
    EXPECT_GE(r.record.scheduling_delay(), 0.0);
    EXPECT_GE(r.record.ttft(), 0.0);
    EXPECT_GE(r.record.e2e_latency(), r.record.ttft());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Policies, SimulatorPolicyTest,
    ::testing::Values(SchedulerKind::kFasterTransformer, SchedulerKind::kOrca,
                      SchedulerKind::kVllm, SchedulerKind::kSarathi,
                      SchedulerKind::kLightLlm),
    [](const ::testing::TestParamInfo<SchedulerKind>& info) {
      std::string name = scheduler_name(info.param);
      for (char& c : name)
        if (c == '+' || c == '_') c = 'P';
      return name;
    });

TEST(Simulator, DeterministicForSameSeed) {
  const SimulationConfig config = base_config();
  const Trace trace = poisson_trace(40, 1.0);
  Simulator a(config, trace, reference_factory(config, 7));
  Simulator b(config, trace, reference_factory(config, 7));
  const SimulationMetrics ma = a.run();
  const SimulationMetrics mb = b.run();
  EXPECT_DOUBLE_EQ(ma.makespan, mb.makespan);
  EXPECT_DOUBLE_EQ(ma.ttft.p90, mb.ttft.p90);
  EXPECT_DOUBLE_EQ(ma.normalized_e2e_latency.p95,
                   mb.normalized_e2e_latency.p95);
}

TEST(Simulator, PredictorRunsAreIdenticalAcrossRepeats) {
  // The replay guarantee the typed queue, the estimator cache, and the
  // stage-timing memo must preserve: rerunning the same simulation produces
  // bit-identical metrics even though the second run hits caches the first
  // run populated.
  VidurSession session(model_by_name("llama2-7b"));
  DeploymentConfig config;
  config.sku_name = "a100";
  config.parallel = ParallelConfig{1, 1, 2};
  config.scheduler.kind = SchedulerKind::kSarathi;
  config.scheduler.max_batch_size = 16;
  const Trace trace = poisson_trace(50, 2.0);
  const SimulationMetrics a = session.simulate(config, trace);
  const SimulationMetrics b = session.simulate(config, trace);
  EXPECT_EQ(a.num_sim_events, b.num_sim_events);
  EXPECT_EQ(a.num_completed, b.num_completed);
  EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
  EXPECT_DOUBLE_EQ(a.throughput_qps, b.throughput_qps);
  EXPECT_DOUBLE_EQ(a.ttft.mean, b.ttft.mean);
  EXPECT_DOUBLE_EQ(a.ttft.p99, b.ttft.p99);
  EXPECT_DOUBLE_EQ(a.tbt.mean, b.tbt.mean);
  EXPECT_DOUBLE_EQ(a.tbt.p99, b.tbt.p99);
  EXPECT_DOUBLE_EQ(a.normalized_e2e_latency.p95, b.normalized_e2e_latency.p95);
  EXPECT_DOUBLE_EQ(a.scheduling_delay.max, b.scheduling_delay.max);
  EXPECT_DOUBLE_EQ(a.mfu, b.mfu);
  EXPECT_DOUBLE_EQ(a.mbu, b.mbu);
  EXPECT_DOUBLE_EQ(a.mean_batch_size, b.mean_batch_size);
  EXPECT_DOUBLE_EQ(a.total_energy_joules, b.total_energy_joules);
}

TEST(Simulator, ReferenceRunsAreIdenticalForSameSeed) {
  VidurSession session(model_by_name("llama2-7b"));
  DeploymentConfig config;
  config.sku_name = "a100";
  config.parallel = ParallelConfig{1, 2, 1};  // exercise pipeline events
  config.scheduler.kind = SchedulerKind::kVllm;
  config.scheduler.max_batch_size = 16;
  const Trace trace = poisson_trace(40, 2.0);
  const SimulationMetrics a = session.simulate_reference(config, trace, 99);
  const SimulationMetrics b = session.simulate_reference(config, trace, 99);
  EXPECT_EQ(a.num_sim_events, b.num_sim_events);
  EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
  EXPECT_DOUBLE_EQ(a.ttft.mean, b.ttft.mean);
  EXPECT_DOUBLE_EQ(a.tbt.p99, b.tbt.p99);
  EXPECT_DOUBLE_EQ(a.normalized_e2e_latency.p95, b.normalized_e2e_latency.p95);
}

TEST(Simulator, DifferentSeedsDiffer) {
  const SimulationConfig config = base_config();
  const Trace trace = poisson_trace(40, 1.0);
  Simulator a(config, trace, reference_factory(config, 7));
  Simulator b(config, trace, reference_factory(config, 8));
  EXPECT_NE(a.run().makespan, b.run().makespan);
}

TEST(Simulator, RunTwiceThrows) {
  const SimulationConfig config = base_config();
  Simulator sim(config, poisson_trace(5, 1.0), reference_factory(config));
  sim.run();
  EXPECT_THROW(sim.run(), Error);
}

TEST(Simulator, MaxSimTimeTruncates) {
  SimulationConfig config = base_config();
  config.max_sim_time = 1.0;
  Simulator sim(config, poisson_trace(200, 5.0), reference_factory(config));
  const SimulationMetrics m = sim.run();
  EXPECT_LT(m.num_completed, 200u);
  EXPECT_LE(m.makespan, 1.0 + 1e-9);
}

TEST(Simulator, PipelineParallelKeepsStagesBusy) {
  // PP=2 on one replica must outperform a serial pipeline: makespan under
  // an offline burst should be well below 2x the PP=1 per-stage work.
  SimulationConfig pp2 = base_config(SchedulerKind::kSarathi, 1, 2, 1);
  const Trace trace = generate_trace(
      trace_by_name("chat1m"), ArrivalSpec{ArrivalKind::kStatic, 0, 0}, 64, 5);
  Simulator sim2(pp2, trace, reference_factory(pp2));
  const SimulationMetrics m2 = sim2.run();
  EXPECT_EQ(m2.num_completed, 64u);

  SimulationConfig pp1 = base_config(SchedulerKind::kSarathi, 1, 1, 1);
  Simulator sim1(pp1, trace, reference_factory(pp1));
  const SimulationMetrics m1 = sim1.run();
  // Two half-model stages pipelined: between 0.55x and 1.1x of the
  // single-stage makespan (bubbles cost something, but not 2x).
  EXPECT_LT(m2.makespan, m1.makespan * 1.10);
  EXPECT_GT(m2.makespan, m1.makespan * 0.55);
}

TEST(Simulator, MultiReplicaScalesThroughput) {
  // Fixed-length requests so the comparison is not tail-limited: with
  // identical per-request work, 4 replicas serve the burst ~4x faster.
  Trace trace;
  for (int i = 0; i < 128; ++i) trace.push_back(Request{i, 0.0, 256, 64});
  SimulationConfig one = base_config(SchedulerKind::kVllm, 1, 1, 1);
  SimulationConfig four = base_config(SchedulerKind::kVllm, 1, 1, 4);
  Simulator sim1(one, trace, reference_factory(one));
  Simulator sim4(four, trace, reference_factory(four));
  const double makespan1 = sim1.run().makespan;
  const double makespan4 = sim4.run().makespan;
  EXPECT_LT(makespan4, makespan1 * 0.45);
  EXPECT_GT(makespan4, makespan1 * 0.15);  // no super-linear magic
}

TEST(Simulator, RoundRobinSpreadsRequests) {
  SimulationConfig config = base_config(SchedulerKind::kVllm, 1, 1, 4);
  config.global_scheduler = GlobalSchedulerKind::kRoundRobin;
  const Trace trace = poisson_trace(40, 2.0);
  Simulator sim(config, trace, reference_factory(config));
  sim.run();
  std::vector<int> counts(4, 0);
  for (const RequestState& r : sim.request_states())
    ++counts[static_cast<std::size_t>(r.replica)];
  for (int c : counts) EXPECT_EQ(c, 10);
}

TEST(Simulator, LeastOutstandingAvoidsBusyReplica) {
  SimulationConfig config = base_config(SchedulerKind::kVllm, 1, 1, 2);
  config.global_scheduler = GlobalSchedulerKind::kLeastOutstanding;
  // One giant request occupies its replica for the whole test; small
  // requests arrive slowly enough to drain between arrivals, so LOR keeps
  // routing them to the idle replica (round-robin would alternate).
  Trace trace;
  trace.push_back(Request{0, 0.0, 2000, 2000});
  for (int i = 1; i < 21; ++i)
    trace.push_back(Request{i, 0.5 * i, 64, 8});
  Simulator sim(config, trace, reference_factory(config));
  sim.run();
  const auto& states = sim.request_states();
  int with_giant = 0;
  for (std::size_t i = 1; i < states.size(); ++i)
    with_giant += states[i].replica == states[0].replica ? 1 : 0;
  EXPECT_LT(with_giant, 3);
}

TEST(Simulator, DeferredGlobalQueueCompletesEverything) {
  SimulationConfig config = base_config(SchedulerKind::kSarathi, 1, 1, 2);
  config.global_scheduler = GlobalSchedulerKind::kDeferred;
  const Trace trace = poisson_trace(50, 3.0);
  Simulator sim(config, trace, reference_factory(config));
  const SimulationMetrics m = sim.run();
  EXPECT_EQ(m.num_completed, 50u);
}

TEST(Simulator, InvalidConfigThrows) {
  SimulationConfig config = base_config();
  config.model = model_by_name("llama2-70b");  // does not fit 1x A100
  EXPECT_THROW(
      Simulator(config, poisson_trace(5, 1.0), reference_factory(config)),
      Error);
}

TEST(Simulator, AsyncPipelineCommNeverSlower) {
  // Overlapping the inter-stage send with the next micro-batch can only
  // remove time from the critical path.
  const Trace trace = generate_trace(
      trace_by_name("chat1m"), ArrivalSpec{ArrivalKind::kStatic, 0, 0}, 48, 3);
  SimulationConfig sync = base_config(SchedulerKind::kSarathi, 1, 2, 1);
  Simulator sim_sync(sync, trace, reference_factory(sync, 21));
  const SimulationMetrics m_sync = sim_sync.run();

  SimulationConfig async = base_config(SchedulerKind::kSarathi, 1, 2, 1);
  async.async_pipeline_comm = true;
  Simulator sim_async(async, trace, reference_factory(async, 21));
  const SimulationMetrics m_async = sim_async.run();

  EXPECT_EQ(m_async.num_completed, 48u);
  // Identical RNG consumption order is not guaranteed, so allow jitter-scale
  // slack rather than strict dominance.
  EXPECT_LT(m_async.makespan, m_sync.makespan * 1.02);
}

TEST(Simulator, AsyncPipelineCommIsNoopWithoutPipeline) {
  const Trace trace = poisson_trace(30, 2.0);
  SimulationConfig sync = base_config(SchedulerKind::kVllm, 1, 1, 1);
  SimulationConfig async = sync;
  async.async_pipeline_comm = true;
  Simulator a(sync, trace, reference_factory(sync, 4));
  Simulator b(async, trace, reference_factory(async, 4));
  EXPECT_DOUBLE_EQ(a.run().makespan, b.run().makespan);
}

TEST(Simulator, OperatorMetricsCollectedWhenEnabled) {
  SimulationConfig config = base_config(SchedulerKind::kSarathi);
  config.collect_operator_metrics = true;
  const Trace trace = poisson_trace(20, 1.0);
  Simulator sim(config, trace, reference_factory(config));
  const SimulationMetrics m = sim.run();
  ASSERT_FALSE(m.operator_stats.empty());
  // Every simulated iteration touches the core GEMMs and decode attention.
  EXPECT_GT(m.operator_stats.count(OpType::kMlpGateUpProj), 0u);
  EXPECT_GT(m.operator_stats.count(OpType::kAttnDecode), 0u);
  Seconds total = 0.0;
  for (const auto& [op, stats] : m.operator_stats) {
    EXPECT_GT(stats.invocations, 0);
    EXPECT_GE(stats.total_seconds, 0.0);
    total += stats.total_seconds;
  }
  EXPECT_GT(total, 0.0);
  EXPECT_FALSE(m.operator_table().empty());
}

TEST(Simulator, OperatorMetricsOffByDefault) {
  const SimulationConfig config = base_config();
  const Trace trace = poisson_trace(10, 1.0);
  Simulator sim(config, trace, reference_factory(config));
  const SimulationMetrics m = sim.run();
  EXPECT_TRUE(m.operator_stats.empty());
  EXPECT_TRUE(m.operator_table().empty());
}

TEST(Simulator, OperatorMetricsDoNotPerturbTimings) {
  // Attribution must be a pure observer: enabling it cannot change the
  // reference executor's RNG stream or any event timestamp.
  const Trace trace = poisson_trace(25, 1.5);
  SimulationConfig off = base_config(SchedulerKind::kVllm);
  SimulationConfig on = off;
  on.collect_operator_metrics = true;
  Simulator a(off, trace, reference_factory(off, 13));
  Simulator b(on, trace, reference_factory(on, 13));
  EXPECT_DOUBLE_EQ(a.run().makespan, b.run().makespan);
}

TEST(Simulator, EnergyMetricsPopulated) {
  const SimulationConfig config = base_config();
  const Trace trace = poisson_trace(30, 1.0);
  Simulator sim(config, trace, reference_factory(config));
  const SimulationMetrics m = sim.run();
  EXPECT_GT(m.total_energy_joules, 0.0);
  EXPECT_GT(m.energy_per_output_token, 0.0);
  // Mean draw must sit between idle and TDP of the (single-GPU) cluster.
  const SkuSpec sku = sku_by_name("a100");
  EXPECT_GE(m.mean_cluster_power_watts, sku.idle_watts - 1e-9);
  EXPECT_LE(m.mean_cluster_power_watts, sku.peak_watts + 1e-9);
}

TEST(Simulator, BusierClusterDrawsMorePower) {
  Trace light, heavy;
  for (int i = 0; i < 8; ++i) light.push_back(Request{i, 2.0 * i, 64, 16});
  for (int i = 0; i < 64; ++i) heavy.push_back(Request{i, 0.0, 1024, 128});
  const SimulationConfig config = base_config(SchedulerKind::kSarathi);
  Simulator sim_light(config, light, reference_factory(config, 2));
  Simulator sim_heavy(config, heavy, reference_factory(config, 2));
  EXPECT_GT(sim_heavy.run().mean_cluster_power_watts,
            sim_light.run().mean_cluster_power_watts);
}

TEST(Simulator, RandomizedConfigurationsSatisfyInvariants) {
  // Property sweep: random deployments (policy, batch knobs, parallelism,
  // memory pressure, async comm, disaggregation) must complete every
  // request and never violate the request-level or cluster-level
  // invariants. This is the failure-injection net for scheduler bugs that
  // only appear under odd knob combinations.
  Rng rng(0xF00D);
  const SchedulerKind kinds[] = {
      SchedulerKind::kFasterTransformer, SchedulerKind::kOrca,
      SchedulerKind::kVllm, SchedulerKind::kSarathi, SchedulerKind::kLightLlm};
  for (int trial = 0; trial < 20; ++trial) {
    SimulationConfig config;
    config.model = model_by_name("llama2-7b");
    config.node.sku = sku_by_name(rng.bernoulli(0.5) ? "a100" : "h100");
    config.parallel =
        ParallelConfig{static_cast<int>(rng.uniform_int(0, 1)) + 1,
                       static_cast<int>(rng.uniform_int(0, 1)) + 1,
                       static_cast<int>(rng.uniform_int(1, 2))};
    config.scheduler.kind = kinds[rng.uniform_int(0, 4)];
    config.scheduler.max_batch_size = 1 << rng.uniform_int(2, 6);  // 4..64
    config.scheduler.chunk_size = 1 << rng.uniform_int(7, 11);     // 128..2048
    config.memory_utilization = rng.uniform(0.3, 0.9);
    config.async_pipeline_comm = rng.bernoulli(0.5);
    // Disaggregation composes with 2-replica layouts only (needs both roles).
    if (config.parallel.num_replicas == 2 && rng.bernoulli(0.4))
      config.disagg.num_prefill_replicas = 1;

    const Trace trace =
        poisson_trace(30, 1.5, /*seed=*/100 + static_cast<std::uint64_t>(trial));
    Simulator sim(config, trace,
                  reference_factory(config, 7 + static_cast<std::uint64_t>(trial)));
    const SimulationMetrics m = sim.run();

    SCOPED_TRACE("trial " + std::to_string(trial) + ": " +
                 scheduler_name(config.scheduler.kind) + " tp" +
                 std::to_string(config.parallel.tensor_parallel) + " pp" +
                 std::to_string(config.parallel.pipeline_parallel) + " x" +
                 std::to_string(config.parallel.num_replicas) +
                 (config.disagg.enabled() ? " disagg" : ""));
    EXPECT_EQ(m.num_completed, 30u);
    EXPECT_GT(m.mfu, 0.0);
    EXPECT_LT(m.mfu, 1.0);
    EXPECT_LE(m.busy_fraction,
              config.parallel.pipeline_parallel + 1e-9);
    const SkuSpec& sku = config.node.sku;
    EXPECT_GE(m.mean_cluster_power_watts,
              sku.idle_watts * config.parallel.total_gpus() - 1e-9);
    EXPECT_LE(m.mean_cluster_power_watts,
              sku.peak_watts * config.parallel.total_gpus() + 1e-9);
    for (const RequestState& r : sim.request_states()) {
      EXPECT_TRUE(r.finished());
      EXPECT_GE(r.record.scheduling_delay(), 0.0);
      EXPECT_LE(r.record.ttft(), r.record.e2e_latency() + 1e-12);
      EXPECT_EQ(static_cast<TokenCount>(r.record.token_times.size()),
                r.request.decode_tokens);
      EXPECT_TRUE(std::is_sorted(r.record.token_times.begin(),
                                 r.record.token_times.end()));
    }
  }
}

TEST(Simulator, RestartsSurfaceInMetrics) {
  // A tight KV pool with vLLM forces preempt-restarts; metrics must count
  // them. Use a memory_utilization that leaves few blocks.
  SimulationConfig config = base_config(SchedulerKind::kVllm);
  config.memory_utilization = 0.25;  // ~4.5 GB of KV after weights+workspace
  const Trace trace = generate_trace(
      trace_by_name("bwb4k"), ArrivalSpec{ArrivalKind::kStatic, 0, 0}, 24, 9);
  Simulator sim(config, trace, reference_factory(config));
  const SimulationMetrics m = sim.run();
  EXPECT_EQ(m.num_completed, 24u);
  EXPECT_GT(m.num_restarts, 0);
}

// ------------------------------------------- in-place finalize contract

void expect_same_summary(const Summary& got, const Summary& want,
                         const std::string& what) {
  SCOPED_TRACE(what);
  EXPECT_EQ(got.count, want.count);
  EXPECT_EQ(got.mean, want.mean);
  EXPECT_EQ(got.stddev, want.stddev);
  EXPECT_EQ(got.min, want.min);
  EXPECT_EQ(got.p50, want.p50);
  EXPECT_EQ(got.p90, want.p90);
  EXPECT_EQ(got.p95, want.p95);
  EXPECT_EQ(got.p99, want.p99);
  EXPECT_EQ(got.max, want.max);
}

/// run() aggregates its request records in place; a fresh collector fed
/// copies of the same records through record_request() must agree on every
/// request-level figure, bit for bit. (The repository benchmark's traced
/// run replays records this way.)
void expect_replay_matches_run(const Simulator& sim,
                               const SimulationConfig& config,
                               const SimulationMetrics& m) {
  MetricsCollector replay(config.parallel.num_replicas,
                          config.node.sku.peak_flops(),
                          config.parallel.gpus_per_replica(),
                          config.node.sku.hbm_bytes_per_sec());
  replay.set_tenants(config.tenants);
  for (const RequestState& state : sim.request_states())
    replay.record_request(state.record);
  const SimulationMetrics r = replay.finalize(m.makespan);

  EXPECT_EQ(r.num_requests, m.num_requests);
  EXPECT_EQ(r.num_completed, m.num_completed);
  EXPECT_EQ(r.num_restarts, m.num_restarts);
  EXPECT_EQ(r.throughput_qps, m.throughput_qps);
  EXPECT_EQ(r.output_tokens_per_sec, m.output_tokens_per_sec);
  expect_same_summary(r.scheduling_delay, m.scheduling_delay, "delay");
  expect_same_summary(r.ttft, m.ttft, "ttft");
  expect_same_summary(r.tbt, m.tbt, "tbt");
  expect_same_summary(r.normalized_e2e_latency, m.normalized_e2e_latency,
                      "norm e2e");
  expect_same_summary(r.normalized_execution_latency,
                      m.normalized_execution_latency, "norm exec");
  ASSERT_EQ(r.tenant_metrics.size(), m.tenant_metrics.size());
  for (std::size_t i = 0; i < m.tenant_metrics.size(); ++i) {
    const auto& want = m.tenant_metrics[i];
    const auto& got = r.tenant_metrics[i];
    SCOPED_TRACE("tenant " + want.info.name);
    EXPECT_EQ(got.info.id, want.info.id);
    EXPECT_EQ(got.info.name, want.info.name);
    EXPECT_EQ(got.num_requests, want.num_requests);
    EXPECT_EQ(got.num_completed, want.num_completed);
    expect_same_summary(got.scheduling_delay, want.scheduling_delay, "delay");
    expect_same_summary(got.ttft, want.ttft, "ttft");
    expect_same_summary(got.tbt, want.tbt, "tbt");
    EXPECT_EQ(got.throughput_qps, want.throughput_qps);
    EXPECT_EQ(got.output_tokens_per_sec, want.output_tokens_per_sec);
    EXPECT_EQ(got.slo_attainment, want.slo_attainment);
  }
}

TEST(SimulatorFinalize, ShardedFleetMatchesRecordReplay) {
  // Static round-robin fleet at threads = 2: the sharded engine runs it.
  SimulationConfig config = base_config(SchedulerKind::kVllm, 1, 1, 8);
  config.global_scheduler = GlobalSchedulerKind::kRoundRobin;
  config.threads = 2;
  Simulator sim(config, poisson_trace(400, 8.0), reference_factory(config));
  const SimulationMetrics m = sim.run();
  EXPECT_EQ(m.num_completed, 400u);
  EXPECT_GT(m.tbt.count, 1000u);
  expect_replay_matches_run(sim, config, m);
}

TEST(SimulatorFinalize, TenantScenarioMatchesRecordReplay) {
  // Tenant-tagged scenario with SLOs on the central path, cut short so
  // some requests never complete (they count against SLO attainment).
  Scenario scenario = scenario_by_name("flash-crowd-mixed");
  scenario.num_requests = 300;
  SimulationConfig config = base_config(SchedulerKind::kSarathi, 1, 1, 2);
  config.global_scheduler = GlobalSchedulerKind::kLeastOutstanding;
  config.tenants = scenario.tenant_infos();
  config.max_sim_time = 100.0;
  Simulator sim(config, generate_scenario_trace(scenario, 31),
                reference_factory(config));
  const SimulationMetrics m = sim.run();
  EXPECT_LT(m.num_completed, m.num_requests);
  ASSERT_EQ(m.tenant_metrics.size(), 2u);
  EXPECT_GE(m.tenant_metrics[0].slo_attainment, 0.0);
  expect_replay_matches_run(sim, config, m);
}

TEST(SimulatorFinalize, BatchAggregatesAgreeAcrossEngines) {
  // Per-replica batch sums fold in slot order, so the figures depend only
  // on each replica's own batches: the sharded engine (threads = 3) and
  // the central single-queue engine (forced by rolling windows) agree
  // exactly, whatever order their batches completed in.
  SimulationConfig config = base_config(SchedulerKind::kVllm, 1, 1, 6);
  config.global_scheduler = GlobalSchedulerKind::kRoundRobin;
  const Trace trace = poisson_trace(300, 6.0);
  std::vector<SimulationMetrics> runs;
  for (const bool central : {false, true}) {
    config.threads = central ? 1 : 3;
    config.obs.rolling_window_s = central ? 10.0 : 0.0;
    Simulator sim(config, trace, reference_factory(config));
    runs.push_back(sim.run());
  }
  EXPECT_FALSE(runs[1].rolling.empty());  // really the central engine
  EXPECT_GT(runs[0].mfu, 0.0);
  EXPECT_EQ(runs[1].mfu, runs[0].mfu);
  EXPECT_EQ(runs[1].mbu, runs[0].mbu);
  EXPECT_EQ(runs[1].busy_fraction, runs[0].busy_fraction);
  EXPECT_EQ(runs[1].total_energy_joules, runs[0].total_energy_joules);
  EXPECT_EQ(runs[1].mean_batch_size, runs[0].mean_batch_size);
  EXPECT_EQ(runs[1].mean_kv_utilization, runs[0].mean_kv_utilization);
}

// ------------------------------------------------- one deployment form

/// One deployment, run once in the homogeneous shorthand and once as the
/// hand-written pools the shorthand means.
struct FormCase {
  const char* name;
  GlobalSchedulerKind routing;
  SchedulerKind scheduler;
  ParallelConfig parallel;
  int prefill_replicas = 0;  ///< > 0: the disaggregation shorthand
  bool cache = false;        ///< prefix cache + rolling windows, sessions
  bool elastic = false;
};

AutoscalerConfig form_autoscale() {
  AutoscalerConfig a;
  a.kind = AutoscalerKind::kReactive;
  a.provision_delay = 5.0;
  a.warmup_delay = 2.5;
  a.decision_interval = 2.0;
  a.scale_down_cooldown = 30.0;
  a.target_load_per_replica = 10.0;
  a.scale_up_load = 16.0;
  a.scale_down_load = 3.0;
  return a;
}

PoolSpec form_pool(const FormCase& c, const char* name, PoolRole role,
                   int slots) {
  PoolSpec pool;
  pool.name = name;
  pool.role = role;
  pool.parallel = c.parallel;
  pool.parallel.num_replicas = slots;
  if (c.elastic) pool.autoscale = form_autoscale();
  return pool;
}

/// Every field of two runs' metrics, section by section.
void expect_same_metrics(const SimulationMetrics& a,
                         const SimulationMetrics& b) {
  EXPECT_EQ(a.scheduling_delay, b.scheduling_delay);
  EXPECT_EQ(a.ttft, b.ttft);
  EXPECT_EQ(a.tbt, b.tbt);
  EXPECT_EQ(a.normalized_e2e_latency, b.normalized_e2e_latency);
  EXPECT_EQ(a.normalized_execution_latency, b.normalized_execution_latency);
  EXPECT_EQ(a.mfu, b.mfu);
  EXPECT_EQ(a.mbu, b.mbu);
  EXPECT_EQ(a.total_energy_joules, b.total_energy_joules);
  EXPECT_EQ(a.tenant_metrics, b.tenant_metrics);
  EXPECT_EQ(a.scaling, b.scaling);
  EXPECT_EQ(a.registry, b.registry);
  EXPECT_EQ(a.rolling, b.rolling);
  EXPECT_EQ(a.prefix_cache, b.prefix_cache);
  EXPECT_EQ(a.resilience, b.resilience);
  EXPECT_EQ(a, b);  // and every remaining field
}

// ------------------------------------------- token times as batch runs

/// Token counts and stored runs over a run's completed records.
struct RunCounts {
  std::size_t tokens = 0;
  std::size_t runs = 0;
};

/// Every completed record's token times run, never going back, from its
/// first token (the TTFT end) to its completion, and its running worst gap
/// equals a walk over them.
RunCounts check_token_times(const Simulator& sim) {
  RunCounts counts;
  for (const RequestState& state : sim.request_states()) {
    const RequestRecord& rec = state.record;
    if (!rec.completed()) continue;
    const TokenTimes& times = rec.token_times;
    EXPECT_TRUE(std::is_sorted(times.begin(), times.end()));
    EXPECT_EQ(times.front(), rec.prefill_completed_time);
    EXPECT_EQ(times.back(), rec.completed_time);
    Seconds worst = -1.0;
    for (auto prev = times.begin(), t = std::next(prev); t != times.end();
         prev = t++)
      worst = std::max(worst, *t - *prev);
    EXPECT_EQ(rec.worst_tbt(), worst);
    counts.tokens += times.size();
    counts.runs += times.runs().size();
  }
  return counts;
}

TEST(TokenTimeRuns, VllmFleetStoresFarFewerRunsThanTokens) {
  // Round-robin vLLM fleet: prefill-only batches interleave with decode
  // batches and break the decoding requests' runs, yet a run still covers
  // many tokens.
  SimulationConfig config = base_config(SchedulerKind::kVllm, 1, 1, 4);
  config.global_scheduler = GlobalSchedulerKind::kRoundRobin;
  Simulator sim(config, poisson_trace(400, 8.0), reference_factory(config));
  const SimulationMetrics m = sim.run();
  ASSERT_EQ(m.num_completed, 400u);
  const RunCounts counts = check_token_times(sim);
  EXPECT_GT(counts.runs, m.num_completed);  // prefill-only batches broke runs
  EXPECT_LT(counts.runs * 4, counts.tokens);
}

TEST(TokenTimeRuns, SarathiSessionChatStoresOneRunPerRequest) {
  // Sarathi puts every running request in every batch, so a request that
  // is never preempted decodes in consecutive batches of its replica: one
  // run from its first token to its last.
  Scenario scenario = scenario_by_name("session-chat");
  scenario.num_requests = 300;
  SimulationConfig config = base_config(SchedulerKind::kSarathi, 1, 1, 2);
  config.global_scheduler = GlobalSchedulerKind::kCacheAware;
  config.prefix_cache.enabled = true;
  config.tenants = scenario.tenant_infos();
  Simulator sim(config, generate_scenario_trace(scenario, 7),
                reference_factory(config));
  const SimulationMetrics m = sim.run();
  ASSERT_EQ(m.num_completed, 300u);
  ASSERT_EQ(m.num_restarts, 0);
  EXPECT_GT(m.prefix_cache.hits, 0);
  const RunCounts counts = check_token_times(sim);
  EXPECT_EQ(counts.runs, m.num_completed);
  EXPECT_GT(counts.tokens, counts.runs);
}

// ------------------------------------------ TBT from weighted batch gaps

/// Relative bound on the TBT mean and stddev against the per-token
/// reference: finalize() sums the same gaps in slot order, x * w at a time,
/// so only summation rounding separates the two.
constexpr double kSumOrderTolerance = 1e-9;

/// The TBT summary over every per-token gap (TokenTimes::for_each_gap) of
/// the run's completed records that `keep` accepts, sorted.
template <typename Keep>
Summary per_token_tbt(const Simulator& sim, const Keep& keep) {
  SampleSeries gaps;
  for (const RequestState& state : sim.request_states()) {
    const RequestRecord& r = state.record;
    if (r.completed() && keep(r))
      r.token_times.for_each_gap([&gaps](Seconds gap) { gaps.add(gap); });
  }
  return Summary::of(gaps);
}

void expect_same_tbt(const Summary& got, const Summary& want,
                     const std::string& what) {
  SCOPED_TRACE(what);
  EXPECT_EQ(got.count, want.count);
  EXPECT_EQ(got.min, want.min);
  EXPECT_EQ(got.max, want.max);
  EXPECT_EQ(got.p50, want.p50);
  EXPECT_EQ(got.p90, want.p90);
  EXPECT_EQ(got.p95, want.p95);
  EXPECT_EQ(got.p99, want.p99);
  const double scale = std::abs(want.mean) + want.stddev;
  EXPECT_NEAR(got.mean, want.mean, kSumOrderTolerance * scale);
  EXPECT_NEAR(got.stddev, want.stddev, kSumOrderTolerance * scale);
}

/// The run's fleet and per-tenant TBT summaries against the per-token
/// gaps: count, extrema and percentiles bit for bit.
void expect_tbt_matches_per_token_gaps(const Simulator& sim,
                                       const SimulationMetrics& m) {
  expect_same_tbt(
      m.tbt, per_token_tbt(sim, [](const RequestRecord&) { return true; }),
      "fleet");
  for (const SimulationMetrics::TenantMetrics& tenant : m.tenant_metrics)
    expect_same_tbt(tenant.tbt,
                    per_token_tbt(sim,
                                  [&tenant](const RequestRecord& r) {
                                    return r.tenant == tenant.info.id;
                                  }),
                    tenant.info.name);
}

TEST(WeightedTbt, RoundRobinVllmFleetMatchesPerTokenGaps) {
  // Many runs per request: prefill-only batches break the decoding
  // requests' runs. The sharded engine runs it (threads = 2).
  SimulationConfig config = base_config(SchedulerKind::kVllm, 1, 1, 4);
  config.global_scheduler = GlobalSchedulerKind::kRoundRobin;
  config.threads = 2;
  Simulator sim(config, poisson_trace(400, 8.0), reference_factory(config));
  const SimulationMetrics m = sim.run();
  ASSERT_EQ(m.num_completed, 400u);
  EXPECT_GT(check_token_times(sim).runs, 2 * m.num_completed);
  expect_tbt_matches_per_token_gaps(sim, m);
}

TEST(WeightedTbt, SarathiSessionChatMatchesPerTokenGaps) {
  // One run per request, with the prefix cache on, and a tenant row.
  Scenario scenario = scenario_by_name("session-chat");
  scenario.num_requests = 300;
  SimulationConfig config = base_config(SchedulerKind::kSarathi, 1, 1, 2);
  config.global_scheduler = GlobalSchedulerKind::kLeastOutstanding;
  config.prefix_cache.enabled = true;
  config.tenants = scenario.tenant_infos();
  Simulator sim(config, generate_scenario_trace(scenario, 7),
                reference_factory(config));
  const SimulationMetrics m = sim.run();
  ASSERT_EQ(m.num_completed, 300u);
  EXPECT_GT(m.prefix_cache.hits, 0);
  EXPECT_EQ(check_token_times(sim).runs, m.num_completed);
  EXPECT_FALSE(m.tenant_metrics.empty());
  expect_tbt_matches_per_token_gaps(sim, m);
}

TEST(WeightedTbt, SpotChurnWithLossesMatchesPerTokenGaps) {
  // Spot reclaims and crashes displace requests: a retried request keeps
  // its earlier tokens and resumes on another replica, and a request out
  // of recovery attempts is lost, its tokens left out of the summary.
  Scenario scenario = scenario_by_name("spot-churn");
  scenario.num_requests = 200;
  SimulationConfig config = base_config(SchedulerKind::kSarathi, 1, 1, 3);
  config.global_scheduler = GlobalSchedulerKind::kLeastOutstanding;
  config.prefix_cache.enabled = true;
  config.tenants = scenario.tenant_infos();
  config.autoscale.kind = AutoscalerKind::kReactive;
  config.autoscale.min_replicas = 2;
  config.autoscale.initial_replicas = 3;
  config.autoscale.decision_interval = 2.0;
  config.autoscale.provision_delay = 2.0;
  config.autoscale.warmup_delay = 1.0;
  config.autoscale.target_load_per_replica = 6.0;
  config.autoscale.scale_up_load = 10.0;
  config.autoscale.scale_down_load = 0.25;
  FaultProfile churn;
  churn.crash_mtbf_s = 12.0;
  churn.spot_windows = {SpotWindow{20.0, 40.0, 2, 0.0},
                        SpotWindow{70.0, 30.0, 1, 5.0}};
  config.faults.seed = 99;
  config.faults.profiles = {churn};
  config.faults.recovery.max_attempts = 2;
  config.faults.recovery.backoff_base_s = 0.25;
  Simulator sim(config, generate_scenario_trace(scenario, 23),
                reference_factory(config));
  const SimulationMetrics m = sim.run();
  ASSERT_TRUE(m.resilience.enabled);
  EXPECT_GT(m.resilience.num_lost, 0);
  std::size_t resumed = 0, lost_with_gaps = 0;
  for (const RequestState& state : sim.request_states()) {
    const RequestRecord& r = state.record;
    const std::vector<TokenTimes::Run>& runs = r.token_times.runs();
    if (r.completed()) {
      resumed += std::any_of(runs.begin(), runs.end(), [&](const auto& run) {
        return run.slot != runs.front().slot;
      });
    } else {
      lost_with_gaps += r.token_times.size() >= 2;
    }
  }
  EXPECT_GT(resumed, 0u);
  EXPECT_GT(lost_with_gaps, 0u);
  expect_tbt_matches_per_token_gaps(sim, m);
}

TEST(DeploymentForms, ShorthandAndPoolsReportTheSameRun) {
  const FormCase cases[] = {
      {"round-robin tp1x4", GlobalSchedulerKind::kRoundRobin,
       SchedulerKind::kVllm, {1, 1, 4}},
      {"least-outstanding tp2x3", GlobalSchedulerKind::kLeastOutstanding,
       SchedulerKind::kSarathi, {2, 1, 3}},
      {"least-outstanding tp2pp2", GlobalSchedulerKind::kLeastOutstanding,
       SchedulerKind::kVllm, {2, 2, 2}},
      {"deferred", GlobalSchedulerKind::kDeferred, SchedulerKind::kVllm,
       {1, 1, 3}},
      {"cache-aware", GlobalSchedulerKind::kCacheAware,
       SchedulerKind::kSarathi, {1, 1, 2}, 0, /*cache=*/true},
      {"disaggregated tp1", GlobalSchedulerKind::kLeastOutstanding,
       SchedulerKind::kSarathi, {1, 1, 3}, /*prefill_replicas=*/1},
      {"disaggregated tp2", GlobalSchedulerKind::kRoundRobin,
       SchedulerKind::kSarathi, {2, 1, 4}, /*prefill_replicas=*/2},
      {"elastic", GlobalSchedulerKind::kLeastOutstanding,
       SchedulerKind::kSarathi, {1, 1, 4}, 0, false, /*elastic=*/true},
  };
  for (const FormCase& c : cases) {
    SCOPED_TRACE(c.name);
    SimulationConfig shorthand = base_config(c.scheduler);
    shorthand.global_scheduler = c.routing;
    shorthand.parallel = c.parallel;
    shorthand.disagg.num_prefill_replicas = c.prefill_replicas;
    if (c.elastic) shorthand.autoscale = form_autoscale();
    Trace trace = poisson_trace(120, 4.0);
    if (c.cache || c.elastic) {
      Scenario scenario =
          scenario_by_name(c.cache ? "session-chat" : "flash-crowd-mixed");
      scenario.num_requests = 150;
      shorthand.tenants = scenario.tenant_infos();
      trace = generate_scenario_trace(scenario, 3);
    }
    if (c.cache) {
      shorthand.prefix_cache.enabled = true;
      shorthand.obs.rolling_window_s = 30.0;
    }

    SimulationConfig pooled = shorthand;
    pooled.node = NodeSpec{};
    pooled.parallel = ParallelConfig{};
    pooled.disagg.num_prefill_replicas = 0;
    pooled.autoscale = AutoscalerConfig{};
    if (c.prefill_replicas > 0) {
      pooled.pools = {
          form_pool(c, "prefill", PoolRole::kPrefill, c.prefill_replicas),
          form_pool(c, "decode", PoolRole::kDecode,
                    c.parallel.num_replicas - c.prefill_replicas)};
    } else {
      pooled.pools = {form_pool(c, "fleet", PoolRole::kUnified,
                                c.parallel.num_replicas)};
    }
    EXPECT_EQ(deployment_pools(shorthand), pooled.pools);

    // Every slot of these deployments shares one TP/PP, so one backend
    // factory serves both forms.
    Simulator a(shorthand, trace, reference_factory(shorthand, 5));
    Simulator b(pooled, trace, reference_factory(shorthand, 5));
    const SimulationMetrics legacy = a.run();
    const SimulationMetrics pools = b.run();
    EXPECT_EQ(legacy.num_completed, legacy.num_requests);
    ASSERT_EQ(legacy.scaling.pools.size(), pooled.pools.size());
    if (c.cache) {
      EXPECT_EQ(legacy.prefix_cache.by_pool.size(), 1u);
      EXPECT_EQ(legacy.rolling.back().name, "pool:fleet");
    }
    expect_same_metrics(legacy, pools);
  }
}

}  // namespace
}  // namespace vidur
