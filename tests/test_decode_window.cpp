// Stable decode windows (Simulator::run_decode_window): a replica whose
// batch decodes every running request while nothing waits runs the
// identical iterations that follow in one loop, instead of one stage-end
// event each. Nothing a run reports may change. A trace recorder makes a
// run ineligible for windows and keeps it on the central queue, so every
// run's traced twin is its per-iteration reference (on a round-robin
// fleet, the central reference of the sharded engine too), and the two
// must agree on every metric (the registry included) and on every request
// record, token times included.
//
//   - the policy premise the windows rest on, and the scheduler's window
//     steps against the per-iteration schedule_into/on_batch_end path;
//   - a grid of policies, fleet sizes, routings (sharded round-robin at 1
//     and 4 threads, least-outstanding, cache-aware over a prefix cache
//     under KV pressure), arrival rates and max_sim_time cuts, on the
//     reference executor and on the predictor;
//   - the edges a window must stop at: a degrade edge of a sharded fleet,
//     an arrival at exactly a batch end, KV exhaustion that preempts;
//   - the configurations that must never open a window.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/session.h"
#include "obs/trace.h"
#include "scenario/scenario.h"
#include "scheduler/policies.h"
#include "sim/simulator.h"
#include "workload/trace_generator.h"

namespace vidur {
namespace {

// ------------------------------------------------------------ harness

SimulationConfig base_config(SchedulerKind kind, int replicas) {
  SimulationConfig config;
  config.model = model_by_name("llama2-7b");
  config.node.sku = sku_by_name("a100");
  config.parallel = ParallelConfig{1, 1, replicas};
  config.scheduler.kind = kind;
  config.scheduler.max_batch_size = 16;
  config.scheduler.chunk_size = 256;
  return config;
}

/// Multi-turn chat sessions over two shared system prompts (the prefix
/// cache's workload shape), `qps` sessions per second.
Trace chat_sessions(double qps, int num_requests) {
  Scenario scenario;
  scenario.name = "decode-window-chat";
  TenantSpec chat{.name = "chat", .trace = trace_by_name("chat1m")};
  chat.session = SessionSpec{.max_turns = 3,
                             .mean_think_time_s = 2.0,
                             .shared_prefix_tokens = 256,
                             .prefix_groups = 2,
                             .max_context_tokens = 2048};
  scenario.tenants = {chat};
  scenario.arrival = ArrivalSpec{ArrivalKind::kPoisson, qps, 0};
  scenario.profile = RateProfile::constant();
  scenario.num_requests = num_requests;
  return generate_scenario_trace(scenario, 5);
}

BackendFactory reference_backends(const SimulationConfig& config) {
  return [node = config.node, model = config.model,
          parallel = config.parallel](ReplicaId r) {
    return std::make_unique<ReferenceExecutor>(
        node, model, parallel, 1 + static_cast<std::uint64_t>(r));
  };
}

VidurSession& session() {
  static VidurSession shared(model_by_name("llama2-7b"));
  return shared;
}

/// Predictors over one onboarded estimator, each with its own memo.
BackendFactory predictor_backends(const SimulationConfig& config) {
  const RuntimeEstimator* estimator = &session().estimator("a100");
  return [estimator, model = config.model,
          parallel = config.parallel](ReplicaId) {
    return std::make_unique<ExecutionTimePredictor>(estimator, model,
                                                    parallel);
  };
}

/// One run's observable outcome.
struct Outcome {
  SimulationMetrics metrics;
  std::vector<RequestRecord> records;
  Simulator::DecodeWindowStats windows;
};

Outcome run_once(SimulationConfig config, const Trace& trace,
                 const BackendFactory& factory, bool traced) {
  TraceRecorder recorder;
  if (traced) config.obs.trace = &recorder;
  Simulator sim(config, trace, factory);
  Outcome out;
  out.metrics = sim.run();
  for (const RequestState& state : sim.request_states())
    out.records.push_back(state.record);
  out.windows = sim.decode_window_stats();
  return out;
}

/// The metrics without the estimator's cache counters: they count lookups
/// of a cache shared across runs, not anything simulated.
SimulationMetrics without_estimator_counters(SimulationMetrics m) {
  std::erase_if(m.registry.counters, [](const auto& counter) {
    return counter.name.starts_with("estimator.");
  });
  m.estimator_cache_hits = 0;
  m.estimator_cache_misses = 0;
  return m;
}

::testing::AssertionResult same_token_times(const TokenTimes& a,
                                            const TokenTimes& b) {
  if (a.size() != b.size() || a.worst_gap() != b.worst_gap() ||
      !std::equal(a.begin(), a.end(), b.begin(), b.end()))
    return ::testing::AssertionFailure() << "token times differ";
  const auto& ra = a.runs();
  const auto& rb = b.runs();
  const auto same_run = [](const TokenTimes::Run& x, const TokenTimes::Run& y) {
    return x.slot == y.slot && x.first == y.first && x.count == y.count;
  };
  if (!std::equal(ra.begin(), ra.end(), rb.begin(), rb.end(), same_run))
    return ::testing::AssertionFailure() << "token runs differ";
  return ::testing::AssertionSuccess();
}

::testing::AssertionResult same_records(const std::vector<RequestRecord>& a,
                                        const std::vector<RequestRecord>& b) {
  if (a.size() != b.size())
    return ::testing::AssertionFailure()
           << a.size() << " records against " << b.size();
  for (std::size_t i = 0; i < a.size(); ++i) {
    const RequestRecord& x = a[i];
    const RequestRecord& y = b[i];
    const bool lifecycle =
        x.id == y.id && x.tenant == y.tenant &&
        x.arrival_time == y.arrival_time &&
        x.first_scheduled_time == y.first_scheduled_time &&
        x.prefill_completed_time == y.prefill_completed_time &&
        x.completed_time == y.completed_time &&
        x.prefill_tokens == y.prefill_tokens &&
        x.decode_tokens == y.decode_tokens &&
        x.num_restarts == y.num_restarts && x.num_retries == y.num_retries &&
        x.num_handoffs == y.num_handoffs && x.shed == y.shed &&
        x.lost == y.lost;
    if (!lifecycle)
      return ::testing::AssertionFailure()
             << "request " << x.id << ": lifecycle fields differ";
    const ::testing::AssertionResult tokens =
        same_token_times(x.token_times, y.token_times);
    if (!tokens)
      return ::testing::AssertionFailure()
             << "request " << x.id << ": " << tokens.message();
  }
  return ::testing::AssertionSuccess();
}

/// Runs `config` with and without a trace recorder and expects identical
/// outcomes. Returns the windowed (untraced) run.
Outcome expect_exact(const SimulationConfig& config, const Trace& trace,
                     const BackendFactory& factory) {
  Outcome windowed = run_once(config, trace, factory, /*traced=*/false);
  const Outcome reference = run_once(config, trace, factory, /*traced=*/true);
  EXPECT_EQ(reference.windows.iterations, 0u);
  const SimulationMetrics& a = windowed.metrics;
  const SimulationMetrics& b = reference.metrics;
  // The headline figures first, so a failure names what moved.
  EXPECT_EQ(a.num_sim_events, b.num_sim_events);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.mfu, b.mfu);
  EXPECT_EQ(a.mbu, b.mbu);
  EXPECT_EQ(a.tbt, b.tbt);
  EXPECT_TRUE(without_estimator_counters(a) == without_estimator_counters(b))
      << "metrics differ";
  EXPECT_TRUE(same_records(windowed.records, reference.records));
  return windowed;
}

// ------------------------------------------------------ policy premise

/// Owns one replica scheduler and its requests.
struct Replica {
  std::unique_ptr<ReplicaScheduler> scheduler;
  std::vector<std::unique_ptr<RequestState>> states;
  std::shared_ptr<TokenTimeline> timeline = std::make_shared<TokenTimeline>(1);

  Replica(SchedulerKind kind, long blocks) {
    SchedulerConfig config;
    config.kind = kind;
    config.max_batch_size = 8;
    config.chunk_size = 64;
    config.max_tokens_per_iteration = 4096;
    MemoryPlan plan;
    plan.num_kv_blocks = blocks;
    plan.block_size = 16;
    scheduler = make_replica_scheduler(config, plan);
    scheduler->set_timeline(timeline, 0);
    const TokenCount lengths[][2] = {
        {40, 30}, {70, 45}, {20, 60}, {100, 25}, {33, 50}};
    for (const auto& [prefill, decode] : lengths) {
      auto state = std::make_unique<RequestState>();
      state->request.id = static_cast<RequestId>(states.size());
      state->request.prefill_tokens = prefill;
      state->request.decode_tokens = decode;
      state->record.id = state->request.id;
      state->record.token_times.bind(timeline);
      scheduler->enqueue(state.get());
      states.push_back(std::move(state));
    }
  }

  BatchSpec schedule(Seconds now) {
    BatchSpec batch;
    scheduler->schedule_into(batch, now);
    return batch;
  }
};

/// The same requests (by id), kinds and KV contexts, in the same order.
::testing::AssertionResult same_batch(const BatchSpec& a, const BatchSpec& b) {
  if (a.size() != b.size())
    return ::testing::AssertionFailure()
           << a.size() << " items against " << b.size();
  for (std::size_t i = 0; i < a.items.size(); ++i) {
    const BatchItem& x = a.items[i];
    const BatchItem& y = b.items[i];
    if (x.request != y.request || x.q_tokens != y.q_tokens ||
        x.kv_context != y.kv_context || x.is_prefill != y.is_prefill ||
        x.completes_prefill != y.completes_prefill)
      return ::testing::AssertionFailure() << "item " << i << " differs";
  }
  return ::testing::AssertionSuccess();
}

constexpr SchedulerKind kAllPolicies[] = {
    SchedulerKind::kFasterTransformer, SchedulerKind::kOrca,
    SchedulerKind::kVllm, SchedulerKind::kSarathi, SchedulerKind::kLightLlm};

TEST(DecodeWindowPremise, EveryPolicyRepeatsAStableDecodeBatch) {
  // When every running request decodes and the queue is empty, the next
  // iteration forms the identical batch, one token further along, until a
  // request finishes. The windows rely on exactly this.
  for (const SchedulerKind kind : kAllPolicies) {
    SCOPED_TRACE(scheduler_name(kind));
    Replica replica(kind, /*blocks=*/1000);
    ReplicaScheduler& scheduler = *replica.scheduler;
    Seconds now = 0.0;
    BatchSpec prev;
    bool repeat_due = false;
    int repeats = 0;
    while (scheduler.has_work()) {
      const BatchSpec batch = replica.schedule(now);
      if (repeat_due) {
        BatchSpec expected = prev;
        for (BatchItem& item : expected.items) ++item.kv_context;
        EXPECT_TRUE(same_batch(batch, expected));
        EXPECT_TRUE(scheduler.stable_decode(batch));
        ++repeats;
      }
      const bool stable = scheduler.stable_decode(batch);
      now += 0.01;
      repeat_due = scheduler.on_batch_end(batch, now).empty() && stable;
      prev = batch;
    }
    EXPECT_GT(repeats, 20);
  }
}

TEST(DecodeWindowPremise, WindowStepsMatchPerIterationScheduling) {
  // Two copies of one replica: `stepped` forms every iteration through
  // schedule_into/on_batch_end, `windowed` runs each stable decode batch
  // through next_decode_step and end_decode_window. Batches, KV blocks
  // and token times must agree, including where the KV pool runs out and
  // the per-iteration path preempts (24 blocks hold 384 tokens).
  for (const long blocks : {1000L, 24L}) {
    for (const SchedulerKind kind : kAllPolicies) {
      if (kind == SchedulerKind::kFasterTransformer && blocks < 1000)
        continue;  // reserves whole sequences: no decode ever allocates
      if (kind == SchedulerKind::kLightLlm && blocks < 1000)
        continue;  // admits only what it can grow to full length
      SCOPED_TRACE(scheduler_name(kind) + " blocks=" +
                   std::to_string(blocks));
      Replica stepped(kind, blocks);
      Replica windowed(kind, blocks);
      int window_steps = 0;
      int refusals = 0;
      int iterations = 0;
      Seconds now = 0.0;
      BatchSpec a = stepped.schedule(now);
      BatchSpec b = windowed.schedule(now);
      while (stepped.scheduler->has_work()) {
        ASSERT_LT(++iterations, 100000) << "no progress";
        ASSERT_TRUE(same_batch(a, b));
        bool refused = false;
        if (windowed.scheduler->stable_decode(b)) {
          const TokenCount steps_left =
              windowed.scheduler->decode_steps_left(b);
          TokenCount steps = 0;
          std::uint32_t first_index = 0;
          Seconds first_end = 0.0;
          Seconds last_end = 0.0;
          Seconds max_gap = -1.0;
          while (steps < steps_left) {
            const bool formed = windowed.scheduler->next_decode_step(b);
            now += 0.01;
            EXPECT_TRUE(stepped.scheduler->on_batch_end(a, now).empty());
            a = stepped.schedule(now);
            if (!formed) {
              // The blocks were not free: the per-iteration path preempted
              // and formed something other than the repeat.
              BatchSpec repeat = b;
              for (BatchItem& item : repeat.items) ++item.kv_context;
              EXPECT_FALSE(same_batch(a, repeat));
              refused = true;
              ++refusals;
              break;
            }
            const std::uint32_t index = windowed.timeline->push(0, now);
            if (steps == 0) {
              first_index = index;
              first_end = now;
            } else {
              max_gap = std::max(max_gap, now - last_end);
            }
            last_end = now;
            ++steps;
            ++window_steps;
            ASSERT_TRUE(same_batch(a, b));
          }
          if (steps > 0)
            windowed.scheduler->end_decode_window(b, steps, first_index,
                                                  first_end, last_end,
                                                  max_gap);
        }
        if (!refused) {
          now += 0.01;
          stepped.scheduler->on_batch_end(a, now);
          a = stepped.schedule(now);
        }
        // The windowed copy ends its running iteration the per-iteration
        // way, as the simulator's one queued stage-end event does.
        windowed.scheduler->on_batch_end(b, now);
        b = windowed.schedule(now);
      }
      EXPECT_FALSE(windowed.scheduler->has_work());
      EXPECT_GT(window_steps, 0);
      if (blocks < 1000) {
        EXPECT_GT(refusals, 0);
      }
      EXPECT_EQ(stepped.scheduler->blocks().used_blocks(),
                windowed.scheduler->blocks().used_blocks());
      for (std::size_t i = 0; i < stepped.states.size(); ++i) {
        const RequestState& x = *stepped.states[i];
        const RequestState& y = *windowed.states[i];
        EXPECT_EQ(x.decode_done, y.decode_done);
        EXPECT_EQ(x.kv_context, y.kv_context);
        EXPECT_EQ(x.record.num_restarts, y.record.num_restarts);
        EXPECT_EQ(x.record.completed_time, y.record.completed_time);
        EXPECT_TRUE(same_token_times(x.record.token_times,
                                     y.record.token_times))
            << "request " << i;
      }
    }
  }
}

// -------------------------------------------------------- exactness grid

struct Routing {
  const char* name;
  GlobalSchedulerKind kind;
  int threads;
  bool cache;  ///< prefix cache, KV pool small enough to reclaim from it
};

constexpr Routing kRoutings[] = {
    {"round_robin", GlobalSchedulerKind::kRoundRobin, 1, false},
    {"round_robin/threads=4", GlobalSchedulerKind::kRoundRobin, 4, false},
    {"least_outstanding", GlobalSchedulerKind::kLeastOutstanding, 1, false},
    {"cache_aware+prefix_cache", GlobalSchedulerKind::kCacheAware, 1, true},
};

/// Every case of the grid on one backend kind. Windows must open in every
/// uncut run (its last requests decode with nothing waiting) and in some
/// run at each cut (a single replica at 40 qps may never drain its queue
/// before one), and the cache cases must evict under KV pressure.
void run_grid(bool predictor) {
  const SchedulerKind policies[] = {
      SchedulerKind::kVllm, SchedulerKind::kOrca, SchedulerKind::kSarathi,
      SchedulerKind::kFasterTransformer};
  const double rates[] = {0.5, 4.0, 40.0};
  const Seconds cuts[] = {kInfiniteTime, 20.0, 7.3};
  std::vector<Trace> traces;
  for (const double qps : rates) traces.push_back(chat_sessions(qps, 32));
  std::int64_t evicted = 0;
  std::vector<int> opened(std::size(cuts), 0);
  for (const SchedulerKind policy : policies) {
    for (const int replicas : {1, 3}) {
      for (const Routing& routing : kRoutings) {
        for (std::size_t q = 0; q < traces.size(); ++q) {
          for (std::size_t c = 0; c < std::size(cuts); ++c) {
            const Seconds cut = cuts[c];
            SimulationConfig config = base_config(policy, replicas);
            config.global_scheduler = routing.kind;
            config.threads = routing.threads;
            config.max_sim_time = cut;
            if (routing.cache) {
              config.prefix_cache.enabled = true;
              config.memory_utilization = 0.21;  // 287 blocks
            }
            std::ostringstream name;
            name << scheduler_name(policy) << " x" << replicas << " "
                 << routing.name << " qps=" << rates[q]
                 << " max_sim_time=" << cut;
            SCOPED_TRACE(name.str());
            const Outcome windowed = expect_exact(
                config, traces[q],
                predictor ? predictor_backends(config)
                          : reference_backends(config));
            if (cut == kInfiniteTime) {
              EXPECT_GT(windowed.windows.windows, 0u);
            }
            opened[c] += windowed.windows.windows > 0 ? 1 : 0;
            evicted += windowed.metrics.prefix_cache.evicted_blocks;
          }
        }
      }
    }
  }
  for (const int count : opened) EXPECT_GT(count, 0);
  EXPECT_GT(evicted, 0);
}

TEST(DecodeWindowExactness, GridOnTheReferenceExecutor) { run_grid(false); }

TEST(DecodeWindowExactness, GridOnThePredictor) { run_grid(true); }

// --------------------------------------------------------- window edges

TEST(DecodeWindowEdges, DegradeEdgesOfAShardedFleet) {
  // Degrade-only faults keep a round-robin fleet sharded; every degrade
  // edge is a central event that bounds the shards' rounds. Episodes
  // every ~2 s against multi-second decode runs put edges inside
  // would-be windows, where the slow factor must switch mid-run.
  const Trace trace = chat_sessions(0.5, 30);
  for (const int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    SimulationConfig config = base_config(SchedulerKind::kVllm, 3);
    config.threads = threads;
    const Outcome healthy = run_once(config, trace,
                                     reference_backends(config), false);
    FaultProfile degrade;
    degrade.degrade_mtbf_s = 2.0;
    degrade.degrade_factor = 3.0;
    degrade.degrade_duration_s = 1.5;
    config.faults.seed = 17;
    config.faults.profiles = {degrade};
    const Outcome windowed =
        expect_exact(config, trace, reference_backends(config));
    EXPECT_GT(windowed.metrics.resilience.num_degrade_events, 10);
    EXPECT_GT(windowed.windows.iterations, 0u);
    EXPECT_NE(windowed.metrics.makespan, healthy.metrics.makespan);
  }
}

TEST(DecodeWindowEdges, ArrivalAtExactlyABatchEnd) {
  // A second request arrives at exactly the end of one of the first
  // one's decode iterations: it is routed before that batch's end event
  // runs, so the batch formed then must include it. A window may not form
  // an iteration at that time.
  const Request first{.id = 0, .arrival_time = 0.0, .prefill_tokens = 200,
                      .decode_tokens = 120};
  for (const GlobalSchedulerKind routing :
       {GlobalSchedulerKind::kRoundRobin,
        GlobalSchedulerKind::kLeastOutstanding}) {
    SCOPED_TRACE(global_scheduler_name(routing));
    SimulationConfig config = base_config(SchedulerKind::kVllm, 1);
    config.global_scheduler = routing;
    const BackendFactory backends = predictor_backends(config);
    const Outcome solo = run_once(config, {first}, backends, true);
    const TokenTimes& times = solo.records[0].token_times;
    ASSERT_EQ(times.size(), 120u);
    const Seconds batch_end = *std::next(times.begin(), 60);
    const Request second{.id = 1, .arrival_time = batch_end,
                         .prefill_tokens = 100, .decode_tokens = 50};
    const Outcome windowed = expect_exact(config, {first, second}, backends);
    EXPECT_GT(windowed.windows.iterations, 0u);
    // The batch end is still there, and the second request started at it.
    const TokenTimes& joined = windowed.records[0].token_times;
    EXPECT_NE(std::find(joined.begin(), joined.end(), batch_end),
              joined.end());
    EXPECT_EQ(windowed.records[1].first_scheduled_time, batch_end);
  }
}

TEST(DecodeWindowEdges, KvExhaustionThatPreempts) {
  // 185 blocks (2,960 tokens) against up to ~2,600-token requests: decode
  // growth runs the pool dry and the policies preempt. A window must stop
  // before any iteration whose blocks are not free.
  const Trace trace = chat_sessions(4.0, 40);
  for (const SchedulerKind policy :
       {SchedulerKind::kVllm, SchedulerKind::kOrca, SchedulerKind::kSarathi}) {
    for (const GlobalSchedulerKind routing :
         {GlobalSchedulerKind::kRoundRobin,
          GlobalSchedulerKind::kLeastOutstanding}) {
      SCOPED_TRACE(scheduler_name(policy) + " " +
                   global_scheduler_name(routing));
      SimulationConfig config = base_config(policy, 2);
      config.global_scheduler = routing;
      config.memory_utilization = 0.2;
      const Outcome windowed =
          expect_exact(config, trace, reference_backends(config));
      EXPECT_GT(windowed.metrics.registry.counter("scheduler.preemptions"),
                0u);
      EXPECT_GT(windowed.windows.iterations, 0u);
    }
  }
}

// ---------------------------------------------------------- eligibility

TEST(DecodeWindowEligibility, RunsThatNeverOpenAWindow) {
  // Windows need a PP = 1 replica and no trace recorder or operator
  // metrics; on the central queue also no rolling windows, elastic fleet,
  // fault injector or disaggregation, and routing that binds each arrival
  // on the spot. Each case below breaks one of these; the control keeps
  // them all.
  const Trace trace = chat_sessions(2.0, 30);
  const auto windows_of = [&](const SimulationConfig& config) {
    return run_once(config, trace, reference_backends(config), false)
        .windows.iterations;
  };
  const SimulationConfig control = base_config(SchedulerKind::kVllm, 3);
  EXPECT_GT(windows_of(control), 0u);

  struct Case {
    const char* name;
    SimulationConfig config;
  };
  std::vector<Case> cases;
  {
    SimulationConfig c = control;
    c.global_scheduler = GlobalSchedulerKind::kDeferred;
    cases.push_back({"deferred routing", c});
    c.global_scheduler = GlobalSchedulerKind::kPriority;
    cases.push_back({"priority routing", c});
  }
  {
    SimulationConfig c = control;
    c.disagg.num_prefill_replicas = 1;
    cases.push_back({"disaggregated pools", c});
  }
  {
    SimulationConfig c = control;
    c.autoscale.kind = AutoscalerKind::kReactive;
    c.autoscale.provision_delay = 5.0;
    c.autoscale.warmup_delay = 2.5;
    c.autoscale.decision_interval = 2.0;
    cases.push_back({"elastic fleet", c});
  }
  {
    SimulationConfig c = control;
    c.global_scheduler = GlobalSchedulerKind::kLeastOutstanding;
    FaultProfile degrade;
    degrade.degrade_mtbf_s = 5.0;
    degrade.degrade_factor = 2.0;
    degrade.degrade_duration_s = 1.0;
    c.faults.seed = 3;
    c.faults.profiles = {degrade};
    cases.push_back({"fault-injected central run", c});
  }
  {
    SimulationConfig c = control;
    c.obs.rolling_window_s = 5.0;
    cases.push_back({"rolling windows", c});
  }
  {
    SimulationConfig c = control;
    c.collect_operator_metrics = true;
    cases.push_back({"operator metrics", c});
  }
  {
    SimulationConfig c = control;
    c.parallel.pipeline_parallel = 2;
    cases.push_back({"pipeline-parallel replicas", c});
  }
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    EXPECT_EQ(windows_of(c.config), 0u);
  }
}

}  // namespace
}  // namespace vidur
