// Tests for src/search: config-space enumeration, capacity search, pruning
// exactness, SLO filtering and Pareto frontiers (Vidur-Search, paper §6).
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "search/search.h"

namespace vidur {
namespace {

SessionOptions fast_session_options() {
  SessionOptions options;
  options.profiler.max_tokens = 8192;
  options.tp_degrees = {1, 2};
  return options;
}

VidurSession& shared_session() {
  static VidurSession session(model_by_name("llama2-7b"),
                              fast_session_options());
  return session;
}

SearchSpace tiny_space() {
  SearchSpace space;
  space.skus = {"a100"};
  space.tp_degrees = {1, 2};
  space.pp_degrees = {1};
  space.max_total_gpus = 2;
  space.schedulers = {SchedulerKind::kVllm, SchedulerKind::kSarathi};
  space.batch_sizes = {32};
  space.sarathi_chunk_sizes = {512};
  return space;
}

CapacitySearchOptions fast_capacity() {
  CapacitySearchOptions options;
  options.num_requests = 100;
  options.requests_per_slot = 4;
  options.binary_search_iters = 3;
  return options;
}

// ------------------------------------------------------------ config space

TEST(ConfigSpace, EnumeratesExpectedCount) {
  // tp {1,2} x pp {1} x sched {vllm, sarathi(1 chunk)} x bs {32} x sku {1}.
  const auto configs = tiny_space().enumerate(model_by_name("llama2-7b"));
  EXPECT_EQ(configs.size(), 4u);
}

TEST(ConfigSpace, SkipsInvalidTpDegrees) {
  SearchSpace space = tiny_space();
  space.tp_degrees = {1, 3};  // 3 does not divide 32 heads
  const auto configs = space.enumerate(model_by_name("llama2-7b"));
  for (const auto& c : configs) EXPECT_NE(c.parallel.tensor_parallel, 3);
}

TEST(ConfigSpace, SkipsOversizedParallelism) {
  SearchSpace space = tiny_space();
  space.tp_degrees = {2};
  space.pp_degrees = {2};
  space.max_total_gpus = 2;  // tp*pp = 4 > 2
  EXPECT_TRUE(space.enumerate(model_by_name("llama2-7b")).empty());
}

TEST(ConfigSpace, ReplicasFillGpuBudget) {
  SearchSpace space = tiny_space();
  space.max_total_gpus = 8;
  for (const auto& c : space.enumerate(model_by_name("llama2-7b"))) {
    EXPECT_LE(c.total_gpus(), 8);
    EXPECT_GT(c.total_gpus(), 8 - c.parallel.gpus_per_replica());
  }
}

TEST(ConfigSpace, BatchSizeDividedAcrossPipelineStages) {
  SearchSpace space = tiny_space();
  space.pp_degrees = {2};
  space.max_total_gpus = 4;
  space.batch_sizes = {64};
  for (const auto& c : space.enumerate(model_by_name("llama2-7b")))
    EXPECT_EQ(c.scheduler.max_batch_size, 32);  // 64 / pp2
}

TEST(ConfigSpace, SarathiGetsChunkVariants) {
  SearchSpace space = tiny_space();
  space.schedulers = {SchedulerKind::kSarathi};
  space.sarathi_chunk_sizes = {512, 1024, 2048};
  const auto configs = space.enumerate(model_by_name("llama2-7b"));
  EXPECT_EQ(configs.size(), 6u);  // 2 tp x 3 chunks
}

// --------------------------------------------------------------- capacity

TEST(Capacity, ProbeRequestsScaleWithConcurrency) {
  CapacitySearchOptions options;
  options.num_requests = 100;
  options.requests_per_slot = 6;
  DeploymentConfig config;
  config.scheduler.max_batch_size = 64;
  config.parallel = ParallelConfig{1, 1, 4};
  EXPECT_EQ(options.probe_requests(config), 6 * 64 * 4);
  config.scheduler.max_batch_size = 2;
  config.parallel = ParallelConfig{1, 1, 1};
  EXPECT_EQ(options.probe_requests(config), 100);
}

TEST(Capacity, FindsSaneCapacityBelowOfflineBound) {
  DeploymentConfig config;
  config.sku_name = "a100";
  config.parallel = ParallelConfig{1, 1, 1};
  config.scheduler.kind = SchedulerKind::kSarathi;
  config.scheduler.max_batch_size = 32;
  const CapacitySearchOptions options = fast_capacity();
  const double offline = offline_throughput_qps(
      shared_session(), config, trace_by_name("chat1m"), options);
  const CapacityResult cap = find_capacity(shared_session(), config,
                                           trace_by_name("chat1m"), options);
  ASSERT_TRUE(cap.feasible);
  EXPECT_GT(cap.capacity_qps, 0.1);
  EXPECT_LE(cap.capacity_qps, offline * 1.01);
  EXPECT_LT(cap.metrics_at_capacity.scheduling_delay.p99,
            options.max_p99_scheduling_delay);
  EXPECT_GT(cap.num_probes, 2);
}

TEST(Capacity, MoreReplicasRaiseCapacity) {
  DeploymentConfig one;
  one.sku_name = "a100";
  one.parallel = ParallelConfig{1, 1, 1};
  one.scheduler.kind = SchedulerKind::kSarathi;
  one.scheduler.max_batch_size = 32;
  DeploymentConfig two = one;
  two.parallel.num_replicas = 2;

  const CapacitySearchOptions options = fast_capacity();
  const CapacityResult cap1 = find_capacity(shared_session(), one,
                                            trace_by_name("chat1m"), options);
  const CapacityResult cap2 = find_capacity(shared_session(), two,
                                            trace_by_name("chat1m"), options);
  ASSERT_TRUE(cap1.feasible);
  ASSERT_TRUE(cap2.feasible);
  // Two replicas serve strictly more than one; sublinear scaling is fine
  // (binary-search granularity), superlinear is not.
  EXPECT_GT(cap2.capacity_qps, cap1.capacity_qps * 1.3);
  EXPECT_LT(cap2.capacity_qps, cap1.capacity_qps * 2.3);
}

TEST(Capacity, InfeasibleDeploymentReportsNotFeasible) {
  DeploymentConfig config;
  config.sku_name = "a100";
  config.parallel = ParallelConfig{1, 1, 1};
  // 70B cannot fit on one A100; the session profiled 7B, but planning fails
  // first inside the simulation -> feasible == false, no throw.
  VidurSession session70(model_by_name("llama2-70b"), fast_session_options());
  const CapacityResult cap = find_capacity(
      session70, config, trace_by_name("chat1m"), fast_capacity());
  EXPECT_FALSE(cap.feasible);
  EXPECT_EQ(cap.capacity_qps, 0.0);
}

TEST(Capacity, ProbeFeasibilityCriteria) {
  CapacitySearchOptions options;
  options.max_p99_scheduling_delay = 5.0;
  SimulationMetrics m;
  m.num_completed = 100;
  m.scheduling_delay.p99 = 1.0;
  EXPECT_TRUE(probe_feasible(m, 100, options));
  m.scheduling_delay.p99 = 6.0;
  EXPECT_FALSE(probe_feasible(m, 100, options));
  m.scheduling_delay.p99 = 1.0;
  m.num_completed = 99;  // incomplete run
  EXPECT_FALSE(probe_feasible(m, 100, options));
}

/// The run's metrics without the estimator-cache counters: they are
/// deltas of the session-wide estimator's counters, so they depend on what
/// earlier and concurrent probes left in its cache.
SimulationMetrics without_estimator_counters(SimulationMetrics m) {
  m.estimator_cache_hits = 0;
  m.estimator_cache_misses = 0;
  std::erase_if(m.registry.counters, [](const auto& c) {
    return c.name.rfind("estimator.", 0) == 0;
  });
  return m;
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// A delay bound the single replica misses near its offline bound: the
/// bracket steps down, and bisection passes, then fails to the end.
CapacitySearchOptions tight_capacity() {
  CapacitySearchOptions options = fast_capacity();
  options.max_p99_scheduling_delay = 0.1;
  options.binary_search_iters = 6;
  return options;
}

DeploymentConfig sarathi_a100() {
  DeploymentConfig config;
  config.sku_name = "a100";
  config.parallel = ParallelConfig{1, 1, 1};
  config.scheduler.kind = SchedulerKind::kSarathi;
  config.scheduler.max_batch_size = 32;
  return config;
}

TEST(Capacity, SpeculativeProbesReplayTheSerialSearch) {
  // Every case against the serial search (no pool) at 2, 3 and 4 workers:
  // same verdict, capacity bit for bit, serial probe count, and the metrics
  // of the last passing probe on the serial path.
  VidurSession session70(model_by_name("llama2-70b"), fast_session_options());
  const double offline = offline_throughput_qps(
      shared_session(), sarathi_a100(), trace_by_name("chat1m"),
      fast_capacity());
  ASSERT_GT(offline, 0.0);
  struct Case {
    const char* name;
    VidurSession* session;
    CapacitySearchOptions options;
    double hint;
  };
  const CapacitySearchOptions tight = tight_capacity();
  CapacitySearchOptions no_bisection = fast_capacity();
  no_bisection.binary_search_iters = 0;
  CapacitySearchOptions one_bracket = fast_capacity();
  one_bracket.max_bracket_steps = 1;
  CapacitySearchOptions tight_one_bracket = tight;
  tight_one_bracket.max_bracket_steps = 1;
  const std::vector<Case> cases = {
      {"all-pass", &shared_session(), fast_capacity(), 0.0},
      {"all-pass with hint", &shared_session(), fast_capacity(), offline},
      {"tight delay", &shared_session(), tight, offline},
      {"70B on one A100", &session70, fast_capacity(), 0.0},
      {"70B on one A100, probes throw", &session70, fast_capacity(), 1.0},
      {"binary_search_iters 0", &shared_session(), no_bisection, offline},
      {"max_bracket_steps 1", &shared_session(), one_bracket, offline},
      {"max_bracket_steps 1, tight", &shared_session(), tight_one_bracket,
       offline},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const CapacityResult serial =
        find_capacity(*c.session, sarathi_a100(), trace_by_name("chat1m"),
                      c.options, c.hint, nullptr);
    for (const std::size_t workers : {2u, 3u, 4u}) {
      SCOPED_TRACE(testing::Message() << workers << " workers");
      ThreadPool pool(workers);
      const CapacityResult spec =
          find_capacity(*c.session, sarathi_a100(), trace_by_name("chat1m"),
                        c.options, c.hint, &pool);
      EXPECT_EQ(spec.feasible, serial.feasible);
      EXPECT_EQ(bits(spec.capacity_qps), bits(serial.capacity_qps));
      EXPECT_EQ(spec.num_probes, serial.num_probes);
      EXPECT_EQ(without_estimator_counters(spec.metrics_at_capacity),
                without_estimator_counters(serial.metrics_at_capacity));
    }
  }
}

TEST(Capacity, TightDelayStepsDownAndMixesBisectionVerdicts) {
  // The tight case above must exercise failures. Replaying the serial
  // search against its result recovers every verdict (a probe passed iff
  // the capacity is at or above its rate): the bracket steps down, and
  // bisection passes, then fails at least twice after its last pass, so
  // speculative probes are discarded after the last passing one.
  const CapacitySearchOptions tight = tight_capacity();
  const double offline = offline_throughput_qps(
      shared_session(), sarathi_a100(), trace_by_name("chat1m"), tight);
  const CapacityResult cap = find_capacity(
      shared_session(), sarathi_a100(), trace_by_name("chat1m"), tight,
      offline);
  ASSERT_TRUE(cap.feasible);
  double lo = offline * 0.95, hi = offline;
  int bracket_failures = 0;
  while (cap.capacity_qps < lo) {
    hi = lo;
    lo *= 0.6;
    ++bracket_failures;
  }
  std::string verdicts;
  for (int i = 0; i < tight.binary_search_iters; ++i) {
    const double mid = 0.5 * (lo + hi);
    const bool pass = cap.capacity_qps >= mid;
    verdicts += pass ? 'P' : 'F';
    (pass ? lo : hi) = mid;
  }
  EXPECT_EQ(lo, cap.capacity_qps);
  EXPECT_GE(bracket_failures, 1);
  EXPECT_EQ(cap.num_probes, 1 + bracket_failures + tight.binary_search_iters);
  EXPECT_NE(verdicts.find('P'), std::string::npos) << verdicts;
  EXPECT_EQ(verdicts.substr(verdicts.size() - 2), "FF") << verdicts;
}

TEST(Capacity, ProbeFromTheSearchPoolsOwnTaskIsRejected) {
  // A capacity search handed the pool it runs on would wait on itself.
  ThreadPool pool(2);
  std::atomic<bool> rejected{false};
  pool.submit([&] {
    try {
      find_capacity(shared_session(), sarathi_a100(), trace_by_name("chat1m"),
                    fast_capacity(), 1.0, &pool);
    } catch (const Error&) {
      rejected = true;
    }
  });
  pool.wait_idle();
  EXPECT_TRUE(rejected.load());
}

// ----------------------------------------------------------------- search

TEST(Search, ResultsDoNotDependOnTheWorkerCount) {
  SearchSpace space = tiny_space();
  space.batch_sizes = {32, 64};
  VidurSearchOptions options;
  options.capacity = fast_capacity();
  options.prune = true;
  std::vector<SearchResult> results;
  for (const int threads : {1, 2, 3, 4}) {
    options.num_threads = threads;
    results.push_back(run_search(shared_session(), space,
                                 trace_by_name("chat1m"), options));
  }
  const SearchResult& serial = results.front();
  ASSERT_EQ(serial.evaluations.size(), 8u);
  ASSERT_TRUE(serial.best().has_value());
  for (std::size_t r = 1; r < results.size(); ++r) {
    SCOPED_TRACE(testing::Message() << "threads " << r + 1);
    const SearchResult& other = results[r];
    ASSERT_EQ(other.evaluations.size(), serial.evaluations.size());
    for (std::size_t i = 0; i < serial.evaluations.size(); ++i) {
      const ConfigEvaluation& a = serial.evaluations[i];
      const ConfigEvaluation& b = other.evaluations[i];
      SCOPED_TRACE(a.config.to_string());
      EXPECT_EQ(b.config.to_string(), a.config.to_string());
      EXPECT_EQ(b.num_probes, a.num_probes);
      EXPECT_EQ(b.feasible, a.feasible);
      EXPECT_EQ(bits(b.capacity_qps), bits(a.capacity_qps));
      EXPECT_EQ(bits(b.ttft_p90), bits(a.ttft_p90));
      EXPECT_EQ(bits(b.tbt_p99), bits(a.tbt_p99));
      EXPECT_EQ(b.meets_slo, a.meets_slo);
    }
    ASSERT_TRUE(other.best().has_value());
    EXPECT_EQ(other.best()->config.to_string(),
              serial.best()->config.to_string());
    EXPECT_EQ(bits(other.best()->qps_per_dollar),
              bits(serial.best()->qps_per_dollar));
  }
}


TEST(Search, PruningFindsTheSameOptimum) {
  VidurSearchOptions options;
  options.capacity = fast_capacity();
  options.num_threads = 2;
  options.prune = false;
  const SearchResult full = run_search(shared_session(), tiny_space(),
                                       trace_by_name("chat1m"), options);
  options.prune = true;
  const SearchResult pruned = run_search(shared_session(), tiny_space(),
                                         trace_by_name("chat1m"), options);
  ASSERT_TRUE(full.best_unconstrained().has_value());
  ASSERT_TRUE(pruned.best_unconstrained().has_value());
  EXPECT_EQ(full.best_unconstrained()->config.to_string(),
            pruned.best_unconstrained()->config.to_string());
  // Pruning must not change the optimum's value materially (same probes).
  EXPECT_NEAR(full.best_unconstrained()->qps_per_dollar,
              pruned.best_unconstrained()->qps_per_dollar, 1e-9);
}

TEST(Search, EvaluationsCoverTheWholeSpace) {
  VidurSearchOptions options;
  options.capacity = fast_capacity();
  options.prune = false;
  const SearchResult result = run_search(shared_session(), tiny_space(),
                                         trace_by_name("chat1m"), options);
  EXPECT_EQ(result.evaluations.size(), 4u);
  for (const auto& e : result.evaluations) {
    EXPECT_TRUE(e.feasible);
    EXPECT_GT(e.capacity_qps, 0.0);
    EXPECT_GT(e.cost_per_hour, 0.0);
    EXPECT_NEAR(e.qps_per_dollar, e.capacity_qps / e.cost_per_hour, 1e-12);
  }
}

TEST(Search, SloFilteringSelectsCompliantBest) {
  VidurSearchOptions options;
  options.capacity = fast_capacity();
  options.prune = false;
  options.slo.ttft_target = 1e9;  // permissive
  options.slo.tbt_target = 1e9;
  const SearchResult result = run_search(shared_session(), tiny_space(),
                                         trace_by_name("chat1m"), options);
  ASSERT_TRUE(result.best().has_value());
  EXPECT_EQ(result.best()->config.to_string(),
            result.best_unconstrained()->config.to_string());

  // Impossible SLOs: nothing qualifies.
  SearchResult copy = result;
  for (auto& e : copy.evaluations) e.meets_slo = false;
  EXPECT_FALSE(copy.best().has_value());
  EXPECT_TRUE(copy.best_unconstrained().has_value());
}

TEST(Search, ParetoFrontierIsNonDominatedAndSorted) {
  SearchResult result;
  auto add = [&result](double ttft, double tbt, double value) {
    ConfigEvaluation e;
    e.feasible = true;
    e.ttft_p90 = ttft;
    e.tbt_p99 = tbt;
    e.qps_per_dollar = value;
    result.evaluations.push_back(e);
  };
  add(1.0, 0.10, 5.0);   // frontier (fast, good value)
  add(2.0, 0.20, 10.0);  // frontier (slower, best value)
  add(1.5, 0.15, 4.0);   // dominated by (1.0, 5.0)
  add(3.0, 0.30, 10.0);  // dominated by (2.0, 10.0)

  const auto frontier = result.pareto_frontier(/*use_ttft=*/true);
  ASSERT_EQ(frontier.size(), 2u);
  EXPECT_DOUBLE_EQ(frontier[0].ttft_p90, 1.0);   // sorted by latency
  EXPECT_DOUBLE_EQ(frontier[1].ttft_p90, 2.0);
  EXPECT_DOUBLE_EQ(frontier[1].qps_per_dollar, 10.0);

  const auto tbt_frontier = result.pareto_frontier(/*use_ttft=*/false);
  ASSERT_EQ(tbt_frontier.size(), 2u);
  EXPECT_DOUBLE_EQ(tbt_frontier[0].tbt_p99, 0.10);
}

TEST(Search, InfeasibleConfigsExcludedFromFrontier) {
  SearchResult result;
  ConfigEvaluation infeasible;
  infeasible.feasible = false;
  result.evaluations.push_back(infeasible);
  EXPECT_TRUE(result.pareto_frontier(true).empty());
  EXPECT_FALSE(result.best_unconstrained().has_value());
}

}  // namespace
}  // namespace vidur
