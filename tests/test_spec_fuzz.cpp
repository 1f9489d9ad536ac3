// Fuzz / round-trip coverage for ExperimentSpec: randomized specs over
// every section (all modes; homogeneous, legacy disaggregated and pool
// deployments; every autoscaler and rate-profile kind; faults, search,
// elastic, obs and sweep) must survive serialize -> parse -> re-serialize
// with byte-identical JSON (and value equality), one spec that sets every
// field pins the exact text, and the common ways to get a pool spec wrong
// — unknown SKU, typo'd role, orphan decode pool, negative cost, misspelled
// field — must fail validate()/parse with actionable, did-you-mean-carrying
// messages.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "api/experiment.h"
#include "common/check.h"
#include "common/random.h"
#include "hardware/sku.h"
#include "model/model_spec.h"
#include "scenario/registry.h"

namespace vidur {
namespace {

// ------------------------------------------------------------- generators

bool coin(Rng& rng, double p = 0.5) { return rng.uniform() < p; }

template <typename T>
T pick(Rng& rng, const std::vector<T>& from) {
  return from[static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(from.size()) - 1))];
}

/// A random non-empty subset of `from`, in `from`'s order.
template <typename T>
std::vector<T> subset(Rng& rng, const std::vector<T>& from) {
  std::vector<T> out;
  for (const T& v : from)
    if (coin(rng)) out.push_back(v);
  if (out.empty()) out.push_back(pick(rng, from));
  return out;
}

RateProfile random_profile(Rng& rng) {
  switch (rng.uniform_int(0, 4)) {
    case 0:
      return RateProfile::constant();
    case 1: {
      const double period = rng.uniform(60.0, 600.0);
      const double low = rng.uniform(0.1, 1.0);
      return RateProfile::diurnal(period, low, rng.uniform(1.0, 3.0));
    }
    case 2: {
      const double start = rng.uniform(0.5, 2.0);
      const double end = rng.uniform(0.5, 4.0);
      return RateProfile::ramp(start, end, rng.uniform(10.0, 300.0));
    }
    case 3: {
      const double baseline = rng.uniform(0.5, 1.5);
      const double spike = rng.uniform(2.0, 6.0);
      const double start = rng.uniform(0.0, 100.0);
      return RateProfile::spike(baseline, spike, start,
                                rng.uniform(20.0, 80.0));
    }
    default: {
      std::vector<RateStep> steps{{0.0, rng.uniform(0.5, 2.0)}};
      const int extra = static_cast<int>(rng.uniform_int(0, 3));
      for (int i = 0; i < extra; ++i)
        steps.push_back({steps.back().start_time + rng.uniform(1.0, 60.0),
                         rng.uniform(0.0, 3.0)});
      return RateProfile::piecewise(std::move(steps));
    }
  }
}

/// A random valid policy of any kind; kv_pressure only when allowed.
AutoscalerConfig random_autoscale(Rng& rng, bool kv_signal) {
  AutoscalerConfig c;
  const int kind = static_cast<int>(rng.uniform_int(0, 2));
  if (kind == 0) return c;
  if (kind == 1) {
    c.kind = AutoscalerKind::kReactive;
    if (kv_signal && coin(rng)) {
      c.signal = ScaleSignal::kKvPressure;
      c.scale_down_kv_utilization = rng.uniform(0.01, 0.2);
      c.scale_up_kv_utilization = rng.uniform(0.5, 0.95);
      c.target_kv_utilization =
          rng.uniform(c.scale_down_kv_utilization, c.scale_up_kv_utilization);
    } else {
      c.scale_down_load = rng.uniform(0.5, 4.0);
      c.scale_up_load = rng.uniform(10.0, 30.0);
      c.target_load_per_replica =
          rng.uniform(c.scale_down_load, c.scale_up_load);
    }
  } else {
    c.kind = AutoscalerKind::kPredictive;
    c.profile = random_profile(rng);
    c.baseline_qps = rng.uniform(0.5, 5.0);
    c.replica_capacity_qps = rng.uniform(0.5, 5.0);
    c.headroom = rng.uniform(0.0, 0.5);
    if (coin(rng)) c.lookahead = rng.uniform(0.0, 120.0);
  }
  c.min_replicas = 1;
  c.initial_replicas = static_cast<int>(rng.uniform_int(0, 1));
  c.provision_delay = rng.uniform(0.0, 60.0);
  c.warmup_delay = rng.uniform(0.0, 30.0);
  c.decision_interval = rng.uniform(1.0, 10.0);
  c.scale_up_cooldown = rng.uniform(0.0, 10.0);
  c.scale_down_cooldown = rng.uniform(0.0, 60.0);
  c.max_scale_step = static_cast<int>(rng.uniform_int(0, 3));
  return c;
}

PoolSpec random_pool(Rng& rng, const std::string& name, PoolRole role) {
  PoolSpec pool;
  pool.name = name;
  pool.sku_name = rng.uniform() < 0.5 ? "a100" : "h100";
  pool.role = role;
  pool.parallel = ParallelConfig{rng.uniform() < 0.3 ? 2 : 1,
                                 rng.uniform() < 0.2 ? 2 : 1,
                                 static_cast<int>(rng.uniform_int(1, 5))};
  if (rng.uniform() < 0.3) pool.cost_per_gpu_hour = rng.uniform(0.5, 10.0);
  pool.autoscale = random_autoscale(rng, role == PoolRole::kDecode);
  if (pool.autoscale.enabled() &&
      pool.autoscale.initial_replicas > pool.slots())
    pool.autoscale.initial_replicas = pool.slots();
  return pool;
}

/// All-unified or prefill+decode pools with consistent scaling groups
/// (same-role elastic pools share one policy).
std::vector<PoolSpec> random_pools(Rng& rng) {
  std::vector<PoolSpec> pools;
  if (rng.uniform() < 0.4) {
    pools.push_back(random_pool(rng, "prefill", PoolRole::kPrefill));
    pools.push_back(random_pool(rng, "decode", PoolRole::kDecode));
    return pools;
  }
  const int n = static_cast<int>(rng.uniform_int(1, 3));
  const PoolSpec first = random_pool(rng, "pool-0", PoolRole::kUnified);
  pools.push_back(first);
  for (int i = 1; i < n; ++i) {
    PoolSpec pool =
        random_pool(rng, "pool-" + std::to_string(i), PoolRole::kUnified);
    // Clone the first pool's policy knobs, keep per-pool floors/slots.
    if (pool.autoscale.enabled() && first.autoscale.enabled()) {
      AutoscalerConfig aligned = first.autoscale;
      aligned.min_replicas = pool.autoscale.min_replicas;
      aligned.initial_replicas =
          std::min(pool.autoscale.initial_replicas, pool.slots());
      pool.autoscale = aligned;
    } else if (pool.autoscale.enabled() && !first.autoscale.enabled()) {
      pool.autoscale.signal = ScaleSignal::kOutstanding;
    }
    pools.push_back(pool);
  }
  if (rng.uniform() < 0.3)
    for (PoolSpec& pool : pools) pool.capacity_qps = rng.uniform(0.5, 4.0);
  return pools;
}

FaultConfig random_faults(Rng& rng, const std::vector<std::string>& targets,
                          bool elastic) {
  FaultConfig c;
  if (coin(rng)) c.seed = static_cast<std::uint64_t>(rng.uniform_int(1, 99));
  const int n = static_cast<int>(rng.uniform_int(1, 2));
  for (int i = 0; i < n; ++i) {
    FaultProfile p;
    p.pool = pick(rng, targets);
    if (elastic && coin(rng)) p.crash_mtbf_s = rng.uniform(30.0, 600.0);
    if (elastic && coin(rng)) {
      const int windows = static_cast<int>(rng.uniform_int(1, 2));
      for (int w = 0; w < windows; ++w) {
        SpotWindow window;
        window.start = rng.uniform(0.0, 200.0);
        window.duration = rng.uniform(10.0, 100.0);
        window.replicas = static_cast<int>(rng.uniform_int(1, 2));
        if (coin(rng)) window.notice = rng.uniform(0.0, window.duration);
        p.spot_windows.push_back(window);
      }
    }
    if (!p.kills() || coin(rng)) {
      p.degrade_mtbf_s = rng.uniform(30.0, 300.0);
      p.degrade_factor = rng.uniform(1.1, 3.0);
      p.degrade_duration_s = rng.uniform(5.0, 60.0);
    }
    c.profiles.push_back(p);
  }
  if (coin(rng)) {
    c.recovery.max_attempts = static_cast<int>(rng.uniform_int(1, 6));
    c.recovery.backoff_base_s = rng.uniform(0.05, 2.0);
    c.recovery.backoff_multiplier = rng.uniform(1.0, 3.0);
    c.recovery.jitter = rng.uniform(0.0, 0.9);
  }
  if (coin(rng)) {
    c.shed.min_active_replicas = static_cast<int>(rng.uniform_int(1, 3));
    c.shed.max_shed_priority = static_cast<int>(rng.uniform_int(0, 2));
  }
  return c;
}

/// A random spec over every section: all four modes, homogeneous, legacy
/// disaggregated and pool deployments, synthetic and named workloads. Most
/// come out valid; callers filter with validate().
ExperimentSpec random_spec(Rng& rng) {
  ExperimentSpec spec;
  spec.name = "fuzz-" + std::to_string(rng.uniform_int(0, 999));
  spec.model = pick(rng, builtin_model_names());
  spec.seed = rng();  // the full 64-bit range, sign bit included
  const int mode = static_cast<int>(rng.uniform_int(0, 3));
  spec.mode = static_cast<ExperimentMode>(mode);
  const bool search_mode = spec.mode == ExperimentMode::kCapacitySearch;
  const bool elastic_mode = spec.mode == ExperimentMode::kElasticPlan;
  if (coin(rng)) spec.tp_degrees = {1, 2, 4, 8};

  // ---- deployment
  DeploymentConfig& d = spec.deployment;
  const int form = search_mode ? 0 : static_cast<int>(rng.uniform_int(0, 2));
  if (form == 2) {
    d.pools = random_pools(rng);
    if (elastic_mode && !any_pool_autoscaled(d.pools)) {
      AutoscalerConfig& a = d.pools[0].autoscale;
      do {
        a = random_autoscale(rng, false);
      } while (!a.enabled());
      a.initial_replicas = std::min(a.initial_replicas, d.pools[0].slots());
    }
  } else {
    d.sku_name = pick(rng, builtin_sku_names());
    d.parallel = ParallelConfig{pick(rng, std::vector<int>{1, 2, 4}),
                                static_cast<int>(rng.uniform_int(1, 2)),
                                static_cast<int>(rng.uniform_int(1, 6))};
    if (form == 1 && !elastic_mode) {
      // Disaggregation needs a decode replica besides the prefill ones.
      d.parallel.num_replicas = std::max(2, d.parallel.num_replicas);
      d.disagg.num_prefill_replicas = static_cast<int>(
          rng.uniform_int(1, d.parallel.num_replicas - 1));
      if (coin(rng))
        d.disagg.transfer_bandwidth_gbps = rng.uniform(5.0, 100.0);
      if (coin(rng)) d.disagg.transfer_latency = rng.uniform(1e-4, 1e-2);
    } else if (elastic_mode || coin(rng)) {
      do {
        d.autoscale = random_autoscale(rng, true);
      } while (elastic_mode && !d.autoscale.enabled());
      d.autoscale.initial_replicas =
          std::min(d.autoscale.initial_replicas, d.parallel.num_replicas);
    }
  }
  // The pools form still applies the disagg transfer knobs.
  if (form == 2 && coin(rng, 0.3))
    d.disagg.transfer_bandwidth_gbps = rng.uniform(5.0, 100.0);
  d.scheduler.kind = pick(
      rng, std::vector<SchedulerKind>{
               SchedulerKind::kFasterTransformer, SchedulerKind::kOrca,
               SchedulerKind::kVllm, SchedulerKind::kSarathi,
               SchedulerKind::kLightLlm});
  if (coin(rng))
    d.scheduler.max_batch_size = static_cast<int>(rng.uniform_int(1, 512));
  if (coin(rng))
    d.scheduler.max_tokens_per_iteration = rng.uniform_int(1, 16384);
  if (coin(rng)) d.scheduler.chunk_size = rng.uniform_int(1, 4096);
  if (coin(rng)) d.scheduler.watermark_fraction = rng.uniform(0.0, 0.2);
  d.global_scheduler = static_cast<GlobalSchedulerKind>(rng.uniform_int(0, 4));
  d.async_pipeline_comm = coin(rng);
  if (d.global_scheduler == GlobalSchedulerKind::kCacheAware || coin(rng)) {
    d.prefix_cache.enabled = true;
    if (coin(rng)) d.prefix_cache.capacity_fraction = rng.uniform(0.05, 1.0);
  }
  const bool disaggregated =
      d.disagg.enabled() || pools_disaggregated(d.pools);
  if (!disaggregated && coin(rng))
    d.threads = static_cast<int>(rng.uniform_int(2, 8));

  // ---- workload
  const bool named = elastic_mode || (!search_mode && coin(rng));
  if (named) {
    const std::string scenario =
        pick(rng, ScenarioRegistry::instance().names());
    spec.with_scenario(scenario, coin(rng) ? 0
                                           : static_cast<int>(
                                                 rng.uniform_int(1, 2000)));
  } else {
    spec.workload.trace = pick(rng, builtin_trace_names());
    spec.workload.num_requests = static_cast<int>(rng.uniform_int(1, 5000));
    if (!search_mode) {
      spec.workload.arrival.kind =
          static_cast<ArrivalKind>(rng.uniform_int(0, 2));
      spec.workload.arrival.qps = rng.uniform(0.1, 50.0);
      spec.workload.arrival.cv = rng.uniform(0.5, 5.0);
    }
  }

  // ---- faults (simulate / reference only)
  if (!search_mode && !elastic_mode && coin(rng, 0.4)) {
    std::vector<std::string> targets;
    for (const PoolSpec& pool : d.pools) targets.push_back(pool.name);
    if (targets.empty()) targets = {"", "fleet"};
    const bool elastic = d.pools.empty() ? d.autoscale.enabled()
                                         : any_pool_autoscaled(d.pools);
    d.faults = random_faults(rng, targets, elastic);
  }

  // ---- the other top-level sections
  if (coin(rng))
    spec.slo = SloSpec{rng.uniform(0.1, 5.0), rng.uniform(0.0, 1.0)};
  if (coin(rng)) spec.num_threads = static_cast<int>(rng.uniform_int(1, 8));
  if (search_mode || coin(rng, 0.2)) {
    SearchSpace& s = spec.search;
    s.skus = subset(rng, builtin_sku_names());
    s.tp_degrees = subset(rng, spec.tp_degrees);
    s.pp_degrees = subset(rng, std::vector<int>{1, 2, 4});
    s.max_total_gpus = static_cast<int>(rng.uniform_int(1, 32));
    s.schedulers = subset(
        rng, std::vector<SchedulerKind>{SchedulerKind::kVllm,
                                        SchedulerKind::kOrca,
                                        SchedulerKind::kSarathi});
    s.batch_sizes = subset(rng, std::vector<int>{32, 64, 128, 256, 512});
    s.sarathi_chunk_sizes =
        subset(rng, std::vector<TokenCount>{256, 512, 1024, 2048});
    if (coin(rng)) s.max_tokens_per_iteration = rng.uniform_int(512, 8192);
    if (coin(rng))
      s.global_scheduler = GlobalSchedulerKind::kLeastOutstanding;
  }
  if (elastic_mode || coin(rng, 0.2)) {
    spec.elastic.slo_target = rng.uniform(0.5, 1.0);
    spec.elastic.max_replicas = static_cast<int>(rng.uniform_int(1, 16));
    spec.elastic.burst_slots = static_cast<int>(rng.uniform_int(0, 4));
  }
  if (coin(rng, 0.3)) {
    spec.obs.trace = coin(rng);
    if (coin(rng))
      spec.obs.trace_capacity = static_cast<int>(rng.uniform_int(1, 1 << 20));
    if (coin(rng)) spec.obs.rolling_window_s = rng.uniform(0.5, 60.0);
    spec.obs.analyze = coin(rng);
  }
  if (coin(rng, 0.3)) {
    SweepAxes& s = spec.sweep;
    if (d.pools.empty()) {
      if (coin(rng)) s.sku = subset(rng, builtin_sku_names());
      if (coin(rng)) s.tensor_parallel = subset(rng, spec.tp_degrees);
      if (coin(rng)) s.pipeline_parallel = subset(rng, std::vector<int>{1, 2});
      if (coin(rng)) s.num_replicas = subset(rng, std::vector<int>{1, 2, 4});
    }
    if (coin(rng)) s.scheduler = subset(rng, scheduler_names());
    if (coin(rng)) s.max_batch_size = subset(rng, std::vector<int>{64, 128});
    if (coin(rng))
      s.chunk_size = subset(rng, std::vector<TokenCount>{512, 1024});
    if (spec.workload.synthetic() && coin(rng))
      s.qps = subset(rng, std::vector<double>{0.5, 1.0, 2.5});
  }
  return spec;
}

/// One spec that sets every field to a non-default value (homogeneous
/// deployment and synthetic workload: the forms that write the most keys).
ExperimentSpec every_field_spec() {
  ExperimentSpec s;
  s.name = "every-field";
  s.mode = ExperimentMode::kReference;
  s.model = "llama2-70b";
  DeploymentConfig& d = s.deployment;
  d.sku_name = "h100";
  d.parallel = ParallelConfig{2, 2, 3};
  d.scheduler = SchedulerConfig{SchedulerKind::kSarathi, 64, 8192, 1024, 0.05};
  d.global_scheduler = GlobalSchedulerKind::kCacheAware;
  d.async_pipeline_comm = true;
  d.disagg = DisaggConfig{1, 50.0, 1e-3};
  AutoscalerConfig& a = d.autoscale;
  a.kind = AutoscalerKind::kPredictive;
  a.signal = ScaleSignal::kKvPressure;
  a.min_replicas = 2;
  a.initial_replicas = 3;
  a.provision_delay = 12.0;
  a.warmup_delay = 3.5;
  a.decision_interval = 2.0;
  a.scale_up_cooldown = 1.0;
  a.scale_down_cooldown = 45.0;
  a.max_scale_step = 2;
  a.target_load_per_replica = 9.0;
  a.scale_up_load = 15.0;
  a.scale_down_load = 2.0;
  a.target_kv_utilization = 0.5;
  a.scale_up_kv_utilization = 0.7;
  a.scale_down_kv_utilization = 0.2;
  a.profile = RateProfile::spike(1.0, 4.0, 60.0, 120.0);
  a.baseline_qps = 2.0;
  a.replica_capacity_qps = 2.5;
  a.headroom = 0.3;
  a.lookahead = 40.0;
  d.prefix_cache = PrefixCacheConfig{true, 0.25};
  FaultProfile p;
  p.pool = "fleet";
  p.crash_mtbf_s = 100.0;
  p.spot_windows = {SpotWindow{10.0, 20.0, 2, 5.0}};
  p.degrade_mtbf_s = 50.0;
  p.degrade_factor = 1.5;
  p.degrade_duration_s = 10.0;
  d.faults.seed = 9;
  d.faults.profiles = {p};
  d.faults.recovery = RecoveryPolicy{5, 0.25, 3.0, 0.2};
  d.faults.shed = ShedPolicy{2, 1};
  d.threads = 4;
  s.workload.trace = "arxiv4k";
  s.workload.arrival = ArrivalSpec{ArrivalKind::kGamma, 2.5, 3.0};
  s.workload.num_requests = 333;
  s.slo = SloSpec{1.0, 0.1};
  s.seed = 0xfedcba9876543210ULL;
  s.tp_degrees = {1, 2, 4, 8};
  s.num_threads = 3;
  s.search.skus = {"h100"};
  s.search.tp_degrees = {2};
  s.search.pp_degrees = {1, 2};
  s.search.max_total_gpus = 8;
  s.search.schedulers = {SchedulerKind::kLightLlm};
  s.search.batch_sizes = {16};
  s.search.sarathi_chunk_sizes = {256};
  s.search.max_tokens_per_iteration = 2048;
  s.search.global_scheduler = GlobalSchedulerKind::kPriority;
  s.elastic = ElasticPlanSpec{0.9, 6, 1};
  s.obs = ObsSpec{true, 4096, 5.0, true};
  s.sweep.sku = {"a100", "h100"};
  s.sweep.tensor_parallel = {1, 2};
  s.sweep.pipeline_parallel = {1};
  s.sweep.num_replicas = {2};
  s.sweep.scheduler = {"vllm"};
  s.sweep.max_batch_size = {32};
  s.sweep.chunk_size = {512};
  s.sweep.qps = {0.5};
  return s;
}

// ------------------------------------------------------------ round trips

TEST(SpecFuzz, RandomSpecsRoundTripLosslessly) {
  Rng rng(20260726);
  int validated = 0;
  for (int i = 0; i < 400; ++i) {
    const ExperimentSpec spec = random_spec(rng);
    // Some random combinations are legitimately invalid (same-role elastic
    // pools whose policies disagree). Only valid specs must round-trip;
    // invalid ones must throw from validate(), never crash.
    try {
      spec.validate();
    } catch (const Error&) {
      continue;
    }
    ++validated;
    const std::string json = spec.to_json_string();
    const ExperimentSpec parsed = ExperimentSpec::from_json_string(json);
    EXPECT_EQ(parsed, spec) << "value round-trip diverged for:\n" << json;
    EXPECT_EQ(parsed.to_json_string(), json)
        << "serialization is not a fixed point for:\n" << json;
    EXPECT_NO_THROW(parsed.validate());
  }
  // The generator must mostly produce valid specs, or the fuzz is hollow.
  EXPECT_GE(validated, 380);
}

TEST(SpecFuzz, EveryFieldSpecSerializesToThePinnedText) {
  const std::string expected = R"({
  "name": "every-field",
  "mode": "reference",
  "model": "llama2-70b",
  "deployment": {
    "sku": "h100",
    "tensor_parallel": 2,
    "pipeline_parallel": 2,
    "num_replicas": 3,
    "scheduler": {
      "kind": "sarathi",
      "max_batch_size": 64,
      "max_tokens_per_iteration": 8192,
      "chunk_size": 1024,
      "watermark_fraction": 0.05
    },
    "global_scheduler": "cache_aware",
    "async_pipeline_comm": true,
    "disagg": {
      "num_prefill_replicas": 1,
      "transfer_bandwidth_gbps": 50.0,
      "transfer_latency_s": 0.001
    },
    "autoscale": {
      "kind": "predictive",
      "signal": "kv_pressure",
      "target_kv_utilization": 0.5,
      "scale_up_kv_utilization": 0.7,
      "scale_down_kv_utilization": 0.2,
      "min_replicas": 2,
      "initial_replicas": 3,
      "provision_delay_s": 12.0,
      "warmup_delay_s": 3.5,
      "decision_interval_s": 2.0,
      "scale_up_cooldown_s": 1.0,
      "scale_down_cooldown_s": 45.0,
      "max_scale_step": 2,
      "target_load_per_replica": 9.0,
      "scale_up_load": 15.0,
      "scale_down_load": 2.0,
      "profile": {
        "kind": "spike",
        "baseline": 1.0,
        "spike": 4.0,
        "start_s": 60.0,
        "duration_s": 120.0
      },
      "baseline_qps": 2.0,
      "replica_capacity_qps": 2.5,
      "headroom": 0.3,
      "lookahead_s": 40.0
    },
    "prefix_cache": {
      "enabled": true,
      "capacity_fraction": 0.25
    },
    "faults": {
      "seed": 9,
      "profiles": [
        {
          "pool": "fleet",
          "crash_mtbf_s": 100.0,
          "spot_windows": [
            {
              "start_s": 10.0,
              "duration_s": 20.0,
              "replicas": 2,
              "notice_s": 5.0
            }
          ],
          "degrade_mtbf_s": 50.0,
          "degrade_factor": 1.5,
          "degrade_duration_s": 10.0
        }
      ],
      "recovery": {
        "max_attempts": 5,
        "backoff_base_s": 0.25,
        "backoff_multiplier": 3.0,
        "jitter": 0.2
      },
      "shed": {
        "min_active_replicas": 2,
        "max_shed_priority": 1
      }
    },
    "execution": {
      "threads": 4
    }
  },
  "workload": {
    "trace": "arxiv4k",
    "arrival": {
      "kind": "gamma",
      "qps": 2.5,
      "cv": 3.0
    },
    "num_requests": 333
  },
  "slo": {
    "ttft_target_s": 1.0,
    "tbt_target_s": 0.1
  },
  "seed": -81985529216486896,
  "tp_degrees": [
    1,
    2,
    4,
    8
  ],
  "num_threads": 3,
  "search": {
    "skus": [
      "h100"
    ],
    "tp_degrees": [
      2
    ],
    "pp_degrees": [
      1,
      2
    ],
    "max_total_gpus": 8,
    "schedulers": [
      "lightllm"
    ],
    "batch_sizes": [
      16
    ],
    "sarathi_chunk_sizes": [
      256
    ],
    "max_tokens_per_iteration": 2048,
    "global_scheduler": "priority"
  },
  "elastic": {
    "slo_target": 0.9,
    "max_replicas": 6,
    "burst_slots": 1
  },
  "obs": {
    "trace": true,
    "trace_capacity": 4096,
    "rolling_window_s": 5.0,
    "analyze": true
  },
  "sweep": {
    "sku": [
      "a100",
      "h100"
    ],
    "tensor_parallel": [
      1,
      2
    ],
    "pipeline_parallel": [
      1
    ],
    "num_replicas": [
      2
    ],
    "scheduler": [
      "vllm"
    ],
    "max_batch_size": [
      32
    ],
    "chunk_size": [
      512
    ],
    "qps": [
      0.5
    ]
  }
}
)";
  const ExperimentSpec spec = every_field_spec();
  EXPECT_EQ(spec.to_json_string(), expected);
  EXPECT_EQ(ExperimentSpec::from_json_string(expected), spec);
}

TEST(SpecFuzz, HandWrittenPoolSpecRoundTripsThroughJsonText) {
  const std::string json = R"({
    "name": "hetero",
    "mode": "simulate",
    "model": "llama2-7b",
    "deployment": {
      "pools": [
        {"name": "a", "sku": "a100", "num_replicas": 2,
         "autoscale": {"kind": "reactive"}},
        {"name": "b", "sku": "h100", "num_replicas": 1,
         "cost_per_gpu_hour": 5.25}
      ]
    },
    "workload": {"scenario": "diurnal-chat"}
  })";
  const ExperimentSpec spec = ExperimentSpec::from_json_string(json);
  ASSERT_EQ(spec.deployment.pools.size(), 2u);
  EXPECT_EQ(spec.deployment.pools[0].name, "a");
  EXPECT_EQ(spec.deployment.pools[0].autoscale.kind,
            AutoscalerKind::kReactive);
  EXPECT_EQ(spec.deployment.pools[1].sku_name, "h100");
  EXPECT_DOUBLE_EQ(spec.deployment.pools[1].cost_per_gpu_hour, 5.25);
  EXPECT_NO_THROW(spec.validate());
  EXPECT_EQ(ExperimentSpec::from_json_string(spec.to_json_string()), spec);
}

// -------------------------------------------------------- invalid inputs

/// Runs `fn` and returns the error message (empty if it did not throw).
template <typename Fn>
std::string error_of(Fn&& fn) {
  try {
    fn();
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

ExperimentSpec valid_two_pool_spec() {
  ExperimentSpec spec;
  spec.with_name("base")
      .with_model("llama2-7b")
      .with_scenario("diurnal-chat");
  PoolSpec a;
  a.name = "a";
  a.sku_name = "a100";
  a.parallel = ParallelConfig{1, 1, 2};
  PoolSpec b = a;
  b.name = "b";
  b.sku_name = "h100";
  spec.with_pool(a).with_pool(b);
  return spec;
}

TEST(SpecFuzz, UnknownPoolSkuGetsDidYouMean) {
  ExperimentSpec spec = valid_two_pool_spec();
  spec.deployment.pools[0].sku_name = "a10";
  const std::string msg = error_of([&] { spec.validate(); });
  EXPECT_NE(msg.find("unknown SKU 'a10'"), std::string::npos) << msg;
  EXPECT_NE(msg.find("did you mean 'a100'"), std::string::npos) << msg;
}

TEST(SpecFuzz, DecodePoolWithoutPrefillIsActionable) {
  ExperimentSpec spec = valid_two_pool_spec();
  spec.deployment.pools[0].role = PoolRole::kDecode;
  spec.deployment.pools[1].role = PoolRole::kDecode;
  const std::string msg = error_of([&] { spec.validate(); });
  EXPECT_NE(msg.find("decode pool needs a prefill pool"), std::string::npos)
      << msg;
  EXPECT_NE(msg.find("add a pool with role 'prefill'"), std::string::npos)
      << msg;
}

TEST(SpecFuzz, PrefillPoolWithoutDecodeIsActionable) {
  ExperimentSpec spec = valid_two_pool_spec();
  spec.deployment.pools[0].role = PoolRole::kPrefill;
  spec.deployment.pools[1].role = PoolRole::kPrefill;
  const std::string msg = error_of([&] { spec.validate(); });
  EXPECT_NE(msg.find("prefill pool needs a decode pool"), std::string::npos)
      << msg;
}

TEST(SpecFuzz, NegativePoolCostIsRejectedWithTheOffendingPool) {
  ExperimentSpec spec = valid_two_pool_spec();
  spec.deployment.pools[1].cost_per_gpu_hour = -1.5;
  const std::string msg = error_of([&] { spec.validate(); });
  EXPECT_NE(msg.find("pool 'b'"), std::string::npos) << msg;
  EXPECT_NE(msg.find("negative cost_per_gpu_hour"), std::string::npos) << msg;
}

TEST(SpecFuzz, DuplicatePoolNamesAreRejected) {
  ExperimentSpec spec = valid_two_pool_spec();
  spec.deployment.pools[1].name = "a";
  const std::string msg = error_of([&] { spec.validate(); });
  EXPECT_NE(msg.find("duplicate pool name 'a'"), std::string::npos) << msg;
}

TEST(SpecFuzz, TypoedRoleGetsDidYouMeanAtParseTime) {
  const std::string json = R"({
    "name": "x", "model": "llama2-7b",
    "deployment": {"pools": [
      {"name": "a", "sku": "a100", "num_replicas": 1, "role": "prefil"}]},
    "workload": {"scenario": "diurnal-chat"}
  })";
  const std::string msg =
      error_of([&] { ExperimentSpec::from_json_string(json); });
  EXPECT_NE(msg.find("unknown pool role 'prefil'"), std::string::npos) << msg;
  EXPECT_NE(msg.find("did you mean 'prefill'"), std::string::npos) << msg;
}

TEST(SpecFuzz, TypoedPoolFieldGetsDidYouMeanCitingThePool) {
  const std::string json = R"({
    "name": "x", "model": "llama2-7b",
    "deployment": {"pools": [
      {"name": "a", "sku": "a100", "num_replica": 1}]},
    "workload": {"scenario": "diurnal-chat"}
  })";
  const std::string msg =
      error_of([&] { ExperimentSpec::from_json_string(json); });
  EXPECT_NE(msg.find("deployment.pools['a']"), std::string::npos) << msg;
  EXPECT_NE(msg.find("did you mean 'num_replicas'"), std::string::npos)
      << msg;
}

TEST(SpecFuzz, MixedCapacitySourcesAreRejected) {
  ExperimentSpec spec = valid_two_pool_spec();
  spec.deployment.pools[0].capacity_qps = 3.0;
  const std::string msg = error_of([&] { spec.validate(); });
  EXPECT_NE(msg.find("capacity_qps on some pools but not others"),
            std::string::npos)
      << msg;
}

TEST(SpecFuzz, TopLevelAutoscaleConflictsWithPools) {
  ExperimentSpec spec = valid_two_pool_spec();
  spec.deployment.autoscale.kind = AutoscalerKind::kReactive;
  const std::string msg = error_of([&] { spec.validate(); });
  EXPECT_NE(msg.find("per-pool autoscale"), std::string::npos) << msg;
}

}  // namespace
}  // namespace vidur
