#include "core/session.h"

#include <algorithm>

#include "common/check.h"

namespace vidur {

VidurSession::VidurSession(ModelSpec model, SessionOptions options)
    : model_(std::move(model)), options_(std::move(options)) {
  model_.validate();
  VIDUR_CHECK(!options_.tp_degrees.empty());
}

void VidurSession::onboard(const std::string& sku_name) {
  std::lock_guard lock(mutex_);
  if (estimators_.count(sku_name) > 0) return;
  NodeSpec node;
  node.sku = sku_by_name(sku_name);
  ProfileDb db =
      profile_model(model_, node, options_.tp_degrees, options_.profiler);
  estimators_[sku_name] =
      std::make_unique<RuntimeEstimator>(db, options_.estimator);
  memos_[sku_name] =
      std::make_unique<StageTimingMemo>(StageTimingMemo::kSharedEntries);
  profiles_.emplace(sku_name, std::move(db));
}

const ProfileDb& VidurSession::profile(const std::string& sku_name) {
  onboard(sku_name);
  std::lock_guard lock(mutex_);
  return profiles_.at(sku_name);
}

const RuntimeEstimator& VidurSession::estimator(const std::string& sku_name) {
  onboard(sku_name);
  std::lock_guard lock(mutex_);
  return *estimators_.at(sku_name);
}

StageTimingMemo* VidurSession::memo(const std::string& sku_name) {
  onboard(sku_name);
  std::lock_guard lock(mutex_);
  return memos_.at(sku_name).get();
}

SimulationConfig VidurSession::make_sim_config(
    const DeploymentConfig& config) const {
  SimulationConfig sim;
  sim.model = model_;
  sim.node.sku = sku_by_name(config.sku_name);
  sim.parallel = config.parallel;
  sim.scheduler = config.scheduler;
  sim.global_scheduler = config.global_scheduler;
  sim.memory_utilization = options_.memory_utilization;
  sim.async_pipeline_comm = config.async_pipeline_comm;
  sim.collect_operator_metrics = options_.collect_operator_metrics;
  sim.disagg = config.disagg;
  sim.autoscale = config.autoscale;
  sim.pools = config.pools;
  sim.prefix_cache = config.prefix_cache;
  sim.faults = config.faults;
  sim.threads = config.threads;
  return sim;
}

double VidurSession::pool_capacity_weight(const PoolSpec& pool) {
  const RuntimeEstimator& est = estimator(pool.sku_name);
  ExecutionTimePredictor predictor(&est, model_, pool.parallel,
                                   options_.cpu_overhead, memo(pool.sku_name));
  BatchSpec batch;
  BatchItem prefill;
  prefill.request = 0;
  prefill.q_tokens = 512;
  prefill.is_prefill = true;
  prefill.completes_prefill = true;
  batch.items.push_back(prefill);
  for (int i = 0; i < 31; ++i) {
    BatchItem decode;
    decode.request = i + 1;
    decode.q_tokens = 1;
    decode.kv_context = 512;
    batch.items.push_back(decode);
  }
  const BatchAggregates agg = batch.aggregates();
  Seconds total = predictor.cpu_overhead(batch);
  for (StageId stage = 0; stage < pool.parallel.pipeline_parallel; ++stage)
    total += predictor.stage_timing(batch, agg, stage).total();
  return total > 0 ? 1.0 / total : 0.0;
}

void VidurSession::prepare_pools(SimulationConfig& sim) {
  if (sim.pools.empty()) return;
  for (const PoolSpec& pool : sim.pools) onboard(pool.sku_name);
  // Derive capacities only when the spec set none: a partial mix would
  // compare user-supplied qps against estimator-derived iteration rates
  // (ExperimentSpec::validate rejects that; the simulator's FLOPs fallback
  // covers direct users).
  bool any_set = false;
  for (const PoolSpec& pool : sim.pools) any_set |= pool.capacity_qps > 0;
  if (any_set) return;
  for (PoolSpec& pool : sim.pools)
    pool.capacity_qps = pool_capacity_weight(pool);
}

namespace {

/// Fold the run's estimator-cache deltas into the registry snapshot, so the
/// counters travel with every ExperimentResult like native registry state.
void append_estimator_counters(SimulationMetrics& metrics) {
  auto& counters = metrics.registry.counters;
  counters.push_back(
      {"estimator.cache_hits",
       static_cast<std::uint64_t>(metrics.estimator_cache_hits)});
  counters.push_back(
      {"estimator.cache_misses",
       static_cast<std::uint64_t>(metrics.estimator_cache_misses)});
  std::sort(counters.begin(), counters.end(),
            [](const auto& a, const auto& b) { return a.name < b.name; });
}

}  // namespace

void VidurSession::account(const SimulationMetrics& metrics,
                           const DeploymentConfig& config) {
  std::lock_guard lock(mutex_);
  simulated_gpu_seconds_ += metrics.makespan * config.total_gpus();
  ++num_simulations_;
}

SimulationMetrics VidurSession::simulate(
    const DeploymentConfig& config, const Trace& trace,
    const std::vector<TenantInfo>& tenants, const SimObs& obs) {
  SimulationConfig sim_config = make_sim_config(config);
  sim_config.tenants = tenants;
  sim_config.obs = obs;
  const ModelSpec& model = model_;
  const CpuOverheadModel cpu = options_.cpu_overhead;
  prepare_pools(sim_config);
  // Each slot gets a predictor against its pool's per-SKU estimator and
  // stage-timing memo. The distinct estimators backing this run carry its
  // cache-traffic deltas (pools sharing a SKU share one estimator).
  const std::vector<PoolSpec> pools = deployment_pools(sim_config);
  std::vector<const RuntimeEstimator*> estimators, used;
  std::vector<StageTimingMemo*> memos;
  std::vector<ParallelConfig> parallels;
  for (const PoolSpec& pool : pools) {
    const RuntimeEstimator* est = &estimator(pool.sku_name);
    estimators.push_back(est);
    memos.push_back(memo(pool.sku_name));
    parallels.push_back(pool.parallel);
    if (std::find(used.begin(), used.end(), est) == used.end())
      used.push_back(est);
  }
  BackendFactory factory = [estimators = std::move(estimators),
                            memos = std::move(memos),
                            parallels = std::move(parallels),
                            slot_pool = pool_slot_layout(pools), &model,
                            cpu](ReplicaId r) {
    const auto p =
        static_cast<std::size_t>(slot_pool[static_cast<std::size_t>(r)]);
    return std::make_unique<ExecutionTimePredictor>(
        estimators[p], model, parallels[p], cpu, memos[p]);
  };
  std::size_t hits_before = 0, misses_before = 0;
  for (const RuntimeEstimator* est : used) {
    hits_before += est->cache_hits();
    misses_before += est->cache_misses();
  }
  Simulator sim(sim_config, trace, std::move(factory));
  SimulationMetrics metrics = sim.run();
  std::size_t hits_after = 0, misses_after = 0;
  for (const RuntimeEstimator* est : used) {
    hits_after += est->cache_hits();
    misses_after += est->cache_misses();
  }
  metrics.estimator_cache_hits =
      static_cast<std::int64_t>(hits_after - hits_before);
  metrics.estimator_cache_misses =
      static_cast<std::int64_t>(misses_after - misses_before);
  append_estimator_counters(metrics);
  account(metrics, config);
  return metrics;
}

SimulationMetrics VidurSession::simulate_reference(
    const DeploymentConfig& config, const Trace& trace, std::uint64_t seed,
    const std::vector<TenantInfo>& tenants, const SimObs& obs) {
  SimulationConfig sim_config = make_sim_config(config);
  sim_config.tenants = tenants;
  sim_config.obs = obs;
  const ModelSpec& model = model_;
  const CpuOverheadModel cpu = options_.cpu_overhead;
  prepare_pools(sim_config);
  const std::vector<PoolSpec> pools = deployment_pools(sim_config);
  std::vector<NodeSpec> nodes;
  std::vector<ParallelConfig> parallels;
  for (const PoolSpec& pool : pools) {
    NodeSpec node = sim_config.node;
    node.sku = sku_by_name(pool.sku_name);
    nodes.push_back(node);
    parallels.push_back(pool.parallel);
  }
  BackendFactory factory = [nodes = std::move(nodes),
                            parallels = std::move(parallels),
                            slot_pool = pool_slot_layout(pools), &model, cpu,
                            seed](ReplicaId replica) {
    const auto p =
        static_cast<std::size_t>(slot_pool[static_cast<std::size_t>(replica)]);
    return std::make_unique<ReferenceExecutor>(
        nodes[p], model, parallels[p], seed * 0x9e3779b97f4a7c15ULL + replica,
        cpu);
  };
  Simulator sim(sim_config, trace, std::move(factory));
  // Reference runs are not counted as simulated GPU time: they represent
  // what the paper executes on the real testbed.
  return sim.run();
}

double VidurSession::simulated_gpu_seconds() const {
  std::lock_guard lock(mutex_);
  return simulated_gpu_seconds_;
}

std::int64_t VidurSession::num_simulations() const {
  std::lock_guard lock(mutex_);
  return num_simulations_;
}

}  // namespace vidur
