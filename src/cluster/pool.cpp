#include "cluster/pool.h"

#include <set>
#include <utility>

#include "common/check.h"
#include "hardware/sku.h"

namespace vidur {

namespace {

const std::vector<std::pair<PoolRole, std::string>>& role_names() {
  static const std::vector<std::pair<PoolRole, std::string>> table = {
      {PoolRole::kUnified, "unified"},
      {PoolRole::kPrefill, "prefill"},
      {PoolRole::kDecode, "decode"},
  };
  return table;
}

}  // namespace

const std::string& pool_role_name(PoolRole role) {
  for (const auto& [r, n] : role_names())
    if (r == role) return n;
  throw Error("unhandled PoolRole");
}

double PoolSpec::effective_cost_per_gpu_hour() const {
  return cost_per_gpu_hour > 0 ? cost_per_gpu_hour
                               : sku_by_name(sku_name).cost_per_hour;
}

double PoolSpec::replica_cost_per_hour() const {
  return effective_cost_per_gpu_hour() * gpus_per_replica();
}

int PoolSpec::floor_replicas() const {
  return autoscale.enabled() ? autoscale.min_replicas : slots();
}

int PoolSpec::initial_active() const {
  if (!autoscale.enabled()) return slots();
  return autoscale.initial_replicas == 0 ? autoscale.min_replicas
                                         : autoscale.initial_replicas;
}

void PoolSpec::validate() const {
  VIDUR_CHECK_MSG(!name.empty(), "pool needs a non-empty name");
  sku_by_name(sku_name);  // throws for unknown SKUs
  parallel.validate();
  VIDUR_CHECK_MSG(cost_per_gpu_hour >= 0,
                  "pool '" << name << "' has a negative cost_per_gpu_hour ("
                           << cost_per_gpu_hour
                           << "); use 0 for the SKU list price");
  VIDUR_CHECK_MSG(capacity_qps >= 0,
                  "pool '" << name << "' has a negative capacity_qps");
  autoscale.validate();
  if (autoscale.enabled()) {
    VIDUR_CHECK_MSG(autoscale.min_replicas <= slots(),
                    "pool '" << name << "': autoscale.min_replicas ("
                             << autoscale.min_replicas
                             << ") exceeds the pool's " << slots()
                             << " slots");
    VIDUR_CHECK_MSG(initial_active() <= slots(),
                    "pool '" << name << "': autoscale.initial_replicas ("
                             << autoscale.initial_replicas
                             << ") exceeds the pool's " << slots()
                             << " slots");
  }
}

void validate_pools(const std::vector<PoolSpec>& pools) {
  VIDUR_CHECK_MSG(!pools.empty(), "a pool deployment needs at least one pool");
  std::set<std::string> seen;
  int num_unified = 0, num_prefill = 0, num_decode = 0;
  for (const PoolSpec& pool : pools) {
    pool.validate();
    VIDUR_CHECK_MSG(seen.insert(pool.name).second,
                    "duplicate pool name '" << pool.name
                                            << "'; pool names must be unique");
    switch (pool.role) {
      case PoolRole::kUnified: ++num_unified; break;
      case PoolRole::kPrefill: ++num_prefill; break;
      case PoolRole::kDecode: ++num_decode; break;
    }
  }
  VIDUR_CHECK_MSG(num_unified == 0 || (num_prefill == 0 && num_decode == 0),
                  "pools mix the unified role with prefill/decode roles; a "
                  "deployment is either all-unified or disaggregated "
                  "(prefill + decode pools only)");
  VIDUR_CHECK_MSG(num_decode == 0 || num_prefill > 0,
                  "a decode pool needs a prefill pool to receive prefilled "
                  "requests from; add a pool with role 'prefill' or make "
                  "the decode pool 'unified'");
  VIDUR_CHECK_MSG(num_prefill == 0 || num_decode > 0,
                  "a prefill pool needs a decode pool to hand prefilled "
                  "requests to; add a pool with role 'decode' or make the "
                  "prefill pool 'unified'");

  // Scaling-group consistency: pools of one role that autoscale share one
  // sizing decision per tick (only placement is per-pool), so their
  // policies must agree on everything the decision reads — a threshold or
  // cooldown set on only one pool would otherwise be silently ignored.
  for (const PoolSpec& a : pools) {
    if (!a.autoscale.enabled()) continue;
    for (const PoolSpec& b : pools) {
      if (&a == &b || b.role != a.role || !b.autoscale.enabled()) continue;
      VIDUR_CHECK_MSG(
          group_policy_view(a.autoscale) == group_policy_view(b.autoscale),
          "pools '" << a.name << "' and '" << b.name << "' share the "
                    << pool_role_name(a.role)
                    << " scaling group but disagree on their autoscale "
                       "policy; pools of one role make a single sizing "
                       "decision per tick, so everything except "
                       "min_replicas, initial_replicas and the cold-start "
                       "delays must match");
    }
  }
}

AutoscalerConfig group_policy_view(AutoscalerConfig config) {
  config.min_replicas = 1;
  config.initial_replicas = 0;
  config.provision_delay = 0.0;
  config.warmup_delay = 0.0;
  return config;
}

bool pools_disaggregated(const std::vector<PoolSpec>& pools) {
  for (const PoolSpec& pool : pools)
    if (pool.role != PoolRole::kUnified) return true;
  return false;
}

int total_pool_slots(const std::vector<PoolSpec>& pools) {
  int total = 0;
  for (const PoolSpec& pool : pools) total += pool.slots();
  return total;
}

std::vector<int> pool_slot_layout(const std::vector<PoolSpec>& pools) {
  std::vector<int> layout;
  for (std::size_t p = 0; p < pools.size(); ++p)
    for (int i = 0; i < pools[p].slots(); ++i)
      layout.push_back(static_cast<int>(p));
  return layout;
}

bool any_pool_autoscaled(const std::vector<PoolSpec>& pools) {
  for (const PoolSpec& pool : pools)
    if (pool.autoscale.enabled()) return true;
  return false;
}

ClusterScalingReport static_pools_report(const std::vector<PoolSpec>& pools,
                                         Seconds makespan) {
  VIDUR_CHECK(!pools.empty() && makespan >= 0);
  ClusterScalingReport report;
  report.fleet_size = total_pool_slots(pools);
  report.min_replicas = report.fleet_size;
  report.initial_replicas = report.fleet_size;
  report.peak_active = report.fleet_size;
  report.mean_active_replicas = report.fleet_size;
  report.active_timeline = {ReplicaCountSample{0.0, report.fleet_size}};
  int first_slot = 0;
  for (const PoolSpec& pool : pools) {
    PoolScalingReport p;
    p.name = pool.name;
    p.sku = pool.sku_name;
    p.role = pool_role_name(pool.role);
    p.first_slot = first_slot;
    p.slots = pool.slots();
    p.min_replicas = pool.slots();
    p.initial_replicas = pool.slots();
    p.gpus_per_replica = pool.gpus_per_replica();
    p.cost_per_gpu_hour = pool.effective_cost_per_gpu_hour();
    p.peak_active = pool.slots();
    p.mean_active_replicas = pool.slots();
    p.replica_hours = pool.slots() * makespan / 3600.0;
    p.gpu_hours = p.replica_hours * p.gpus_per_replica;
    p.cost_usd = p.gpu_hours * p.cost_per_gpu_hour;
    p.active_timeline = {ReplicaCountSample{0.0, pool.slots()}};
    report.replica_hours += p.replica_hours;
    report.gpu_hours += p.gpu_hours;
    report.cost_usd += p.cost_usd;
    first_slot += pool.slots();
    report.pools.push_back(std::move(p));
  }
  return report;
}

}  // namespace vidur
