#include "metrics/metrics.h"

#include <algorithm>
#include <sstream>

#include "common/check.h"
#include "common/table.h"

namespace vidur {

MetricsCollector::MetricsCollector(ClusterResources cluster)
    : cluster_(cluster) {
  VIDUR_CHECK(cluster_.num_replicas >= 1);
  VIDUR_CHECK(cluster_.peak_flops_per_gpu > 0);
  VIDUR_CHECK(cluster_.gpus_per_replica >= 1);
  VIDUR_CHECK(cluster_.hbm_bytes_per_sec_per_gpu >= 0);
  VIDUR_CHECK(cluster_.idle_watts_per_gpu >= 0);
  VIDUR_CHECK(cluster_.peak_watts_per_gpu >= cluster_.idle_watts_per_gpu);
  replica_sums_.resize(static_cast<std::size_t>(cluster_.num_replicas));
}

MetricsCollector::MetricsCollector(int num_replicas,
                                   double peak_flops_per_gpu,
                                   int gpus_per_replica,
                                   double hbm_bytes_per_sec_per_gpu)
    : MetricsCollector(ClusterResources{
          .num_replicas = num_replicas,
          .gpus_per_replica = gpus_per_replica,
          .peak_flops_per_gpu = peak_flops_per_gpu,
          .hbm_bytes_per_sec_per_gpu = hbm_bytes_per_sec_per_gpu}) {}

void MetricsCollector::set_pools(std::vector<PoolResources> pools,
                                 std::vector<int> pool_of_slot) {
  for (const int p : pool_of_slot)
    VIDUR_CHECK_MSG(p >= 0 && p < static_cast<int>(pools.size()),
                    "pool_of_slot entry " << p << " out of range");
  for (const PoolResources& p : pools) {
    VIDUR_CHECK(p.gpus_per_replica >= 1);
    VIDUR_CHECK(p.peak_flops_per_gpu > 0);
  }
  VIDUR_CHECK_MSG(pool_of_slot.size() == replica_sums_.size(),
                  "pool slot layout covers " << pool_of_slot.size()
                                             << " slots, the cluster "
                                             << replica_sums_.size());
  pools_ = std::move(pools);
  pool_of_slot_ = std::move(pool_of_slot);
}

namespace {

/// Linear power model shared by the fleet-average and per-pool paths:
/// intensity is the batch's per-GPU FLOP or bandwidth utilization,
/// whichever dominates (roofline-style).
double batch_energy_joules(const BatchRecord& record, double duration,
                           int gpus_per_replica, double peak_flops_per_gpu,
                           double hbm_bytes_per_sec_per_gpu,
                           double idle_watts_per_gpu,
                           double peak_watts_per_gpu) {
  if (peak_watts_per_gpu <= 0 || duration <= 0) return 0.0;
  const double flop_util =
      record.flops / (duration * peak_flops_per_gpu * gpus_per_replica);
  const double bw_util =
      hbm_bytes_per_sec_per_gpu > 0
          ? static_cast<double>(record.hbm_bytes_per_gpu) /
                (duration * hbm_bytes_per_sec_per_gpu)
          : 0.0;
  const double intensity = std::clamp(std::max(flop_util, bw_util), 0.0, 1.0);
  const double watts_per_gpu =
      idle_watts_per_gpu + (peak_watts_per_gpu - idle_watts_per_gpu) *
                               intensity;
  return duration * gpus_per_replica * watts_per_gpu;
}

}  // namespace

void MetricsCollector::record_batch(const BatchRecord& record) {
  const double duration = record.end_time - record.start_time;
  VIDUR_CHECK(duration >= 0);
  const auto slot = static_cast<std::size_t>(record.replica);
  VIDUR_CHECK_MSG(record.replica >= 0 && slot < replica_sums_.size(),
                  "batch replica " << record.replica << " outside the "
                                   << replica_sums_.size() << " slots");
  BatchSums& sums = replica_sums_[slot];
  sums.flops += record.flops;
  sums.hbm_bytes += static_cast<double>(record.hbm_bytes_per_gpu);
  sums.busy_time += duration;
  sums.weighted_kv_util += record.kv_utilization * duration;
  sums.weighted_batch_size += static_cast<double>(record.batch_size) * duration;

  // Fleet-average energy against the (possibly slot-weighted) cluster
  // rates — kept as-is so homogeneous runs and the existing fleet metrics
  // are unchanged by per-pool attribution.
  sums.busy_energy_joules += batch_energy_joules(
      record, duration, cluster_.gpus_per_replica,
      cluster_.peak_flops_per_gpu, cluster_.hbm_bytes_per_sec_per_gpu,
      cluster_.idle_watts_per_gpu, cluster_.peak_watts_per_gpu);

  // Exact per-pool attribution: the same batch billed at its own pool's
  // SKU rates.
  if (!pools_.empty()) {
    const PoolResources& res =
        pools_[static_cast<std::size_t>(pool_of_slot_[slot])];
    sums.pool_busy_energy_joules += batch_energy_joules(
        record, duration, res.gpus_per_replica, res.peak_flops_per_gpu,
        res.hbm_bytes_per_sec_per_gpu, res.idle_watts_per_gpu,
        res.peak_watts_per_gpu);
  }
}

void MetricsCollector::set_tenants(std::vector<TenantInfo> tenants) {
  for (const TenantInfo& t : tenants) VIDUR_CHECK(t.id >= 0);
  tenants_ = std::move(tenants);
}

void MetricsCollector::record_request(const RequestRecord& record) {
  requests_.push_back(record);
}

namespace {

bool meets_slo(const RequestRecord& r, const SloSpec& slo) {
  if (!r.completed()) return false;
  if (slo.ttft_target > 0 && r.ttft() > slo.ttft_target) return false;
  if (slo.tbt_target > 0 && r.worst_tbt() > slo.tbt_target) return false;
  return true;
}

/// Exact summaries of the completed records `keep` accepts, read in place
/// in record order — for TBT, record then token: the order the samples
/// would have been appended to a SampleSeries. Nothing is copied or sorted.
template <typename Keep>
struct RecordSummaries {
  RequestRecordView records;
  Keep keep;

  /// One sample per record: `metric` of each.
  Summary of(Seconds (RequestRecord::*metric)() const) const {
    return summarize([metric](StreamSummary& s, const RequestRecord& r) {
      s.add((r.*metric)());
    });
  }
  /// Every inter-token gap of each record.
  Summary tbt() const {
    return summarize([](StreamSummary& s, const RequestRecord& r) {
      s.add_gaps(r.token_times);
    });
  }
  template <typename Feed>
  Summary summarize(const Feed& feed) const {
    StreamSummary s;
    while (s.next_pass()) {
      for (std::size_t i = 0; i < records.size(); ++i) {
        const RequestRecord& r = records[i];
        if (r.completed() && keep(r)) feed(s, r);
      }
    }
    return s.summary();
  }
};

}  // namespace

void MetricsCollector::record_operators(
    const std::map<OpType, Seconds>& per_op) {
  for (const auto& [op, seconds] : per_op) {
    auto& stats = operator_stats_[op];
    ++stats.invocations;
    stats.total_seconds += seconds;
  }
}

SimulationMetrics MetricsCollector::finalize(Seconds now) const {
  return finalize(now, static_fleet_report(cluster_.num_replicas, now,
                                           cluster_.gpus_per_replica,
                                           /*cost_per_gpu_hour=*/0.0));
}

SimulationMetrics MetricsCollector::finalize(
    Seconds now, const ClusterScalingReport& scaling) const {
  return finalize(now, scaling, RequestRecordView(requests_));
}

SimulationMetrics MetricsCollector::finalize(
    Seconds now, const ClusterScalingReport& scaling,
    RequestRecordView records) const {
  SimulationMetrics m;
  m.scaling = scaling;
  m.num_requests = records.size();
  m.makespan = now;

  TokenCount output_tokens = 0;
  for (std::size_t i = 0; i < records.size(); ++i) {
    const RequestRecord& r = records[i];
    if (!r.completed()) continue;
    ++m.num_completed;
    m.num_restarts += r.num_restarts;
    output_tokens += r.decode_tokens;
  }
  const RecordSummaries fleet_records{
      records, [](const RequestRecord&) { return true; }};
  m.scheduling_delay = fleet_records.of(&RequestRecord::scheduling_delay);
  m.ttft = fleet_records.of(&RequestRecord::ttft);
  m.tbt = fleet_records.tbt();
  m.normalized_e2e_latency =
      fleet_records.of(&RequestRecord::normalized_e2e_latency);
  m.normalized_execution_latency =
      fleet_records.of(&RequestRecord::normalized_execution_latency);

  // Fleet and per-pool batch sums, folded from the replica slots in slot
  // order.
  BatchSums fleet;
  std::vector<BatchSums> pool_sums(pools_.size());
  for (std::size_t slot = 0; slot < replica_sums_.size(); ++slot) {
    const BatchSums& s = replica_sums_[slot];
    fleet.flops += s.flops;
    fleet.hbm_bytes += s.hbm_bytes;
    fleet.busy_time += s.busy_time;
    fleet.weighted_kv_util += s.weighted_kv_util;
    fleet.weighted_batch_size += s.weighted_batch_size;
    fleet.busy_energy_joules += s.busy_energy_joules;
    if (pools_.empty()) continue;
    BatchSums& pool = pool_sums[static_cast<std::size_t>(pool_of_slot_[slot])];
    pool.flops += s.flops;
    pool.hbm_bytes += s.hbm_bytes;
    pool.busy_time += s.busy_time;
    pool.pool_busy_energy_joules += s.pool_busy_energy_joules;
  }

  if (now > 0) {
    m.throughput_qps = static_cast<double>(m.num_completed) / now;
    m.output_tokens_per_sec = static_cast<double>(output_tokens) / now;
    const double cluster_flops = cluster_.peak_flops_per_gpu *
                                 cluster_.gpus_per_replica *
                                 cluster_.num_replicas;
    m.mfu = fleet.flops / (now * cluster_flops);
    // hbm bytes are recorded per GPU, and each replica's GPUs move them in
    // parallel, so normalize by replica count only.
    if (cluster_.hbm_bytes_per_sec_per_gpu > 0)
      m.mbu = fleet.hbm_bytes /
              (now * cluster_.num_replicas * cluster_.hbm_bytes_per_sec_per_gpu);
    m.busy_fraction = fleet.busy_time / (now * cluster_.num_replicas);

    if (cluster_.peak_watts_per_gpu > 0) {
      // Idle draw is billed against the fleet's paid GPU-time (the scaling
      // report's replica timeline), not the static slot ceiling: a replica
      // slot that was never provisioned draws nothing, and a decommissioned
      // one stops drawing at release.
      const double paid_gpu_seconds = scaling.gpu_hours * 3600.0;
      const double idle_gpu_seconds = std::max(
          0.0, paid_gpu_seconds - fleet.busy_time * cluster_.gpus_per_replica);
      m.total_energy_joules = fleet.busy_energy_joules +
                              idle_gpu_seconds * cluster_.idle_watts_per_gpu;
      if (output_tokens > 0)
        m.energy_per_output_token =
            m.total_energy_joules / static_cast<double>(output_tokens);
      m.mean_cluster_power_watts = m.total_energy_joules / now;
    }
  }
  if (fleet.busy_time > 0) {
    m.mean_kv_utilization = fleet.weighted_kv_util / fleet.busy_time;
    m.mean_batch_size = fleet.weighted_batch_size / fleet.busy_time;
  }
  m.operator_stats = operator_stats_;

  // Exact per-pool MFU/MBU/energy: each pool's own batch sums over the
  // pool's own SKU rates and *paid* GPU-time (its scaling-report hours).
  if (!pools_.empty() && m.scaling.pools.size() == pools_.size()) {
    for (std::size_t i = 0; i < pools_.size(); ++i) {
      const PoolResources& res = pools_[i];
      const BatchSums& acc = pool_sums[i];
      PoolScalingReport& p = m.scaling.pools[i];
      const double paid_replica_seconds = p.replica_hours * 3600.0;
      const double paid_gpu_seconds = p.gpu_hours * 3600.0;
      if (paid_gpu_seconds > 0)
        p.mfu = acc.flops / (paid_gpu_seconds * res.peak_flops_per_gpu);
      // hbm bytes are per GPU and a replica's GPUs move them in parallel,
      // so normalize by paid replica-time (mirrors the fleet MBU).
      if (paid_replica_seconds > 0) {
        if (res.hbm_bytes_per_sec_per_gpu > 0)
          p.mbu = acc.hbm_bytes /
                  (paid_replica_seconds * res.hbm_bytes_per_sec_per_gpu);
        p.busy_fraction = acc.busy_time / paid_replica_seconds;
      }
      if (res.peak_watts_per_gpu > 0) {
        const double idle_gpu_seconds = std::max(
            0.0, paid_gpu_seconds - acc.busy_time * res.gpus_per_replica);
        p.energy_joules = acc.pool_busy_energy_joules +
                          idle_gpu_seconds * res.idle_watts_per_gpu;
      }
    }
  }

  // ---- per-tenant breakdown ----
  bool tagged = !tenants_.empty();
  for (std::size_t i = 0; i < records.size() && !tagged; ++i)
    tagged = records[i].tenant != 0;
  if (tagged) {
    struct TenantAcc {
      std::size_t num_requests = 0, num_completed = 0, num_slo_met = 0;
      TokenCount output_tokens = 0;
    };
    std::map<TenantId, TenantAcc> accs;
    std::map<TenantId, const TenantInfo*> infos;
    for (const TenantInfo& t : tenants_) {
      infos[t.id] = &t;
      accs[t.id];  // SLO-carrying tenants get a row even with no traffic
    }
    for (std::size_t i = 0; i < records.size(); ++i) {
      const RequestRecord& r = records[i];
      TenantAcc& acc = accs[r.tenant];
      ++acc.num_requests;
      const auto it = infos.find(r.tenant);
      const SloSpec* slo = it != infos.end() ? &it->second->slo : nullptr;
      if (slo != nullptr && slo->enabled() && meets_slo(r, *slo))
        ++acc.num_slo_met;
      if (!r.completed()) continue;
      ++acc.num_completed;
      acc.output_tokens += r.decode_tokens;
    }
    for (const auto& [id, acc] : accs) {
      SimulationMetrics::TenantMetrics tm;
      const auto it = infos.find(id);
      if (it != infos.end()) {
        tm.info = *it->second;
      } else {
        tm.info.id = id;
        tm.info.name = "tenant" + std::to_string(id);
      }
      tm.num_requests = acc.num_requests;
      tm.num_completed = acc.num_completed;
      const RecordSummaries tenant_records{
          records, [id = id](const RequestRecord& r) { return r.tenant == id; }};
      tm.scheduling_delay = tenant_records.of(&RequestRecord::scheduling_delay);
      tm.ttft = tenant_records.of(&RequestRecord::ttft);
      tm.tbt = tenant_records.tbt();
      if (now > 0) {
        tm.throughput_qps = static_cast<double>(acc.num_completed) / now;
        tm.output_tokens_per_sec =
            static_cast<double>(acc.output_tokens) / now;
      }
      if (tm.info.slo.enabled() && acc.num_requests > 0)
        tm.slo_attainment = static_cast<double>(acc.num_slo_met) /
                            static_cast<double>(acc.num_requests);
      m.tenant_metrics.push_back(std::move(tm));
    }
  }
  return m;
}

double SimulationMetrics::aggregate_slo_attainment() const {
  double met = 0.0;
  std::size_t requests = 0;
  for (const auto& t : tenant_metrics) {
    if (t.slo_attainment < 0) continue;
    met += t.slo_attainment * static_cast<double>(t.num_requests);
    requests += t.num_requests;
  }
  return requests > 0 ? met / static_cast<double>(requests) : -1.0;
}

std::string SimulationMetrics::tenant_table() const {
  if (tenant_metrics.empty()) return {};
  ConsoleTable table({"tenant", "prio", "requests", "completed", "TTFT p90",
                      "TBT p99", "tok/s", "SLO attainment"});
  for (const auto& t : tenant_metrics) {
    table.add_row({t.info.name, std::to_string(t.info.priority),
                   std::to_string(t.num_requests),
                   std::to_string(t.num_completed),
                   fmt_double(t.ttft.p90, 4) + "s",
                   fmt_double(t.tbt.p99, 5) + "s",
                   fmt_double(t.output_tokens_per_sec, 1),
                   t.slo_attainment < 0 ? std::string("-")
                                        : fmt_percent(t.slo_attainment)});
  }
  return table.str();
}

std::string SimulationMetrics::operator_table() const {
  if (operator_stats.empty()) return {};
  Seconds grand_total = 0.0;
  for (const auto& [op, stats] : operator_stats)
    grand_total += stats.total_seconds;

  std::vector<std::pair<OpType, OperatorStats>> rows(operator_stats.begin(),
                                                     operator_stats.end());
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return a.second.total_seconds > b.second.total_seconds;
  });

  ConsoleTable table(
      {"operator", "class", "stage execs", "total time (s)", "share"});
  for (const auto& [op, stats] : rows) {
    const char* cls = op_class(op) == OpClass::kTokenLevel      ? "token"
                      : op_class(op) == OpClass::kSequenceLevel ? "sequence"
                                                                : "comm";
    table.add_row({op_name(op), cls, std::to_string(stats.invocations),
                   fmt_double(stats.total_seconds, 4),
                   fmt_percent(grand_total > 0
                                   ? stats.total_seconds / grand_total
                                   : 0.0)});
  }
  return table.str();
}

std::string SimulationMetrics::to_string() const {
  std::ostringstream os;
  os << "requests: " << num_completed << "/" << num_requests
     << " completed, makespan " << fmt_double(makespan, 2) << "s\n";
  os << "  throughput:      " << fmt_double(throughput_qps, 3) << " qps, "
     << fmt_double(output_tokens_per_sec, 1) << " output tok/s\n";
  os << "  sched delay:     p50 " << fmt_double(scheduling_delay.p50, 4)
     << "s  p99 " << fmt_double(scheduling_delay.p99, 4) << "s\n";
  os << "  TTFT:            p50 " << fmt_double(ttft.p50, 4) << "s  p90 "
     << fmt_double(ttft.p90, 4) << "s\n";
  os << "  TBT:             p50 " << fmt_double(tbt.p50, 5) << "s  p99 "
     << fmt_double(tbt.p99, 5) << "s\n";
  os << "  norm e2e:        p50 " << fmt_double(normalized_e2e_latency.p50, 5)
     << "  p95 " << fmt_double(normalized_e2e_latency.p95, 5)
     << " s/token\n";
  os << "  norm exec:       p50 "
     << fmt_double(normalized_execution_latency.p50, 5) << "  p95 "
     << fmt_double(normalized_execution_latency.p95, 5) << " s/token\n";
  os << "  MFU: " << fmt_percent(mfu) << "  MBU: " << fmt_percent(mbu)
     << "  mean batch "
     << fmt_double(mean_batch_size, 1) << "  KV util "
     << fmt_percent(mean_kv_utilization) << "  busy "
     << fmt_percent(busy_fraction) << "  restarts " << num_restarts << "\n";
  if (total_energy_joules > 0) {
    os << "  energy:          " << fmt_double(total_energy_joules / 1e3, 1)
       << " kJ total, " << fmt_double(energy_per_output_token, 2)
       << " J/token, mean draw "
       << fmt_double(mean_cluster_power_watts, 0) << " W\n";
  }
  if (estimator_cache_hits + estimator_cache_misses > 0) {
    const double total =
        static_cast<double>(estimator_cache_hits + estimator_cache_misses);
    os << "  estimator cache: " << estimator_cache_hits << " hits / "
       << estimator_cache_misses << " misses ("
       << fmt_percent(static_cast<double>(estimator_cache_hits) / total)
       << " hit rate)\n";
  }
  if (scaling.enabled) os << "  fleet:           " << scaling.to_string()
                          << "\n";
  if (!tenant_metrics.empty()) os << tenant_table();
  return os.str();
}

}  // namespace vidur
