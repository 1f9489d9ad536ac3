#include "metrics/metrics.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <sstream>
#include <unordered_map>
#include <utility>

#include "common/check.h"
#include "common/table.h"

namespace vidur {

namespace {

std::vector<int> one_pool_layout(int num_replicas) {
  VIDUR_CHECK(num_replicas >= 1);
  return std::vector<int>(static_cast<std::size_t>(num_replicas), 0);
}

}  // namespace

MetricsCollector::MetricsCollector(std::vector<PoolResources> pools,
                                   std::vector<int> pool_of_slot)
    : pools_(std::move(pools)), pool_of_slot_(std::move(pool_of_slot)) {
  VIDUR_CHECK_MSG(!pool_of_slot_.empty(),
                  "the collector needs at least one replica slot");
  for (const PoolResources& p : pools_) {
    VIDUR_CHECK(p.gpus_per_replica >= 1);
    VIDUR_CHECK(p.peak_flops_per_gpu > 0);
    VIDUR_CHECK(p.hbm_bytes_per_sec_per_gpu >= 0);
    VIDUR_CHECK(p.idle_watts_per_gpu >= 0);
    VIDUR_CHECK(p.peak_watts_per_gpu >= p.idle_watts_per_gpu);
  }
  for (const int p : pool_of_slot_)
    VIDUR_CHECK_MSG(p >= 0 && p < static_cast<int>(pools_.size()),
                    "pool_of_slot entry " << p << " out of range");
  replica_sums_.resize(pool_of_slot_.size());
}

MetricsCollector::MetricsCollector(ClusterResources cluster)
    : MetricsCollector(
          {PoolResources{
              .name = "fleet",
              .gpus_per_replica = cluster.gpus_per_replica,
              .peak_flops_per_gpu = cluster.peak_flops_per_gpu,
              .hbm_bytes_per_sec_per_gpu = cluster.hbm_bytes_per_sec_per_gpu,
              .idle_watts_per_gpu = cluster.idle_watts_per_gpu,
              .peak_watts_per_gpu = cluster.peak_watts_per_gpu}},
          one_pool_layout(cluster.num_replicas)) {}

MetricsCollector::MetricsCollector(int num_replicas,
                                   double peak_flops_per_gpu,
                                   int gpus_per_replica,
                                   double hbm_bytes_per_sec_per_gpu)
    : MetricsCollector(ClusterResources{
          .num_replicas = num_replicas,
          .gpus_per_replica = gpus_per_replica,
          .peak_flops_per_gpu = peak_flops_per_gpu,
          .hbm_bytes_per_sec_per_gpu = hbm_bytes_per_sec_per_gpu}) {}

namespace {

/// Linear power model: intensity is the batch's per-GPU FLOP or bandwidth
/// utilization, whichever dominates (roofline-style).
double batch_energy_joules(const BatchRecord& record, double duration,
                           const PoolResources& pool) {
  if (pool.peak_watts_per_gpu <= 0 || duration <= 0) return 0.0;
  const double flop_util =
      record.flops /
      (duration * pool.peak_flops_per_gpu * pool.gpus_per_replica);
  const double bw_util =
      pool.hbm_bytes_per_sec_per_gpu > 0
          ? static_cast<double>(record.hbm_bytes_per_gpu) /
                (duration * pool.hbm_bytes_per_sec_per_gpu)
          : 0.0;
  const double intensity = std::clamp(std::max(flop_util, bw_util), 0.0, 1.0);
  const double watts_per_gpu =
      pool.idle_watts_per_gpu +
      (pool.peak_watts_per_gpu - pool.idle_watts_per_gpu) * intensity;
  return duration * pool.gpus_per_replica * watts_per_gpu;
}

}  // namespace

void MetricsCollector::BatchSums::add(const BatchSums& other) {
  flops += other.flops;
  hbm_bytes += other.hbm_bytes;
  busy_time += other.busy_time;
  weighted_kv_util += other.weighted_kv_util;
  weighted_batch_size += other.weighted_batch_size;
  busy_energy_joules += other.busy_energy_joules;
}

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
  sums.busy_energy_joules += batch_energy_joules(
      record, duration,
      pools_[static_cast<std::size_t>(pool_of_slot_[slot])]);
}

void MetricsCollector::set_tenants(std::vector<TenantInfo> tenants) {
  for (const TenantInfo& t : tenants) VIDUR_CHECK(t.id >= 0);
  tenants_ = std::move(tenants);
}

void MetricsCollector::record_request(const RequestRecord& record) {
  requests_.push_back(record);
}

bool meets_slo(const RequestRecord& record, const SloSpec& slo) {
  if (!record.completed()) return false;
  if (slo.ttft_target > 0 && record.ttft() > slo.ttft_target) return false;
  if (slo.tbt_target > 0 && record.worst_tbt() > slo.tbt_target) return false;
  return true;
}

namespace {

/// Exact summaries of the completed records `keep` accepts, read in place.
/// Nothing is copied or sorted.
template <typename Keep>
struct RecordSummaries {
  RequestRecordView records;
  Keep keep;

  /// One sample per record: `metric` of each, in record order.
  Summary of(Seconds (RequestRecord::*metric)() const) const {
    StreamSummary s;
    while (s.next_pass()) {
      for (std::size_t i = 0; i < records.size(); ++i) {
        const RequestRecord& r = records[i];
        if (r.completed() && keep(r)) s.add((r.*metric)());
      }
    }
    return s.summary();
  }

  /// Every inter-token gap of the kept records, fed as weighted batch gaps:
  /// a gap inside a run is the gap between two consecutive batch ends of
  /// its slot, so each slot gap is fed once, weighted by the kept runs
  /// spanning it, and each boundary between a record's runs adds one gap
  /// of weight 1. The same multiset as the per-token gaps
  /// (TokenTimes::for_each_gap), at a cost per batch end and run boundary
  /// instead of per token.
  Summary tbt() const {
    const RunBuckets buckets = bucket_runs();
    // One slot's run coverage at a time, as differences: +1 at the gap
    // after a run's first batch, -1 past its last. The feed zeroes it again.
    std::vector<std::int32_t> diff(buckets.longest + 1, 0);
    StreamSummary s;
    while (s.next_pass()) {
      for (std::size_t g = 0; g < buckets.slots.size(); ++g) {
        // Two feeds per bucket, each with one sink call, so the sink
        // inlines.
        std::pair<std::uint32_t, std::uint32_t> span;
        s.add_each([&](const auto& sink) {
          span = cover_bucket(buckets, g, diff, sink);
        });
        s.add_each([&](const auto& sink) {
          feed_slot_gaps(buckets.slots[g], span, diff, sink);
        });
      }
    }
    return s.summary();
  }

 private:
  /// The kept records with two or more tokens, bucketed by timeline slot:
  /// a record sits once in the bucket of every slot holding one of its
  /// runs.
  struct RunBuckets {
    struct Slot {
      const TokenTimeline* timeline = nullptr;
      int slot = 0;
    };
    std::vector<Slot> slots;             ///< one per bucket
    std::vector<std::uint32_t> start;    ///< bucket offsets into members
    std::vector<std::uint32_t> members;  ///< record indices, bucket by bucket
    std::size_t longest = 0;  ///< most batch ends of a non-empty bucket
  };

  const std::vector<TokenTimes::Run>& runs_of(std::uint32_t i) const {
    return records[i].token_times.runs();
  }

  /// Add the coverage of bucket `g`'s runs on its slot to `diff`, and feed
  /// the run boundaries of the records whose first run lies on that slot
  /// (so each record's once). Returns the span of `diff` written.
  template <typename Sink>
  std::pair<std::uint32_t, std::uint32_t> cover_bucket(
      const RunBuckets& buckets, std::size_t g,
      std::vector<std::int32_t>& diff, const Sink& sink) const {
    const TokenTimeline& timeline = *buckets.slots[g].timeline;
    const auto slot = static_cast<std::uint32_t>(buckets.slots[g].slot);
    const auto at = [&timeline](std::uint32_t run_slot, std::uint32_t i) {
      return timeline.times(static_cast<int>(run_slot))[i];
    };
    std::uint32_t lo = std::numeric_limits<std::uint32_t>::max(), hi = 0;
    const std::uint32_t* const member = buckets.members.data();
    const std::uint32_t end = buckets.start[g + 1];
    for (std::uint32_t m = buckets.start[g]; m < end; ++m) {
      // A bucket's records, and their runs, lie far apart in memory: fetch
      // a record 16 members ahead and its runs 8 ahead.
      if (m + 16 < end) __builtin_prefetch(&runs_of(member[m + 16]));
      if (m + 8 < end) __builtin_prefetch(runs_of(member[m + 8]).data());
      const std::vector<TokenTimes::Run>& runs = runs_of(member[m]);
      for (const TokenTimes::Run& run : runs) {
        if (run.slot != slot || run.count < 2) continue;
        ++diff[run.first + 1];
        --diff[run.first + run.count];
        lo = std::min(lo, run.first + 1);
        hi = std::max(hi, run.first + run.count);
      }
      if (runs.front().slot != slot) continue;
      for (std::size_t k = 1; k < runs.size(); ++k) {
        const TokenTimes::Run& a = runs[k - 1];
        const TokenTimes::Run& b = runs[k];
        sink(at(b.slot, b.first) - at(a.slot, a.first + a.count - 1),
             std::uint64_t{1});
      }
    }
    return {lo, hi};
  }

  /// Feed the gaps of `slot`'s batch ends over `span`, each weighted by its
  /// coverage, and zero `diff` there again.
  template <typename Sink>
  static void feed_slot_gaps(const typename RunBuckets::Slot& slot,
                             std::pair<std::uint32_t, std::uint32_t> span,
                             std::vector<std::int32_t>& diff,
                             const Sink& sink) {
    const auto [lo, hi] = span;
    const Seconds* const t = slot.timeline->times(slot.slot).data();
    std::int32_t weight = 0;
    for (std::uint32_t j = lo; j < hi; ++j) {
      weight += diff[j];
      diff[j] = 0;
      if (weight != 0)
        sink(t[j] - t[j - 1], static_cast<std::uint64_t>(weight));
    }
    diff[hi] = 0;
  }

  /// Two walks over the records: count each bucket's records, then place
  /// them. Records are grouped by timeline pointer, so hand-built records,
  /// each on a private one-slot timeline, get a bucket each, and copies
  /// from another collector join their run's buckets.
  RunBuckets bucket_runs() const {
    constexpr std::uint32_t kNone = std::numeric_limits<std::uint32_t>::max();
    VIDUR_CHECK(records.size() < kNone);
    RunBuckets b;
    std::unordered_map<const TokenTimeline*, std::uint32_t> first_bucket;
    std::vector<std::uint32_t> seen;  ///< per bucket: last record placed
    std::vector<std::uint32_t> next;  ///< per bucket: size, then next place
    const auto walk = [&](const auto& place) {
      std::fill(seen.begin(), seen.end(), kNone);
      const TokenTimeline* last = nullptr;
      std::uint32_t base = 0;
      for (std::uint32_t i = 0; i < records.size(); ++i) {
        const RequestRecord& r = records[i];
        const TokenTimes& times = r.token_times;
        if (times.size() < 2 || !r.completed() || !keep(r)) continue;
        if (times.timeline() != last) {
          last = times.timeline();
          const auto [it, fresh] = first_bucket.try_emplace(
              last, static_cast<std::uint32_t>(b.slots.size()));
          for (int slot = 0; fresh && slot < last->num_slots(); ++slot) {
            b.slots.push_back({last, slot});
            seen.push_back(kNone);
            next.push_back(0);
          }
          base = it->second;
        }
        for (const TokenTimes::Run& run : times.runs()) {
          const std::size_t g = base + run.slot;
          if (seen[g] == i) continue;
          seen[g] = i;
          place(g, i);
        }
      }
    };
    walk([&](std::size_t g, std::uint32_t) { ++next[g]; });
    b.start.assign(b.slots.size() + 1, 0);
    for (std::size_t g = 0; g < b.slots.size(); ++g) {
      b.start[g + 1] = b.start[g] + next[g];
      next[g] = b.start[g];
      if (b.start[g + 1] > b.start[g])
        b.longest = std::max(
            b.longest, b.slots[g].timeline->times(b.slots[g].slot).size());
    }
    b.members.resize(b.start.back());
    walk([&](std::size_t g, std::uint32_t i) { b.members[next[g]++] = i; });
    return b;
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
  VIDUR_CHECK_MSG(pools_.size() == 1,
                  "finalize(now) assumes a one-pool fleet; pass the scaling "
                  "report of a " << pools_.size() << "-pool fleet");
  return finalize(now, static_fleet_report(
                           static_cast<int>(replica_sums_.size()), now,
                           pools_[0].gpus_per_replica,
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
  std::vector<int> pool_slots(pools_.size(), 0);
  for (std::size_t slot = 0; slot < replica_sums_.size(); ++slot) {
    const auto pool = static_cast<std::size_t>(pool_of_slot_[slot]);
    fleet.add(replica_sums_[slot]);
    pool_sums[pool].add(replica_sums_[slot]);
    ++pool_slots[pool];
  }

  // Each pool bills its own paid time: the scaling report's per-pool entry,
  // or for a one-pool collector the fleet's when the report has no breakout.
  const bool by_pool = m.scaling.pools.size() == pools_.size();
  VIDUR_CHECK_MSG(by_pool || pools_.size() == 1,
                  "the scaling report breaks out " << m.scaling.pools.size()
                                                   << " pools, the collector "
                                                   << pools_.size());
  for (std::size_t i = 0; i < pools_.size(); ++i) {
    const PoolResources& res = pools_[i];
    const BatchSums& acc = pool_sums[i];
    const double paid_gpu_seconds =
        (by_pool ? m.scaling.pools[i].gpu_hours : m.scaling.gpu_hours) *
        3600.0;
    double energy = 0.0;
    if (res.peak_watts_per_gpu > 0) {
      const double idle_gpu_seconds = std::max(
          0.0, paid_gpu_seconds - acc.busy_time * res.gpus_per_replica);
      energy = acc.busy_energy_joules +
               idle_gpu_seconds * res.idle_watts_per_gpu;
    }
    m.total_energy_joules += energy;
    if (!by_pool) continue;
    // Exact per-pool MFU/MBU/busy fraction over the pool's own SKU rates
    // and *paid* time (its scaling-report hours).
    PoolScalingReport& p = m.scaling.pools[i];
    const double paid_replica_seconds = p.replica_hours * 3600.0;
    if (paid_gpu_seconds > 0)
      p.mfu = acc.flops / (paid_gpu_seconds * res.peak_flops_per_gpu);
    // hbm bytes are per GPU and a replica's GPUs move them in parallel,
    // so normalize by paid replica-time at per-GPU bandwidth.
    if (paid_replica_seconds > 0) {
      if (res.hbm_bytes_per_sec_per_gpu > 0)
        p.mbu = acc.hbm_bytes /
                (paid_replica_seconds * res.hbm_bytes_per_sec_per_gpu);
      p.busy_fraction = acc.busy_time / paid_replica_seconds;
    }
    p.energy_joules = energy;
  }
  if (output_tokens > 0)
    m.energy_per_output_token =
        m.total_energy_joules / static_cast<double>(output_tokens);

  if (now > 0) {
    m.throughput_qps = static_cast<double>(m.num_completed) / now;
    m.output_tokens_per_sec = static_cast<double>(output_tokens) / now;
    // Fleet utilization is work over the static slot capacity, summed per
    // pool. hbm bytes are recorded per GPU and each replica's GPUs move
    // them in parallel, so bandwidth capacity counts every slot at its
    // per-GPU bandwidth. It is applied as now x slots x the slots' mean
    // bandwidth: for a one-SKU fleet that mean is exact, so the product
    // does not depend on how the slots split into pools.
    double peak_flops = 0.0;
    double bandwidth = 0.0;
    for (std::size_t i = 0; i < pools_.size(); ++i) {
      const PoolResources& res = pools_[i];
      peak_flops +=
          res.peak_flops_per_gpu * res.gpus_per_replica * pool_slots[i];
      bandwidth += pool_slots[i] * res.hbm_bytes_per_sec_per_gpu;
    }
    const auto slots = static_cast<double>(replica_sums_.size());
    m.mfu = fleet.flops / (now * peak_flops);
    if (bandwidth > 0)
      m.mbu = fleet.hbm_bytes / (now * slots * (bandwidth / slots));
    m.busy_fraction = fleet.busy_time / (now * slots);
    m.mean_cluster_power_watts = m.total_energy_joules / now;
  }
  if (fleet.busy_time > 0) {
    m.mean_kv_utilization = fleet.weighted_kv_util / fleet.busy_time;
    m.mean_batch_size = fleet.weighted_batch_size / fleet.busy_time;
  }
  m.operator_stats = operator_stats_;

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
