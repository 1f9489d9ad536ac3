#include "obs/analysis.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <limits>
#include <map>
#include <sstream>
#include <unordered_map>

#include "cluster/replica_state.h"
#include "common/check.h"

namespace vidur {

namespace {

using Phase = LatencyPhase;

constexpr const char* kPhaseNames[kNumLatencyPhases] = {
    "scheduling_delay", "queue_wait",   "prefill_compute",
    "preemption_stall", "kv_migration", "decode",
};

constexpr const char* kIdleGapCauseNames[] = {
    "no_routable_work", "admission_limited", "warming", "draining"};

constexpr const char* kQueueWaitCauseNames[] = {
    "replica_saturation", "priority_inversion", "pool_mismatch",
    "parked_central"};

struct Interval {
  Seconds start = 0.0;
  Seconds end = 0.0;
};

/// Sort by start and merge overlapping/abutting intervals in place.
void merge_intervals(std::vector<Interval>& v) {
  std::sort(v.begin(), v.end(), [](const Interval& a, const Interval& b) {
    return a.start < b.start || (a.start == b.start && a.end < b.end);
  });
  std::size_t out = 0;
  for (const Interval& iv : v) {
    if (out > 0 && iv.start <= v[out - 1].end) {
      v[out - 1].end = std::max(v[out - 1].end, iv.end);
    } else {
      v[out++] = iv;
    }
  }
  v.resize(out);
}

/// A +1/-1 step of a replica's waiting-request count.
struct WaitStep {
  Seconds time = 0.0;
  int count_after = 0;  ///< running count, filled after collection
  int delta = 0;
};

/// One request's raw lifecycle, gathered in a single pass over the stream.
struct ReqTrack {
  bool has_arrival = false;
  Seconds arrival = 0.0;
  int tenant = -1;
  TokenCount prefill_tokens = 0;
  TokenCount decode_tokens = 0;
  bool parked = false;       ///< first route left it centrally parked
  bool seen_lifecycle = false;
  TokenCount cached_tokens = 0;  ///< prefix tokens served from cache
  int retries = 0;   ///< fault-recovery retries (kRequestRetry detail 0)
  int handoffs = 0;  ///< queued-work handoffs (kRequestRetry detail 2)
  bool shed = false;
  bool lost = false;
  std::vector<const TraceRecord*> events;  ///< post-arrival, stream order
};

/// Queue-wait observation of one first-scheduled request (completed or
/// not), input to the queueing decomposition.
struct QueueObs {
  RequestId id = -1;
  Seconds arrival = 0.0;
  Seconds queue_entry = 0.0;   ///< clamped into [arrival, first_sched]
  Seconds first_sched = 0.0;
  ReplicaId replica = -1;
  bool parked = false;
};

const TenantSloOverride* find_tenant(const AnalysisOptions& opts,
                                     int tenant) {
  for (const TenantSloOverride& t : opts.tenants)
    if (t.tenant == tenant) return &t;
  return nullptr;
}

std::string tenant_key(const AnalysisOptions& opts, int tenant) {
  if (const TenantSloOverride* t = find_tenant(opts, tenant);
      t != nullptr && !t->name.empty())
    return t->name;
  if (tenant < 0) return "untagged";
  return "tenant-" + std::to_string(tenant);
}

std::string pool_key(const AnalysisOptions& opts, ReplicaId replica) {
  const auto idx = static_cast<std::size_t>(replica);
  if (replica >= 0 && idx < opts.replica_pools.size() &&
      !opts.replica_pools[idx].empty())
    return opts.replica_pools[idx];
  return "(unassigned)";
}

Phase arg_max_phase(const PhaseBreakdown& p) {
  int best = 0;
  for (int i = 1; i < kNumLatencyPhases; ++i)
    if (p[static_cast<std::size_t>(i)] > p[static_cast<std::size_t>(best)])
      best = i;
  return static_cast<Phase>(best);
}

/// Smallest positive phase whose removal meets `target` for a violating
/// span: `meets(remaining)` decides. Returns false when no single phase
/// suffices.
bool find_marginal(const PhaseBreakdown& p, double span,
                   const std::function<bool(double)>& meets,
                   Phase* marginal) {
  bool found = false;
  double best = 0.0;
  for (int i = 0; i < kNumLatencyPhases; ++i) {
    const double v = p[static_cast<std::size_t>(i)];
    if (v <= 0.0) continue;
    if (!meets(span - v)) continue;
    if (!found || v < best) {
      found = true;
      best = v;
      *marginal = static_cast<Phase>(i);
    }
  }
  return found;
}

JsonValue summary_json(const Summary& s) {
  JsonValue j = JsonValue::object();
  j.set("count", s.count);
  j.set("mean", s.mean);
  j.set("stddev", s.stddev);
  j.set("min", s.min);
  j.set("p50", s.p50);
  j.set("p90", s.p90);
  j.set("p95", s.p95);
  j.set("p99", s.p99);
  j.set("max", s.max);
  return j;
}

JsonValue phases_json(const PhaseBreakdown& p) {
  JsonValue j = JsonValue::object();
  for (int i = 0; i < kNumLatencyPhases; ++i)
    j.set(kPhaseNames[i], p[static_cast<std::size_t>(i)]);
  return j;
}

std::string fmt(const char* format, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), format, v);
  return buf;
}

Phase phase_from_name(const std::string& name) {
  for (int i = 0; i < kNumLatencyPhases; ++i)
    if (name == kPhaseNames[i]) return static_cast<Phase>(i);
  throw Error("analysis: unknown latency phase '" + name + "'");
}

IdleGapCause idle_gap_cause_from_name(const std::string& name) {
  for (int i = 0; i < 4; ++i)
    if (name == kIdleGapCauseNames[i]) return static_cast<IdleGapCause>(i);
  throw Error("analysis: unknown idle-gap cause '" + name + "'");
}

QueueWaitCause queue_wait_cause_from_name(const std::string& name) {
  for (int i = 0; i < 4; ++i)
    if (name == kQueueWaitCauseNames[i])
      return static_cast<QueueWaitCause>(i);
  throw Error("analysis: unknown queue-wait cause '" + name + "'");
}

constexpr std::int64_t kIntMin = std::numeric_limits<int>::min();

/// Integer member `key` of `j` as T, range-checked before it is narrowed:
/// a value outside [lo, INT_MAX] is an error naming the key, never a
/// silent wrap. The default floor is a count's; ids and tags pass kIntMin.
template <typename T = int>
T int_at(const JsonValue& j, const char* key, std::int64_t lo = 0) {
  const std::int64_t raw = j.at(key).as_int();
  constexpr std::int64_t hi = std::numeric_limits<int>::max();
  VIDUR_CHECK_MSG(raw >= lo && raw <= hi,
                  "analysis report: '" << key << "' value " << raw
                                       << " is outside [" << lo << ", "
                                       << hi << "]");
  return static_cast<T>(raw);
}

Summary summary_from_json(const JsonValue& j) {
  Summary s;
  s.count = int_at<std::size_t>(j, "count");
  s.mean = j.at("mean").as_double();
  s.stddev = j.at("stddev").as_double();
  s.min = j.at("min").as_double();
  s.p50 = j.at("p50").as_double();
  s.p90 = j.at("p90").as_double();
  s.p95 = j.at("p95").as_double();
  s.p99 = j.at("p99").as_double();
  s.max = j.at("max").as_double();
  return s;
}

PhaseBreakdown phases_from_json(const JsonValue& j) {
  PhaseBreakdown p{};
  for (int i = 0; i < kNumLatencyPhases; ++i)
    if (const JsonValue* v = j.find(kPhaseNames[i]))
      p[static_cast<std::size_t>(i)] = v->as_double();
  return p;
}

}  // namespace

const char* latency_phase_name(LatencyPhase phase) {
  const int i = static_cast<int>(phase);
  VIDUR_CHECK(i >= 0 && i < kNumLatencyPhases);
  return kPhaseNames[i];
}

const char* slo_metric_name(SloMetric metric) {
  return metric == SloMetric::kTtft ? "ttft" : "tbt";
}

const char* idle_gap_cause_name(IdleGapCause cause) {
  const int i = static_cast<int>(cause);
  VIDUR_CHECK(i >= 0 && i < 4);
  return kIdleGapCauseNames[i];
}

const char* queue_wait_cause_name(QueueWaitCause cause) {
  const int i = static_cast<int>(cause);
  VIDUR_CHECK(i >= 0 && i < 4);
  return kQueueWaitCauseNames[i];
}

AnalysisReport analyze_trace(const std::vector<TraceRecord>& records,
                             const AnalysisOptions& options) {
  AnalysisReport report;
  report.options = options;
  report.num_records = records.size();
  if (records.empty()) return report;
  // Every span below is cut at record times, assuming emission order. An
  // imported stream that breaks it (a hand-edited or damaged sidecar)
  // would invert the spans, so it is refused here.
  for (std::size_t i = 1; i < records.size(); ++i)
    VIDUR_CHECK_MSG(records[i].time >= records[i - 1].time,
                    "trace record " << i + 1 << " (time " << records[i].time
                                    << ") is earlier than record " << i
                                    << " (time " << records[i - 1].time
                                    << "); analysis needs records in "
                                       "emission (time) order");

  const Seconds span_begin = records.front().time;
  const Seconds span_end = records.back().time;

  // ---- pass 1: per-request tracks, batch intervals, replica timelines,
  // waiting-count steps ------------------------------------------------

  std::unordered_map<RequestId, ReqTrack> tracks;
  std::unordered_map<std::int64_t, std::pair<ReplicaId, Seconds>>
      open_batches;  // batch seq -> (replica, start)
  std::map<ReplicaId, std::vector<Interval>> busy;
  std::map<ReplicaId, int> batch_counts;
  std::map<ReplicaId, std::vector<std::pair<Seconds, ReplicaState>>>
      transitions;
  std::map<ReplicaId, std::vector<WaitStep>> wait_steps;
  std::vector<const TraceRecord*> cache_lookups;  ///< stream order

  // Location of each request, for the waiting-count step functions.
  enum class Loc { kNone, kCentral, kWaiting, kRunning, kMigrating };
  struct ReqLoc {
    Loc loc = Loc::kNone;
    ReplicaId replica = -1;
  };
  std::unordered_map<RequestId, ReqLoc> locs;
  const auto step = [&wait_steps](ReplicaId r, Seconds t, int delta) {
    if (r >= 0) wait_steps[r].push_back(WaitStep{t, 0, delta});
  };

  for (const TraceRecord& r : records) {
    switch (r.kind) {
      case TraceEventKind::kArrival: {
        ReqTrack& t = tracks[r.id];
        t.has_arrival = true;
        t.arrival = r.time;
        t.tenant = static_cast<int>(r.detail) - 1;
        t.prefill_tokens = r.a;
        t.decode_tokens = r.b;
        break;
      }
      case TraceEventKind::kRouted: {
        ReqTrack& t = tracks[r.id];
        t.seen_lifecycle = true;
        if (r.replica < 0 && t.events.empty()) t.parked = true;
        t.events.push_back(&r);
        ReqLoc& l = locs[r.id];
        if (l.loc == Loc::kWaiting) step(l.replica, r.time, -1);
        if (r.replica >= 0) {
          l = ReqLoc{Loc::kWaiting, r.replica};
          step(r.replica, r.time, +1);
        } else {
          l = ReqLoc{Loc::kCentral, -1};
        }
        break;
      }
      case TraceEventKind::kScheduled: {
        ReqTrack& t = tracks[r.id];
        t.seen_lifecycle = true;
        t.events.push_back(&r);
        ReqLoc& l = locs[r.id];
        if (l.loc == Loc::kWaiting) step(l.replica, r.time, -1);
        l = ReqLoc{Loc::kRunning, r.replica};
        break;
      }
      case TraceEventKind::kPreempted: {
        ReqTrack& t = tracks[r.id];
        t.seen_lifecycle = true;
        t.events.push_back(&r);
        locs[r.id] = ReqLoc{Loc::kWaiting, r.replica};
        step(r.replica, r.time, +1);
        break;
      }
      case TraceEventKind::kPrefillDone: {
        ReqTrack& t = tracks[r.id];
        t.seen_lifecycle = true;
        t.events.push_back(&r);
        break;
      }
      case TraceEventKind::kMigrateStart: {
        ReqTrack& t = tracks[r.id];
        t.seen_lifecycle = true;
        t.events.push_back(&r);
        ReqLoc& l = locs[r.id];
        if (l.loc == Loc::kWaiting) step(l.replica, r.time, -1);
        l = ReqLoc{Loc::kMigrating, -1};
        break;
      }
      case TraceEventKind::kMigrateEnd: {
        ReqTrack& t = tracks[r.id];
        t.seen_lifecycle = true;
        t.events.push_back(&r);
        locs[r.id] = ReqLoc{Loc::kWaiting, r.replica};
        step(r.replica, r.time, +1);
        break;
      }
      case TraceEventKind::kCompleted: {
        ReqTrack& t = tracks[r.id];
        t.seen_lifecycle = true;
        t.events.push_back(&r);
        ReqLoc& l = locs[r.id];
        if (l.loc == Loc::kWaiting) step(l.replica, r.time, -1);
        l = ReqLoc{Loc::kNone, -1};
        break;
      }
      case TraceEventKind::kBatchStart:
        open_batches[r.id] = {r.replica, r.time};
        break;
      case TraceEventKind::kBatchEnd: {
        const auto it = open_batches.find(r.id);
        if (it != open_batches.end()) {
          busy[it->second.first].push_back(
              Interval{it->second.second, r.time});
          batch_counts[it->second.first] += 1;
          open_batches.erase(it);
        }
        break;
      }
      case TraceEventKind::kReplicaTransition:
        transitions[r.replica].push_back(
            {r.time, static_cast<ReplicaState>(r.detail)});
        break;
      case TraceEventKind::kScaleDecision:
        break;
      case TraceEventKind::kCacheLookup:
        // Cache consultations sit outside the lifecycle walk (they are
        // instantaneous and never own a latency segment), so they must not
        // enter `events` — the conservation invariant is untouched.
        tracks[r.id].cached_tokens += r.a;
        cache_lookups.push_back(&r);
        break;
      case TraceEventKind::kReplicaFault:
        switch (r.detail) {
          case 0: report.faults.crashes += 1; break;
          case 1: report.faults.spot_notices += 1; break;
          case 2: report.faults.spot_kills += 1; break;
          case 3: report.faults.degrade_windows += 1; break;
          default: break;  // detail 4 (degrade end) carries no new fact
        }
        break;
      case TraceEventKind::kRequestRetry: {
        ReqTrack& t = tracks[r.id];
        t.seen_lifecycle = true;
        // The failure evicts the request from its replica: it owns a
        // latency segment (the restart stall), so it joins the walk.
        t.events.push_back(&r);
        if (r.detail == 0) {
          t.retries += 1;
          report.faults.retries += 1;
        } else if (r.detail == 2) {
          t.handoffs += 1;
          report.faults.handoffs += 1;
        } else {
          t.lost = true;
          report.faults.lost += 1;
        }
        ReqLoc& l = locs[r.id];
        if (l.loc == Loc::kWaiting) step(l.replica, r.time, -1);
        l = ReqLoc{Loc::kNone, -1};
        break;
      }
      case TraceEventKind::kRequestShed: {
        ReqTrack& t = tracks[r.id];
        t.seen_lifecycle = true;
        t.shed = true;
        report.faults.shed += 1;
        ReqLoc& l = locs[r.id];
        if (l.loc == Loc::kWaiting) step(l.replica, r.time, -1);
        l = ReqLoc{Loc::kNone, -1};
        break;
      }
    }
  }

  // Running waiting counts (clamped at zero: a -1 whose +1 was lost to the
  // ring buffer must not wedge the count negative).
  for (auto& [replica, steps] : wait_steps) {
    int count = 0;
    for (WaitStep& s : steps) {
      count = std::max(0, count + s.delta);
      s.count_after = count;
    }
  }

  // ---- pass 2: per-request waterfall walk -----------------------------

  std::vector<RequestId> ids;
  ids.reserve(tracks.size());
  for (const auto& [id, t] : tracks) ids.push_back(id);
  std::sort(ids.begin(), ids.end());

  std::vector<QueueObs> queue_obs;
  std::array<SampleSeries, kNumLatencyPhases> phase_series;
  SampleSeries e2e_series;
  SampleSeries ttft_series;

  for (const RequestId id : ids) {
    const ReqTrack& t = tracks[id];
    if (!t.has_arrival) {
      // Lifecycle events whose arrival the ring buffer dropped: the walk
      // has no origin, so the request cannot be attributed.
      if (t.seen_lifecycle) report.num_truncated += 1;
      continue;
    }

    RequestWaterfall wf;
    wf.id = id;
    wf.tenant = t.tenant;
    wf.arrival = t.arrival;
    wf.prefill_tokens = t.prefill_tokens;
    wf.decode_tokens = t.decode_tokens;
    wf.cached_tokens = t.cached_tokens;
    wf.num_retries = t.retries;
    wf.num_handoffs = t.handoffs;

    Seconds cursor = t.arrival;
    Phase state = Phase::kSchedulingDelay;
    bool ttft_seen = false;
    bool prefill_pending = true;
    bool completed = false;
    bool has_sched = false;
    QueueObs qo;

    const auto attribute = [&](Seconds upto, Phase phase) {
      const double d = std::max(0.0, upto - cursor);
      wf.phase[static_cast<std::size_t>(phase)] += d;
      (ttft_seen ? wf.decode_phase
                 : wf.ttft_phase)[static_cast<std::size_t>(phase)] += d;
      cursor = std::max(cursor, upto);
    };

    for (const TraceRecord* rp : t.events) {
      const TraceRecord& r = *rp;
      switch (r.kind) {
        case TraceEventKind::kRouted:
          break;  // routing is instantaneous; parked time stays in
                  // scheduling delay until the first schedule
        case TraceEventKind::kScheduled:
          if (r.detail == 0 && !has_sched) {
            has_sched = true;
            wf.first_replica = r.replica;
            if (state == Phase::kSchedulingDelay) {
              // Split at the queue-entry timestamp the record carries;
              // unknown (-1) means the whole span counts as queue wait.
              Seconds q = r.a >= 0 ? static_cast<double>(r.a) * 1e-9
                                   : cursor;
              q = std::clamp(q, cursor, r.time);
              attribute(q, Phase::kSchedulingDelay);
              qo = QueueObs{id, t.arrival, q, r.time, r.replica, t.parked};
              attribute(r.time, Phase::kQueueWait);
            } else {
              // Preempted before its first batch: the stall owns the span.
              attribute(r.time, state);
              qo = QueueObs{id,        t.arrival, cursor,
                            r.time,    r.replica, t.parked};
            }
            state = Phase::kPrefillCompute;
          } else {
            // Resume from a waiting queue (preemption restart or migration
            // landing): close the stall / queue-wait interval.
            attribute(r.time, state);
            state = prefill_pending ? Phase::kPrefillCompute
                                    : Phase::kDecode;
          }
          break;
        case TraceEventKind::kPreempted:
          attribute(r.time, state);
          state = Phase::kPreemptionStall;
          prefill_pending = true;  // vLLM restart recomputes from scratch
          break;
        case TraceEventKind::kPrefillDone:
          attribute(r.time, state);
          prefill_pending = false;
          if (!ttft_seen) {
            wf.ttft = r.time - t.arrival;
            ttft_seen = true;
          }
          state = Phase::kDecode;
          break;
        case TraceEventKind::kMigrateStart:
          attribute(r.time, state);
          state = Phase::kKvMigration;
          wf.migrated = true;
          break;
        case TraceEventKind::kMigrateEnd:
          attribute(r.time, Phase::kKvMigration);
          state = Phase::kQueueWait;  // waiting at the decode replica
          break;
        case TraceEventKind::kRequestRetry:
          // The replica failure ends whatever the request was doing; the
          // span until it is next scheduled (backoff, re-route, re-queue)
          // is a restart stall. A true retry recomputes prefill from
          // scratch; a handoff keeps whatever progress travels with it.
          attribute(r.time, state);
          state = Phase::kPreemptionStall;
          if (r.detail == 0) prefill_pending = true;
          break;
        case TraceEventKind::kCompleted:
          attribute(r.time, state);
          wf.completed = r.time;
          wf.e2e = r.time - t.arrival;
          wf.last_replica = r.replica;
          wf.num_restarts = static_cast<int>(r.a);
          completed = true;
          break;
        default:
          break;
      }
      if (completed) break;
    }

    if (has_sched) queue_obs.push_back(qo);
    if (!completed) {
      report.num_incomplete += 1;
      continue;
    }

    double sum = 0.0;
    for (const double v : wf.phase) sum += v;
    wf.conservation_error = std::abs(sum - wf.e2e);
    report.max_conservation_error =
        std::max(report.max_conservation_error, wf.conservation_error);

    for (int i = 0; i < kNumLatencyPhases; ++i) {
      const double v = wf.phase[static_cast<std::size_t>(i)];
      report.phase_totals[static_cast<std::size_t>(i)] += v;
      phase_series[static_cast<std::size_t>(i)].add(v);
    }
    e2e_series.add(wf.e2e);
    if (wf.ttft >= 0) ttft_series.add(wf.ttft);
    report.num_completed += 1;
    if (wf.num_retries > 0 || wf.num_handoffs > 0)
      report.faults.impacted_completed += 1;
    report.waterfalls.push_back(std::move(wf));
  }

  report.conservation_ok =
      report.max_conservation_error <= kConservationTolerance;
  for (int i = 0; i < kNumLatencyPhases; ++i)
    report.phase_summary[static_cast<std::size_t>(i)] =
        Summary::of(phase_series[static_cast<std::size_t>(i)]);
  report.e2e = Summary::of(e2e_series);
  report.ttft = Summary::of(ttft_series);

  // ---- replica timeline audit -----------------------------------------

  // Replicas = everything that ran a batch, transitioned, or was scheduled
  // onto (so idle-but-known replicas are audited too).
  std::map<ReplicaId, bool> replica_set;
  for (const auto& [rep, v] : busy) replica_set[rep] = true;
  for (const auto& [rep, v] : transitions) replica_set[rep] = true;
  for (const auto& [rep, v] : wait_steps) replica_set[rep] = true;

  for (auto& [rep, ivs] : busy) merge_intervals(ivs);

  // State intervals per replica over [span_begin, span_end].
  const auto state_intervals = [&](ReplicaId rep) {
    std::vector<std::pair<Interval, ReplicaState>> out;
    const auto it = transitions.find(rep);
    if (it == transitions.end() || it->second.empty()) {
      out.push_back({{span_begin, span_end}, ReplicaState::kActive});
      return out;
    }
    const auto& tl = it->second;
    // Initial state: a first transition into draining / decommissioned
    // implies the replica started active; a scale-up path (provisioning /
    // warming / active) implies it started decommissioned.
    const ReplicaState first_to = tl.front().second;
    ReplicaState cur = (first_to == ReplicaState::kDraining ||
                        first_to == ReplicaState::kDecommissioned)
                           ? ReplicaState::kActive
                           : ReplicaState::kDecommissioned;
    Seconds cursor = span_begin;
    for (const auto& [time, to] : tl) {
      const Seconds t = std::clamp(time, span_begin, span_end);
      if (t > cursor) out.push_back({{cursor, t}, cur});
      cursor = std::max(cursor, t);
      cur = to;
    }
    if (span_end > cursor) out.push_back({{cursor, span_end}, cur});
    return out;
  };

  // Was any request waiting on `rep` at any point inside (g0, g1)?
  const auto any_waiting = [&](ReplicaId rep, Seconds g0, Seconds g1) {
    const auto it = wait_steps.find(rep);
    if (it == wait_steps.end()) return false;
    const auto& steps = it->second;
    // Count as of g0: the last step at time <= g0.
    auto after = std::upper_bound(
        steps.begin(), steps.end(), g0,
        [](Seconds t, const WaitStep& s) { return t < s.time; });
    if (after != steps.begin() && std::prev(after)->count_after > 0)
      return true;
    for (auto s = after; s != steps.end() && s->time < g1; ++s)
      if (s->count_after > 0) return true;
    return false;
  };

  // Idle-while-active intervals per replica, reused by the pool-mismatch
  // queue-cause classifier below.
  std::map<ReplicaId, std::vector<Interval>> idle_active;

  for (const auto& entry : replica_set) {
    const ReplicaId rep = entry.first;
    ReplicaAudit audit;
    audit.replica = rep;
    audit.pool = pool_key(options, rep);
    if (audit.pool == "(unassigned)") audit.pool.clear();
    audit.span = span_end - span_begin;
    const auto bit = busy.find(rep);
    static const std::vector<Interval> kNoBusy;
    const std::vector<Interval>& b =
        bit == busy.end() ? kNoBusy : bit->second;
    for (const Interval& iv : b) audit.busy += iv.end - iv.start;
    audit.num_batches =
        batch_counts.count(rep) ? batch_counts.at(rep) : 0;

    // Idle = complement of busy, split at replica-state boundaries and
    // classified per piece.
    std::vector<Interval> gaps;
    Seconds cursor = span_begin;
    for (const Interval& iv : b) {
      if (iv.start > cursor) gaps.push_back({cursor, iv.start});
      cursor = std::max(cursor, iv.end);
    }
    if (span_end > cursor) gaps.push_back({cursor, span_end});

    const auto states = state_intervals(rep);
    std::vector<IdleGap> classified;
    for (const Interval& g : gaps) {
      for (const auto& [siv, sstate] : states) {
        const Seconds s0 = std::max(g.start, siv.start);
        const Seconds s1 = std::min(g.end, siv.end);
        if (s1 <= s0) continue;
        switch (sstate) {
          case ReplicaState::kDecommissioned:
          case ReplicaState::kProvisioning:
            audit.off += s1 - s0;
            break;
          case ReplicaState::kWarming:
            audit.warming += s1 - s0;
            audit.idle += s1 - s0;
            classified.push_back({s0, s1, IdleGapCause::kWarming});
            break;
          case ReplicaState::kDraining:
            audit.draining += s1 - s0;
            audit.idle += s1 - s0;
            classified.push_back({s0, s1, IdleGapCause::kDraining});
            break;
          case ReplicaState::kActive: {
            audit.idle += s1 - s0;
            const IdleGapCause cause = any_waiting(rep, s0, s1)
                                           ? IdleGapCause::kAdmissionLimited
                                           : IdleGapCause::kNoRoutableWork;
            classified.push_back({s0, s1, cause});
            if (cause == IdleGapCause::kNoRoutableWork)
              idle_active[rep].push_back({s0, s1});
            break;
          }
        }
      }
    }
    audit.num_gaps = static_cast<int>(classified.size());
    std::stable_sort(classified.begin(), classified.end(),
                     [](const IdleGap& a, const IdleGap& b) {
                       return a.duration() > b.duration();
                     });
    const auto keep = std::min<std::size_t>(
        classified.size(),
        static_cast<std::size_t>(std::max(0, options.top_k)));
    classified.resize(keep);
    audit.top_gaps = std::move(classified);
    report.replicas.push_back(std::move(audit));
  }

  // ---- queueing decomposition -----------------------------------------

  // First-schedule events per replica, sorted by time, for the priority-
  // inversion check.
  std::map<ReplicaId, std::vector<std::pair<Seconds, Seconds>>>
      sched_by_replica;  // (first_sched, arrival)
  for (const QueueObs& q : queue_obs)
    sched_by_replica[q.replica].push_back({q.first_sched, q.arrival});
  for (auto& [rep, v] : sched_by_replica) std::sort(v.begin(), v.end());

  const auto later_arrival_scheduled = [&](const QueueObs& q) {
    const auto it = sched_by_replica.find(q.replica);
    if (it == sched_by_replica.end()) return false;
    const auto& v = it->second;
    auto lo = std::upper_bound(
        v.begin(), v.end(),
        std::make_pair(q.queue_entry,
                       std::numeric_limits<double>::infinity()));
    for (auto p = lo; p != v.end() && p->first < q.first_sched; ++p)
      if (p->second > q.arrival) return true;
    return false;
  };

  const auto other_pool_was_idle = [&](const QueueObs& q) {
    if (options.replica_pools.empty()) return false;
    const std::string mine = pool_key(options, q.replica);
    for (const auto& [rep, ivs] : idle_active) {
      if (rep == q.replica || pool_key(options, rep) == mine) continue;
      for (const Interval& iv : ivs) {
        if (iv.start >= q.first_sched) break;
        if (iv.end > q.queue_entry) return true;
      }
    }
    return false;
  };

  std::array<SampleSeries, 4> cause_series;
  for (const QueueObs& q : queue_obs) {
    QueueWaitCause cause = QueueWaitCause::kReplicaSaturation;
    if (q.parked) {
      cause = QueueWaitCause::kParkedCentral;
    } else if (later_arrival_scheduled(q)) {
      cause = QueueWaitCause::kPriorityInversion;
    } else if (other_pool_was_idle(q)) {
      cause = QueueWaitCause::kPoolMismatch;
    }
    cause_series[static_cast<std::size_t>(cause)].add(q.first_sched -
                                                      q.arrival);
  }
  for (int c = 0; c < 4; ++c) {
    if (cause_series[static_cast<std::size_t>(c)].empty()) continue;
    QueueCauseStats stats;
    stats.cause = static_cast<QueueWaitCause>(c);
    stats.wait = Summary::of(cause_series[static_cast<std::size_t>(c)]);
    report.queue_causes.push_back(stats);
  }

  // ---- SLO violations and blame ---------------------------------------

  std::map<std::string, BlameBucket> by_tenant, by_pool, by_replica;
  const auto blame = [](std::map<std::string, BlameBucket>& m,
                        const std::string& key, const SloViolation& v) {
    BlameBucket& b = m[key];
    b.key = key;
    b.violations += 1;
    b.excess_seconds += v.excess;
    b.blame[static_cast<std::size_t>(v.dominant)] += v.excess;
  };

  std::vector<SloViolation> ttft_violations, tbt_violations;
  for (const RequestWaterfall& wf : report.waterfalls) {
    const TenantSloOverride* ov = find_tenant(options, wf.tenant);
    const Seconds ttft_target =
        ov != nullptr && ov->ttft_target > 0 ? ov->ttft_target
                                             : options.ttft_target;
    const Seconds tbt_target =
        ov != nullptr && ov->tbt_target > 0 ? ov->tbt_target
                                            : options.tbt_target;

    const bool impacted = wf.num_retries > 0 || wf.num_handoffs > 0;
    if (ttft_target > 0 && wf.ttft > ttft_target) {
      SloViolation v;
      v.metric = SloMetric::kTtft;
      v.id = wf.id;
      v.tenant = wf.tenant;
      v.replica = wf.first_replica;
      v.observed = wf.ttft;
      v.target = ttft_target;
      v.excess = wf.ttft - ttft_target;
      v.fault_impacted = impacted;
      v.dominant = arg_max_phase(wf.ttft_phase);
      v.has_marginal = find_marginal(
          wf.ttft_phase, wf.ttft,
          [&](double remaining) { return remaining <= ttft_target; },
          &v.marginal);
      ttft_violations.push_back(v);
    }
    if (tbt_target > 0 && wf.decode_tokens > 1 && wf.ttft >= 0) {
      const double gaps = static_cast<double>(wf.decode_tokens - 1);
      const double decode_span = wf.e2e - wf.ttft;
      const double mean_tbt = decode_span / gaps;
      if (mean_tbt > tbt_target) {
        SloViolation v;
        v.metric = SloMetric::kTbt;
        v.id = wf.id;
        v.tenant = wf.tenant;
        v.replica = wf.last_replica;
        v.observed = mean_tbt;
        v.target = tbt_target;
        v.excess = mean_tbt - tbt_target;
        v.fault_impacted = impacted;
        v.dominant = arg_max_phase(wf.decode_phase);
        v.has_marginal = find_marginal(
            wf.decode_phase, decode_span,
            [&](double remaining) {
              return remaining / gaps <= tbt_target;
            },
            &v.marginal);
        tbt_violations.push_back(v);
      }
    }
  }
  for (const SloViolation& v : ttft_violations) {
    blame(by_tenant, tenant_key(options, v.tenant), v);
    blame(by_pool, pool_key(options, v.replica), v);
    blame(by_replica, "replica-" + std::to_string(v.replica), v);
    if (v.fault_impacted) {
      report.faults.impacted_violations += 1;
      report.faults.impacted_excess_seconds += v.excess;
    }
    report.violations.push_back(v);
  }
  for (const SloViolation& v : tbt_violations) {
    blame(by_tenant, tenant_key(options, v.tenant), v);
    blame(by_pool, pool_key(options, v.replica), v);
    blame(by_replica, "replica-" + std::to_string(v.replica), v);
    if (v.fault_impacted) {
      report.faults.impacted_violations += 1;
      report.faults.impacted_excess_seconds += v.excess;
    }
    report.violations.push_back(v);
  }

  const auto rank = [](std::map<std::string, BlameBucket> m) {
    std::vector<BlameBucket> out;
    out.reserve(m.size());
    for (auto& [key, b] : m) {
      b.top_phase = arg_max_phase(b.blame);
      out.push_back(std::move(b));
    }
    std::stable_sort(out.begin(), out.end(),
                     [](const BlameBucket& a, const BlameBucket& b) {
                       return a.excess_seconds > b.excess_seconds;
                     });
    return out;
  };
  report.blame_by_tenant = rank(std::move(by_tenant));
  report.blame_by_pool = rank(std::move(by_pool));
  report.blame_by_replica = rank(std::move(by_replica));

  // ---- prefix-cache usage ---------------------------------------------

  if (!cache_lookups.empty()) {
    std::map<std::string, CacheUsage> cache_by_tenant, cache_by_pool;
    const auto count = [](CacheUsage& u, const TraceRecord& r) {
      u.lookups += 1;
      (r.detail != 0 ? u.hits : u.misses) += 1;
      u.cached_tokens += r.a;
      u.prefill_tokens += r.b;
    };
    for (const TraceRecord* rp : cache_lookups) {
      const TraceRecord& r = *rp;
      count(report.cache, r);
      const auto it = tracks.find(r.id);
      const int tenant =
          it != tracks.end() && it->second.has_arrival ? it->second.tenant
                                                       : -1;
      count(cache_by_tenant[tenant_key(options, tenant)], r);
      count(cache_by_pool[pool_key(options, r.replica)], r);
    }
    const auto flatten = [](std::map<std::string, CacheUsage> m) {
      std::vector<CacheUsage> out;
      out.reserve(m.size());
      for (auto& [key, u] : m) {
        u.key = key;
        out.push_back(std::move(u));
      }
      return out;
    };
    report.cache_by_tenant = flatten(std::move(cache_by_tenant));
    report.cache_by_pool = flatten(std::move(cache_by_pool));
  }

  return report;
}

JsonValue analysis_options_json(const AnalysisOptions& o) {
  JsonValue j = JsonValue::object();
  j.set("ttft_target", o.ttft_target);
  j.set("tbt_target", o.tbt_target);
  j.set("top_k", o.top_k);
  if (!o.tenants.empty()) {
    JsonValue arr = JsonValue::array();
    for (const TenantSloOverride& t : o.tenants) {
      JsonValue tj = JsonValue::object();
      tj.set("tenant", t.tenant);
      tj.set("name", t.name);
      tj.set("ttft_target", t.ttft_target);
      tj.set("tbt_target", t.tbt_target);
      arr.push(std::move(tj));
    }
    j.set("tenants", std::move(arr));
  }
  if (!o.replica_pools.empty()) {
    JsonValue arr = JsonValue::array();
    for (const std::string& p : o.replica_pools) arr.push(p);
    j.set("replica_pools", std::move(arr));
  }
  return j;
}

AnalysisOptions analysis_options_from_json(const JsonValue& doc) {
  VIDUR_CHECK_MSG(doc.is_object(),
                  "analysis options: expected a JSON object");
  AnalysisOptions o;
  if (const JsonValue* v = doc.find("ttft_target"))
    o.ttft_target = v->as_double();
  if (const JsonValue* v = doc.find("tbt_target"))
    o.tbt_target = v->as_double();
  if (doc.find("top_k") != nullptr) o.top_k = int_at(doc, "top_k", kIntMin);
  if (const JsonValue* v = doc.find("tenants")) {
    for (const JsonValue& tj : v->items()) {
      TenantSloOverride t;
      t.tenant = int_at(tj, "tenant", kIntMin);
      t.name = tj.at("name").as_string();
      t.ttft_target = tj.at("ttft_target").as_double();
      t.tbt_target = tj.at("tbt_target").as_double();
      o.tenants.push_back(std::move(t));
    }
  }
  if (const JsonValue* v = doc.find("replica_pools")) {
    for (const JsonValue& p : v->items())
      o.replica_pools.push_back(p.as_string());
  }
  return o;
}

JsonValue analysis_json(const AnalysisReport& r) {
  JsonValue j = JsonValue::object();
  j.set("schema", kTraceSchemaVersion);

  JsonValue req = JsonValue::object();
  req.set("records", r.num_records);
  req.set("completed", r.num_completed);
  req.set("incomplete", r.num_incomplete);
  req.set("truncated", r.num_truncated);
  j.set("requests", std::move(req));

  JsonValue cons = JsonValue::object();
  cons.set("max_error", r.max_conservation_error);
  cons.set("tolerance", kConservationTolerance);
  cons.set("ok", r.conservation_ok);
  j.set("conservation", std::move(cons));

  JsonValue phases = JsonValue::object();
  for (int i = 0; i < kNumLatencyPhases; ++i) {
    JsonValue pj = summary_json(r.phase_summary[static_cast<std::size_t>(i)]);
    pj.set("total", r.phase_totals[static_cast<std::size_t>(i)]);
    phases.set(kPhaseNames[i], std::move(pj));
  }
  j.set("phases", std::move(phases));

  JsonValue lat = JsonValue::object();
  lat.set("e2e", summary_json(r.e2e));
  lat.set("ttft", summary_json(r.ttft));
  j.set("latency", std::move(lat));

  JsonValue wfs = JsonValue::array();
  for (const RequestWaterfall& wf : r.waterfalls) {
    JsonValue w = JsonValue::object();
    w.set("id", wf.id);
    if (wf.tenant >= 0) w.set("tenant", wf.tenant);
    w.set("replica", wf.last_replica);
    if (wf.first_replica != wf.last_replica)
      w.set("first_replica", wf.first_replica);
    w.set("arrival", wf.arrival);
    w.set("e2e", wf.e2e);
    w.set("ttft", wf.ttft);
    w.set("prefill_tokens", wf.prefill_tokens);
    w.set("decode_tokens", wf.decode_tokens);
    if (wf.cached_tokens > 0) w.set("cached_tokens", wf.cached_tokens);
    if (wf.num_restarts > 0) w.set("restarts", wf.num_restarts);
    if (wf.num_retries > 0) w.set("retries", wf.num_retries);
    if (wf.num_handoffs > 0) w.set("handoffs", wf.num_handoffs);
    if (wf.migrated) w.set("migrated", true);
    w.set("phases", phases_json(wf.phase));
    w.set("ttft_phases", phases_json(wf.ttft_phase));
    w.set("conservation_error", wf.conservation_error);
    wfs.push(std::move(w));
  }
  j.set("waterfalls", std::move(wfs));

  JsonValue slo = JsonValue::object();
  slo.set("ttft_target", r.options.ttft_target);
  slo.set("tbt_target", r.options.tbt_target);
  JsonValue viols = JsonValue::array();
  for (const SloViolation& v : r.violations) {
    JsonValue vj = JsonValue::object();
    vj.set("metric", slo_metric_name(v.metric));
    vj.set("id", v.id);
    if (v.tenant >= 0) vj.set("tenant", v.tenant);
    vj.set("replica", v.replica);
    vj.set("observed", v.observed);
    vj.set("target", v.target);
    vj.set("excess", v.excess);
    vj.set("dominant_phase", latency_phase_name(v.dominant));
    if (v.has_marginal)
      vj.set("marginal_phase", latency_phase_name(v.marginal));
    if (v.fault_impacted) vj.set("fault_impacted", true);
    viols.push(std::move(vj));
  }
  slo.set("violations", std::move(viols));
  const auto blame_json = [](const std::vector<BlameBucket>& buckets) {
    JsonValue arr = JsonValue::array();
    for (const BlameBucket& b : buckets) {
      JsonValue bj = JsonValue::object();
      bj.set("key", b.key);
      bj.set("violations", b.violations);
      bj.set("excess_seconds", b.excess_seconds);
      bj.set("top_phase", latency_phase_name(b.top_phase));
      bj.set("blame", [&] {
        JsonValue p = JsonValue::object();
        for (int i = 0; i < kNumLatencyPhases; ++i)
          if (b.blame[static_cast<std::size_t>(i)] > 0)
            p.set(kPhaseNames[i], b.blame[static_cast<std::size_t>(i)]);
        return p;
      }());
      arr.push(std::move(bj));
    }
    return arr;
  };
  JsonValue blame = JsonValue::object();
  blame.set("by_tenant", blame_json(r.blame_by_tenant));
  blame.set("by_pool", blame_json(r.blame_by_pool));
  blame.set("by_replica", blame_json(r.blame_by_replica));
  slo.set("blame", std::move(blame));
  j.set("slo", std::move(slo));

  JsonValue reps = JsonValue::array();
  for (const ReplicaAudit& a : r.replicas) {
    JsonValue aj = JsonValue::object();
    aj.set("replica", a.replica);
    if (!a.pool.empty()) aj.set("pool", a.pool);
    aj.set("span", a.span);
    aj.set("busy", a.busy);
    aj.set("idle", a.idle);
    aj.set("off", a.off);
    if (a.warming > 0) aj.set("warming", a.warming);
    if (a.draining > 0) aj.set("draining", a.draining);
    aj.set("batches", a.num_batches);
    aj.set("gaps", a.num_gaps);
    JsonValue gaps = JsonValue::array();
    for (const IdleGap& g : a.top_gaps) {
      JsonValue gj = JsonValue::object();
      gj.set("start", g.start);
      gj.set("end", g.end);
      gj.set("duration", g.duration());
      gj.set("cause", idle_gap_cause_name(g.cause));
      gaps.push(std::move(gj));
    }
    aj.set("top_gaps", std::move(gaps));
    reps.push(std::move(aj));
  }
  j.set("replicas", std::move(reps));

  JsonValue queueing = JsonValue::array();
  for (const QueueCauseStats& q : r.queue_causes) {
    JsonValue qj = JsonValue::object();
    qj.set("cause", queue_wait_cause_name(q.cause));
    qj.set("wait", summary_json(q.wait));
    queueing.push(std::move(qj));
  }
  j.set("queueing", std::move(queueing));

  // Emitted only when the stream carried cache lookups, so reports of
  // cache-off runs stay byte-identical to pre-v3 renderings.
  if (r.cache.lookups > 0) {
    const auto usage_json = [](const CacheUsage& u) {
      JsonValue c = JsonValue::object();
      if (!u.key.empty()) c.set("key", u.key);
      c.set("lookups", u.lookups);
      c.set("hits", u.hits);
      c.set("misses", u.misses);
      c.set("hit_rate", u.hit_rate());
      c.set("cached_tokens", u.cached_tokens);
      c.set("prefill_tokens", u.prefill_tokens);
      return c;
    };
    JsonValue cache = usage_json(r.cache);
    const auto slices_json = [&](const std::vector<CacheUsage>& v) {
      JsonValue arr = JsonValue::array();
      for (const CacheUsage& u : v) arr.push(usage_json(u));
      return arr;
    };
    if (!r.cache_by_tenant.empty())
      cache.set("by_tenant", slices_json(r.cache_by_tenant));
    if (!r.cache_by_pool.empty())
      cache.set("by_pool", slices_json(r.cache_by_pool));
    j.set("cache", std::move(cache));
  }

  // Emitted only when the stream carried fault records, so reports of
  // fault-free runs stay byte-identical to pre-v4 renderings.
  if (r.faults.any()) {
    JsonValue fj = JsonValue::object();
    fj.set("crashes", r.faults.crashes);
    fj.set("spot_kills", r.faults.spot_kills);
    fj.set("spot_notices", r.faults.spot_notices);
    fj.set("degrade_windows", r.faults.degrade_windows);
    fj.set("retries", r.faults.retries);
    fj.set("handoffs", r.faults.handoffs);
    fj.set("lost", r.faults.lost);
    fj.set("shed", r.faults.shed);
    fj.set("impacted_completed", r.faults.impacted_completed);
    fj.set("impacted_violations", r.faults.impacted_violations);
    fj.set("impacted_excess_seconds", r.faults.impacted_excess_seconds);
    j.set("faults", std::move(fj));
  }

  j.set("context", analysis_options_json(r.options));
  return j;
}

AnalysisReport analysis_report_from_json(const JsonValue& doc) {
  VIDUR_CHECK_MSG(doc.is_object(),
                  "analysis report: expected a JSON object");
  const JsonValue& schema = doc.at("schema");
  VIDUR_CHECK_MSG(schema.is_int() && schema.as_int() == kTraceSchemaVersion,
                  "analysis report: schema "
                      << (schema.is_int() ? std::to_string(schema.as_int())
                                          : schema.dump())
                      << " does not match this build's trace schema "
                      << kTraceSchemaVersion);
  AnalysisReport r;
  if (const JsonValue* ctx = doc.find("context"))
    r.options = analysis_options_from_json(*ctx);

  const JsonValue& req = doc.at("requests");
  r.num_records = int_at<std::size_t>(req, "records");
  r.num_completed = int_at(req, "completed");
  r.num_incomplete = int_at(req, "incomplete");
  r.num_truncated = int_at(req, "truncated");

  const JsonValue& cons = doc.at("conservation");
  r.max_conservation_error = cons.at("max_error").as_double();
  r.conservation_ok = cons.at("ok").as_bool();

  const JsonValue& phases = doc.at("phases");
  for (int i = 0; i < kNumLatencyPhases; ++i) {
    const JsonValue& pj = phases.at(kPhaseNames[i]);
    r.phase_summary[static_cast<std::size_t>(i)] = summary_from_json(pj);
    r.phase_totals[static_cast<std::size_t>(i)] =
        pj.at("total").as_double();
  }
  const JsonValue& lat = doc.at("latency");
  r.e2e = summary_from_json(lat.at("e2e"));
  r.ttft = summary_from_json(lat.at("ttft"));

  for (const JsonValue& w : doc.at("waterfalls").items()) {
    RequestWaterfall wf;
    wf.id = w.at("id").as_int();
    if (w.find("tenant") != nullptr) wf.tenant = int_at(w, "tenant", kIntMin);
    wf.last_replica = int_at(w, "replica", kIntMin);
    wf.first_replica = wf.last_replica;
    if (w.find("first_replica") != nullptr)
      wf.first_replica = int_at(w, "first_replica", kIntMin);
    wf.arrival = w.at("arrival").as_double();
    wf.e2e = w.at("e2e").as_double();
    wf.completed = wf.arrival + wf.e2e;
    wf.ttft = w.at("ttft").as_double();
    wf.prefill_tokens = w.at("prefill_tokens").as_int();
    wf.decode_tokens = w.at("decode_tokens").as_int();
    if (const JsonValue* v = w.find("cached_tokens"))
      wf.cached_tokens = v->as_int();
    if (w.find("restarts") != nullptr)
      wf.num_restarts = int_at(w, "restarts");
    if (w.find("retries") != nullptr) wf.num_retries = int_at(w, "retries");
    if (w.find("handoffs") != nullptr)
      wf.num_handoffs = int_at(w, "handoffs");
    if (const JsonValue* v = w.find("migrated"))
      wf.migrated = v->as_bool();
    wf.phase = phases_from_json(w.at("phases"));
    wf.ttft_phase = phases_from_json(w.at("ttft_phases"));
    // decode_phase is not serialized (it is the complement); reconstruct.
    for (int i = 0; i < kNumLatencyPhases; ++i)
      wf.decode_phase[static_cast<std::size_t>(i)] =
          std::max(0.0, wf.phase[static_cast<std::size_t>(i)] -
                            wf.ttft_phase[static_cast<std::size_t>(i)]);
    wf.conservation_error = w.at("conservation_error").as_double();
    r.waterfalls.push_back(std::move(wf));
  }

  const JsonValue& slo = doc.at("slo");
  for (const JsonValue& vj : slo.at("violations").items()) {
    SloViolation v;
    const std::string metric = vj.at("metric").as_string();
    VIDUR_CHECK_MSG(metric == "ttft" || metric == "tbt",
                    "analysis report: unknown slo metric '" << metric
                                                            << "'");
    v.metric = metric == "ttft" ? SloMetric::kTtft : SloMetric::kTbt;
    v.id = vj.at("id").as_int();
    if (vj.find("tenant") != nullptr) v.tenant = int_at(vj, "tenant", kIntMin);
    v.replica = int_at(vj, "replica", kIntMin);
    v.observed = vj.at("observed").as_double();
    v.target = vj.at("target").as_double();
    v.excess = vj.at("excess").as_double();
    v.dominant = phase_from_name(vj.at("dominant_phase").as_string());
    if (const JsonValue* m = vj.find("marginal_phase")) {
      v.marginal = phase_from_name(m->as_string());
      v.has_marginal = true;
    }
    if (const JsonValue* f = vj.find("fault_impacted"))
      v.fault_impacted = f->as_bool();
    r.violations.push_back(v);
  }
  const JsonValue& blame = slo.at("blame");
  const auto blame_from = [](const JsonValue& arr) {
    std::vector<BlameBucket> out;
    for (const JsonValue& bj : arr.items()) {
      BlameBucket b;
      b.key = bj.at("key").as_string();
      b.violations = int_at(bj, "violations");
      b.excess_seconds = bj.at("excess_seconds").as_double();
      b.top_phase = phase_from_name(bj.at("top_phase").as_string());
      b.blame = phases_from_json(bj.at("blame"));
      out.push_back(std::move(b));
    }
    return out;
  };
  r.blame_by_tenant = blame_from(blame.at("by_tenant"));
  r.blame_by_pool = blame_from(blame.at("by_pool"));
  r.blame_by_replica = blame_from(blame.at("by_replica"));

  for (const JsonValue& aj : doc.at("replicas").items()) {
    ReplicaAudit a;
    a.replica = int_at(aj, "replica", kIntMin);
    if (const JsonValue* p = aj.find("pool")) a.pool = p->as_string();
    a.span = aj.at("span").as_double();
    a.busy = aj.at("busy").as_double();
    a.idle = aj.at("idle").as_double();
    a.off = aj.at("off").as_double();
    if (const JsonValue* v = aj.find("warming"))
      a.warming = v->as_double();
    if (const JsonValue* v = aj.find("draining"))
      a.draining = v->as_double();
    a.num_batches = int_at(aj, "batches");
    a.num_gaps = int_at(aj, "gaps");
    for (const JsonValue& gj : aj.at("top_gaps").items()) {
      IdleGap g;
      g.start = gj.at("start").as_double();
      g.end = gj.at("end").as_double();
      g.cause = idle_gap_cause_from_name(gj.at("cause").as_string());
      a.top_gaps.push_back(g);
    }
    r.replicas.push_back(std::move(a));
  }

  for (const JsonValue& qj : doc.at("queueing").items()) {
    QueueCauseStats q;
    q.cause = queue_wait_cause_from_name(qj.at("cause").as_string());
    q.wait = summary_from_json(qj.at("wait"));
    r.queue_causes.push_back(q);
  }

  if (const JsonValue* cj = doc.find("cache")) {
    const auto usage_from = [](const JsonValue& c) {
      CacheUsage u;
      if (const JsonValue* k = c.find("key")) u.key = k->as_string();
      u.lookups = c.at("lookups").as_int();
      u.hits = c.at("hits").as_int();
      u.misses = c.at("misses").as_int();
      u.cached_tokens = c.at("cached_tokens").as_int();
      u.prefill_tokens = c.at("prefill_tokens").as_int();
      return u;
    };
    r.cache = usage_from(*cj);
    if (const JsonValue* v = cj->find("by_tenant"))
      for (const JsonValue& u : v->items())
        r.cache_by_tenant.push_back(usage_from(u));
    if (const JsonValue* v = cj->find("by_pool"))
      for (const JsonValue& u : v->items())
        r.cache_by_pool.push_back(usage_from(u));
  }

  if (const JsonValue* fj = doc.find("faults")) {
    r.faults.crashes = int_at(*fj, "crashes");
    r.faults.spot_kills = int_at(*fj, "spot_kills");
    r.faults.spot_notices = int_at(*fj, "spot_notices");
    r.faults.degrade_windows = int_at(*fj, "degrade_windows");
    r.faults.retries = int_at(*fj, "retries");
    r.faults.handoffs = int_at(*fj, "handoffs");
    r.faults.lost = int_at(*fj, "lost");
    r.faults.shed = int_at(*fj, "shed");
    r.faults.impacted_completed = int_at(*fj, "impacted_completed");
    r.faults.impacted_violations = int_at(*fj, "impacted_violations");
    r.faults.impacted_excess_seconds =
        fj->at("impacted_excess_seconds").as_double();
  }

  return r;
}

std::string analysis_to_string(const AnalysisReport& r) {
  std::ostringstream out;
  char buf[256];

  out << "trace analysis: " << r.num_completed << " completed, "
      << r.num_incomplete << " incomplete, " << r.num_truncated
      << " truncated (" << r.num_records << " records)\n";
  std::snprintf(buf, sizeof(buf),
                "conservation: max |sum(phases) - e2e| = %.3g s "
                "(tolerance %.0e) -- %s\n",
                r.max_conservation_error, kConservationTolerance,
                r.conservation_ok ? "OK" : "VIOLATED");
  out << buf;
  if (r.num_completed == 0) return out.str();

  double total = 0.0;
  for (const double v : r.phase_totals) total += v;

  out << "\nlatency waterfall (seconds)\n";
  std::snprintf(buf, sizeof(buf), "  %-18s %10s %7s %10s %10s %10s %10s\n",
                "phase", "total", "share", "mean", "p50", "p99", "max");
  out << buf;
  for (int i = 0; i < kNumLatencyPhases; ++i) {
    const Summary& s = r.phase_summary[static_cast<std::size_t>(i)];
    const double t = r.phase_totals[static_cast<std::size_t>(i)];
    std::snprintf(buf, sizeof(buf),
                  "  %-18s %10.4f %6.1f%% %10.5f %10.5f %10.5f %10.5f\n",
                  kPhaseNames[i], t, total > 0 ? 100.0 * t / total : 0.0,
                  s.mean, s.p50, s.p99, s.max);
    out << buf;
  }
  std::snprintf(buf, sizeof(buf),
                "  %-18s %10.4f %7s %10.5f %10.5f %10.5f %10.5f\n", "e2e",
                total, "", r.e2e.mean, r.e2e.p50, r.e2e.p99, r.e2e.max);
  out << buf;

  // Slowest requests by e2e.
  std::vector<const RequestWaterfall*> slowest;
  slowest.reserve(r.waterfalls.size());
  for (const RequestWaterfall& wf : r.waterfalls) slowest.push_back(&wf);
  std::stable_sort(slowest.begin(), slowest.end(),
                   [](const RequestWaterfall* a, const RequestWaterfall* b) {
                     return a->e2e > b->e2e;
                   });
  const auto top_k = static_cast<std::size_t>(std::max(0, r.options.top_k));
  if (slowest.size() > top_k) slowest.resize(top_k);
  out << "\nslowest requests (top " << slowest.size() << " of "
      << r.num_completed << " by e2e)\n";
  std::snprintf(buf, sizeof(buf),
                "  %-8s %9s %9s %8s %8s %8s %8s %8s %8s  %s\n", "id", "e2e",
                "ttft", "sched", "queue", "prefill", "stall", "migrate",
                "decode", "notes");
  out << buf;
  for (const RequestWaterfall* wf : slowest) {
    std::string notes;
    if (wf->num_restarts > 0)
      notes += std::to_string(wf->num_restarts) + " restart" +
               (wf->num_restarts > 1 ? "s" : "");
    if (wf->num_retries > 0)
      notes += (notes.empty() ? "" : ", ") +
               std::to_string(wf->num_retries) + " retr" +
               (wf->num_retries > 1 ? "ies" : "y");
    if (wf->num_handoffs > 0)
      notes += (notes.empty() ? "" : ", ") +
               std::to_string(wf->num_handoffs) + " handoff" +
               (wf->num_handoffs > 1 ? "s" : "");
    if (wf->migrated) notes += notes.empty() ? "migrated" : ", migrated";
    if (wf->cached_tokens > 0)
      notes += (notes.empty() ? "" : ", ") + std::string("cached ") +
               std::to_string(static_cast<long long>(wf->cached_tokens)) +
               " tok";
    std::snprintf(
        buf, sizeof(buf),
        "  %-8lld %9.4f %9.4f %8.4f %8.4f %8.4f %8.4f %8.4f %8.4f  %s\n",
        static_cast<long long>(wf->id), wf->e2e, wf->ttft, wf->phase[0],
        wf->phase[1], wf->phase[2], wf->phase[3], wf->phase[4],
        wf->phase[5], notes.c_str());
    out << buf;
  }

  // SLO section.
  const bool slo_enabled =
      r.options.ttft_target > 0 || r.options.tbt_target > 0 ||
      !r.options.tenants.empty();
  out << "\n";
  if (!slo_enabled) {
    out << "slo: no targets configured -- blame analysis skipped\n";
  } else {
    int num_ttft = 0, num_tbt = 0;
    for (const SloViolation& v : r.violations)
      (v.metric == SloMetric::kTtft ? num_ttft : num_tbt) += 1;
    out << "slo violations: ttft " << num_ttft << "/" << r.num_completed;
    if (r.options.ttft_target > 0)
      out << " (target " << fmt("%.4g", r.options.ttft_target) << " s)";
    out << ", tbt " << num_tbt << "/" << r.num_completed;
    if (r.options.tbt_target > 0)
      out << " (target " << fmt("%.4g", r.options.tbt_target) << " s)";
    out << "\n";
    const auto blame_table = [&](const char* title,
                                 const std::vector<BlameBucket>& buckets) {
      if (buckets.empty()) return;
      out << "  blame by " << title << "\n";
      std::snprintf(buf, sizeof(buf), "    %-3s %-20s %6s %10s  %s\n", "#",
                    "key", "viol", "excess(s)", "top phase");
      out << buf;
      const auto n = std::min<std::size_t>(buckets.size(), top_k);
      for (std::size_t i = 0; i < n; ++i) {
        const BlameBucket& b = buckets[i];
        std::snprintf(buf, sizeof(buf), "    %-3zu %-20s %6d %10.4f  %s\n",
                      i + 1, b.key.c_str(), b.violations, b.excess_seconds,
                      latency_phase_name(b.top_phase));
        out << buf;
      }
    };
    blame_table("tenant", r.blame_by_tenant);
    blame_table("pool", r.blame_by_pool);
    blame_table("replica", r.blame_by_replica);
  }

  // Fault impact.
  if (r.faults.any()) {
    out << "\nfault impact\n";
    std::snprintf(buf, sizeof(buf),
                  "  injected: %d crashes, %d spot kills (%d notices), "
                  "%d degrade windows\n",
                  r.faults.crashes, r.faults.spot_kills,
                  r.faults.spot_notices, r.faults.degrade_windows);
    out << buf;
    std::snprintf(buf, sizeof(buf),
                  "  recovery: %d retries, %d handoffs, %d lost, %d shed\n",
                  r.faults.retries, r.faults.handoffs, r.faults.lost,
                  r.faults.shed);
    out << buf;
    std::snprintf(buf, sizeof(buf),
                  "  impacted: %d completed despite faults, %d slo "
                  "violations (%.4f s excess)\n",
                  r.faults.impacted_completed, r.faults.impacted_violations,
                  r.faults.impacted_excess_seconds);
    out << buf;
  }

  // Replica audit.
  if (!r.replicas.empty()) {
    out << "\nreplica timeline audit (span "
        << fmt("%.2f", r.replicas.front().span) << " s)\n";
    std::snprintf(buf, sizeof(buf),
                  "  %-8s %-12s %7s %7s %7s %8s %6s %12s\n", "replica",
                  "pool", "busy%", "idle%", "off%", "batches", "gaps",
                  "longest-gap");
    out << buf;
    for (const ReplicaAudit& a : r.replicas) {
      const double span = a.span > 0 ? a.span : 1.0;
      const double longest =
          a.top_gaps.empty() ? 0.0 : a.top_gaps.front().duration();
      std::snprintf(buf, sizeof(buf),
                    "  %-8d %-12s %6.1f%% %6.1f%% %6.1f%% %8d %6d %10.2f s\n",
                    a.replica, a.pool.empty() ? "-" : a.pool.c_str(),
                    100.0 * a.busy / span, 100.0 * a.idle / span,
                    100.0 * a.off / span, a.num_batches, a.num_gaps,
                    longest);
      out << buf;
      for (const IdleGap& g : a.top_gaps) {
        std::snprintf(buf, sizeof(buf),
                      "      gap %10.3f .. %10.3f s (%8.3f s, %s)\n",
                      g.start, g.end, g.duration(),
                      idle_gap_cause_name(g.cause));
        out << buf;
      }
    }
  }

  // Prefix-cache usage.
  if (r.cache.lookups > 0) {
    std::snprintf(buf, sizeof(buf),
                  "\nprefix cache: %lld lookups, %lld hits (%.1f%%), "
                  "%lld / %lld prefill tokens served from cache\n",
                  static_cast<long long>(r.cache.lookups),
                  static_cast<long long>(r.cache.hits),
                  100.0 * r.cache.hit_rate(),
                  static_cast<long long>(r.cache.cached_tokens),
                  static_cast<long long>(r.cache.prefill_tokens));
    out << buf;
    const auto cache_table = [&](const char* title,
                                 const std::vector<CacheUsage>& v) {
      if (v.empty()) return;
      out << "  by " << title << "\n";
      std::snprintf(buf, sizeof(buf), "    %-20s %8s %8s %7s %14s\n", "key",
                    "lookups", "hits", "rate", "cached-tokens");
      out << buf;
      for (const CacheUsage& u : v) {
        std::snprintf(buf, sizeof(buf),
                      "    %-20s %8lld %8lld %6.1f%% %14lld\n",
                      u.key.c_str(), static_cast<long long>(u.lookups),
                      static_cast<long long>(u.hits), 100.0 * u.hit_rate(),
                      static_cast<long long>(u.cached_tokens));
        out << buf;
      }
    };
    cache_table("tenant", r.cache_by_tenant);
    cache_table("pool", r.cache_by_pool);
  }

  // Queueing decomposition.
  if (!r.queue_causes.empty()) {
    out << "\nqueueing decomposition (arrival -> first schedule, "
           "seconds)\n";
    std::snprintf(buf, sizeof(buf),
                  "  %-20s %7s %9s %9s %9s %9s %9s\n", "cause", "count",
                  "mean", "p50", "p90", "p99", "max");
    out << buf;
    for (const QueueCauseStats& q : r.queue_causes) {
      std::snprintf(buf, sizeof(buf),
                    "  %-20s %7zu %9.5f %9.5f %9.5f %9.5f %9.5f\n",
                    queue_wait_cause_name(q.cause), q.wait.count,
                    q.wait.mean, q.wait.p50, q.wait.p90, q.wait.p99,
                    q.wait.max);
      out << buf;
    }
  }

  return out.str();
}

}  // namespace vidur
