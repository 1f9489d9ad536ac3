#include "obs/trace.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>

#include "cluster/replica_state.h"
#include "common/check.h"

namespace vidur {

const char* trace_event_kind_name(TraceEventKind kind) {
  switch (kind) {
    case TraceEventKind::kArrival: return "arrival";
    case TraceEventKind::kRouted: return "routed";
    case TraceEventKind::kScheduled: return "scheduled";
    case TraceEventKind::kPreempted: return "preempted";
    case TraceEventKind::kPrefillDone: return "prefill-done";
    case TraceEventKind::kMigrateStart: return "migrate-start";
    case TraceEventKind::kMigrateEnd: return "migrate-end";
    case TraceEventKind::kCompleted: return "completed";
    case TraceEventKind::kBatchStart: return "batch-start";
    case TraceEventKind::kBatchEnd: return "batch-end";
    case TraceEventKind::kReplicaTransition: return "replica-transition";
    case TraceEventKind::kScaleDecision: return "scale-decision";
    case TraceEventKind::kCacheLookup: return "cache-lookup";
    case TraceEventKind::kReplicaFault: return "replica-fault";
    case TraceEventKind::kRequestRetry: return "request-retry";
    case TraceEventKind::kRequestShed: return "request-shed";
  }
  return "unknown";
}

TraceRecorder::TraceRecorder(std::size_t capacity) : buffer_(capacity) {
  VIDUR_CHECK_MSG(capacity > 0, "trace recorder capacity must be > 0");
}

std::vector<TraceRecord> TraceRecorder::records() const {
  std::vector<TraceRecord> out;
  const std::size_t retained =
      total_ < buffer_.size() ? static_cast<std::size_t>(total_)
                              : buffer_.size();
  out.reserve(retained);
  // Oldest retained record: head_ when wrapped, 0 otherwise.
  const std::size_t start = total_ < buffer_.size() ? 0 : head_;
  for (std::size_t i = 0; i < retained; ++i)
    out.push_back(buffer_[(start + i) % buffer_.size()]);
  return out;
}

void TraceRecorder::clear() {
  head_ = 0;
  total_ = 0;
}

// ------------------------------------------------------- chrome exporter

namespace {

// Process ids of the three tracks; Perfetto groups threads under them.
constexpr int kRequestsPid = 1;
constexpr int kReplicasPid = 2;
constexpr int kClusterPid = 3;

double micros(Seconds t) { return t * 1e6; }

JsonValue complete_event(const char* name, int pid, std::int64_t tid,
                         Seconds start, Seconds end) {
  JsonValue e = JsonValue::object();
  e.set("name", name);
  e.set("ph", "X");
  e.set("pid", pid);
  e.set("tid", tid);
  e.set("ts", micros(start));
  e.set("dur", micros(end - start));
  return e;
}

JsonValue instant_event(const std::string& name, int pid, std::int64_t tid,
                        Seconds time) {
  JsonValue e = JsonValue::object();
  e.set("name", name);
  e.set("ph", "i");
  e.set("s", "t");  // thread-scoped instant
  e.set("pid", pid);
  e.set("tid", tid);
  e.set("ts", micros(time));
  return e;
}

JsonValue process_name_event(int pid, const char* name) {
  JsonValue e = JsonValue::object();
  e.set("name", "process_name");
  e.set("ph", "M");
  e.set("pid", pid);
  JsonValue args = JsonValue::object();
  args.set("name", name);
  e.set("args", std::move(args));
  return e;
}

/// Lifecycle milestones of one request, distilled from its records. First
/// occurrences win (restarts re-stamp nothing) except migration end and
/// completion, where the last hand-off / final completion is the truth.
struct RequestMilestones {
  Seconds arrival = -1.0;
  Seconds scheduled = -1.0;
  Seconds prefill_done = -1.0;
  Seconds migrate_start = -1.0;
  Seconds migrate_end = -1.0;
  Seconds completed = -1.0;
  std::int64_t prefill_tokens = 0;
  std::int64_t decode_tokens = 0;
  std::int64_t restarts = 0;
};

}  // namespace

JsonValue chrome_trace_json(const std::vector<TraceRecord>& records) {
  JsonValue events = JsonValue::array();
  events.push(process_name_event(kRequestsPid, "requests"));
  events.push(process_name_event(kReplicasPid, "replicas"));
  events.push(process_name_event(kClusterPid, "cluster"));

  std::map<std::int64_t, RequestMilestones> requests;
  std::map<std::int64_t, TraceRecord> open_batches;  // batch seq -> start
  // Per-replica lanes for batch slices: with pipeline parallelism several
  // batches overlap on one replica, and overlapping complete events on one
  // Chrome thread render (and validate) as corrupt nesting. Each batch
  // lands on the first lane that is free at its start time.
  std::map<std::int32_t, std::vector<Seconds>> lanes;  // replica -> lane ends
  constexpr std::int64_t kLanesPerReplica = 64;

  for (const TraceRecord& r : records) {
    switch (r.kind) {
      case TraceEventKind::kArrival: {
        RequestMilestones& m = requests[r.id];
        if (m.arrival < 0) m.arrival = r.time;
        m.prefill_tokens = r.a;
        m.decode_tokens = r.b;
        break;
      }
      case TraceEventKind::kRouted: {
        JsonValue e = instant_event(
            r.replica < 0 ? "routed: parked"
                          : "routed: replica " + std::to_string(r.replica),
            kRequestsPid, r.id, r.time);
        events.push(std::move(e));
        break;
      }
      case TraceEventKind::kScheduled: {
        RequestMilestones& m = requests[r.id];
        if (m.scheduled < 0) m.scheduled = r.time;
        break;
      }
      case TraceEventKind::kPreempted:
        events.push(instant_event("preempted", kRequestsPid, r.id, r.time));
        break;
      case TraceEventKind::kPrefillDone: {
        RequestMilestones& m = requests[r.id];
        if (m.prefill_done < 0) m.prefill_done = r.time;
        break;
      }
      case TraceEventKind::kMigrateStart: {
        RequestMilestones& m = requests[r.id];
        if (m.migrate_start < 0) m.migrate_start = r.time;
        break;
      }
      case TraceEventKind::kMigrateEnd:
        requests[r.id].migrate_end = r.time;
        break;
      case TraceEventKind::kCompleted: {
        RequestMilestones& m = requests[r.id];
        m.completed = r.time;
        m.restarts = r.a;
        break;
      }
      case TraceEventKind::kBatchStart:
        open_batches[r.id] = r;
        break;
      case TraceEventKind::kBatchEnd: {
        const auto it = open_batches.find(r.id);
        if (it == open_batches.end()) break;  // start fell off the ring
        const TraceRecord& start = it->second;
        std::vector<Seconds>& replica_lanes = lanes[r.replica];
        std::size_t lane = 0;
        while (lane < replica_lanes.size() &&
               replica_lanes[lane] > start.time)
          ++lane;
        if (lane == replica_lanes.size()) replica_lanes.push_back(0.0);
        replica_lanes[lane] = r.time;
        JsonValue e = complete_event(
            "batch", kReplicasPid,
            static_cast<std::int64_t>(r.replica) * kLanesPerReplica +
                static_cast<std::int64_t>(lane),
            start.time, r.time);
        JsonValue args = JsonValue::object();
        args.set("batch_size", start.a);
        args.set("q_tokens", start.b);
        e.set("args", std::move(args));
        events.push(std::move(e));
        open_batches.erase(it);
        break;
      }
      case TraceEventKind::kReplicaTransition: {
        events.push(instant_event(
            replica_state_name(static_cast<ReplicaState>(r.detail)),
            kClusterPid, r.replica, r.time));
        JsonValue c = JsonValue::object();
        c.set("name", "active_replicas");
        c.set("ph", "C");
        c.set("pid", kClusterPid);
        c.set("ts", micros(r.time));
        JsonValue args = JsonValue::object();
        args.set("active", r.a);
        c.set("args", std::move(args));
        events.push(std::move(c));
        break;
      }
      case TraceEventKind::kScaleDecision: {
        JsonValue e =
            instant_event("scale-decision", kClusterPid, -1, r.time);
        JsonValue args = JsonValue::object();
        args.set("role", static_cast<std::int64_t>(r.detail));
        args.set("desired", r.a);
        args.set("active", r.b);
        e.set("args", std::move(args));
        events.push(std::move(e));
        break;
      }
      case TraceEventKind::kCacheLookup: {
        JsonValue e = instant_event(
            r.detail != 0 ? "cache-hit" : "cache-miss", kRequestsPid, r.id,
            r.time);
        JsonValue args = JsonValue::object();
        args.set("cached_tokens", r.a);
        args.set("prefill_tokens", r.b);
        e.set("args", std::move(args));
        events.push(std::move(e));
        break;
      }
      case TraceEventKind::kReplicaFault: {
        static constexpr const char* kFaultNames[] = {
            "fault: crash", "fault: spot notice", "fault: spot kill",
            "fault: degrade start", "fault: degrade end"};
        const char* name =
            r.detail < 5 ? kFaultNames[r.detail] : "fault: unknown";
        JsonValue e = instant_event(name, kClusterPid, r.replica, r.time);
        JsonValue args = JsonValue::object();
        args.set(r.detail >= 3 ? "factor_permille" : "requests_torn_down",
                 r.a);
        e.set("args", std::move(args));
        events.push(std::move(e));
        break;
      }
      case TraceEventKind::kRequestRetry: {
        const char* name = r.detail == 1   ? "retry: exhausted"
                           : r.detail == 2 ? "retry: handoff"
                                           : "retry: scheduled";
        JsonValue e = instant_event(name, kRequestsPid, r.id, r.time);
        JsonValue args = JsonValue::object();
        args.set("attempt", r.a);
        if (r.detail == 0) args.set("backoff_ns", r.b);
        args.set("failed_replica", static_cast<std::int64_t>(r.replica));
        e.set("args", std::move(args));
        events.push(std::move(e));
        break;
      }
      case TraceEventKind::kRequestShed: {
        JsonValue e = instant_event("shed", kRequestsPid, r.id, r.time);
        JsonValue args = JsonValue::object();
        args.set("priority", r.a);
        args.set("active_replicas", r.b);
        e.set("args", std::move(args));
        events.push(std::move(e));
        break;
      }
    }
  }

  // Sequential phase spans per request, clamped monotone so truncated
  // streams (ring overwrites) still produce a well-nested track.
  for (const auto& [id, m] : requests) {
    Seconds cursor = m.arrival >= 0 ? m.arrival : 0.0;
    const auto span = [&](const char* name, Seconds start, Seconds end,
                          bool extra_args = false) {
      if (start < 0 || end < 0) return;
      start = std::max(start, cursor);
      end = std::max(end, start);
      cursor = end;
      JsonValue e = complete_event(name, kRequestsPid, id, start, end);
      if (extra_args) {
        JsonValue args = JsonValue::object();
        args.set("prefill_tokens", m.prefill_tokens);
        args.set("decode_tokens", m.decode_tokens);
        args.set("restarts", m.restarts);
        e.set("args", std::move(args));
      }
      events.push(std::move(e));
    };
    span("queued", m.arrival, m.scheduled);
    span("prefill", m.scheduled, m.prefill_done);
    if (m.migrate_start >= 0 && m.migrate_end >= 0)
      span("kv-transfer", m.migrate_start, m.migrate_end);
    span("decode",
         std::max(m.prefill_done, m.migrate_end) >= 0
             ? std::max(m.prefill_done, m.migrate_end)
             : m.scheduled,
         m.completed, /*extra_args=*/true);
  }

  JsonValue doc = JsonValue::object();
  doc.set("traceEvents", std::move(events));
  doc.set("displayTimeUnit", "ms");
  doc.set("vidur", trace_records_json(records));
  return doc;
}

// -------------------------------------------------------- record sidecar

JsonValue trace_records_json(const std::vector<TraceRecord>& records) {
  JsonValue rows = JsonValue::array();
  for (const TraceRecord& r : records) {
    JsonValue row = JsonValue::array();
    row.push(static_cast<std::int64_t>(r.kind));
    row.push(static_cast<std::int64_t>(r.detail));
    row.push(static_cast<std::int64_t>(r.replica));
    row.push(r.id);
    row.push(r.a);
    row.push(r.b);
    row.push(r.time);
    rows.push(std::move(row));
  }
  JsonValue doc = JsonValue::object();
  doc.set("schema", static_cast<std::int64_t>(kTraceSchemaVersion));
  doc.set("records", std::move(rows));
  return doc;
}

std::vector<TraceRecord> trace_records_from_json(const JsonValue& doc) {
  VIDUR_CHECK_MSG(doc.is_object(),
                  "trace record sidecar must be a JSON object");
  const JsonValue* schema = doc.find("schema");
  VIDUR_CHECK_MSG(schema != nullptr && schema->is_number(),
                  "trace record sidecar has no numeric 'schema' version");
  VIDUR_CHECK_MSG(
      schema->as_int() == kTraceSchemaVersion,
      "trace record sidecar has schema version "
          << schema->as_int() << "; this build reads version "
          << kTraceSchemaVersion << " — re-export the trace with it");
  const JsonValue* rows = doc.find("records");
  VIDUR_CHECK_MSG(rows != nullptr && rows->is_array(),
                  "trace record sidecar has no 'records' array");
  std::vector<TraceRecord> out;
  out.reserve(rows->items().size());
  std::size_t i = 0;
  for (const JsonValue& row : rows->items()) {
    ++i;
    VIDUR_CHECK_MSG(row.is_array() && row.items().size() == 7,
                    "trace record " << i << " is not a 7-element array");
    const auto& f = row.items();
    for (const JsonValue& v : f)
      VIDUR_CHECK_MSG(v.is_number(),
                      "trace record " << i << " has a non-numeric field");
    const std::int64_t kind = f[0].as_int();
    VIDUR_CHECK_MSG(
        kind >= 0 && kind <= static_cast<std::int64_t>(
                                 TraceEventKind::kRequestShed),
        "trace record " << i << " has unknown kind " << kind);
    // Range-check before narrowing: a wrapped detail or replica, or a
    // negative time, would load as a different, plausible trace.
    const std::int64_t detail = f[1].as_int();
    VIDUR_CHECK_MSG(detail >= 0 && detail <= 255,
                    "trace record " << i << " has detail " << detail
                                    << " outside [0, 255]");
    const std::int64_t replica = f[2].as_int();
    VIDUR_CHECK_MSG(replica >= -1 && replica <= INT32_MAX,
                    "trace record " << i << " has replica " << replica
                                    << " outside [-1, 2^31-1]");
    const double time = f[6].as_double();
    VIDUR_CHECK_MSG(std::isfinite(time) && time >= 0,
                    "trace record " << i << " has time " << time
                                    << "; times must be finite and >= 0");
    TraceRecord r;
    r.kind = static_cast<TraceEventKind>(kind);
    r.detail = static_cast<std::uint8_t>(detail);
    r.replica = static_cast<std::int32_t>(replica);
    r.id = f[3].as_int();
    r.a = f[4].as_int();
    r.b = f[5].as_int();
    r.time = time;
    out.push_back(r);
  }
  return out;
}

// ------------------------------------------------------------- validator

namespace {

double num_member(const JsonValue& e, const char* key, const char* what) {
  const JsonValue* v = e.find(key);
  VIDUR_CHECK_MSG(v != nullptr && v->is_number(),
                  "trace event missing numeric '" << key << "' (" << what
                                                  << ")");
  return v->as_double();
}

}  // namespace

TraceValidation validate_chrome_trace(const JsonValue& doc) {
  VIDUR_CHECK_MSG(doc.is_object(), "trace document must be a JSON object");
  const JsonValue* events = doc.find("traceEvents");
  VIDUR_CHECK_MSG(events != nullptr && events->is_array(),
                  "trace document must carry a 'traceEvents' array");

  TraceValidation v;
  if (const JsonValue* sidecar = doc.find("vidur"); sidecar != nullptr)
    v.num_raw_records = trace_records_from_json(*sidecar).size();
  struct Span {
    double ts = 0.0;
    double dur = 0.0;
  };
  std::map<std::pair<std::int64_t, std::int64_t>, std::vector<Span>> tracks;

  std::size_t i = 0;
  for (const JsonValue& e : events->items()) {
    ++i;
    VIDUR_CHECK_MSG(e.is_object(), "trace event " << i << " is not an object");
    const JsonValue* ph = e.find("ph");
    VIDUR_CHECK_MSG(ph != nullptr && ph->is_string(),
                    "trace event " << i << " has no 'ph' phase");
    ++v.num_events;
    const std::string phase = ph->as_string();
    if (phase == "i" || phase == "I") {
      ++v.num_instants;
    } else if (phase == "C") {
      ++v.num_counter_samples;
    } else if (phase == "X") {
      ++v.num_complete_spans;
      Span s;
      s.ts = num_member(e, "ts", "complete event");
      s.dur = num_member(e, "dur", "complete event");
      VIDUR_CHECK_MSG(s.ts >= 0.0,
                      "trace event " << i << " has negative ts " << s.ts);
      VIDUR_CHECK_MSG(s.dur >= 0.0,
                      "trace event " << i << " has negative dur " << s.dur);
      const JsonValue* pid = e.find("pid");
      const JsonValue* tid = e.find("tid");
      tracks[{pid != nullptr ? pid->as_int() : 0,
              tid != nullptr ? tid->as_int() : 0}]
          .push_back(s);
    }
  }

  // Nesting check per (pid, tid) track: sorted by start (longer span first
  // on ties, so a parent precedes the child it encloses), a span must either
  // start at/after the enclosing span's end (sibling) or end within it
  // (child). Partial overlap is corrupt.
  constexpr double kEps = 1e-6;  // microsecond-scale float tolerance
  for (auto& [key, spans] : tracks) {
    std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
      if (a.ts != b.ts) return a.ts < b.ts;
      return a.dur > b.dur;
    });
    std::vector<double> stack;  // enclosing span end times
    for (const Span& s : spans) {
      while (!stack.empty() && s.ts >= stack.back() - kEps) stack.pop_back();
      VIDUR_CHECK_MSG(
          stack.empty() || s.ts + s.dur <= stack.back() + kEps,
          "trace track (pid " << key.first << ", tid " << key.second
                              << ") has partially overlapping spans at ts "
                              << s.ts);
      stack.push_back(s.ts + s.dur);
    }
  }
  return v;
}

}  // namespace vidur
