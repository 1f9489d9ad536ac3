// Request-lifecycle and cluster-event tracing (observability subsystem).
//
// The simulator, replica schedulers and cluster manager emit typed POD
// TraceRecords into a preallocated ring buffer. Tracing is a nullable
// pointer on every hot path: when no recorder is attached the cost is one
// branch, no allocation, no formatting. The recorded stream is converted to
// Chrome/Perfetto `trace_event` JSON after the run (chrome_trace_json), so
// `vidur run --trace out.json` produces a file chrome://tracing and
// https://ui.perfetto.dev open directly.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/types.h"

namespace vidur {

/// Version of the record payload layout below. Bumped whenever a kind's
/// field meaning changes or new records appear in the stream; exported
/// trace documents embed it and `vidur trace-check` / the analysis engine
/// refuse documents written under a different schema.
///
/// v2: kScheduled carries the queue-entry timestamp (a, nanoseconds) and a
/// resume marker (detail=1 after a preemption restart or migration landing,
/// re-emitted per resume);
/// kPrefillDone carries the completing batch size (a) and re-emits on
/// re-completion after a preemption restart (detail=1); kCompleted carries
/// the final batch size (b); kArrival carries the tenant id (detail,
/// tenant + 1, 0 = untagged).
///
/// v3: adds kCacheLookup — one record per prefix-cache consultation
/// (id=request, replica=where, a=matched prefix tokens, b=prompt tokens,
/// detail=1 hit / 0 miss).
///
/// v4: adds the fault-injection records. kReplicaFault (replica=victim,
/// detail distinguishes crash / spot notice / spot kill / degrade edges,
/// a=requests torn down on kills or the slowdown factor in permille on
/// degrade edges); kRequestRetry (id=request, replica=the failed replica,
/// a=attempt number, b=backoff delay in integer nanoseconds, detail=0
/// retry scheduled / 1 attempts exhausted / 2 immediate handoff);
/// kRequestShed (id=request dropped by the admission floor, a=tenant
/// priority, b=active replicas at the decision).
inline constexpr int kTraceSchemaVersion = 4;

/// What one trace record describes. Request-lifecycle kinds carry the
/// request id; batch kinds carry a per-run monotonic batch sequence number;
/// cluster kinds describe replica transitions and autoscaler decisions.
enum class TraceEventKind : std::uint8_t {
  kArrival = 0,    ///< id=request, a=prefill_tokens, b=decode_tokens,
                   ///< detail=tenant+1 (0: untagged)
  kRouted,         ///< id=request, replica=target (-1: parked centrally)
  kScheduled,      ///< id=request entered a batch, replica=where.
                   ///< detail=0: first schedule, a=queue-entry time in
                   ///< integer nanoseconds (-1: unknown). detail=1: resumed
                   ///< from a waiting queue after a preemption restart or a
                   ///< KV migration landing, a=-1.
  kPreempted,      ///< id=request preempted-and-restarted, replica=where
  kPrefillDone,    ///< id=request completed prefill, replica=where,
                   ///< a=batch size of the completing batch. detail=0 on
                   ///< first completion (the TTFT edge), 1 when a restarted
                   ///< request re-completes its prefill.
  kMigrateStart,   ///< id=request KV hand-off started, replica=source,
                   ///< a=KV tokens in flight
  kMigrateEnd,     ///< id=request landed, replica=destination
  kCompleted,      ///< id=request, replica=where, a=restarts,
                   ///< b=batch size of the final batch
  kBatchStart,     ///< id=batch seq, replica, a=batch_size, b=q_tokens
  kBatchEnd,       ///< id=batch seq, replica, a=batch_size
  kReplicaTransition,  ///< replica lifecycle edge: detail=to-state,
                       ///< a=cluster-wide active count after
  kScaleDecision,  ///< autoscaler group decision: detail=role,
                   ///< a=desired replicas, b=active replicas
  kCacheLookup,    ///< id=request consulted the replica's prefix cache:
                   ///< a=matched prefix tokens served from cache,
                   ///< b=prompt tokens, detail=1 hit / 0 miss
  kReplicaFault,   ///< replica=victim. detail=0 crash, 1 spot reclaim
                   ///< notice (drain begins), 2 spot hard kill, 3 degrade
                   ///< start, 4 degrade end. a=requests torn down
                   ///< (detail 0/2) or slowdown factor in permille
                   ///< (detail 3/4).
  kRequestRetry,   ///< id=request displaced by a replica failure,
                   ///< replica=the failed replica. detail=0: retry
                   ///< scheduled, a=attempt number, b=backoff delay in
                   ///< integer nanoseconds. detail=1: attempts exhausted,
                   ///< request lost, a=attempts used. detail=2: immediate
                   ///< handoff (no work lost), a=handoff count.
  kRequestShed,    ///< id=request shed by the graceful-degradation floor:
                   ///< a=tenant priority, b=active replicas at decision
};

const char* trace_event_kind_name(TraceEventKind kind);

/// One trace record: a fixed-size POD so emitting is a couple of stores.
/// Field meaning depends on `kind` (see TraceEventKind); unused fields keep
/// their defaults, which is what makes records bit-comparable across runs
/// (the determinism tests rely on operator==).
struct TraceRecord {
  TraceEventKind kind = TraceEventKind::kArrival;
  std::uint8_t detail = 0;  ///< kind-specific small payload (state, role)
  std::int32_t replica = -1;
  std::int64_t id = -1;  ///< request id or batch sequence number
  std::int64_t a = 0;
  std::int64_t b = 0;
  Seconds time = 0.0;

  bool operator==(const TraceRecord&) const = default;
};

/// Fixed-capacity ring buffer of TraceRecords. When the buffer wraps, the
/// oldest records are overwritten (num_dropped() reports how many); the
/// exporter then renders the retained tail, which is the recent history —
/// the part a user debugging a long run actually wants.
class TraceRecorder {
 public:
  static constexpr std::size_t kDefaultCapacity = std::size_t{1} << 18;

  /// Throws vidur::Error on a zero capacity (emit() writes the ring's head
  /// slot unconditionally).
  explicit TraceRecorder(std::size_t capacity = kDefaultCapacity);

  void emit(const TraceRecord& record) {
    buffer_[head_] = record;
    if (++head_ == buffer_.size()) head_ = 0;
    ++total_;
  }

  /// Ring capacity: the most records retained at once.
  std::size_t capacity() const { return buffer_.size(); }
  /// Records emitted over the recorder's lifetime (including overwritten).
  std::uint64_t num_emitted() const { return total_; }
  /// Emitted records no longer retained (ring-buffer overwrites).
  std::uint64_t num_dropped() const {
    return total_ > buffer_.size() ? total_ - buffer_.size() : 0;
  }

  /// Retained records in emission order (oldest first).
  std::vector<TraceRecord> records() const;

  void clear();

 private:
  std::vector<TraceRecord> buffer_;
  std::size_t head_ = 0;
  std::uint64_t total_ = 0;
};

/// Null-safe emission used by the instrumented subsystems: a disabled
/// recorder (nullptr) costs exactly this branch on the hot path.
inline void trace_emit(TraceRecorder* trace, TraceEventKind kind, Seconds time,
                       std::int32_t replica, std::int64_t id,
                       std::int64_t a = 0, std::int64_t b = 0,
                       std::uint8_t detail = 0) {
  if (trace == nullptr) return;
  TraceRecord r;
  r.kind = kind;
  r.detail = detail;
  r.replica = replica;
  r.id = id;
  r.a = a;
  r.b = b;
  r.time = time;
  trace->emit(r);
}

/// Render records as a Chrome `trace_event` document ({"traceEvents": [...],
/// "displayTimeUnit": "ms"}). Three processes: requests (one thread per
/// request, phase spans queued/prefill/kv-transfer/decode), replicas (one
/// thread per replica, one complete-event slice per executed batch), and
/// cluster (lifecycle instants, scale decisions and an active-replica
/// counter track). Timestamps are microseconds of simulated time.
///
/// The document additionally embeds the raw records under "vidur"
/// (trace_records_json), so an exported trace file round-trips exactly into
/// `vidur analyze` — the Chrome spans are a rendering, the sidecar is the
/// data.
JsonValue chrome_trace_json(const std::vector<TraceRecord>& records);

/// Lossless record sidecar: {"schema": kTraceSchemaVersion, "records":
/// [[kind, detail, replica, id, a, b, time], ...]}. Doubles are written
/// shortest-round-trip, so records_from == records bit for bit.
JsonValue trace_records_json(const std::vector<TraceRecord>& records);

/// Inverse of trace_records_json. Throws vidur::Error when the document is
/// malformed or was written under a different kTraceSchemaVersion.
std::vector<TraceRecord> trace_records_from_json(const JsonValue& doc);

/// Shape summary returned by validate_chrome_trace.
struct TraceValidation {
  std::size_t num_events = 0;
  std::size_t num_complete_spans = 0;  ///< "X" events
  std::size_t num_instants = 0;        ///< "i" events
  std::size_t num_counter_samples = 0; ///< "C" events
  /// Records in the embedded "vidur" sidecar (0 when the document carries
  /// none — e.g. a hand-built Chrome document).
  std::size_t num_raw_records = 0;
};

/// Validate a Chrome trace document: traceEvents is an array, every event
/// carries a phase, complete events have non-negative ts/dur, and the spans
/// of each (pid, tid) track nest properly (no partial overlap). When the
/// document embeds a "vidur" record sidecar, its schema version must equal
/// kTraceSchemaVersion. Throws vidur::Error with the offending event on any
/// violation; returns counts for reporting. Used by the tests and
/// `vidur trace-check`.
TraceValidation validate_chrome_trace(const JsonValue& doc);

}  // namespace vidur
