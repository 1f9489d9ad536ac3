// Mutable per-request serving state, owned by the simulator and manipulated
// by the scheduler stack.
#pragma once

#include "common/types.h"
#include "metrics/metrics.h"
#include "workload/request.h"

namespace vidur {

struct RequestState {
  Request request;
  ReplicaId replica = -1;

  TokenCount prefill_done = 0;  ///< prompt tokens processed so far
  TokenCount decode_done = 0;   ///< output tokens produced so far
  TokenCount kv_context = 0;    ///< tokens currently resident in KV cache
  /// KV blocks this request holds in its replica's BlockManager (the
  /// allocator keeps pool totals only). They cover the tokens past
  /// kv_cached, so decode-memory checks only consult the allocator when
  /// kv_context crosses kv_cached + kv_blocks * block_size.
  long kv_blocks = 0;
  /// Leading tokens served from the replica's prefix cache: they count in
  /// kv_context/prefill_done but their blocks live in the cache pool (the
  /// request's own allocation covers only the cold suffix) and their
  /// prefill compute is skipped.
  TokenCount kv_cached = 0;
  /// The prefix cache was consulted for this enqueue (one lookup per
  /// (re-)admission; reset by restart and re-routing).
  bool prefix_checked = false;
  /// The cache blocks behind kv_cached are pinned for this request (set by
  /// the attach that matched them, cleared by their unpin). kv_cached
  /// outlives the pins on a replica failure, so this flag, not kv_cached,
  /// makes a second unpin a no-op.
  bool cache_pinned = false;
  bool in_flight = false;       ///< member of a batch currently executing
  bool admitted = false;        ///< holds KV-cache memory on its replica
  /// A preemption restarted this request; the next batch membership emits a
  /// resume trace record (kScheduled, detail=1) closing the stall interval.
  bool resched_pending = false;
  /// When the request last entered a replica waiting queue (simulator-
  /// stamped at enqueue); rides on the first kScheduled trace record so
  /// queue wait is measured, not inferred. -1 before any enqueue.
  Seconds queue_entry_time = -1.0;

  RequestRecord record;  ///< metric timestamps (filled by the scheduler)

  bool prefill_complete() const {
    return prefill_done >= request.prefill_tokens;
  }
  bool finished() const {
    return prefill_complete() && decode_done >= request.decode_tokens;
  }
  TokenCount remaining_prefill() const {
    return request.prefill_tokens - prefill_done;
  }

  /// Reset to the unprocessed state (vLLM preempt-and-restart).
  void restart() {
    prefill_done = 0;
    decode_done = 0;
    kv_context = 0;
    kv_cached = 0;
    prefix_checked = false;  // the next schedule may re-attach to the cache
    admitted = false;
    resched_pending = true;
    ++record.num_restarts;
  }
};

}  // namespace vidur
