// Global scheduler (paper §4.5, first tier): routes arriving requests to
// replicas. Supports classic load balancing (round-robin, least outstanding
// requests) and a stateful policy that defers binding: requests sit in a
// central queue until some replica actually has room, which helps under
// bursty arrivals where early binding hurts.
#pragma once

#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "common/types.h"
#include "scheduler/request_state.h"

namespace vidur {

enum class GlobalSchedulerKind {
  kRoundRobin,
  kLeastOutstanding,
  kDeferred,  ///< stateful: central queue, replicas pull when they have room
  /// Deferred binding with priority ordering: replicas pull the
  /// highest-priority parked request first (FIFO within a priority level),
  /// so high-priority tenants jump the queue under overload.
  kPriority,
  /// Prefix-cache affinity: route to the replica whose prefix cache holds
  /// the longest resident prefix of the request (session KV, shared system
  /// prompts). Ties — including the no-hit case — fall back to least
  /// outstanding with deterministic lowest-id tie-breaks, so same-seed
  /// replay stays bit-identical.
  kCacheAware,
};

const std::string& global_scheduler_name(GlobalSchedulerKind kind);
GlobalSchedulerKind global_scheduler_from_name(const std::string& name);

class GlobalScheduler {
 public:
  GlobalScheduler(GlobalSchedulerKind kind, int num_replicas);

  /// Route an arriving request. Returns the target replica, or -1 when the
  /// policy defers the decision (request parked in the central queue).
  /// `routable` optionally masks replicas out of consideration (elastic
  /// clusters: only kActive replicas take new work); empty means every
  /// replica is routable. Binding policies skip non-routable replicas with
  /// deterministic tie-breaking (lowest replica id wins) and throw
  /// vidur::Error when no replica is routable.
  ReplicaId route(RequestState* request,
                  const std::vector<bool>& routable = {});

  /// Deferred policy: hand over up to `max_requests` parked requests to a
  /// replica that signalled spare capacity. Empty for binding policies.
  std::vector<RequestState*> pull(ReplicaId replica, int max_requests);

  bool has_parked_requests() const { return !central_queue_.empty(); }
  std::size_t num_parked() const { return central_queue_.size(); }
  GlobalSchedulerKind kind() const { return kind_; }

  /// Cache-aware routing probe: resident prefix length (tokens) of
  /// `request` on a replica. Read-only — the probe must not touch cache
  /// stats or LRU state. Unset (or kind != kCacheAware) routes purely on
  /// load.
  void set_cache_probe(
      std::function<TokenCount(const Request&, ReplicaId)> probe) {
    cache_probe_ = std::move(probe);
  }

  /// Load probe: a replica's current outstanding request count. Only
  /// least-outstanding and cache-aware routing call it, once per routable
  /// replica per routed request. Unset reads every replica as idle.
  void set_load_probe(std::function<int(ReplicaId)> probe) {
    load_probe_ = std::move(probe);
  }

 private:
  GlobalSchedulerKind kind_;
  int num_replicas_;
  int next_replica_ = 0;  // round-robin cursor
  std::deque<RequestState*> central_queue_;
  std::function<TokenCount(const Request&, ReplicaId)> cache_probe_;
  std::function<int(ReplicaId)> load_probe_;
};

}  // namespace vidur
