#include "scheduler/global_scheduler.h"

#include <utility>

#include "common/check.h"

namespace vidur {

namespace {

const std::vector<std::pair<GlobalSchedulerKind, std::string>>& names() {
  static const std::vector<std::pair<GlobalSchedulerKind, std::string>>
      table = {
          {GlobalSchedulerKind::kRoundRobin, "round_robin"},
          {GlobalSchedulerKind::kLeastOutstanding, "least_outstanding"},
          {GlobalSchedulerKind::kDeferred, "deferred"},
          {GlobalSchedulerKind::kPriority, "priority"},
          {GlobalSchedulerKind::kCacheAware, "cache_aware"},
      };
  return table;
}

}  // namespace

const std::string& global_scheduler_name(GlobalSchedulerKind kind) {
  for (const auto& [k, n] : names())
    if (k == kind) return n;
  throw Error("unhandled GlobalSchedulerKind");
}

GlobalSchedulerKind global_scheduler_from_name(const std::string& name) {
  for (const auto& [k, n] : names())
    if (n == name) return k;
  throw Error("unknown global scheduler: " + name);
}

GlobalScheduler::GlobalScheduler(GlobalSchedulerKind kind, int num_replicas)
    : kind_(kind), num_replicas_(num_replicas) {
  VIDUR_CHECK(num_replicas >= 1);
}

ReplicaId GlobalScheduler::route(RequestState* request,
                                 const std::vector<bool>& routable) {
  VIDUR_CHECK(request != nullptr);
  VIDUR_CHECK(routable.empty() ||
              static_cast<int>(routable.size()) == num_replicas_);
  const auto ok = [&](int r) {
    return routable.empty() || routable[static_cast<std::size_t>(r)];
  };
  const auto load = [&](int r) { return load_probe_ ? load_probe_(r) : 0; };
  switch (kind_) {
    case GlobalSchedulerKind::kRoundRobin: {
      for (int step = 0; step < num_replicas_; ++step) {
        const ReplicaId r = next_replica_;
        next_replica_ = (next_replica_ + 1) % num_replicas_;
        if (ok(r)) return r;
      }
      throw Error("global scheduler: no routable replica");
    }
    case GlobalSchedulerKind::kLeastOutstanding: {
      // Deterministic: strictly-lower outstanding wins, so the lowest
      // routable replica id takes every tie.
      ReplicaId best = -1;
      int best_load = 0;
      for (int r = 0; r < num_replicas_; ++r) {
        if (!ok(r)) continue;
        const int l = load(r);
        if (best < 0 || l < best_load) {
          best = r;
          best_load = l;
        }
      }
      if (best < 0) throw Error("global scheduler: no routable replica");
      return best;
    }
    case GlobalSchedulerKind::kCacheAware: {
      // Longest resident prefix wins; ties break to fewer outstanding,
      // then to the lowest replica id (strictly-better wins throughout,
      // so the scan order fixes every tie deterministically).
      ReplicaId best = -1;
      TokenCount best_match = 0;
      int best_load = 0;
      for (int r = 0; r < num_replicas_; ++r) {
        if (!ok(r)) continue;
        const TokenCount match =
            cache_probe_ ? cache_probe_(request->request, r) : 0;
        const int l = load(r);
        if (best < 0 || match > best_match ||
            (match == best_match && l < best_load)) {
          best = r;
          best_match = match;
          best_load = l;
        }
      }
      if (best < 0) throw Error("global scheduler: no routable replica");
      return best;
    }
    case GlobalSchedulerKind::kDeferred:
      central_queue_.push_back(request);
      return -1;
    case GlobalSchedulerKind::kPriority: {
      // Keep the central queue ordered by priority (descending), FIFO
      // within a level: insert after every parked request of equal or
      // higher priority. Pulls — which happen far more often than
      // arrivals under overload — then just pop the front.
      auto it = central_queue_.end();
      while (it != central_queue_.begin() &&
             (*std::prev(it))->request.priority < request->request.priority)
        --it;
      central_queue_.insert(it, request);
      return -1;
    }
  }
  throw Error("unhandled GlobalSchedulerKind");
}

std::vector<RequestState*> GlobalScheduler::pull(ReplicaId replica,
                                                 int max_requests) {
  (void)replica;
  std::vector<RequestState*> out;
  if (kind_ != GlobalSchedulerKind::kDeferred &&
      kind_ != GlobalSchedulerKind::kPriority)
    return out;
  while (!central_queue_.empty() &&
         static_cast<int>(out.size()) < max_requests) {
    out.push_back(central_queue_.front());
    central_queue_.pop_front();
  }
  return out;
}

}  // namespace vidur
