// Direct unit tests of the first-tier GlobalScheduler: round-robin and
// least-outstanding binding, deferred central-queue pulls, and the
// priority-aware routing mode.
#include <gtest/gtest.h>

#include <vector>

#include "common/check.h"
#include "scheduler/global_scheduler.h"

namespace vidur {
namespace {

/// Points `scheduler`'s load probe at `load`, which the test edits in place.
void probe_load(GlobalScheduler& scheduler, const std::vector<int>& load) {
  scheduler.set_load_probe(
      [&load](ReplicaId r) { return load[static_cast<std::size_t>(r)]; });
}

std::vector<RequestState> make_requests(int n) {
  std::vector<RequestState> states(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    states[static_cast<std::size_t>(i)].request.id = i;
    states[static_cast<std::size_t>(i)].request.arrival_time = i * 0.1;
  }
  return states;
}

TEST(GlobalSchedulerNames, RoundTrip) {
  for (const auto kind :
       {GlobalSchedulerKind::kRoundRobin, GlobalSchedulerKind::kLeastOutstanding,
        GlobalSchedulerKind::kDeferred, GlobalSchedulerKind::kPriority})
    EXPECT_EQ(global_scheduler_from_name(global_scheduler_name(kind)), kind);
  EXPECT_THROW(global_scheduler_from_name("fifo"), Error);
}

TEST(GlobalScheduler, RoundRobinCycles) {
  GlobalScheduler scheduler(GlobalSchedulerKind::kRoundRobin, 3);
  auto requests = make_requests(7);
  std::vector<ReplicaId> routed;
  for (auto& r : requests) routed.push_back(scheduler.route(&r));
  EXPECT_EQ(routed, (std::vector<ReplicaId>{0, 1, 2, 0, 1, 2, 0}));
  EXPECT_FALSE(scheduler.has_parked_requests());
}

TEST(GlobalScheduler, LeastOutstandingPicksMinimum) {
  GlobalScheduler scheduler(GlobalSchedulerKind::kLeastOutstanding, 3);
  auto requests = make_requests(3);
  std::vector<int> load;
  probe_load(scheduler, load);
  load = {5, 2, 9};
  EXPECT_EQ(scheduler.route(&requests[0]), 1);
  load = {0, 0, 0};
  EXPECT_EQ(scheduler.route(&requests[1]), 0);  // ties go left
  load = {3, 3, 1};
  EXPECT_EQ(scheduler.route(&requests[2]), 2);
}

TEST(GlobalScheduler, LeastOutstandingTieBreakIsLowestId) {
  GlobalScheduler scheduler(GlobalSchedulerKind::kLeastOutstanding, 4);
  auto requests = make_requests(3);
  std::vector<int> load;
  probe_load(scheduler, load);
  // All-way tie: the lowest replica id must win, deterministically.
  load = {2, 2, 2, 2};
  EXPECT_EQ(scheduler.route(&requests[0]), 0);
  // Tie among a subset: the lowest id of the tied minimum wins.
  load = {5, 1, 1, 3};
  EXPECT_EQ(scheduler.route(&requests[1]), 1);
  load = {4, 9, 4, 4};
  EXPECT_EQ(scheduler.route(&requests[2]), 0);
}

TEST(GlobalScheduler, LeastOutstandingSkipsNonActiveReplicas) {
  GlobalScheduler scheduler(GlobalSchedulerKind::kLeastOutstanding, 4);
  auto requests = make_requests(4);
  std::vector<int> load;
  probe_load(scheduler, load);
  // Replica 1 has the minimum but is not active (e.g. draining).
  load = {5, 0, 3, 4};
  EXPECT_EQ(scheduler.route(&requests[0], {true, false, true, true}), 2);
  // Ties among active replicas still break toward the lowest active id.
  load = {2, 2, 2, 2};
  EXPECT_EQ(scheduler.route(&requests[1], {false, true, true, true}), 1);
  // A single active replica always wins.
  load = {9, 0, 0, 0};
  EXPECT_EQ(scheduler.route(&requests[2], {true, false, false, false}), 0);
  // No active replica at all is a caller bug.
  load = {0, 0, 0, 0};
  EXPECT_THROW(
      scheduler.route(&requests[3], {false, false, false, false}), Error);
}

TEST(GlobalScheduler, RoundRobinSkipsNonActiveReplicas) {
  GlobalScheduler scheduler(GlobalSchedulerKind::kRoundRobin, 3);
  auto requests = make_requests(6);
  const std::vector<bool> active = {true, false, true};
  std::vector<ReplicaId> routed;
  for (auto& r : requests) routed.push_back(scheduler.route(&r, active));
  EXPECT_EQ(routed, (std::vector<ReplicaId>{0, 2, 0, 2, 0, 2}));
}

TEST(GlobalScheduler, BindingPoliciesNeverPark) {
  for (const auto kind : {GlobalSchedulerKind::kRoundRobin,
                          GlobalSchedulerKind::kLeastOutstanding}) {
    GlobalScheduler scheduler(kind, 2);
    auto requests = make_requests(4);
    for (auto& r : requests) scheduler.route(&r);
    EXPECT_FALSE(scheduler.has_parked_requests());
    EXPECT_TRUE(scheduler.pull(0, 10).empty());
  }
}

TEST(GlobalScheduler, OnlyLoadAwarePoliciesReadTheLoadProbe) {
  for (const auto kind :
       {GlobalSchedulerKind::kRoundRobin, GlobalSchedulerKind::kDeferred,
        GlobalSchedulerKind::kPriority, GlobalSchedulerKind::kLeastOutstanding,
        GlobalSchedulerKind::kCacheAware}) {
    GlobalScheduler scheduler(kind, 3);
    int reads = 0;
    scheduler.set_load_probe([&reads](ReplicaId) {
      ++reads;
      return 0;
    });
    auto requests = make_requests(4);
    for (auto& r : requests) scheduler.route(&r, {true, false, true});
    const bool weighs_load = kind == GlobalSchedulerKind::kLeastOutstanding ||
                             kind == GlobalSchedulerKind::kCacheAware;
    // Once per routable replica per request, and never for the others.
    EXPECT_EQ(reads, weighs_load ? 4 * 2 : 0) << global_scheduler_name(kind);
  }
}

TEST(GlobalScheduler, DeferredParksAndPullsFifo) {
  GlobalScheduler scheduler(GlobalSchedulerKind::kDeferred, 2);
  auto requests = make_requests(4);
  for (auto& r : requests)
    EXPECT_EQ(scheduler.route(&r), -1);  // always parked
  EXPECT_TRUE(scheduler.has_parked_requests());

  const auto first = scheduler.pull(0, 1);
  ASSERT_EQ(first.size(), 1u);
  EXPECT_EQ(first[0]->request.id, 0);

  const auto rest = scheduler.pull(1, 10);  // bounded by queue length
  ASSERT_EQ(rest.size(), 3u);
  EXPECT_EQ(rest[0]->request.id, 1);
  EXPECT_EQ(rest[1]->request.id, 2);
  EXPECT_EQ(rest[2]->request.id, 3);
  EXPECT_FALSE(scheduler.has_parked_requests());
}

TEST(GlobalScheduler, PriorityPullsHighestPriorityFirst) {
  GlobalScheduler scheduler(GlobalSchedulerKind::kPriority, 1);
  auto requests = make_requests(5);
  requests[0].request.priority = 0;
  requests[1].request.priority = 2;
  requests[2].request.priority = 1;
  requests[3].request.priority = 2;
  requests[4].request.priority = 0;
  for (auto& r : requests) EXPECT_EQ(scheduler.route(&r), -1);

  std::vector<RequestId> order;
  while (scheduler.has_parked_requests())
    order.push_back(scheduler.pull(0, 1)[0]->request.id);
  // Priority 2 first (FIFO within the level), then 1, then 0.
  EXPECT_EQ(order, (std::vector<RequestId>{1, 3, 2, 0, 4}));
}

TEST(GlobalScheduler, PriorityWithUniformPrioritiesIsFifo) {
  GlobalScheduler scheduler(GlobalSchedulerKind::kPriority, 1);
  auto requests = make_requests(4);
  for (auto& r : requests) scheduler.route(&r);
  const auto pulled = scheduler.pull(0, 4);
  ASSERT_EQ(pulled.size(), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(pulled[static_cast<std::size_t>(i)]->request.id, i);
}

}  // namespace
}  // namespace vidur
