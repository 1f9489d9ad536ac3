// Tests for the five batching policies (src/scheduler/policies.*): admission
// rules, token budgets, preemption, and the policy-specific behaviours the
// paper's taxonomy describes (§2.2, §4.5). Policies are driven directly
// through the ReplicaScheduler interface with a miniature execution loop,
// which checks KV-block conservation after every iteration.
#include <gtest/gtest.h>

#include <deque>
#include <memory>
#include <vector>

#include "common/check.h"
#include "kvcache/prefix_cache.h"
#include "scheduler/disagg_policies.h"
#include "scheduler/policies.h"

namespace vidur {
namespace {

MemoryPlan small_plan(long blocks = 1000) {
  MemoryPlan plan;
  plan.num_kv_blocks = blocks;
  plan.block_size = 16;
  return plan;
}

SchedulerConfig config_of(SchedulerKind kind, int batch_size = 8,
                          TokenCount chunk = 64) {
  SchedulerConfig config;
  config.kind = kind;
  config.max_batch_size = batch_size;
  config.chunk_size = chunk;
  config.max_tokens_per_iteration = 4096;
  return config;
}

/// Owns request states and drives a scheduler through schedule/on_batch_end
/// cycles with a fake clock.
class Harness {
 public:
  explicit Harness(std::unique_ptr<ReplicaScheduler> scheduler)
      : scheduler_(std::move(scheduler)) {}

  RequestState* add(TokenCount prefill, TokenCount decode) {
    return add(Request{.prefill_tokens = prefill, .decode_tokens = decode});
  }

  /// Enqueue `request` (session and prefix tags kept) under the next id.
  RequestState* add(Request request) {
    auto state = std::make_unique<RequestState>();
    request.id = next_id_++;
    request.arrival_time = now_;
    state->request = request;
    state->record.id = state->request.id;
    state->record.arrival_time = now_;
    RequestState* ptr = state.get();
    states_.push_back(std::move(state));
    scheduler_->enqueue(ptr);
    return ptr;
  }

  /// Form the next batch without running it.
  BatchSpec schedule(Seconds now) {
    BatchSpec batch;
    scheduler_->schedule_into(batch, now);
    return batch;
  }

  /// One schedule + complete cycle. Returns the batch that ran. Every
  /// used block belongs to exactly one request or to the prefix cache,
  /// after the batch forms and after it ends.
  BatchSpec step() {
    BatchSpec batch = schedule(now_);
    expect_blocks_conserved();
    now_ += 0.01;
    if (!batch.empty()) scheduler_->on_batch_end(batch, now_);
    expect_blocks_conserved();
    return batch;
  }

  void expect_blocks_conserved() const {
    long held = 0;
    for (const auto& state : states_) held += state->kv_blocks;
    const BlockManager& blocks = scheduler_->blocks();
    EXPECT_EQ(blocks.used_blocks(), held + blocks.cached_blocks())
        << "at t=" << now_;
  }

  /// Run until everything finishes (or the step limit trips).
  int run_to_completion(int max_steps = 100000) {
    int steps = 0;
    while (scheduler_->has_work()) {
      VIDUR_CHECK_MSG(++steps <= max_steps, "scheduler made no progress");
      step();
    }
    return steps;
  }

  ReplicaScheduler& scheduler() { return *scheduler_; }
  Seconds now() const { return now_; }

 private:
  std::unique_ptr<ReplicaScheduler> scheduler_;
  std::vector<std::unique_ptr<RequestState>> states_;
  RequestId next_id_ = 0;
  Seconds now_ = 0.0;
};

Harness make_harness(SchedulerKind kind, int batch_size = 8,
                     TokenCount chunk = 64, long blocks = 1000) {
  return Harness(
      make_replica_scheduler(config_of(kind, batch_size, chunk),
                             small_plan(blocks)));
}

// ------------------------------------------------------ shared invariants

class AllPoliciesTest : public ::testing::TestWithParam<SchedulerKind> {};

TEST_P(AllPoliciesTest, CompletesAllRequests) {
  Harness h = make_harness(GetParam());
  std::vector<RequestState*> requests;
  for (int i = 0; i < 20; ++i)
    requests.push_back(h.add(50 + i * 7, 10 + i % 5));
  h.run_to_completion();
  for (RequestState* r : requests) {
    EXPECT_TRUE(r->finished());
    EXPECT_GE(r->record.completed_time, 0.0);
    EXPECT_EQ(static_cast<TokenCount>(r->record.token_times.size()),
              r->request.decode_tokens);
  }
}

TEST_P(AllPoliciesTest, NeverExceedsBatchSize) {
  Harness h = make_harness(GetParam(), /*batch_size=*/4);
  for (int i = 0; i < 30; ++i) h.add(40, 8);
  while (h.scheduler().has_work()) {
    const BatchSpec batch = h.step();
    EXPECT_LE(batch.size(), 4);
  }
}

TEST_P(AllPoliciesTest, MemoryNeverOversubscribed) {
  Harness h = make_harness(GetParam(), 8, 64, /*blocks=*/64);
  for (int i = 0; i < 16; ++i) h.add(100, 30);
  while (h.scheduler().has_work()) {
    h.step();
    EXPECT_LE(h.scheduler().blocks().used_blocks(),
              h.scheduler().blocks().total_blocks());
  }
}

TEST_P(AllPoliciesTest, TokenTimesStrictlyOrdered) {
  Harness h = make_harness(GetParam());
  RequestState* r = h.add(64, 12);
  h.run_to_completion();
  r->record.token_times.for_each_gap([](Seconds gap) { EXPECT_GT(gap, 0.0); });
}

TEST_P(AllPoliciesTest, OversizedRequestRejectedAtEnqueue) {
  Harness h = make_harness(GetParam(), 8, 64, /*blocks=*/4);
  EXPECT_THROW(h.add(1000, 1000), Error);  // 2000 tokens > 64-token pool
}

TEST_P(AllPoliciesTest, KvContextTracksProgress) {
  Harness h = make_harness(GetParam());
  RequestState* r = h.add(100, 5);
  h.run_to_completion();
  EXPECT_EQ(r->prefill_done, 100);
  EXPECT_EQ(r->decode_done, 5);
}

INSTANTIATE_TEST_SUITE_P(
    Policies, AllPoliciesTest,
    ::testing::Values(SchedulerKind::kFasterTransformer, SchedulerKind::kOrca,
                      SchedulerKind::kVllm, SchedulerKind::kSarathi,
                      SchedulerKind::kLightLlm),
    [](const ::testing::TestParamInfo<SchedulerKind>& info) {
      std::string name = scheduler_name(info.param);
      for (char& c : name)
        if (c == '+' || c == '_') c = 'P';
      return name;
    });

// -------------------------------------------------------- FasterTransformer

TEST(FasterTransformer, NoAdmissionUntilGroupFinishes) {
  Harness h = make_harness(SchedulerKind::kFasterTransformer, 2);
  h.add(10, 5);
  h.add(10, 3);
  h.add(10, 2);  // third waits for the first group
  const BatchSpec first = h.step();
  EXPECT_EQ(first.size(), 2);
  EXPECT_TRUE(first.items[0].is_prefill);
  // Until both of the first group finish, the third request stays waiting.
  while (h.scheduler().num_running() > 0) {
    EXPECT_EQ(h.scheduler().num_waiting(), 1);
    h.step();
  }
  const BatchSpec second = h.step();
  ASSERT_EQ(second.size(), 1);
  EXPECT_EQ(second.items[0].request, 2);
}

TEST(FasterTransformer, DecodesRunInLockstep) {
  Harness h = make_harness(SchedulerKind::kFasterTransformer, 4);
  h.add(10, 5);
  h.add(10, 5);
  h.step();  // prefill both
  const BatchSpec decodes = h.step();
  EXPECT_EQ(decodes.size(), 2);
  EXPECT_EQ(decodes.aggregates().decodes, 2);
}

TEST(FasterTransformer, ReservesFullSequenceUpFront) {
  Harness h = make_harness(SchedulerKind::kFasterTransformer, 1);
  RequestState* r = h.add(100, 60);  // 160 tokens -> 10 blocks
  h.step();
  EXPECT_EQ(r->kv_blocks, 10);
  EXPECT_EQ(h.scheduler().blocks().used_blocks(), 10);
}

// ------------------------------------------------------------------ Orca+

TEST(Orca, WholePromptInOneChunk) {
  Harness h = make_harness(SchedulerKind::kOrca);
  h.add(500, 4);
  const BatchSpec batch = h.step();
  ASSERT_EQ(batch.size(), 1);
  EXPECT_EQ(batch.items[0].q_tokens, 500);
  EXPECT_TRUE(batch.items[0].completes_prefill);
}

TEST(Orca, DecodesJoinNewPrefills) {
  Harness h = make_harness(SchedulerKind::kOrca);
  h.add(50, 10);
  h.step();  // prefill r0
  h.add(60, 10);
  const BatchSpec mixed = h.step();  // r1 prefill + r0 decode
  EXPECT_EQ(mixed.size(), 2);
  EXPECT_EQ(mixed.size() - mixed.aggregates().decodes, 1);  // prefills
  EXPECT_EQ(mixed.aggregates().decodes, 1);
}

TEST(Orca, RespectsIterationTokenCap) {
  Harness h = make_harness(SchedulerKind::kOrca, 8);
  h.add(3000, 2);
  h.add(3000, 2);  // together they exceed the 4096-token cap
  const BatchSpec batch = h.step();
  EXPECT_EQ(batch.size(), 1);
}

// ------------------------------------------------------------------- vLLM

TEST(Vllm, PrefillsPauseDecodes) {
  Harness h = make_harness(SchedulerKind::kVllm);
  h.add(50, 10);
  h.step();  // prefill r0
  h.add(60, 10);
  // Eager prefill: r1's prompt runs alone; r0's decode waits.
  const BatchSpec batch = h.step();
  ASSERT_EQ(batch.size(), 1);
  EXPECT_TRUE(batch.items[0].is_prefill);
  EXPECT_EQ(batch.items[0].request, 1);
  const BatchSpec decodes = h.step();
  EXPECT_EQ(decodes.aggregates().decodes, 2);
}

TEST(Vllm, PreemptsOnKvExhaustionAndRestarts) {
  // Pool of 20 blocks = 320 tokens. Two requests of 150+40 tokens can start
  // (10 blocks each at admission) but cannot both grow to completion.
  Harness h = make_harness(SchedulerKind::kVllm, 8, 64, /*blocks=*/20);
  RequestState* r0 = h.add(150, 40);
  RequestState* r1 = h.add(150, 40);
  h.run_to_completion();
  EXPECT_TRUE(r0->finished());
  EXPECT_TRUE(r1->finished());
  // The later-arrived request is the preemption victim.
  EXPECT_EQ(r0->record.num_restarts, 0);
  EXPECT_GE(r1->record.num_restarts, 1);
}

TEST(Vllm, WatermarkBlocksAdmissionNearFullPool) {
  SchedulerConfig config = config_of(SchedulerKind::kVllm, 8);
  config.watermark_fraction = 0.5;  // keep half the pool free
  Harness h(make_replica_scheduler(config, small_plan(20)));
  h.add(170, 4);  // needs 11 blocks > 50% of 20
  const BatchSpec batch = h.step();
  EXPECT_TRUE(batch.empty());  // admission blocked by watermark
}

// ---------------------------------------------------------------- Sarathi

TEST(Sarathi, ChunksLongPrompts) {
  Harness h = make_harness(SchedulerKind::kSarathi, 8, /*chunk=*/64);
  h.add(200, 4);
  const BatchSpec c1 = h.step();
  ASSERT_EQ(c1.size(), 1);
  EXPECT_EQ(c1.items[0].q_tokens, 64);
  EXPECT_FALSE(c1.items[0].completes_prefill);
  const BatchSpec c2 = h.step();
  EXPECT_EQ(c2.items[0].q_tokens, 64);
  EXPECT_EQ(c2.items[0].kv_context, 64);
  h.step();  // third chunk: 64
  const BatchSpec c4 = h.step();
  EXPECT_EQ(c4.items[0].q_tokens, 8);  // 200 - 3*64
  EXPECT_TRUE(c4.items[0].completes_prefill);
}

TEST(Sarathi, BudgetSharedBetweenDecodesAndChunks) {
  Harness h = make_harness(SchedulerKind::kSarathi, 8, /*chunk=*/64);
  h.add(32, 20);
  h.step();  // r0 prefill (32 <= 64)
  h.add(500, 4);
  const BatchSpec mixed = h.step();
  // r0 decode (1 token) + r1 chunk (63 tokens) == 64 budget.
  ASSERT_EQ(mixed.size(), 2);
  EXPECT_EQ(mixed.aggregates().total_q, 64);
  EXPECT_EQ(mixed.aggregates().decodes, 1);
}

TEST(Sarathi, DecodesNeverPaused) {
  Harness h = make_harness(SchedulerKind::kSarathi, 8, 64);
  RequestState* r0 = h.add(32, 30);
  h.step();
  h.add(4000, 4);  // long prompt arrives
  // Every following iteration still advances r0's decode.
  for (int i = 0; i < 10; ++i) {
    const TokenCount before = r0->decode_done;
    const BatchSpec batch = h.step();
    if (r0->finished()) break;
    EXPECT_EQ(r0->decode_done, before + 1) << batch.size();
  }
}

TEST(Sarathi, NeverExceedsChunkBudget) {
  Harness h = make_harness(SchedulerKind::kSarathi, 8, /*chunk=*/128);
  for (int i = 0; i < 10; ++i) h.add(300, 20);
  while (h.scheduler().has_work()) {
    const BatchSpec batch = h.step();
    EXPECT_LE(batch.aggregates().total_q, 128);
  }
}

TEST(Sarathi, PrefixCacheUnderKvPressureConservesBlocksAndPins) {
  // A 24-block pool (384 tokens) with a prefix cache of up to 16 blocks,
  // driven through donation, reclaim, attach and preemption in turn. The
  // harness checks block conservation after every iteration.
  Harness h = make_harness(SchedulerKind::kSarathi, 8, 64, /*blocks=*/24);
  PrefixCache cache(/*capacity_blocks=*/16, /*block_size=*/16);
  h.scheduler().set_prefix_cache(&cache);
  const auto turn = [](std::int64_t session, int index, TokenCount prefill,
                       TokenCount decode) {
    Request r;
    r.session = session;
    r.turn = index;
    r.prefill_tokens = prefill;
    r.decode_tokens = decode;
    return r;
  };
  std::vector<RequestState*> requests;

  // Donation: two first turns end with 135 KV tokens each and donate 8
  // whole blocks apiece, which fills the cache exactly.
  for (std::int64_t s = 0; s < 2; ++s)
    requests.push_back(h.add(turn(s, 0, /*prefill=*/96, /*decode=*/40)));
  h.run_to_completion();
  EXPECT_EQ(cache.stats().inserted_blocks, 16u);
  EXPECT_EQ(h.scheduler().blocks().cached_blocks(), 16);

  // Reclaim: a plain request needs 12 blocks with 8 free, so admission and
  // prefill growth evict cached leaves. It donates nothing.
  requests.push_back(h.add(150, 40));
  h.run_to_completion();
  EXPECT_GE(cache.stats().evicted_blocks, 4u);
  EXPECT_EQ(cache.stats().inserted_blocks, 16u);

  // Attach and preemption: the second turns hit what is left of their
  // first turns' chains, and at 15 blocks each they cannot both finish in
  // 24 blocks.
  for (std::int64_t s = 0; s < 2; ++s)
    requests.push_back(h.add(turn(s, 1, /*prefill=*/176, /*decode=*/60)));
  h.run_to_completion();

  int restarts = 0;
  for (const RequestState* r : requests) {
    EXPECT_TRUE(r->finished());
    EXPECT_EQ(r->kv_blocks, 0);
    EXPECT_FALSE(r->cache_pinned);
    restarts += r->record.num_restarts;
  }
  EXPECT_GT(restarts, 0);
  EXPECT_GT(cache.stats().hits, 0u);
  EXPECT_GT(cache.stats().inserted_blocks, 16u);
  EXPECT_EQ(h.scheduler().blocks().used_blocks(),
            h.scheduler().blocks().cached_blocks());
  // Every pin was dropped, so the whole cached pool drains.
  h.scheduler().release_cached();
  EXPECT_EQ(cache.resident_blocks(), 0);
  EXPECT_EQ(h.scheduler().blocks().cached_blocks(), 0);
  EXPECT_EQ(h.scheduler().blocks().used_blocks(), 0);
}

// --------------------------------------------------------------- LightLLM

TEST(LightLlm, ConservativeAdmissionNeverPreempts) {
  // Pool too small for both requests at max length: only one admitted.
  Harness h = make_harness(SchedulerKind::kLightLlm, 8, 64, /*blocks=*/20);
  RequestState* r0 = h.add(150, 40);  // 190 tokens -> 12 blocks peak
  RequestState* r1 = h.add(150, 40);
  const BatchSpec first = h.step();
  EXPECT_EQ(first.size(), 1);
  EXPECT_EQ(h.scheduler().num_waiting(), 1);
  h.run_to_completion();
  EXPECT_EQ(r0->record.num_restarts, 0);
  EXPECT_EQ(r1->record.num_restarts, 0);
}

TEST(LightLlm, AdmitsWhenPeakFits) {
  Harness h = make_harness(SchedulerKind::kLightLlm, 8, 64, /*blocks=*/30);
  h.add(150, 40);  // 12 blocks peak
  h.add(150, 40);  // 12 blocks peak; 24 <= 30 -> both admitted
  const BatchSpec first = h.step();
  EXPECT_EQ(first.size(), 2);
}

// ----------------------------------------------------------------- misc

TEST(Factory, MakesEveryPolicy) {
  for (SchedulerKind kind :
       {SchedulerKind::kFasterTransformer, SchedulerKind::kOrca,
        SchedulerKind::kVllm, SchedulerKind::kSarathi,
        SchedulerKind::kLightLlm}) {
    auto scheduler = make_replica_scheduler(config_of(kind), small_plan());
    EXPECT_NE(scheduler, nullptr);
  }
}

TEST(SchedulerNames, RoundTrip) {
  for (SchedulerKind kind :
       {SchedulerKind::kFasterTransformer, SchedulerKind::kOrca,
        SchedulerKind::kVllm, SchedulerKind::kSarathi,
        SchedulerKind::kLightLlm})
    EXPECT_EQ(scheduler_from_name(scheduler_name(kind)), kind);
  EXPECT_THROW(scheduler_from_name("fifo"), Error);
}

TEST(SchedulerConfigValidation, RejectsBadKnobs) {
  SchedulerConfig config;
  config.max_batch_size = 0;
  EXPECT_THROW(config.validate(), Error);
  config = SchedulerConfig{};
  config.watermark_fraction = 1.5;
  EXPECT_THROW(config.validate(), Error);
}

TEST(RequestRecordTimes, FirstScheduleAndTtftStamped) {
  Harness h = make_harness(SchedulerKind::kSarathi, 8, 64);
  RequestState* r = h.add(200, 5);
  h.run_to_completion();
  EXPECT_GE(r->record.first_scheduled_time, 0.0);
  EXPECT_GT(r->record.prefill_completed_time,
            r->record.first_scheduled_time);
  EXPECT_GT(r->record.completed_time, r->record.prefill_completed_time);
}

// ------------------------------------------------------- extract (disagg)

TEST(Extract, ReleasesMemoryAndForgetsRequest) {
  Harness h(std::make_unique<SarathiScheduler>(
      config_of(SchedulerKind::kSarathi, 8, 4096), small_plan()));
  RequestState* r = h.add(128, 10);
  h.step();  // prefill completes (chunk covers the whole prompt)
  ASSERT_TRUE(r->prefill_complete());
  ASSERT_TRUE(r->admitted);
  const long used_before = h.scheduler().blocks().used_blocks();
  ASSERT_GT(used_before, 0);

  h.scheduler().extract(r);
  EXPECT_FALSE(r->admitted);
  EXPECT_EQ(h.scheduler().blocks().used_blocks(), 0);
  EXPECT_EQ(r->kv_blocks, 0);
  EXPECT_EQ(h.scheduler().outstanding(), 0);
}

TEST(Extract, RejectsUnadmittedOrInFlightRequests) {
  Harness h(std::make_unique<SarathiScheduler>(
      config_of(SchedulerKind::kSarathi, 8, 4096), small_plan()));
  RequestState* waiting = h.add(128, 10);
  EXPECT_THROW(h.scheduler().extract(waiting), Error);  // never admitted

  BatchSpec batch = h.schedule(0.0);  // now in flight
  ASSERT_FALSE(batch.empty());
  EXPECT_THROW(h.scheduler().extract(waiting), Error);
}

// --------------------------------------------------- disaggregated roles

TEST(DisaggPrefill, ChunksPromptsAndNeverDecodes) {
  Harness h(std::make_unique<DisaggPrefillScheduler>(
      config_of(SchedulerKind::kSarathi, 8, 64), small_plan()));
  RequestState* r = h.add(200, 10);
  // 200-token prompt under a 64-token budget: 4 chunks, all prefill items.
  int prefill_items = 0;
  while (!r->prefill_complete()) {
    const BatchSpec batch = h.step();
    ASSERT_FALSE(batch.empty());
    for (const BatchItem& item : batch.items) {
      EXPECT_TRUE(item.is_prefill);
      ++prefill_items;
    }
  }
  EXPECT_EQ(prefill_items, 4);
  // Prefill done: the role scheduler must not produce decode work.
  EXPECT_TRUE(h.schedule(h.now()).empty());
}

TEST(DisaggPrefill, BatchesChunksAcrossRequests) {
  Harness h(std::make_unique<DisaggPrefillScheduler>(
      config_of(SchedulerKind::kSarathi, 8, 128), small_plan()));
  h.add(64, 5);
  h.add(64, 5);
  const BatchSpec batch = h.schedule(0.0);
  EXPECT_EQ(batch.size(), 2);  // both prompts fit one 128-token budget
  EXPECT_EQ(batch.aggregates().total_q, 128);
}

/// Enqueue a request that looks like a completed prefill hand-off.
RequestState* add_migrated(Harness& h, TokenCount prefill, TokenCount decode) {
  RequestState* r = h.add(prefill, decode);
  r->prefill_done = prefill;
  r->kv_context = prefill;
  r->decode_done = 1;  // prefill emitted the first token upstream
  r->record.prefill_completed_time = 0.0;
  return r;
}

TEST(DisaggDecode, DecodesMigratedRequestsToCompletion) {
  Harness h(std::make_unique<DisaggDecodeScheduler>(
      config_of(SchedulerKind::kVllm, 8), small_plan()));
  RequestState* r = add_migrated(h, 100, 10);
  const int steps = h.run_to_completion();
  EXPECT_TRUE(r->finished());
  EXPECT_EQ(steps, 9);  // tokens 2..10, one per iteration
  EXPECT_EQ(r->record.num_restarts, 0);
}

TEST(DisaggDecode, RejectsRequestsWithIncompletePrefill) {
  Harness h(std::make_unique<DisaggDecodeScheduler>(
      config_of(SchedulerKind::kVllm, 8), small_plan()));
  h.add(100, 10);  // raw request: prefill not done
  EXPECT_THROW(h.schedule(0.0), Error);
}

TEST(DisaggDecode, ConservativeAdmissionDefersWhenPeakWouldNotFit) {
  // Pool of 20 blocks (320 tokens). Two migrated requests, each needing
  // 10 blocks at max length: both admitted. A third must wait even though
  // its *current* footprint would fit.
  Harness h(std::make_unique<DisaggDecodeScheduler>(
      config_of(SchedulerKind::kVllm, 8), small_plan(20)));
  add_migrated(h, 120, 40);  // 160 tokens max = 10 blocks
  add_migrated(h, 120, 40);
  RequestState* third = add_migrated(h, 120, 40);

  const BatchSpec batch = h.schedule(0.0);
  EXPECT_EQ(batch.size(), 2);
  EXPECT_FALSE(third->admitted);
  EXPECT_EQ(h.scheduler().num_waiting(), 1);
}

TEST(DisaggDecode, AdmitsDeferredRequestOnceMemoryFrees) {
  Harness h(std::make_unique<DisaggDecodeScheduler>(
      config_of(SchedulerKind::kVllm, 8), small_plan(20)));
  RequestState* a = add_migrated(h, 120, 2);
  RequestState* b = add_migrated(h, 120, 2);
  RequestState* c = add_migrated(h, 120, 40);
  h.run_to_completion();
  EXPECT_TRUE(a->finished());
  EXPECT_TRUE(b->finished());
  EXPECT_TRUE(c->finished());
  EXPECT_EQ(c->record.num_restarts, 0);
}

}  // namespace
}  // namespace vidur
