// Tests for the shared stage-timing memo: exactness against cold
// predictions across parallel layouts, eviction, concurrent use, and
// whole simulations through VidurSession's per-SKU memo.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <set>
#include <thread>
#include <tuple>
#include <vector>

#include "common/random.h"
#include "core/session.h"
#include "execution/execution_backend.h"
#include "execution/stage_timing_memo.h"
#include "execution/stage_workload.h"
#include "operators/op_type.h"
#include "profiler/profiler.h"
#include "workload/trace_generator.h"

namespace vidur {
namespace {

bool same_bits(const StageTiming& a, const StageTiming& b) {
  return std::bit_cast<std::uint64_t>(a.compute) ==
             std::bit_cast<std::uint64_t>(b.compute) &&
         std::bit_cast<std::uint64_t>(a.comm) ==
             std::bit_cast<std::uint64_t>(b.comm);
}

const RuntimeEstimator& estimator() {
  static const RuntimeEstimator instance = [] {
    NodeSpec node;
    node.sku = sku_by_name("a100");
    ProfilerOptions opts;
    opts.max_tokens = 8192;
    return RuntimeEstimator(
        profile_model(model_by_name("llama2-7b"), node, {1, 2, 4}, opts));
  }();
  return instance;
}

/// A seeded batch: decode-only, prefill chunks over a cached prefix, or a
/// mix of both.
BatchSpec random_batch(Rng& rng) {
  BatchSpec batch;
  const auto shape = rng.uniform_int(0, 2);
  RequestId id = 0;
  if (shape != 1) {
    const auto decodes = rng.uniform_int(1, 48);
    for (std::int64_t i = 0; i < decodes; ++i)
      batch.items.push_back(
          BatchItem{id++, 1, rng.uniform_int(16, 4000), false, false});
  }
  if (shape != 0) {
    const auto prefills = rng.uniform_int(1, 3);
    for (std::int64_t i = 0; i < prefills; ++i) {
      const TokenCount q = rng.uniform_int(16, 1024);
      const TokenCount prefix =
          rng.bernoulli(0.5) ? rng.uniform_int(0, 3000) : 0;
      const bool completes = rng.bernoulli(0.5);
      batch.items.push_back(BatchItem{id++, q, prefix, true, completes});
    }
  }
  return batch;
}

StageTimingMemo::Key signature(const BatchSpec& batch, StageId stage,
                               const ParallelConfig& parallel) {
  const BatchAggregates agg = batch.aggregates();
  StageTimingMemo::Key key;
  key.stage = stage;
  key.tensor_parallel = parallel.tensor_parallel;
  key.pipeline_parallel = parallel.pipeline_parallel;
  key.decodes = agg.decodes;
  key.sampled = agg.sampled;
  key.q_tokens = agg.total_q;
  key.prefill_eq = agg.prefill_equivalent_length();
  key.decode_kv_bucket = estimator().quantize_decode_kv(agg.decode_kv);
  return key;
}

auto key_tuple(const StageTimingMemo::Key& k) {
  return std::tuple(k.stage, k.tensor_parallel, k.pipeline_parallel,
                    k.decodes, k.sampled, k.q_tokens, k.prefill_eq,
                    k.decode_kv_bucket);
}

TEST(StageTimingMemo, SharedPrivateAndColdPredictorsAgreeBitForBit) {
  const ModelSpec model = model_by_name("llama2-7b");
  std::vector<ParallelConfig> layouts;
  for (const int tp : {1, 2, 4})
    for (const int pp : {1, 2}) layouts.push_back(ParallelConfig{tp, pp, 1});
  // Every layout's shared predictor reads and writes the same table.
  StageTimingMemo shared(StageTimingMemo::kSharedEntries);
  std::vector<std::unique_ptr<ExecutionTimePredictor>> on_shared, on_private;
  for (const ParallelConfig& par : layouts) {
    on_shared.push_back(std::make_unique<ExecutionTimePredictor>(
        &estimator(), model, par, CpuOverheadModel(), &shared));
    on_private.push_back(
        std::make_unique<ExecutionTimePredictor>(&estimator(), model, par));
  }
  std::set<decltype(key_tuple(StageTimingMemo::Key{}))> seen;
  Rng rng(20261018);
  std::size_t calls = 0;
  for (int trial = 0; trial < 60; ++trial) {
    const BatchSpec batch = random_batch(rng);
    for (std::size_t l = 0; l < layouts.size(); ++l) {
      const ParallelConfig& par = layouts[l];
      for (StageId stage = 0; stage < par.pipeline_parallel; ++stage) {
        SCOPED_TRACE(testing::Message() << "trial " << trial << " TP"
                                        << par.tensor_parallel << " PP"
                                        << par.pipeline_parallel << " stage "
                                        << stage);
        const StageTiming cold =
            ExecutionTimePredictor(&estimator(), model, par)
                .stage_timing(batch, stage);
        // The first query of a (layout, signature) must miss: the same
        // batch stored under another layout is a different entry.
        const bool fresh =
            seen.insert(key_tuple(signature(batch, stage, par))).second;
        const std::size_t misses = on_shared[l]->timing_cache_misses();
        for (int repeat = 0; repeat < 2; ++repeat) {
          EXPECT_TRUE(
              same_bits(on_shared[l]->stage_timing(batch, stage), cold));
          EXPECT_TRUE(
              same_bits(on_private[l]->stage_timing(batch, stage), cold));
          calls += 1;
        }
        if (fresh) {
          EXPECT_EQ(on_shared[l]->timing_cache_misses(), misses + 1);
        }
      }
    }
  }
  std::size_t hits = 0, total = 0;
  for (const auto& p : on_shared) {
    hits += p->timing_cache_hits();
    total += p->timing_cache_hits() + p->timing_cache_misses();
  }
  EXPECT_EQ(total, calls);
  EXPECT_GE(hits, calls / 2);  // every repeat hits
}

/// Today's miss path, kept as the reference: every invocation of
/// decompose_stage()'s output predicted and summed in order from zero.
/// `prefix` > 0 stops after that many invocations.
StageTiming summed_decomposition(const std::vector<OpInvocation>& ops,
                                 const ParallelConfig& par,
                                 std::size_t prefix = 0) {
  StageTiming timing;
  const std::size_t end = prefix > 0 ? prefix : ops.size();
  for (std::size_t i = 0; i < end; ++i) {
    const OpInvocation& inv = ops[i];
    const int shard = op_class(inv.op) == OpClass::kCommunication
                          ? inv.input.world
                          : par.tensor_parallel;
    const Seconds t = estimator().predict(inv.op, shard, inv.input) * inv.count;
    if (inv.op == OpType::kSendRecv)
      timing.comm += t;
    else
      timing.compute += t;
  }
  return timing;
}

/// A batch of `kind` with `total_q` new tokens (>= 2): decode-only,
/// prefill-only, mixed, a chunk over a cached prefix, or chunks that
/// complete no prompt (nothing sampled). Small totals repeat, so batches of
/// different signatures share a token-operator prefix.
BatchSpec batch_of_kind(Rng& rng, int kind, TokenCount total_q) {
  BatchSpec batch;
  switch (kind) {
    case 0:  // decode-only
      for (TokenCount i = 0; i < total_q; ++i)
        batch.items.push_back(
            BatchItem{i, 1, rng.uniform_int(16, 4000), false, false});
      break;
    case 1:  // prefill-only, one completing chunk
      batch.items.push_back(BatchItem{0, total_q, 0, true, true});
      break;
    case 2: {  // mixed
      const TokenCount decodes = rng.uniform_int(1, total_q - 1);
      for (TokenCount i = 0; i < decodes; ++i)
        batch.items.push_back(
            BatchItem{i, 1, rng.uniform_int(16, 4000), false, false});
      batch.items.push_back(
          BatchItem{decodes, total_q - decodes, 0, true, rng.bernoulli(0.5)});
      break;
    }
    case 3:  // cached prefix
      batch.items.push_back(
          BatchItem{0, total_q, rng.uniform_int(1, 3000), true, true});
      break;
    default: {  // zero sampled: two chunks, neither completes its prompt
      const TokenCount first = rng.uniform_int(1, total_q - 1);
      batch.items.push_back(
          BatchItem{0, first, rng.uniform_int(0, 500), true, false});
      batch.items.push_back(BatchItem{1, total_q - first, 0, true, false});
      break;
    }
  }
  return batch;
}

TEST(StageTimingMemo, TokenOpPrefixSumsMatchTheDecompositionBitForBit) {
  // Every layout TP {1, 2, 4} x PP {1, 2, 4}, every stage, every batch
  // kind, on one shared memo: each timing equals the in-order sum over
  // decompose_stage(); a miss whose token prefix is already stored predicts
  // only the other invocations; token-operator entries hold that prefix's
  // sum and never answer a batch-signature lookup.
  const ModelSpec model = model_by_name("llama2-7b");
  StageTimingMemo memo(StageTimingMemo::kSharedEntries);
  Rng rng(20261019);
  std::size_t reused = 0;
  for (const int tp : {1, 2, 4}) {
    for (const int pp : {1, 2, 4}) {
      const ParallelConfig par{tp, pp, 1};
      const OpShapes shapes(model, tp);
      ExecutionTimePredictor predictor(&estimator(), model, par,
                                       CpuOverheadModel(), &memo);
      std::size_t calls = 0;
      std::set<std::tuple<StageId, TokenCount>> prefixes;
      for (int trial = 0; trial < 60; ++trial) {
        const int kind = trial % 5;
        const BatchSpec batch =
            batch_of_kind(rng, kind, rng.uniform_int(2, 12));
        if (kind == 4) {
          ASSERT_EQ(batch.aggregates().sampled, 0);
        }
        for (StageId stage = 0; stage < pp; ++stage) {
          SCOPED_TRACE(testing::Message() << "TP" << tp << " PP" << pp
                                          << " stage " << stage << " trial "
                                          << trial << " kind " << kind);
          const std::vector<OpInvocation> ops = decompose_stage(
              shapes, par, batch, stage, AttentionMode::kEquivalentPrefill);
          const StageTiming want = summed_decomposition(ops, par);
          std::vector<OpInvocation> from_agg;
          const std::size_t token_ops = decompose_stage_into(
              from_agg, shapes, par, batch.aggregates(), stage);
          ASSERT_EQ(token_ops, stage == 0 ? 10u : 9u);
          ASSERT_EQ(from_agg.size(), ops.size());
          StageTiming stored;
          const bool prefix_known = memo.lookup(
              StageTimingMemo::Key::token_ops(stage, tp, pp,
                                              batch.aggregates().total_q),
              &stored);
          const std::size_t lookups = estimator().cache_lookups();
          const std::size_t misses = predictor.timing_cache_misses();
          EXPECT_TRUE(same_bits(predictor.stage_timing(batch, stage), want));
          ++calls;
          if (predictor.timing_cache_misses() > misses && prefix_known) {
            EXPECT_EQ(estimator().cache_lookups() - lookups,
                      ops.size() - token_ops);
            ++reused;
          }
          prefixes.emplace(stage, batch.aggregates().total_q);
          EXPECT_TRUE(same_bits(predictor.stage_timing(batch, stage), want));
          ++calls;
        }
      }
      EXPECT_EQ(predictor.timing_cache_hits() + predictor.timing_cache_misses(),
                calls);
      for (const auto& [stage, q] : prefixes) {
        const StageTimingMemo::Key key =
            StageTimingMemo::Key::token_ops(stage, tp, pp, q);
        StageTiming prefix;
        if (!memo.lookup(key, &prefix)) continue;  // evicted: nothing to check
        BatchSpec decodes = batch_of_kind(rng, 0, q);
        const std::vector<OpInvocation> ops = decompose_stage(
            shapes, par, decodes, stage, AttentionMode::kEquivalentPrefill);
        EXPECT_TRUE(same_bits(
            prefix, summed_decomposition(ops, par, stage == 0 ? 10 : 9)));
        // The nearest batch signature: every field but the marker equal.
        StageTimingMemo::Key alias = key;
        alias.decodes = 0;
        StageTiming out;
        EXPECT_FALSE(memo.lookup(alias, &out));
      }
    }
  }
  EXPECT_GT(reused, 100u);
}

TEST(StageTimingMemo, TokenOpKeysNeverAliasBatchSignatures) {
  // Raw table: a token-operator entry answers only its own key kind, and a
  // batch signature with the same layout, stage and token count answers
  // only its own.
  StageTimingMemo memo(64);
  for (int q = 1; q <= 8; ++q) {
    const StageTimingMemo::Key prefix =
        StageTimingMemo::Key::token_ops(q % 2, 2, 2, q);
    StageTimingMemo::Key batch = prefix;
    batch.decodes = 0;
    memo.insert(prefix, StageTiming{1.0 * q, 0.0});
    StageTiming out;
    EXPECT_FALSE(memo.lookup(batch, &out));
    memo.insert(batch, StageTiming{-1.0 * q, 0.5});
    ASSERT_TRUE(memo.lookup(prefix, &out));
    EXPECT_EQ(out.compute, 1.0 * q);
    ASSERT_TRUE(memo.lookup(batch, &out));
    EXPECT_EQ(out.compute, -1.0 * q);
  }
}

TEST(StageTimingMemo, EvictionKeepsEveryTimingExact) {
  // Three times more distinct signatures than a private table holds, in
  // two passes: every timing equals the itemized (memo-free) prediction,
  // and hits plus misses equal calls.
  const ModelSpec model = model_by_name("llama2-7b");
  ExecutionTimePredictor predictor(&estimator(), model,
                                   ParallelConfig{1, 1, 1});
  const int distinct = 3 * static_cast<int>(StageTimingMemo::kPrivateEntries);
  std::size_t calls = 0;
  for (int pass = 0; pass < 2; ++pass) {
    for (int i = 0; i < distinct; ++i) {
      BatchSpec batch;
      batch.items = {BatchItem{0, 1 + i / 4, 0, true, true},
                     BatchItem{1, 1, 64 * (1 + i % 4), false, false}};
      const StageTiming timing = predictor.stage_timing(batch, 0);
      ++calls;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(timing.compute),
                std::bit_cast<std::uint64_t>(
                    predictor.stage_breakdown(batch, 0).total))
          << "pass " << pass << " signature " << i;
      EXPECT_EQ(timing.comm, 0.0);
    }
  }
  EXPECT_EQ(predictor.timing_cache_hits() + predictor.timing_cache_misses(),
            calls);
  // The table could not keep the first pass: the second one misses too.
  EXPECT_GT(predictor.timing_cache_misses(),
            static_cast<std::size_t>(distinct) +
                StageTimingMemo::kPrivateEntries);
}

TEST(StageTimingMemo, ConcurrentLookupsAndInsertsReturnExactTimings) {
  // 8 threads hammer one small memo with overlapping signatures: raw
  // inserts and lookups of a synthetic key -> value map, then predictors
  // sharing one table. Every hit must return the single-threaded value.
  constexpr int kThreads = 8;
  const auto key_of = [](int k) {
    StageTimingMemo::Key key;
    key.stage = k % 2;
    key.tensor_parallel = 1 + k % 3;
    key.pipeline_parallel = 2;
    key.decodes = k;
    key.sampled = k % 7;
    key.q_tokens = 3 * k;
    key.prefill_eq = k / 5;
    key.decode_kv_bucket = 64 * k;
    return key;
  };
  const auto value_of = [](int k) {
    return StageTiming{1e-3 * (k + 1) + 1e-9 * k * k, 1e-6 * (k % 11)};
  };
  {
    StageTimingMemo memo(64);  // 16 sets: constant eviction and contention
    std::atomic<int> wrong{0}, hits{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
      threads.emplace_back([&, t] {
        Rng rng(static_cast<std::uint64_t>(t) + 1);
        for (int i = 0; i < 20000; ++i) {
          const int k = static_cast<int>(rng.uniform_int(0, 199));
          StageTiming got;
          if (memo.lookup(key_of(k), &got)) {
            hits.fetch_add(1, std::memory_order_relaxed);
            if (!same_bits(got, value_of(k)))
              wrong.fetch_add(1, std::memory_order_relaxed);
          } else {
            memo.insert(key_of(k), value_of(k));
          }
        }
      });
    for (std::thread& thread : threads) thread.join();
    EXPECT_EQ(wrong.load(), 0);
    EXPECT_GT(hits.load(), 0);
  }

  const ModelSpec model = model_by_name("llama2-7b");
  const ParallelConfig par{2, 2, 1};
  Rng rng(99);
  std::vector<BatchSpec> batches;
  for (int i = 0; i < 48; ++i) batches.push_back(random_batch(rng));
  std::vector<StageTiming> expected;
  ExecutionTimePredictor single(&estimator(), model, par);
  for (const BatchSpec& batch : batches)
    for (StageId stage = 0; stage < 2; ++stage)
      expected.push_back(single.stage_timing(batch, stage));
  StageTimingMemo memo(64);
  std::atomic<int> wrong{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      ExecutionTimePredictor predictor(&estimator(), model, par,
                                       CpuOverheadModel(), &memo);
      for (int round = 0; round < 6; ++round)
        for (std::size_t b = 0; b < batches.size(); ++b) {
          // Each thread walks the batches from its own offset.
          const std::size_t i = (b + static_cast<std::size_t>(t) * 5) %
                                batches.size();
          for (StageId stage = 0; stage < 2; ++stage)
            if (!same_bits(predictor.stage_timing(batches[i], stage),
                           expected[2 * i + static_cast<std::size_t>(stage)]))
              wrong.fetch_add(1, std::memory_order_relaxed);
        }
    });
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(wrong.load(), 0);
}

/// The run's metrics without the estimator-cache counters, which depend on
/// what earlier runs left in the shared caches.
SimulationMetrics without_estimator_counters(SimulationMetrics m) {
  m.estimator_cache_hits = 0;
  m.estimator_cache_misses = 0;
  std::erase_if(m.registry.counters, [](const auto& c) {
    return c.name.rfind("estimator.", 0) == 0;
  });
  return m;
}

TEST(StageTimingMemo, SessionSimulationsMatchPrivateMemoPredictors) {
  // Two same-SKU pools at TP 1 and TP 2 share the session's a100 memo; a
  // factory of private-memo predictors must give the same metrics, on the
  // central (least-outstanding) and the sharded (round-robin) engine, and
  // again once the shared memo is warm.
  SessionOptions options;
  options.tp_degrees = {1, 2};
  VidurSession session(model_by_name("llama2-7b"), options);
  DeploymentConfig config;
  config.scheduler.kind = SchedulerKind::kSarathi;
  config.scheduler.max_batch_size = 32;
  config.scheduler.chunk_size = 512;
  PoolSpec small;
  small.name = "tp1";
  small.parallel = ParallelConfig{1, 1, 2};
  small.capacity_qps = 1.0;
  PoolSpec wide;
  wide.name = "tp2";
  wide.parallel = ParallelConfig{2, 1, 1};
  wide.capacity_qps = 1.6;
  config.pools = {small, wide};
  const Trace trace = generate_trace(trace_by_name("chat1m"),
                                     ArrivalSpec{ArrivalKind::kPoisson, 6.0, 0},
                                     200, 5);

  for (const GlobalSchedulerKind routing :
       {GlobalSchedulerKind::kLeastOutstanding,
        GlobalSchedulerKind::kRoundRobin}) {
    SCOPED_TRACE(static_cast<int>(routing));
    config.global_scheduler = routing;
    SimulationConfig sim;
    sim.model = session.model();
    sim.scheduler = config.scheduler;
    sim.global_scheduler = routing;
    sim.memory_utilization = options.memory_utilization;
    sim.pools = config.pools;
    const RuntimeEstimator* est = &session.estimator("a100");
    const ModelSpec model = session.model();
    const std::vector<PoolSpec> pools = deployment_pools(sim);
    BackendFactory factory = [est, model, slot_pool = pool_slot_layout(pools),
                              pools](ReplicaId r) {
      const auto p =
          static_cast<std::size_t>(slot_pool[static_cast<std::size_t>(r)]);
      return std::make_unique<ExecutionTimePredictor>(est, model,
                                                      pools[p].parallel);
    };
    const SimulationMetrics expected =
        Simulator(sim, trace, std::move(factory)).run();
    ASSERT_EQ(expected.num_completed, trace.size());
    for (int run = 0; run < 2; ++run) {
      SCOPED_TRACE(run);
      EXPECT_EQ(without_estimator_counters(session.simulate(config, trace)),
                expected);
    }
  }
}

}  // namespace
}  // namespace vidur
