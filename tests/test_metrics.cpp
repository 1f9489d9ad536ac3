// Tests for src/metrics: request-record derived metrics and collector
// aggregation (throughput, MFU, utilization accounting).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/random.h"
#include "metrics/metrics.h"

namespace vidur {
namespace {

RequestRecord sample_record() {
  RequestRecord r;
  r.id = 1;
  r.arrival_time = 10.0;
  r.first_scheduled_time = 10.5;
  r.prefill_completed_time = 11.0;
  r.completed_time = 15.0;
  r.prefill_tokens = 100;
  r.decode_tokens = 10;
  r.token_times = {11.0, 11.5, 12.0, 12.6, 13.0, 13.4, 13.8, 14.2, 14.6, 15.0};
  return r;
}

TEST(RequestRecord, DerivedMetrics) {
  const RequestRecord r = sample_record();
  EXPECT_TRUE(r.completed());
  EXPECT_DOUBLE_EQ(r.scheduling_delay(), 0.5);
  EXPECT_DOUBLE_EQ(r.ttft(), 1.0);
  EXPECT_DOUBLE_EQ(r.e2e_latency(), 5.0);
  EXPECT_DOUBLE_EQ(r.normalized_e2e_latency(), 0.5);
  EXPECT_DOUBLE_EQ(r.normalized_execution_latency(), 0.45);
}

TEST(RequestRecord, IncompleteRequest) {
  RequestRecord r = sample_record();
  r.completed_time = -1.0;
  EXPECT_FALSE(r.completed());
}

TEST(RequestRecord, WorstTbtIsLargestGapOrMinusOne) {
  RequestRecord r = sample_record();
  EXPECT_DOUBLE_EQ(r.worst_tbt(), 12.6 - 12.0);
  r.token_times = {11.0};
  EXPECT_EQ(r.worst_tbt(), -1.0);
  r.token_times = {};
  EXPECT_EQ(r.worst_tbt(), -1.0);
  r.token_times = {11.0, 11.0};  // a zero gap is still a gap
  EXPECT_EQ(r.worst_tbt(), 0.0);
}

TEST(MetricsCollector, AggregatesRequestLevelMetrics) {
  MetricsCollector collector(1, 312e12, 1);
  collector.record_request(sample_record());
  RequestRecord r2 = sample_record();
  r2.id = 2;
  r2.completed_time = 20.0;  // norm e2e = 1.0
  r2.token_times = {11.0, 20.0};
  collector.record_request(r2);

  const SimulationMetrics m = collector.finalize(20.0);
  EXPECT_EQ(m.num_requests, 2u);
  EXPECT_EQ(m.num_completed, 2u);
  EXPECT_DOUBLE_EQ(m.throughput_qps, 0.1);
  // TBT samples: 9 gaps from r1 + 1 gap from r2.
  EXPECT_EQ(m.tbt.count, 10u);
  EXPECT_DOUBLE_EQ(m.tbt.max, 9.0);
}

TEST(MetricsCollector, IncompleteRequestsCountedButNotAggregated) {
  MetricsCollector collector(1, 312e12, 1);
  collector.record_request(sample_record());
  RequestRecord incomplete = sample_record();
  incomplete.id = 3;
  incomplete.completed_time = -1.0;
  collector.record_request(incomplete);
  const SimulationMetrics m = collector.finalize(20.0);
  EXPECT_EQ(m.num_requests, 2u);
  EXPECT_EQ(m.num_completed, 1u);
}

TEST(MetricsCollector, MfuAccountsForClusterPeak) {
  // One batch doing 1e12 FLOPs over 1s on a 312 TFLOPs GPU ~ 0.32% MFU.
  MetricsCollector collector(1, 312e12, 1);
  BatchRecord batch;
  batch.start_time = 0.0;
  batch.end_time = 1.0;
  batch.flops = 1e12;
  batch.batch_size = 4;
  batch.kv_utilization = 0.5;
  collector.record_batch(batch);
  const SimulationMetrics m = collector.finalize(1.0);
  EXPECT_NEAR(m.mfu, 1e12 / 312e12, 1e-9);
  EXPECT_DOUBLE_EQ(m.busy_fraction, 1.0);
  EXPECT_DOUBLE_EQ(m.mean_kv_utilization, 0.5);
  EXPECT_DOUBLE_EQ(m.mean_batch_size, 4.0);
}

TEST(MetricsCollector, MfuDividesAcrossGpus) {
  MetricsCollector collector(2, 312e12, 4);  // 8 GPUs in the cluster
  BatchRecord batch;
  batch.end_time = 1.0;
  batch.flops = 312e12;
  collector.record_batch(batch);
  const SimulationMetrics m = collector.finalize(1.0);
  EXPECT_NEAR(m.mfu, 1.0 / 8.0, 1e-9);
  EXPECT_DOUBLE_EQ(m.busy_fraction, 0.5);  // 1 of 2 replicas busy
}

TEST(MetricsCollector, TimeWeightedAverages) {
  MetricsCollector collector(1, 1e12, 1);
  BatchRecord slow;
  slow.start_time = 0.0;
  slow.end_time = 9.0;  // 9s at batch size 10
  slow.batch_size = 10;
  slow.kv_utilization = 1.0;
  BatchRecord fast;
  fast.start_time = 9.0;
  fast.end_time = 10.0;  // 1s at batch size 0
  fast.batch_size = 0;
  fast.kv_utilization = 0.0;
  collector.record_batch(slow);
  collector.record_batch(fast);
  const SimulationMetrics m = collector.finalize(10.0);
  EXPECT_DOUBLE_EQ(m.mean_batch_size, 9.0);
  EXPECT_DOUBLE_EQ(m.mean_kv_utilization, 0.9);
}

TEST(MetricsCollector, RestartsSummed) {
  MetricsCollector collector(1, 1e12, 1);
  RequestRecord r = sample_record();
  r.num_restarts = 2;
  collector.record_request(r);
  RequestRecord r2 = sample_record();
  r2.num_restarts = 1;
  collector.record_request(r2);
  EXPECT_EQ(collector.finalize(20.0).num_restarts, 3);
}

TEST(MetricsCollector, ToStringContainsKeyFields) {
  MetricsCollector collector(1, 1e12, 1);
  collector.record_request(sample_record());
  const std::string s = collector.finalize(20.0).to_string();
  EXPECT_NE(s.find("TTFT"), std::string::npos);
  EXPECT_NE(s.find("TBT"), std::string::npos);
  EXPECT_NE(s.find("MFU"), std::string::npos);
}

TEST(MetricsCollector, InvalidConstructionThrows) {
  EXPECT_THROW(MetricsCollector(0, 1e12, 1), Error);
  EXPECT_THROW(MetricsCollector(1, 0.0, 1), Error);
  EXPECT_THROW(MetricsCollector(1, 1e12, 0), Error);
}

TEST(MetricsCollector, NegativeBatchDurationThrows) {
  MetricsCollector collector(1, 1e12, 1);
  BatchRecord bad;
  bad.start_time = 2.0;
  bad.end_time = 1.0;
  EXPECT_THROW(collector.record_batch(bad), Error);
}

TEST(MetricsCollector, BatchOutsideTheSlotsThrows) {
  MetricsCollector collector(2, 1e12, 1);
  BatchRecord batch;
  batch.end_time = 1.0;
  batch.replica = 2;
  EXPECT_THROW(collector.record_batch(batch), Error);
}

TEST(MetricsCollector, RecordViewMatchesRecordedCopies) {
  // finalize() over records held inside larger structs (the simulator's
  // request states) equals finalize() over record_request() copies.
  struct Holder {
    int before = 7;
    RequestRecord record;
    double after = 0.5;
  };
  std::vector<Holder> held(3);
  MetricsCollector copies(1, 1e12, 1);
  for (std::size_t i = 0; i < held.size(); ++i) {
    held[i].record = sample_record();
    held[i].record.id = static_cast<RequestId>(i);
    held[i].record.tenant = static_cast<TenantId>(i % 2);
    held[i].record.completed_time += static_cast<double>(i);
    // sample_record()'s times plus one.
    held[i].record.token_times = {11.0, 11.5, 12.0, 12.6, 13.0, 13.4, 13.8,
                                  14.2, 14.6, 15.0,
                                  15.0 + static_cast<double>(i)};
    copies.record_request(held[i].record);
  }
  const MetricsCollector in_place(1, 1e12, 1);
  const SimulationMetrics a = copies.finalize(20.0);
  const SimulationMetrics b = in_place.finalize(
      20.0, static_fleet_report(1, 20.0, 1, 0.0),
      RequestRecordView::members<&Holder::record>(held));
  EXPECT_EQ(b.num_requests, a.num_requests);
  EXPECT_EQ(b.num_completed, a.num_completed);
  EXPECT_EQ(b.tbt.count, a.tbt.count);
  EXPECT_EQ(b.tbt.p99, a.tbt.p99);
  EXPECT_EQ(b.normalized_e2e_latency.p50, a.normalized_e2e_latency.p50);
  ASSERT_EQ(b.tenant_metrics.size(), 2u);
  ASSERT_EQ(a.tenant_metrics.size(), 2u);
  EXPECT_EQ(b.tenant_metrics[1].tbt.max, a.tenant_metrics[1].tbt.max);
}

TEST(MetricsCollector, BatchAggregatesIgnoreReplicaInterleaving) {
  // Per-replica sums fold in slot order, so the fleet and per-pool figures
  // depend only on each replica's own batch sequence — not on how the
  // replicas' batches interleave (the sharded engine records them from
  // several threads).
  PoolResources big{.name = "big",
                    .gpus_per_replica = 1,
                    .peak_flops_per_gpu = 3e12,
                    .hbm_bytes_per_sec_per_gpu = 7e11,
                    .idle_watts_per_gpu = 60.0,
                    .peak_watts_per_gpu = 410.0};
  PoolResources small = big;
  small.name = "small";
  small.peak_flops_per_gpu = 1.1e12;
  small.peak_watts_per_gpu = 230.0;

  // Awkward magnitudes so a different summation order would round
  // differently.
  Rng rng(53);
  std::vector<std::vector<BatchRecord>> per_replica(3);
  for (ReplicaId r = 0; r < 3; ++r) {
    Seconds t = 0.0;
    for (int i = 0; i < 40; ++i) {
      BatchRecord b;
      b.replica = r;
      b.start_time = t;
      t += rng.uniform(0.001, 0.3);
      b.end_time = t;
      b.flops = rng.uniform(1e9, 9e11) * 1.0000001;
      b.hbm_bytes_per_gpu = rng.uniform_int(1, 1'000'000'000);
      b.batch_size = static_cast<int>(rng.uniform_int(1, 64));
      b.kv_utilization = rng.uniform();
      per_replica[static_cast<std::size_t>(r)].push_back(b);
    }
  }
  ClusterScalingReport scaling = static_fleet_report(3, 20.0, 1, 0.0);
  for (const char* name : {"big", "small"}) {
    PoolScalingReport pool;
    pool.name = name;
    pool.replica_hours = pool.gpu_hours = 20.0 / 3600.0;
    scaling.pools.push_back(pool);
  }

  const auto finalize = [&](bool replica_major) {
    MetricsCollector collector({big, small}, {0, 1, 1});
    if (replica_major) {
      for (const auto& batches : per_replica)
        for (const BatchRecord& b : batches) collector.record_batch(b);
    } else {  // round-robin across replicas, last replica first
      for (std::size_t i = 0; i < 40; ++i)
        for (std::size_t r = 3; r-- > 0;)
          collector.record_batch(per_replica[r][i]);
    }
    return collector.finalize(20.0, scaling);
  };
  const SimulationMetrics a = finalize(true);
  const SimulationMetrics b = finalize(false);
  EXPECT_GT(a.mfu, 0.0);
  EXPECT_GT(a.total_energy_joules, 0.0);
  EXPECT_EQ(a.mfu, b.mfu);
  EXPECT_EQ(a.mbu, b.mbu);
  EXPECT_EQ(a.busy_fraction, b.busy_fraction);
  EXPECT_EQ(a.total_energy_joules, b.total_energy_joules);
  EXPECT_EQ(a.mean_batch_size, b.mean_batch_size);
  EXPECT_EQ(a.mean_kv_utilization, b.mean_kv_utilization);
  ASSERT_EQ(a.scaling.pools.size(), 2u);
  for (std::size_t p = 0; p < 2; ++p) {
    EXPECT_GT(a.scaling.pools[p].energy_joules, 0.0);
    EXPECT_EQ(a.scaling.pools[p].mfu, b.scaling.pools[p].mfu);
    EXPECT_EQ(a.scaling.pools[p].mbu, b.scaling.pools[p].mbu);
    EXPECT_EQ(a.scaling.pools[p].busy_fraction,
              b.scaling.pools[p].busy_fraction);
    EXPECT_EQ(a.scaling.pools[p].energy_joules,
              b.scaling.pools[p].energy_joules);
  }
}

// ------------------------------------------------------ token-time runs

void expect_same_summary(const Summary& got, const Summary& want) {
  EXPECT_EQ(got.count, want.count);
  EXPECT_EQ(got.mean, want.mean);
  EXPECT_EQ(got.stddev, want.stddev);
  EXPECT_EQ(got.min, want.min);
  EXPECT_EQ(got.p50, want.p50);
  EXPECT_EQ(got.p90, want.p90);
  EXPECT_EQ(got.p95, want.p95);
  EXPECT_EQ(got.p99, want.p99);
  EXPECT_EQ(got.max, want.max);
}

/// `times` holds exactly `model`'s times, and its running figures agree.
void expect_matches_model(const TokenTimes& times,
                          const std::vector<Seconds>& model) {
  ASSERT_EQ(times.size(), model.size());
  EXPECT_TRUE(
      std::equal(times.begin(), times.end(), model.begin(), model.end()));
  Seconds worst = -1.0;
  for (std::size_t i = 1; i < model.size(); ++i)
    worst = std::max(worst, model[i] - model[i - 1]);
  EXPECT_EQ(times.worst_gap(), worst);
  if (!model.empty()) {
    EXPECT_EQ(times.front(), model.front());
    EXPECT_EQ(times.back(), model.back());
  }
  EXPECT_LE(times.runs().size(), model.size());
}

TEST(TokenTimes, SeededAppendsMatchAPerTokenVector) {
  // Random batch ends over several slots, against a plain vector per
  // record. Records skip batches of their slot, move to another slot
  // (hand-offs and retries), pause and emit again (a preemption restart),
  // or stop after 0, 1 or 2 tokens. Half bind up front, as the simulator
  // does; the rest bind on their first append.
  struct Model {
    TokenTimes times;
    std::vector<Seconds> model;
    int slot = 0;
    std::size_t limit = 0;  ///< tokens it emits in all
    int paused = 0;         ///< batches left before it emits again
  };
  Rng rng(71);
  const auto pick = [&rng](int n) {
    return static_cast<int>(rng.uniform_int(0, n - 1));
  };
  std::size_t tokens = 0, runs = 0;
  for (int round = 0; round < 25; ++round) {
    const int num_slots = 1 + pick(4);
    const auto timeline = std::make_shared<TokenTimeline>(num_slots);
    std::vector<Model> records(12);
    for (std::size_t i = 0; i < records.size(); ++i) {
      Model& r = records[i];
      r.slot = pick(num_slots);
      r.limit = i < 3 ? i : static_cast<std::size_t>(3 + pick(300));
      if (i % 2 == 0) r.times.bind(timeline);
    }
    Seconds now = rng.uniform(0.0, 100.0);
    for (int batch = 0; batch < 600; ++batch) {
      // Iteration times repeat up to rounding; equal ends give zero gaps.
      now += 0.0125 * static_cast<double>(pick(4));
      const int slot = pick(num_slots);
      bool stored = false;
      std::uint32_t index = 0;
      for (Model& r : records) {
        if (r.model.size() >= r.limit) continue;
        if (r.paused > 0) {
          --r.paused;
          continue;
        }
        const double u = rng.uniform();
        if (u < 0.03) {
          r.slot = pick(num_slots);  // handed off or retried elsewhere
        } else if (u < 0.04) {
          r.paused = 5 + pick(40);  // restarted: re-prefills, then emits
          continue;
        }
        if (r.slot != slot || u > 0.8) continue;  // not in this batch
        if (!stored) {
          index = timeline->push(slot, now);
          stored = true;
        }
        r.times.append(timeline, slot, index, now);
        r.model.push_back(now);
      }
    }
    for (const Model& r : records) {
      expect_matches_model(r.times, r.model);
      tokens += r.model.size();
      runs += r.times.runs().size();
    }

    // The TBT feed: one visitor feed per record sees the same stream as
    // add_gaps over the vectors.
    StreamSummary via_runs, via_vectors;
    while (via_runs.next_pass())
      for (const Model& r : records)
        via_runs.add_each([&r](const auto& sink) {
          r.times.for_each_gap([&sink](Seconds gap) { sink(gap, 1u); });
        });
    while (via_vectors.next_pass())
      for (const Model& r : records) via_vectors.add_gaps(r.model);
    expect_same_summary(via_runs.summary(), via_vectors.summary());
  }
  EXPECT_LT(runs, tokens);  // consecutive batches extend a run
}

TEST(TokenTimes, HandBuiltTimesFormOneRun) {
  const TokenTimes times = {1.0, 2.0, 4.0, 4.5};
  expect_matches_model(times, {1.0, 2.0, 4.0, 4.5});
  EXPECT_EQ(times.runs().size(), 1u);
  EXPECT_EQ(times.worst_gap(), 2.0);
  expect_matches_model(TokenTimes{}, {});
  expect_matches_model(TokenTimes{3.0}, {3.0});
}

TEST(TokenTimes, AppendAgainstAnotherTimelineFails) {
  const auto a = std::make_shared<TokenTimeline>(1);
  const auto b = std::make_shared<TokenTimeline>(1);
  TokenTimes times;
  times.bind(a);
  EXPECT_THROW(times.append(b, 0, b->push(0, 1.0), 1.0), Error);
  times.append(a, 0, a->push(0, 1.0), 1.0);
  EXPECT_THROW(times.bind(b), Error);  // only an empty record is bound
  TokenTimes unbound;
  unbound.append(b, 0, b->push(0, 2.0), 2.0);  // binds to b
  EXPECT_THROW(unbound.append(a, 0, a->push(0, 3.0), 3.0), Error);
}

TEST(TokenTimes, CopiesOutliveTheirTimeline) {
  // A record copied out of a run stays readable once the run is gone.
  TokenTimes copy;
  {
    const auto timeline = std::make_shared<TokenTimeline>(2);
    TokenTimes times;
    times.bind(timeline);
    for (int i = 0; i < 5; ++i) {
      const Seconds t = 0.5 * i;
      times.append(timeline, i % 2, timeline->push(i % 2, t), t);
    }
    copy = times;
  }
  expect_matches_model(copy, {0.0, 0.5, 1.0, 1.5, 2.0});
  EXPECT_EQ(copy.runs().size(), 5u);  // every token changed slot
}

// ------------------------------------------ TBT from weighted batch gaps

/// Relative bound on the TBT mean and stddev against the per-token
/// reference: the weighted feed adds the same gaps in slot order, x * w at
/// a time, so only summation rounding separates the two.
constexpr double kSumOrderTolerance = 1e-9;

/// The TBT summary over every per-token gap (TokenTimes::for_each_gap) of
/// the completed records `keep` accepts, sorted.
template <typename Keep>
Summary per_token_tbt(const std::vector<RequestRecord>& records,
                      const Keep& keep) {
  SampleSeries gaps;
  for (const RequestRecord& r : records)
    if (r.completed() && keep(r))
      r.token_times.for_each_gap([&gaps](Seconds gap) { gaps.add(gap); });
  return Summary::of(gaps);
}

/// Count, extrema and percentiles bit for bit; mean and stddev within the
/// sum-order bound, relative to the gaps' scale.
void expect_same_tbt(const Summary& got, const Summary& want) {
  EXPECT_EQ(got.count, want.count);
  EXPECT_EQ(got.min, want.min);
  EXPECT_EQ(got.max, want.max);
  EXPECT_EQ(got.p50, want.p50);
  EXPECT_EQ(got.p90, want.p90);
  EXPECT_EQ(got.p95, want.p95);
  EXPECT_EQ(got.p99, want.p99);
  const double scale = std::abs(want.mean) + want.stddev;
  EXPECT_NEAR(got.mean, want.mean, kSumOrderTolerance * scale);
  EXPECT_NEAR(got.stddev, want.stddev, kSumOrderTolerance * scale);
}

TEST(MetricsCollectorTbt, SeededWeightedGapsMatchPerTokenGaps) {
  // finalize() reads TBT as batch gaps weighted by the runs spanning them,
  // plus the gaps between a record's runs; the per-token gaps of the same
  // records are the reference. Over 200 seeds, records on one shared
  // multi-slot timeline skip batches of their slot (vLLM's prefill-only
  // batches), hop slots (hand-offs and retries), pause and emit again
  // (restarts), stop after 0, 1 or 2 tokens, or never complete (unfinished
  // or lost), across two tenants; hand-built records, each on a private
  // timeline, sit between them in the same collector.
  struct Model {
    RequestRecord record;
    int slot = 0;
    std::size_t limit = 0;  ///< tokens it emits in all
    int paused = 0;         ///< batches left before it emits again
  };
  std::size_t shared_batches = 0, boundaries = 0, hopped = 0, left_out = 0,
              hand_built = 0;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    const auto pick = [&rng](int n) {
      return static_cast<int>(rng.uniform_int(0, n - 1));
    };
    const int num_slots = 1 + pick(4);
    const auto timeline = std::make_shared<TokenTimeline>(num_slots);
    std::vector<Model> models(4 + static_cast<std::size_t>(pick(14)));
    for (std::size_t i = 0; i < models.size(); ++i) {
      Model& m = models[i];
      m.record.id = static_cast<RequestId>(i);
      m.record.tenant = pick(2);
      m.slot = pick(num_slots);
      m.limit = i < 3 ? i : static_cast<std::size_t>(3 + pick(150));
      if (i % 2 == 0) m.record.token_times.bind(timeline);
    }
    Seconds now = rng.uniform(0.0, 100.0);
    for (int batch = 0; batch < 300; ++batch) {
      // Iteration times repeat up to rounding; equal ends give zero gaps.
      now += 0.0125 * static_cast<double>(pick(4));
      const int slot = pick(num_slots);
      int emitted = 0;
      std::uint32_t index = 0;
      for (Model& m : models) {
        TokenTimes& times = m.record.token_times;
        if (times.size() >= m.limit) continue;
        if (m.paused > 0) {
          --m.paused;
          continue;
        }
        const double u = rng.uniform();
        if (u < 0.03) {
          m.slot = pick(num_slots);  // handed off or retried elsewhere
        } else if (u < 0.04) {
          m.paused = 5 + pick(40);  // restarted: re-prefills, then emits
          continue;
        }
        if (m.slot != slot || u > 0.8) continue;  // sits this batch out
        if (emitted++ == 0) index = timeline->push(slot, now);
        times.append(timeline, slot, index, now);
      }
      shared_batches += emitted >= 2;
    }

    std::vector<RequestRecord> records;
    for (Model& m : models) {
      RequestRecord& r = m.record;
      const double u = rng.uniform();
      if (u < 0.1) {
        r.lost = true;  // out of recovery attempts: never completes
      } else if (u > 0.2) {
        r.completed_time = now;
      }  // else unfinished at the end of the run
      const std::vector<TokenTimes::Run>& runs = r.token_times.runs();
      if (!r.completed()) {
        left_out += r.token_times.size() >= 2;
      } else if (!runs.empty()) {
        boundaries += runs.size() - 1;
        for (const TokenTimes::Run& run : runs)
          hopped += run.slot != runs.front().slot;
      }
      records.push_back(r);
      if (pick(3) > 0) continue;
      RequestRecord hand;  // a hand-built record on its private timeline
      hand.tenant = pick(2);
      std::vector<Seconds> times;
      Seconds t = rng.uniform(0.0, 100.0);
      for (int k = pick(8); k > 0; --k) {
        t += 0.0125 * static_cast<double>(pick(4));
        times.push_back(t);
      }
      hand.token_times = TokenTimes(times);
      if (pick(4) > 0) hand.completed_time = t;
      hand_built += hand.completed() && times.size() >= 2;
      records.push_back(hand);
    }

    MetricsCollector collector(num_slots, 1e12, 1);
    for (const RequestRecord& r : records) collector.record_request(r);
    const SimulationMetrics m = collector.finalize(now);
    {
      SCOPED_TRACE("fleet");
      expect_same_tbt(m.tbt, per_token_tbt(records, [](const RequestRecord&) {
                        return true;
                      }));
    }
    for (const SimulationMetrics::TenantMetrics& tenant : m.tenant_metrics) {
      SCOPED_TRACE(tenant.info.name);
      expect_same_tbt(tenant.tbt,
                      per_token_tbt(records, [&tenant](const RequestRecord& r) {
                        return r.tenant == tenant.info.id;
                      }));
    }
  }
  // Every shape the weighted feed must get right occurred.
  EXPECT_GT(shared_batches, 1000u);  // gaps of weight above 1
  EXPECT_GT(boundaries, 1000u);
  EXPECT_GT(hopped, 100u);
  EXPECT_GT(left_out, 100u);
  EXPECT_GT(hand_built, 100u);
}

}  // namespace
}  // namespace vidur

// Appended coverage: MBU (model bandwidth utilization) accounting.
namespace vidur {
namespace {

TEST(MetricsCollectorMbu, ComputedAgainstPerGpuBandwidth) {
  MetricsCollector collector(1, 1e12, 4, /*hbm=*/1e12);
  BatchRecord batch;
  batch.end_time = 2.0;
  batch.hbm_bytes_per_gpu = 1e12;  // 1e12 bytes over 2s on 1e12 B/s -> 50%
  collector.record_batch(batch);
  const SimulationMetrics m = collector.finalize(2.0);
  EXPECT_NEAR(m.mbu, 0.5, 1e-9);
}

TEST(MetricsCollectorMbu, ZeroBandwidthDisablesMbu) {
  MetricsCollector collector(1, 1e12, 1);
  BatchRecord batch;
  batch.end_time = 1.0;
  batch.hbm_bytes_per_gpu = 1e12;
  collector.record_batch(batch);
  EXPECT_DOUBLE_EQ(collector.finalize(1.0).mbu, 0.0);
}

// ------------------------------------------------------------------ energy

ClusterResources one_gpu_cluster() {
  return ClusterResources{.num_replicas = 1,
                          .gpus_per_replica = 1,
                          .peak_flops_per_gpu = 1e12,
                          .hbm_bytes_per_sec_per_gpu = 1e12,
                          .idle_watts_per_gpu = 100.0,
                          .peak_watts_per_gpu = 500.0};
}

RequestRecord one_token_request() {
  RequestRecord r = sample_record();
  r.decode_tokens = 1;
  r.token_times = {r.prefill_completed_time};
  return r;
}

TEST(MetricsEnergy, FullyUtilizedBatchDrawsPeakPower) {
  MetricsCollector collector(one_gpu_cluster());
  BatchRecord batch;
  batch.start_time = 0.0;
  batch.end_time = 2.0;
  batch.flops = 2e12;  // 1e12 FLOP/s over 2s on a 1e12-peak GPU: 100%
  collector.record_batch(batch);
  collector.record_request(one_token_request());
  const SimulationMetrics m = collector.finalize(2.0);
  EXPECT_NEAR(m.total_energy_joules, 2.0 * 500.0, 1e-6);
  EXPECT_NEAR(m.mean_cluster_power_watts, 500.0, 1e-6);
}

TEST(MetricsEnergy, IdleClusterDrawsIdlePower) {
  MetricsCollector collector(one_gpu_cluster());
  collector.record_request(one_token_request());
  const SimulationMetrics m = collector.finalize(10.0);
  EXPECT_NEAR(m.total_energy_joules, 10.0 * 100.0, 1e-6);
  EXPECT_NEAR(m.mean_cluster_power_watts, 100.0, 1e-6);
}

TEST(MetricsEnergy, HalfUtilizedBatchInterpolatesLinearly) {
  MetricsCollector collector(one_gpu_cluster());
  BatchRecord batch;
  batch.start_time = 0.0;
  batch.end_time = 1.0;
  batch.flops = 5e11;  // 50% FLOP utilization, no HBM traffic
  collector.record_batch(batch);
  collector.record_request(one_token_request());
  // 1s busy at idle + 0.5*(peak-idle) = 300 W.
  EXPECT_NEAR(collector.finalize(1.0).total_energy_joules, 300.0, 1e-6);
}

TEST(MetricsEnergy, IntensityUsesDominantRooflineAxis) {
  // A memory-bound batch: low FLOP utilization but saturated bandwidth must
  // be billed as fully utilized (decode iterations look exactly like this).
  MetricsCollector collector(one_gpu_cluster());
  BatchRecord batch;
  batch.start_time = 0.0;
  batch.end_time = 1.0;
  batch.flops = 1e10;             // 1% of peak
  batch.hbm_bytes_per_gpu = 1e12;  // 100% of bandwidth
  collector.record_batch(batch);
  collector.record_request(one_token_request());
  EXPECT_NEAR(collector.finalize(1.0).total_energy_joules, 500.0, 1e-6);
}

TEST(MetricsEnergy, AutoscaledFleetBillsIdleWattsFromScalingTimeline) {
  // 4-slot elastic fleet that averaged one active replica over a 10s run:
  // idle watts follow the paid replica-hours in the scaling report, not
  // the static slot ceiling.
  ClusterResources cluster = one_gpu_cluster();
  cluster.num_replicas = 4;
  MetricsCollector collector(cluster);
  collector.record_request(one_token_request());

  ClusterScalingReport scaling;
  scaling.enabled = true;
  scaling.fleet_size = 4;
  scaling.replica_hours = 10.0 / 3600.0;  // 10 paid replica-seconds
  scaling.gpu_hours = scaling.replica_hours;
  const SimulationMetrics elastic = collector.finalize(10.0, scaling);
  EXPECT_NEAR(elastic.total_energy_joules, 10.0 * 100.0, 1e-6);
  EXPECT_TRUE(elastic.scaling.enabled);

  // The one-argument finalize keeps the legacy static-fleet assumption:
  // every slot always on, 4x the idle energy.
  const SimulationMetrics static_fleet = collector.finalize(10.0);
  EXPECT_NEAR(static_fleet.total_energy_joules, 4 * 10.0 * 100.0, 1e-6);
  EXPECT_FALSE(static_fleet.scaling.enabled);
  EXPECT_EQ(static_fleet.scaling.fleet_size, 4);
}

TEST(MetricsEnergy, BusyEnergyStillAccruesUnderAScalingReport) {
  // A fully-utilized 2s batch plus 8 paid-but-idle GPU-seconds.
  MetricsCollector collector(one_gpu_cluster());
  BatchRecord batch;
  batch.start_time = 0.0;
  batch.end_time = 2.0;
  batch.flops = 2e12;  // 100% utilization for 2s
  collector.record_batch(batch);
  collector.record_request(one_token_request());

  ClusterScalingReport scaling;
  scaling.enabled = true;
  scaling.fleet_size = 1;
  scaling.gpu_hours = 10.0 / 3600.0;
  const SimulationMetrics m = collector.finalize(10.0, scaling);
  EXPECT_NEAR(m.total_energy_joules, 2.0 * 500.0 + 8.0 * 100.0, 1e-6);
}

TEST(MetricsEnergy, EnergyPerTokenDividesByOutputTokens) {
  MetricsCollector collector(one_gpu_cluster());
  RequestRecord r = sample_record();  // 10 decode tokens
  collector.record_request(r);
  const SimulationMetrics m = collector.finalize(1.0);
  EXPECT_NEAR(m.energy_per_output_token, m.total_energy_joules / 10.0, 1e-9);
}

TEST(MetricsEnergy, DisabledWithoutPowerModel) {
  MetricsCollector collector(1, 1e12, 1);
  BatchRecord batch;
  batch.end_time = 1.0;
  batch.flops = 1e12;
  collector.record_batch(batch);
  const SimulationMetrics m = collector.finalize(1.0);
  EXPECT_DOUBLE_EQ(m.total_energy_joules, 0.0);
  EXPECT_DOUBLE_EQ(m.mean_cluster_power_watts, 0.0);
}

TEST(MetricsEnergy, InvalidPowerModelThrows) {
  ClusterResources cluster = one_gpu_cluster();
  cluster.peak_watts_per_gpu = 50.0;  // below idle
  EXPECT_THROW(MetricsCollector{cluster}, Error);
}

// --------------------------------------------------------------- operators

TEST(MetricsOperators, AccumulatesAcrossStages) {
  MetricsCollector collector(one_gpu_cluster());
  collector.record_operators(
      {{OpType::kAttnDecode, 0.002}, {OpType::kMlpDownProj, 0.001}});
  collector.record_operators({{OpType::kAttnDecode, 0.003}});
  const SimulationMetrics m = collector.finalize(1.0);
  ASSERT_EQ(m.operator_stats.size(), 2u);
  EXPECT_EQ(m.operator_stats.at(OpType::kAttnDecode).invocations, 2);
  EXPECT_NEAR(m.operator_stats.at(OpType::kAttnDecode).total_seconds, 0.005,
              1e-12);
  EXPECT_EQ(m.operator_stats.at(OpType::kMlpDownProj).invocations, 1);
}

TEST(MetricsOperators, TableSortsHeaviestFirst) {
  MetricsCollector collector(one_gpu_cluster());
  collector.record_operators(
      {{OpType::kRmsNorm, 0.001}, {OpType::kMlpGateUpProj, 0.010}});
  const std::string table = collector.finalize(1.0).operator_table();
  const auto heavy = table.find("mlp_gate_up_proj");
  const auto light = table.find("rms_norm");
  ASSERT_NE(heavy, std::string::npos);
  ASSERT_NE(light, std::string::npos);
  EXPECT_LT(heavy, light);
}

TEST(MetricsOperators, EmptyTableWhenNotCollected) {
  MetricsCollector collector(one_gpu_cluster());
  EXPECT_TRUE(collector.finalize(1.0).operator_table().empty());
}

TEST(MetricsCollector, ZeroMakespanProducesNoRates) {
  // finalize(0) must not divide by zero: all rate/utilization metrics stay
  // at their zero defaults.
  MetricsCollector collector(one_gpu_cluster());
  collector.record_request(one_token_request());
  const SimulationMetrics m = collector.finalize(0.0);
  EXPECT_DOUBLE_EQ(m.throughput_qps, 0.0);
  EXPECT_DOUBLE_EQ(m.mfu, 0.0);
  EXPECT_DOUBLE_EQ(m.total_energy_joules, 0.0);
  EXPECT_EQ(m.num_completed, 1u);
}

}  // namespace
}  // namespace vidur
