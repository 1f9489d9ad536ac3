#include <gtest/gtest.h>

#include <cstring>
#include <memory>

#include "common/check.h"
#include "common/random.h"
#include "perf_helpers.h"
#include "profiler/profiler.h"

using namespace vidur;
using perfbench::BackendTimes;
using perfbench::parse_proc_status;
using perfbench::TimingBackend;

// ------------------------------------------------------------ /proc parser

TEST(ProcStatus, ParsesRssAndHighWaterMarkInBytes) {
  const std::string text =
      "Name:\tperfbench\n"
      "VmPeak:\t  900000 kB\n"
      "VmHWM:\t    2048 kB\n"
      "VmRSS:\t    1024 kB\n"
      "Threads:\t1\n";
  const perfbench::ProcMemory mem = parse_proc_status(text);
  EXPECT_EQ(mem.rss_bytes, 1024 * 1024);
  EXPECT_EQ(mem.hwm_bytes, 2048 * 1024);
}

TEST(ProcStatus, MissingLineIsAnError) {
  EXPECT_THROW(parse_proc_status("VmRSS:\t 10 kB\n"), Error);
  EXPECT_THROW(parse_proc_status(""), Error);
}

TEST(ProcStatus, MalformedLineIsAnError) {
  EXPECT_THROW(parse_proc_status("VmHWM:\t 10 kB\nVmRSS:\t ten kB\n"), Error);
  EXPECT_THROW(parse_proc_status("VmHWM:\t 10 MB\nVmRSS:\t 10 kB\n"), Error);
}

TEST(ProcStatus, KeyPrefixDoesNotMatchLongerKey) {
  // "VmRSSx" must not be read as VmRSS.
  EXPECT_THROW(parse_proc_status("VmHWM:\t 1 kB\nVmRSSx:\t 1 kB\n"), Error);
}

TEST(ProcStatus, ReadsThisProcess) {
  const perfbench::ProcMemory mem = perfbench::read_proc_memory();
  EXPECT_GT(mem.rss_bytes, 0);
  EXPECT_GE(mem.hwm_bytes, mem.rss_bytes);
}

// ---------------------------------------------------------- timing backend

namespace {

const RuntimeEstimator& estimator() {
  static const RuntimeEstimator instance = [] {
    NodeSpec node;
    node.sku = sku_by_name("a100");
    ProfilerOptions opts;
    opts.max_tokens = 8192;
    return RuntimeEstimator(
        profile_model(model_by_name("llama2-7b"), node, {1}, opts));
  }();
  return instance;
}

BatchSpec random_batch(Rng& rng) {
  BatchSpec batch;
  const int decodes = static_cast<int>(rng.uniform_int(0, 48));
  for (int i = 0; i < decodes; ++i) {
    BatchItem item;
    item.request = i;
    item.q_tokens = 1;
    item.kv_context = rng.uniform_int(16, 3000);
    batch.items.push_back(item);
  }
  if (decodes == 0 || rng.bernoulli(0.5)) {
    BatchItem item;
    item.request = 1000;
    item.q_tokens = rng.uniform_int(32, 2048);
    item.is_prefill = true;
    item.completes_prefill = rng.bernoulli(0.7);
    batch.items.push_back(item);
  }
  return batch;
}

bool bit_identical(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

}  // namespace

TEST(TimingBackend, WrappingLeavesPredictionsBitIdentical) {
  const ModelSpec model = model_by_name("llama2-7b");
  const ParallelConfig par{1, 2, 1};
  ExecutionTimePredictor bare(&estimator(), model, par);
  BackendTimes times;
  TimingBackend wrapped(
      std::make_unique<ExecutionTimePredictor>(&estimator(), model, par),
      &times);

  Rng rng(11);
  int stage_calls = 0;
  for (int trial = 0; trial < 300; ++trial) {
    const BatchSpec batch = random_batch(rng);
    const BatchAggregates agg = batch.aggregates();
    for (StageId stage = 0; stage < 2; ++stage) {
      const StageTiming a = bare.stage_timing(batch, stage);
      const StageTiming b = wrapped.stage_timing(batch, stage);
      const StageTiming c = bare.stage_timing(batch, agg, stage);
      const StageTiming d = wrapped.stage_timing(batch, agg, stage);
      stage_calls += 2;
      ASSERT_TRUE(bit_identical(a.compute, b.compute)) << "trial " << trial;
      ASSERT_TRUE(bit_identical(a.comm, b.comm)) << "trial " << trial;
      ASSERT_TRUE(bit_identical(c.compute, d.compute)) << "trial " << trial;
      ASSERT_TRUE(bit_identical(c.comm, d.comm)) << "trial " << trial;
    }
    ASSERT_TRUE(
        bit_identical(bare.cpu_overhead(batch), wrapped.cpu_overhead(batch)));
  }
  EXPECT_EQ(times.stage_timing_calls, stage_calls);
  EXPECT_EQ(times.cpu_overhead_calls, 300);
  EXPECT_GT(times.seconds, 0.0);
}

TEST(TimingBackend, BreakdownIsForwardedUntimed) {
  const ModelSpec model = model_by_name("llama2-7b");
  const ParallelConfig par{1, 1, 1};
  ExecutionTimePredictor bare(&estimator(), model, par);
  BackendTimes times;
  TimingBackend wrapped(
      std::make_unique<ExecutionTimePredictor>(&estimator(), model, par),
      &times);
  Rng rng(5);
  const BatchSpec batch = random_batch(rng);
  const OpTimeBreakdown a = bare.stage_breakdown(batch, 0);
  const OpTimeBreakdown b = wrapped.stage_breakdown(batch, 0);
  EXPECT_TRUE(bit_identical(a.total, b.total));
  EXPECT_EQ(a.per_op, b.per_op);
  EXPECT_EQ(times.stage_timing_calls, 0);
  EXPECT_EQ(times.seconds, 0.0);
}

TEST(TimingBackend, RejectsMissingInnerBackend) {
  BackendTimes times;
  EXPECT_THROW(TimingBackend(nullptr, &times), Error);
}
