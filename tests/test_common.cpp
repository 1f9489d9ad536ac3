// Tests for src/common: RNG determinism and distribution moments, streaming
// stats, quantiles, CSV round-trips, table formatting, thread pool.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <condition_variable>
#include <limits>
#include <mutex>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/csv.h"
#include "common/json.h"
#include "common/random.h"
#include "common/stats.h"
#include "common/table.h"
#include "common/thread_pool.h"

namespace vidur {
namespace {

// ------------------------------------------------------------------ check

TEST(Check, ThrowsWithExpressionAndMessage) {
  try {
    VIDUR_CHECK_MSG(1 == 2, "custom context " << 42);
    FAIL() << "expected vidur::Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("1 == 2"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("custom context 42"),
              std::string::npos);
  }
}

TEST(Check, PassingConditionDoesNotThrow) {
  EXPECT_NO_THROW(VIDUR_CHECK(2 + 2 == 4));
}

// -------------------------------------------------------------------- rng

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a() == b()) ? 1 : 0;
  EXPECT_LT(same, 3);
}

TEST(Rng, ForkIsIndependentOfParentConsumption) {
  Rng a(7);
  Rng child = a.fork();
  const auto first = child();
  // Consuming more of the parent must not affect an already-forked child.
  Rng b(7);
  Rng child2 = b.fork();
  (void)b();
  (void)b();
  EXPECT_EQ(child2(), first);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformIntCoversRangeInclusively) {
  Rng rng(5);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.uniform_int(3, 7));
  EXPECT_EQ(seen.size(), 5u);
  EXPECT_EQ(*seen.begin(), 3);
  EXPECT_EQ(*seen.rbegin(), 7);
}

TEST(Rng, UniformIntRejectsInvertedRange) {
  Rng rng(1);
  EXPECT_THROW(rng.uniform_int(5, 4), Error);
}

TEST(Rng, NormalMomentsMatch) {
  Rng rng(11);
  RunningStats stats;
  for (int i = 0; i < 200000; ++i) stats.add(rng.normal(3.0, 2.0));
  EXPECT_NEAR(stats.mean(), 3.0, 0.05);
  EXPECT_NEAR(stats.stddev(), 2.0, 0.05);
}

TEST(Rng, ExponentialMeanMatchesRate) {
  Rng rng(13);
  RunningStats stats;
  for (int i = 0; i < 200000; ++i) stats.add(rng.exponential(4.0));
  EXPECT_NEAR(stats.mean(), 0.25, 0.01);
}

TEST(Rng, ExponentialRejectsNonPositiveRate) {
  Rng rng(1);
  EXPECT_THROW(rng.exponential(0.0), Error);
}

TEST(Rng, LognormalMedianIsExpMu) {
  Rng rng(17);
  SampleSeries s;
  for (int i = 0; i < 100000; ++i) s.add(rng.lognormal(2.0, 0.7));
  EXPECT_NEAR(s.median(), std::exp(2.0), 0.15);
}

TEST(Rng, GammaMomentsMatch) {
  Rng rng(19);
  RunningStats stats;
  const double shape = 2.5, scale = 1.5;
  for (int i = 0; i < 200000; ++i) stats.add(rng.gamma(shape, scale));
  EXPECT_NEAR(stats.mean(), shape * scale, 0.05);
  EXPECT_NEAR(stats.variance(), shape * scale * scale, 0.2);
}

TEST(Rng, GammaSmallShape) {
  Rng rng(23);
  RunningStats stats;
  const double shape = 0.4, scale = 2.0;
  for (int i = 0; i < 200000; ++i) {
    const double g = rng.gamma(shape, scale);
    EXPECT_GT(g, 0.0);
    stats.add(g);
  }
  EXPECT_NEAR(stats.mean(), shape * scale, 0.05);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(29);
  int hits = 0;
  for (int i = 0; i < 100000; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / 100000.0, 0.3, 0.01);
}

// ------------------------------------------------------------------ stats

TEST(RunningStats, BasicMoments) {
  RunningStats s;
  for (double v : {1.0, 2.0, 3.0, 4.0}) s.add(v);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_DOUBLE_EQ(s.sum(), 10.0);
  EXPECT_NEAR(s.variance(), 1.25, 1e-12);
}

TEST(RunningStats, EmptyIsSafe) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_TRUE(std::isinf(s.min()));
}

TEST(RunningStats, MergeMatchesSequential) {
  Rng rng(31);
  RunningStats all, a, b;
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.normal();
    all.add(v);
    (i % 2 == 0 ? a : b).add(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(SampleSeries, ExactQuantiles) {
  SampleSeries s;
  for (int i = 1; i <= 100; ++i) s.add(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(s.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 100.0);
  EXPECT_NEAR(s.median(), 50.5, 1e-12);
  EXPECT_NEAR(s.quantile(0.90), 90.1, 1e-9);
}

TEST(SampleSeries, QuantileOfSingleElement) {
  SampleSeries s;
  s.add(7.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.5), 7.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.99), 7.0);
}

TEST(SampleSeries, QuantileEmptyThrows) {
  SampleSeries s;
  EXPECT_THROW(s.quantile(0.5), Error);
}

TEST(SampleSeries, QuantileCacheInvalidatedByAdd) {
  SampleSeries s;
  s.add(1.0);
  s.add(2.0);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 2.0);
  s.add(10.0);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 10.0);
}

TEST(SampleSeries, SummaryFields) {
  SampleSeries s;
  for (int i = 1; i <= 1000; ++i) s.add(static_cast<double>(i));
  const Summary sum = Summary::of(s);
  EXPECT_EQ(sum.count, 1000u);
  EXPECT_NEAR(sum.mean, 500.5, 1e-9);
  EXPECT_NEAR(sum.p50, 500.5, 1e-9);
  EXPECT_NEAR(sum.p99, 990.01, 0.1);
  EXPECT_DOUBLE_EQ(sum.min, 1.0);
  EXPECT_DOUBLE_EQ(sum.max, 1000.0);
}

// StreamSummary must reproduce the sort-based Summary::of bit for bit:
// every field compared with ==, never within a tolerance.
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

void expect_stream_matches_sort(const std::vector<double>& xs) {
  SampleSeries series;
  for (const double x : xs) series.add(x);
  StreamSummary stream;
  int passes = 0;
  while (stream.next_pass()) {
    ++passes;
    for (const double x : xs) stream.add(x);
  }
  EXPECT_LE(passes, 6);
  expect_same_summary(stream.summary(), Summary::of(series));
}

TEST(StreamSummary, MatchesSortOnRandomSeries) {
  Rng rng(41);
  // The largest stream keeps prefixes above the gather bound, so digit
  // passes run before the gather.
  for (const int n : {3, 17, 100, 1001, 300000}) {
    std::vector<double> xs;
    for (int i = 0; i < n; ++i) xs.push_back(rng.lognormal(-4.0, 1.5));
    expect_stream_matches_sort(xs);
  }
}

TEST(StreamSummary, MatchesSortOnHeavyTies) {
  // Few distinct values, and near-ties one ulp apart: the shape of
  // inter-token gaps, which repeat one iteration time up to rounding. The
  // near-ties share every digit but the last, so they take all six passes.
  Rng rng(43);
  std::vector<double> ties, near_ties;
  for (int i = 0; i < 200000; ++i) {
    ties.push_back(0.01 * static_cast<double>(rng.uniform_int(1, 4)));
    double x = 0.0123;
    for (std::int64_t k = rng.uniform_int(0, 3); k > 0; --k)
      x = std::nextafter(x, 1.0);
    near_ties.push_back(x);
  }
  expect_stream_matches_sort(ties);
  expect_stream_matches_sort(near_ties);
}

TEST(StreamSummary, MatchesSortOnDegenerateSeries) {
  expect_stream_matches_sort({});
  expect_stream_matches_sort({0.3});
  expect_stream_matches_sort({0.3, 0.1});
  expect_stream_matches_sort(std::vector<double>(1000, 0.1));  // all equal
  expect_stream_matches_sort({0.0, 0.02, 0.0, 0.0, 0.5, 0.02});  // zero gaps
}

TEST(StreamSummary, MatchesSortOnNegativeSeries) {
  Rng rng(47);
  std::vector<double> negative, mixed;
  for (int i = 0; i < 5000; ++i) {
    negative.push_back(-rng.exponential(30.0));
    mixed.push_back(rng.normal(0.0, 1e-3));
  }
  expect_stream_matches_sort(negative);
  expect_stream_matches_sort(mixed);
}

TEST(StreamSummary, GapsOfTimestampsMatchSortOfGaps) {
  // add_gaps() over per-request timestamp arrays (the TBT feed) equals the
  // sort over the same gaps appended record by record. Enough samples
  // that some prefixes stay above the gather bound and take digit passes.
  Rng rng(59);
  std::vector<std::vector<double>> requests(1000);
  SampleSeries gaps;
  for (std::vector<double>& times : requests) {
    double t = rng.uniform(0.0, 100.0);
    const std::int64_t n = rng.uniform_int(0, 600);
    for (std::int64_t i = 0; i < n; ++i) {
      // Iteration times repeat up to rounding at the absolute time.
      t += 0.0125 * static_cast<double>(rng.uniform_int(1, 3));
      times.push_back(t);
    }
    for (std::size_t i = 1; i < times.size(); ++i)
      gaps.add(times[i] - times[i - 1]);
  }
  StreamSummary stream;
  int passes = 0;
  while (stream.next_pass()) {
    ++passes;
    for (const std::vector<double>& times : requests) stream.add_gaps(times);
  }
  EXPECT_GT(passes, 2);
  expect_same_summary(stream.summary(), Summary::of(gaps));
}

TEST(StreamSummary, WeightedItemsMatchRepeatedSamples) {
  // An item of weight w stands for w copies of its sample: count, extrema
  // and every quantile equal the sort over the expanded series bit for
  // bit, and the sums agree to rounding. Weight-1 items sum exactly as
  // the series does. Heavy weights put more than the gather bound on one
  // value, so their prefixes take digit passes; light ones gather.
  Rng rng(61);
  struct Case {
    int items;
    std::int64_t max_weight;
  };
  for (const Case c : {Case{20000, 1}, Case{20000, 3}, Case{4000, 40},
                       Case{200, 5000}}) {
    SCOPED_TRACE("max weight " + std::to_string(c.max_weight));
    std::vector<std::pair<double, std::uint64_t>> items;
    SampleSeries expanded;
    for (int i = 0; i < c.items; ++i) {
      // Batch gaps: a few iteration times, one ulp apart at most, and an
      // occasional long stall.
      double x = 0.0125 * static_cast<double>(rng.uniform_int(1, 3));
      for (std::int64_t k = rng.uniform_int(0, 2); k > 0; --k)
        x = std::nextafter(x, 1.0);
      if (rng.uniform() < 0.05) x = rng.lognormal(-1.0, 1.0);
      const auto w =
          static_cast<std::uint64_t>(rng.uniform_int(1, c.max_weight));
      items.emplace_back(x, w);
      for (std::uint64_t k = 0; k < w; ++k) expanded.add(x);
    }
    StreamSummary stream;
    while (stream.next_pass())
      stream.add_each([&items](const auto& sink) {
        for (const auto& [x, w] : items) sink(x, w);
      });
    const Summary& got = stream.summary();
    const Summary want = Summary::of(expanded);
    if (c.max_weight == 1) {
      expect_same_summary(got, want);
      continue;
    }
    EXPECT_EQ(got.count, want.count);
    EXPECT_EQ(got.min, want.min);
    EXPECT_EQ(got.max, want.max);
    EXPECT_EQ(got.p50, want.p50);
    EXPECT_EQ(got.p90, want.p90);
    EXPECT_EQ(got.p95, want.p95);
    EXPECT_EQ(got.p99, want.p99);
    EXPECT_NEAR(got.mean, want.mean, 1e-9 * want.mean);
    EXPECT_NEAR(got.stddev, want.stddev, 1e-9 * want.stddev);
  }
}

TEST(StreamSummary, ChangedStreamIsAnError) {
  StreamSummary stream;
  ASSERT_TRUE(stream.next_pass());
  for (int i = 0; i < 10; ++i) stream.add(static_cast<double>(i));
  ASSERT_TRUE(stream.next_pass());
  stream.add(1.0);  // nine samples short
  EXPECT_THROW(stream.next_pass(), Error);
}

TEST(StreamSummary, OrderKeyPreservesOrder) {
  const std::vector<double> sorted = {
      -std::numeric_limits<double>::infinity(), -1e300, -2.5, -1e-300, -0.0,
      0.0, 1e-310, 1e-300, 2.5, 1e300, std::numeric_limits<double>::infinity()};
  for (std::size_t i = 1; i < sorted.size(); ++i)
    EXPECT_LT(order_key(sorted[i - 1]), order_key(sorted[i])) << i;
}

// -------------------------------------------------------------------- csv

TEST(Csv, RoundTrip) {
  CsvWriter w({"a", "b", "c"});
  w.add_row({"1", "x", "2.5"});
  w.add_row({"2", "y", "3.5"});
  const CsvDocument doc = parse_csv(w.str());
  ASSERT_EQ(doc.rows.size(), 2u);
  EXPECT_EQ(doc.column("b"), 1u);
  EXPECT_EQ(doc.rows[1][doc.column("c")], "3.5");
}

TEST(Csv, RejectsRaggedRows) {
  EXPECT_THROW(parse_csv("a,b\n1,2,3\n"), Error);
}

TEST(Csv, RejectsWrongWidthRow) {
  CsvWriter w({"a", "b"});
  EXPECT_THROW(w.add_row({"only-one"}), Error);
}

TEST(Csv, MissingColumnThrows) {
  const CsvDocument doc = parse_csv("a,b\n1,2\n");
  EXPECT_THROW(doc.column("zzz"), Error);
}

TEST(Csv, EmptyTrailingFieldParsed) {
  const CsvDocument doc = parse_csv("a,b\n1,\n");
  ASSERT_EQ(doc.rows.size(), 1u);
  EXPECT_EQ(doc.rows[0][1], "");
}

// ------------------------------------------------------------------ table

TEST(ConsoleTable, AlignsColumns) {
  ConsoleTable t({"name", "value"});
  t.add_row({"x", "1"});
  t.add_row({"longer-name", "2"});
  const std::string s = t.str();
  EXPECT_NE(s.find("longer-name"), std::string::npos);
  EXPECT_NE(s.find("| name"), std::string::npos);
}

TEST(ConsoleTable, RowWidthMismatchThrows) {
  ConsoleTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"1"}), Error);
}

TEST(Format, Percent) { EXPECT_EQ(fmt_percent(0.0123), "1.23%"); }

TEST(Format, Double) { EXPECT_EQ(fmt_double(1.23456, 2), "1.23"); }

// ------------------------------------------------------------ thread pool

TEST(ThreadPool, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) pool.submit([&] { ++counter; });
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, ParallelForCoversAllIndices) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(50);
  parallel_for(pool, hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, WaitIdleOnEmptyPoolReturns) {
  ThreadPool pool(2);
  pool.wait_idle();  // must not deadlock
  SUCCEED();
}

TEST(ThreadPool, WaitingFromOwnTaskFailsTheCheckInsteadOfHanging) {
  // The calling task counts as in flight: wait_idle() would wait for it
  // forever, and parallel_for would hold a worker while waiting on the rest.
  ThreadPool pool(2);
  ThreadPool other(1);
  std::atomic<int> caught{0};
  std::atomic<bool> other_pool_ok{false};
  pool.submit([&] {
    try {
      pool.wait_idle();
    } catch (const Error&) {
      ++caught;
    }
    try {
      parallel_for(pool, 2, [](std::size_t) {});
    } catch (const Error&) {
      ++caught;
    }
    // Another pool's waits stay legal from here.
    parallel_for(other, 3, [](std::size_t) {});
    other.wait_idle();
    other_pool_ok = true;
  });
  pool.wait_idle();
  EXPECT_EQ(caught.load(), 2);
  EXPECT_TRUE(other_pool_ok.load());
  EXPECT_FALSE(pool.on_worker());
}

TEST(ThreadPool, ParallelForWaitsOnlyForItsOwnTasks) {
  // One worker is held by an unrelated task; parallel_for returns once its
  // own tasks are done, while that task still runs.
  ThreadPool pool(2);
  std::mutex mutex;
  std::condition_variable cv;
  bool release = false;
  std::atomic<bool> blocker_done{false};
  pool.submit([&] {
    std::unique_lock lock(mutex);
    cv.wait(lock, [&] { return release; });
    blocker_done = true;
  });
  std::vector<std::atomic<int>> hits(20);
  parallel_for(pool, hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  EXPECT_FALSE(blocker_done.load());
  {
    std::lock_guard lock(mutex);
    release = true;
  }
  cv.notify_all();
  pool.wait_idle();
  EXPECT_TRUE(blocker_done.load());
}

// ------------------------------------------------------------------- json

TEST(Json, BuildsOrderedObjectsAndArrays) {
  JsonValue doc = JsonValue::object();
  doc.set("b", 1);
  doc.set("a", 2.5);
  doc.set("flag", true);
  doc.set("label", "x");
  JsonValue arr = JsonValue::array();
  arr.push(1).push(2).push(3);
  doc.set("items", std::move(arr));

  // Insertion order is preserved (not sorted).
  EXPECT_EQ(doc.members()[0].first, "b");
  EXPECT_EQ(doc.members()[1].first, "a");
  EXPECT_EQ(doc.at("b").as_int(), 1);
  EXPECT_DOUBLE_EQ(doc.at("a").as_double(), 2.5);
  EXPECT_TRUE(doc.at("flag").as_bool());
  EXPECT_EQ(doc.at("label").as_string(), "x");
  EXPECT_EQ(doc.at("items").size(), 3u);
  EXPECT_EQ(doc.find("missing"), nullptr);
  EXPECT_THROW(doc.at("missing"), Error);
}

TEST(Json, ParseDumpRoundTripPreservesStructure) {
  const std::string text = R"({
  "name": "x",
  "count": 42,
  "rate": 1.5,
  "on": true,
  "off": false,
  "none": null,
  "nested": {"list": [1, 2.25, "s"]}
})";
  const JsonValue parsed = JsonValue::parse(text);
  // Round trip through dump() and back is identity.
  EXPECT_EQ(JsonValue::parse(parsed.dump()), parsed);
  EXPECT_EQ(parsed.at("count").as_int(), 42);
  EXPECT_TRUE(parsed.at("none").is_null());
  EXPECT_EQ(parsed.at("nested").at("list").items()[2].as_string(), "s");
}

TEST(Json, IntegersRoundTripLosslessly) {
  // Values above 2^53 would be mangled as doubles; ints must stay ints.
  const std::int64_t big = (std::int64_t{1} << 60) + 12345;
  JsonValue doc = JsonValue::object();
  doc.set("seed", big);
  EXPECT_EQ(JsonValue::parse(doc.dump()).at("seed").as_int(), big);
}

TEST(Json, DoublesRoundTripExactly) {
  for (const double v : {0.1, 1.0 / 3.0, 1e-300, 123456.789,
                         0.30000000000000004}) {
    JsonValue doc = JsonValue::array();
    doc.push(v);
    EXPECT_EQ(JsonValue::parse(doc.dump()).items()[0].as_double(), v);
  }
}

TEST(Json, StringEscapesRoundTrip) {
  const std::string nasty = "a\"b\\c\nd\te\rf\x01g";
  JsonValue doc = JsonValue::array();
  doc.push(nasty);
  EXPECT_EQ(JsonValue::parse(doc.dump()).items()[0].as_string(), nasty);
}

TEST(Json, ParseUnicodeEscapes) {
  // BMP codepoint and a surrogate pair (U+1F600).
  const JsonValue v = JsonValue::parse(R"(["é", "😀"])");
  EXPECT_EQ(v.items()[0].as_string(), "\xc3\xa9");
  EXPECT_EQ(v.items()[1].as_string(), "\xf0\x9f\x98\x80");
}

TEST(Json, ParseErrorsCarryLineAndColumn) {
  try {
    JsonValue::parse("{\n  \"a\": 1,\n  oops\n}");
    FAIL() << "expected vidur::Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos);
  }
  EXPECT_THROW(JsonValue::parse("{\"a\": 1} trailing"), Error);
  EXPECT_THROW(JsonValue::parse("{\"a\": 1 \"b\": 2}"), Error);
  EXPECT_THROW(JsonValue::parse("[1, 2"), Error);
  EXPECT_THROW(JsonValue::parse("{\"a\": 1, \"a\": 2}"), Error);
  EXPECT_THROW(JsonValue::parse(""), Error);
}

TEST(Json, DeepNestingFailsInsteadOfOverflowingTheStack) {
  const std::string deep(100000, '[');
  try {
    JsonValue::parse(deep);
    FAIL() << "expected vidur::Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("nesting"), std::string::npos);
  }
  // 256 levels are within the cap.
  std::string ok(200, '[');
  ok += "1";
  ok += std::string(200, ']');
  EXPECT_NO_THROW(JsonValue::parse(ok));
}

TEST(Json, TypeMismatchesThrow) {
  JsonValue num(3);
  EXPECT_THROW(num.as_string(), Error);
  EXPECT_THROW(num.set("k", 1), Error);
  EXPECT_THROW(num.push(1), Error);
  JsonValue dbl(3.5);
  EXPECT_THROW(dbl.as_int(), Error);  // as_int is exact-integers-only
  EXPECT_DOUBLE_EQ(dbl.as_double(), 3.5);
  EXPECT_DOUBLE_EQ(num.as_double(), 3.0);  // ints widen to double
}

TEST(Json, OverflowingNumberLiteralsRejected) {
  // A typo'd exponent must fail loudly, not silently become infinity.
  EXPECT_THROW(JsonValue::parse("[1e400]"), Error);
  EXPECT_THROW(JsonValue::parse("[-1e400]"), Error);
  // Underflow collapses to a finite tiny value and stays accepted.
  EXPECT_NO_THROW(JsonValue::parse("[1e-400]"));
}

TEST(Json, WholeValuedDoublesKeepTheirTypeAcrossRoundTrip) {
  JsonValue doc = JsonValue::array();
  doc.push(2.0);
  doc.push(-12.0);
  const JsonValue back = JsonValue::parse(doc.dump());
  EXPECT_FALSE(back.items()[0].is_int());  // "2.0", not "2"
  EXPECT_FALSE(back.items()[1].is_int());
  EXPECT_EQ(back, doc);
}

TEST(Json, NonFiniteDoublesDumpAsNull) {
  JsonValue doc = JsonValue::array();
  doc.push(std::nan(""));
  EXPECT_TRUE(JsonValue::parse(doc.dump()).items()[0].is_null());
}

}  // namespace
}  // namespace vidur
