// Tests for src/workload/trace_io: CSV round trips and replay validation.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/check.h"
#include "common/random.h"
#include "workload/trace_generator.h"
#include "workload/trace_io.h"

namespace vidur {
namespace {

TEST(TraceIo, TextRoundTripPreservesEveryField) {
  const Trace original = generate_trace(
      trace_by_name("chat1m"), ArrivalSpec{ArrivalKind::kPoisson, 2.0, 0}, 50,
      42);
  const Trace loaded = trace_from_csv(trace_to_csv(original));
  ASSERT_EQ(loaded.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(loaded[i].id, original[i].id);
    EXPECT_DOUBLE_EQ(loaded[i].arrival_time, original[i].arrival_time);
    EXPECT_EQ(loaded[i].prefill_tokens, original[i].prefill_tokens);
    EXPECT_EQ(loaded[i].decode_tokens, original[i].decode_tokens);
  }
}

TEST(TraceIo, TenantAndPriorityTagsRoundTrip) {
  Trace original;
  for (int i = 0; i < 6; ++i) {
    Request r;
    r.id = i;
    r.arrival_time = i * 0.5;
    r.prefill_tokens = 10 + i;
    r.decode_tokens = 5;
    r.tenant = i % 3;
    r.priority = i % 2 == 0 ? 2 : -1;  // negative priorities are legal
    original.push_back(r);
  }
  const Trace loaded = trace_from_csv(trace_to_csv(original));
  ASSERT_EQ(loaded.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(loaded[i].tenant, original[i].tenant);
    EXPECT_EQ(loaded[i].priority, original[i].priority);
  }
}

TEST(TraceIo, FourColumnTracesStillLoadWithDefaultTags) {
  // Traces written before the tenant/priority columns existed.
  const Trace trace = trace_from_csv(
      "request_id,arrival_time,prefill_tokens,decode_tokens\n"
      "0,0.0,10,5\n"
      "1,1.0,20,6\n");
  ASSERT_EQ(trace.size(), 2u);
  for (const Request& r : trace) {
    EXPECT_EQ(r.tenant, 0);
    EXPECT_EQ(r.priority, 0);
  }
}

TEST(TraceIo, NegativeTenantThrows) {
  EXPECT_THROW(
      trace_from_csv(
          "request_id,arrival_time,prefill_tokens,decode_tokens,tenant,"
          "priority\n"
          "0,0.0,10,5,-1,0\n"),
      Error);
}

TEST(TraceIo, FileRoundTrip) {
  const Trace original = generate_trace(
      trace_by_name("bwb4k"), ArrivalSpec{ArrivalKind::kStatic, 0, 0}, 20, 7);
  const std::string path = ::testing::TempDir() + "/vidur_trace_io_test.csv";
  save_trace_csv(path, original);
  const Trace loaded = load_trace_csv(path);
  std::remove(path.c_str());
  ASSERT_EQ(loaded.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i)
    EXPECT_EQ(loaded[i].prefill_tokens, original[i].prefill_tokens);
}

TEST(TraceIo, SortsByArrivalTime) {
  const std::string csv =
      "request_id,arrival_time,prefill_tokens,decode_tokens\n"
      "0,5.0,10,5\n"
      "1,1.0,20,5\n"
      "2,3.0,30,5\n";
  const Trace trace = trace_from_csv(csv);
  ASSERT_EQ(trace.size(), 3u);
  EXPECT_EQ(trace[0].id, 1);
  EXPECT_EQ(trace[1].id, 2);
  EXPECT_EQ(trace[2].id, 0);
}

TEST(TraceIo, SortIsStableForTiedArrivals) {
  const std::string csv =
      "request_id,arrival_time,prefill_tokens,decode_tokens\n"
      "7,0.0,10,5\n"
      "3,0.0,20,5\n"
      "9,0.0,30,5\n";
  const Trace trace = trace_from_csv(csv);
  EXPECT_EQ(trace[0].id, 7);
  EXPECT_EQ(trace[1].id, 3);
  EXPECT_EQ(trace[2].id, 9);
}

TEST(TraceIo, ColumnOrderIsFree) {
  const std::string csv =
      "decode_tokens,request_id,arrival_time,prefill_tokens\n"
      "5,0,0.0,17\n";
  const Trace trace = trace_from_csv(csv);
  ASSERT_EQ(trace.size(), 1u);
  EXPECT_EQ(trace[0].prefill_tokens, 17);
  EXPECT_EQ(trace[0].decode_tokens, 5);
}

TEST(TraceIo, EmptyTraceRoundTrips) {
  const Trace loaded = trace_from_csv(trace_to_csv(Trace{}));
  EXPECT_TRUE(loaded.empty());
}

TEST(TraceIo, MissingColumnThrows) {
  EXPECT_THROW(trace_from_csv("request_id,arrival_time,prefill_tokens\n"
                              "0,0.0,10\n"),
               Error);
}

TEST(TraceIo, DuplicateIdThrows) {
  EXPECT_THROW(
      trace_from_csv("request_id,arrival_time,prefill_tokens,decode_tokens\n"
                     "0,0.0,10,5\n"
                     "0,1.0,10,5\n"),
      Error);
}

TEST(TraceIo, NegativeArrivalThrows) {
  EXPECT_THROW(
      trace_from_csv("request_id,arrival_time,prefill_tokens,decode_tokens\n"
                     "0,-1.0,10,5\n"),
      Error);
}

TEST(TraceIo, NonPositiveTokensThrow) {
  EXPECT_THROW(
      trace_from_csv("request_id,arrival_time,prefill_tokens,decode_tokens\n"
                     "0,0.0,0,5\n"),
      Error);
  EXPECT_THROW(
      trace_from_csv("request_id,arrival_time,prefill_tokens,decode_tokens\n"
                     "0,0.0,10,-2\n"),
      Error);
}

TEST(TraceIo, MalformedNumberThrows) {
  EXPECT_THROW(
      trace_from_csv("request_id,arrival_time,prefill_tokens,decode_tokens\n"
                     "zero,0.0,10,5\n"),
      Error);
  EXPECT_THROW(
      trace_from_csv("request_id,arrival_time,prefill_tokens,decode_tokens\n"
                     "0,abc,10,5\n"),
      Error);
}

TEST(TraceIo, MissingFileThrows) {
  EXPECT_THROW(load_trace_csv("/nonexistent/vidur_trace.csv"), Error);
}

TEST(TraceIo, ToleratesSurroundingWhitespace) {
  const Trace trace = trace_from_csv(
      "request_id, arrival_time, prefill_tokens, decode_tokens\n"
      " 3 , 1.5 , 42 , 7 \n");
  ASSERT_EQ(trace.size(), 1u);
  EXPECT_EQ(trace[0].id, 3);
  EXPECT_DOUBLE_EQ(trace[0].arrival_time, 1.5);
  EXPECT_EQ(trace[0].prefill_tokens, 42);
  EXPECT_EQ(trace[0].decode_tokens, 7);
}

/// `csv` must be rejected with a vidur::Error whose message names the
/// request and the column.
void expect_rejected(const std::string& csv, const std::string& request,
                     const std::string& column) {
  try {
    trace_from_csv(csv);
    ADD_FAILURE() << "loaded:\n" << csv;
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("request " + request), std::string::npos) << what;
    EXPECT_NE(what.find("column " + column), std::string::npos) << what;
  }
}

/// A tagged (six-column) trace CSV with these data rows.
std::string tagged(const std::string& rows) {
  return "request_id,arrival_time,prefill_tokens,decode_tokens,tenant,"
         "priority\n" +
         rows;
}

TEST(TraceIo, NanArrivalIsRejected) {
  // NaN has no place in the arrival sort's strict weak order.
  expect_rejected(tagged("0,0.5,10,5,0,0\n7,nan,10,5,0,0\n"), "7",
                  "arrival_time");
}

TEST(TraceIo, InfiniteArrivalIsRejected) {
  expect_rejected(tagged("0,0.5,10,5,0,0\n7,inf,10,5,0,0\n"), "7",
                  "arrival_time");
}

TEST(TraceIo, TokenCountBeyond32BitsIsRejected) {
  // Request::total_tokens() would overflow int64 at enqueue.
  expect_rejected(tagged("7,0.5,9223372036854775807,5,0,0\n"), "7",
                  "prefill_tokens");
  expect_rejected(tagged("7,0.5,10,2147483648,0,0\n"), "7",
                  "decode_tokens");
}

TEST(TraceIo, TenantAndPriorityBeyond32BitsAreRejected) {
  // They used to wrap silently, to tenant 0 and priority 1.
  expect_rejected(tagged("7,0.5,10,5,4294967296,0\n"), "7", "tenant");
  expect_rejected(tagged("7,0.5,10,5,0,4294967297\n"), "7", "priority");
  // The 32-bit extremes themselves load.
  const Trace trace =
      trace_from_csv(tagged("7,0.5,10,5,2147483647,-2147483648\n"));
  ASSERT_EQ(trace.size(), 1u);
  EXPECT_EQ(trace[0].tenant, 2147483647);
  EXPECT_EQ(trace[0].priority, -2147483647 - 1);
}

TEST(TraceIo, MutatedCsvFailsOnlyWithVidurErrors) {
  // Seeded byte flips, truncations, short deletions and hostile token
  // insertions into a valid tagged trace. Each mutant must load or throw
  // vidur::Error, and every trace that loads must hold what the engine
  // relies on: finite non-negative arrivals in order, token counts,
  // tenant and priority in the 32-bit range, unique ids.
  Trace original = generate_trace(trace_by_name("chat1m"),
                                  ArrivalSpec{ArrivalKind::kPoisson, 2.0, 0},
                                  12, 11);
  for (std::size_t i = 0; i < original.size(); ++i) {
    original[i].tenant = static_cast<TenantId>(i % 3);
    original[i].priority = static_cast<int>(i % 2);
  }
  const std::string text = trace_to_csv(original);
  const std::vector<std::string> tokens = {
      "nan", "inf", "-inf", "1e400", "1e-400", "0x1p4", "-0",
      "9223372036854775807", "9223372036854775808", "4294967296",
      "2147483648", "-2147483649", "-1", "0", ",", "\n", " "};
  Rng rng(20261017);
  const auto below = [&rng](std::size_t n) {
    return static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
  };
  constexpr TokenCount kMax32 = 2147483647;
  int loaded = 0;
  for (int i = 0; i < 4000; ++i) {
    std::string mutant = text;
    const std::size_t pos = below(mutant.size());
    switch (rng.uniform_int(0, 3)) {
      case 0:
        mutant[pos] = static_cast<char>(mutant[pos] ^ (1 << below(8)));
        break;
      case 1:
        mutant.resize(pos);
        break;
      case 2:
        mutant.erase(pos, 1 + below(8));
        break;
      default:
        mutant.insert(pos, tokens[below(tokens.size())]);
        break;
    }
    try {
      const Trace trace = trace_from_csv(mutant);
      ++loaded;
      std::unordered_set<RequestId> ids;
      for (std::size_t k = 0; k < trace.size(); ++k) {
        const Request& r = trace[k];
        EXPECT_TRUE(std::isfinite(r.arrival_time) && r.arrival_time >= 0)
            << mutant;
        if (k > 0) {
          EXPECT_LE(trace[k - 1].arrival_time, r.arrival_time);
        }
        EXPECT_TRUE(r.prefill_tokens >= 1 && r.prefill_tokens <= kMax32);
        EXPECT_TRUE(r.decode_tokens >= 1 && r.decode_tokens <= kMax32);
        EXPECT_GE(r.tenant, 0);
        EXPECT_TRUE(ids.insert(r.id).second);
      }
    } catch (const Error&) {
    } catch (const std::exception& e) {
      ADD_FAILURE() << e.what() << " escaped for\n" << mutant;
    }
  }
  // Enough mutants must load for the contract checks to mean something.
  EXPECT_GT(loaded, 500);
}

TEST(TraceIo, LargeTokenCountsSurviveRoundTrip) {
  Trace original;
  original.push_back(Request{0, 0.0, 1'000'000'000LL, 2'000'000'000LL});
  const Trace loaded = trace_from_csv(trace_to_csv(original));
  EXPECT_EQ(loaded[0].prefill_tokens, 1'000'000'000LL);
  EXPECT_EQ(loaded[0].decode_tokens, 2'000'000'000LL);
}

}  // namespace
}  // namespace vidur
