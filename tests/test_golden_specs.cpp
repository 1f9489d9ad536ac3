// Golden-spec regression tests: the committed heterogeneous specs replay
// end to end through run_experiment() and their headline metrics must stay
// within tolerance of the committed goldens. The goldens pin down the
// *behavior* the specs demonstrate — the mixed-SKU fleet saving GPU-hours
// at intact SLO attainment, the disaggregated pools scaling on independent
// signals — so a regression in routing, scaling, or billing shows up as a
// drifted number, not a silently different story.
//
// Tolerances are relative (kTol) for continuous metrics; structural facts
// (request counts, which pools scaled) are exact.
#include <gtest/gtest.h>

#include <algorithm>
#include <exception>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "api/run.h"
#include "common/random.h"
#include "scenario/registry.h"
#include "scenario/scenario.h"

namespace vidur {
namespace {

constexpr double kTol = 0.02;  ///< 2% relative tolerance

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

ExperimentSpec load_spec(const std::string& name) {
  return ExperimentSpec::from_json_string(
      read_file(std::filesystem::path(VIDUR_SPEC_DIR) / name));
}

/// Every committed spec file, sorted by name.
std::vector<std::filesystem::path> spec_paths() {
  std::vector<std::filesystem::path> paths;
  for (const auto& entry :
       std::filesystem::directory_iterator(VIDUR_SPEC_DIR))
    if (entry.path().extension() == ".json") paths.push_back(entry.path());
  std::sort(paths.begin(), paths.end());
  return paths;
}

void expect_near_rel(double actual, double golden, const char* what) {
  EXPECT_NEAR(actual, golden, std::abs(golden) * kTol + 1e-12) << what;
}

const PoolScalingReport& pool_named(
    const std::vector<PoolScalingReport>& pools, const std::string& name) {
  for (const PoolScalingReport& p : pools)
    if (p.name == name) return p;
  ADD_FAILURE() << "missing pool report '" << name << "'";
  static const PoolScalingReport kEmpty;
  return kEmpty;
}

TEST(GoldenSpecs, ElasticHeteroPlanMatchesGoldens) {
  const ExperimentSpec spec = load_spec("elastic-hetero.json");
  EXPECT_NO_THROW(spec.validate());
  const ExperimentResult result = run_experiment(spec);
  ASSERT_FALSE(result.failed()) << result.error;
  const ElasticPlanResult& plan = result.elastic;

  // Static peak: both pools pinned at their ceilings (3 + 2 slots).
  EXPECT_EQ(plan.static_peak.fleet_size, 5);
  EXPECT_TRUE(plan.static_feasible);
  expect_near_rel(plan.static_peak.gpu_hours, 0.151018,
                  "static peak GPU-hours");
  expect_near_rel(plan.static_peak.cost_usd, 0.754182, "static peak cost");
  EXPECT_EQ(plan.static_peak.slo_attainment, 1.0);

  // Autoscaled: the same trace at well under half the GPU-hours, with SLO
  // attainment intact, and both SKU pools demonstrably elastic.
  expect_near_rel(plan.autoscaled.gpu_hours, 0.081249,
                  "autoscaled GPU-hours");
  expect_near_rel(plan.autoscaled.cost_usd, 0.430320, "autoscaled cost");
  expect_near_rel(plan.cost_savings_pct, 46.20, "GPU-hour savings pct");
  EXPECT_GE(plan.autoscaled.slo_attainment, 0.99);
  ASSERT_EQ(plan.autoscaled.pools.size(), 2u);
  const PoolScalingReport& a100 =
      pool_named(plan.autoscaled.pools, "a100-pool");
  const PoolScalingReport& h100 =
      pool_named(plan.autoscaled.pools, "h100-pool");
  EXPECT_EQ(a100.sku, "a100");
  EXPECT_EQ(h100.sku, "h100");
  EXPECT_GE(a100.num_scale_up_events + h100.num_scale_up_events, 2);
  expect_near_rel(a100.gpu_hours, 0.041330, "a100 pool GPU-hours");
  expect_near_rel(h100.gpu_hours, 0.039920, "h100 pool GPU-hours");
  // The per-pool breakout must add up to the fleet totals.
  EXPECT_NEAR(a100.gpu_hours + h100.gpu_hours, plan.autoscaled.gpu_hours,
              1e-9);
  EXPECT_NEAR(a100.cost_usd + h100.cost_usd, plan.autoscaled.cost_usd, 1e-9);
}

TEST(GoldenSpecs, DisaggAutoscaleSimulationMatchesGoldens) {
  const ExperimentSpec spec = load_spec("disagg-autoscale.json");
  EXPECT_NO_THROW(spec.validate());
  const ExperimentResult result = run_experiment(spec);
  ASSERT_FALSE(result.failed()) << result.error;
  const SimulationMetrics& m = result.metrics;

  EXPECT_EQ(m.num_requests, 500u);
  EXPECT_EQ(m.num_completed, 500u);
  expect_near_rel(m.makespan, 110.7247, "makespan");
  expect_near_rel(m.throughput_qps, 4.5157, "throughput");
  expect_near_rel(m.ttft.p90, 1.66155, "TTFT p90");
  expect_near_rel(m.tbt.p99, 0.0357540, "TBT p99");
  expect_near_rel(m.aggregate_slo_attainment(), 0.956, "SLO attainment");

  // The fleet scaled, and both roles scaled *independently*: the prefill
  // pool on queue depth and the decode pool on KV pressure each ordered
  // capacity during the flash crowd.
  ASSERT_TRUE(m.scaling.enabled);
  expect_near_rel(m.scaling.gpu_hours, 0.102750, "fleet GPU-hours");
  ASSERT_EQ(m.scaling.pools.size(), 2u);
  const PoolScalingReport& prefill =
      pool_named(m.scaling.pools, "prefill-pool");
  const PoolScalingReport& decode =
      pool_named(m.scaling.pools, "decode-pool");
  EXPECT_EQ(prefill.role, "prefill");
  EXPECT_EQ(decode.role, "decode");
  EXPECT_GE(prefill.num_scale_up_events, 1);
  EXPECT_GE(decode.num_scale_up_events, 1);
  EXPECT_EQ(prefill.num_scale_up_events, 2);
  EXPECT_EQ(decode.num_scale_up_events, 2);
  expect_near_rel(prefill.gpu_hours, 0.047424, "prefill pool GPU-hours");
  expect_near_rel(decode.gpu_hours, 0.055327, "decode pool GPU-hours");
  EXPECT_NEAR(prefill.gpu_hours + decode.gpu_hours, m.scaling.gpu_hours,
              1e-9);
}

TEST(GoldenSpecs, SessionChatPrefixCacheSavesPrefillWork) {
  // The committed prefix-cache spec: multi-turn sessions over a shared
  // system prompt, cache-aware routing across two replicas. The golden
  // fact is the subsystem's reason to exist — a large, exactly-accounted
  // fraction of prefill work served from cache.
  const ExperimentSpec spec = load_spec("session-chat.json");
  EXPECT_NO_THROW(spec.validate());
  const ExperimentResult result = run_experiment(spec);
  ASSERT_FALSE(result.failed()) << result.error;
  const SimulationMetrics& m = result.metrics;

  EXPECT_EQ(m.num_requests, 300u);
  EXPECT_EQ(m.num_completed, 300u);
  ASSERT_TRUE(m.prefix_cache.enabled);
  EXPECT_EQ(m.prefix_cache.lookups, 300);
  EXPECT_EQ(m.prefix_cache.hits + m.prefix_cache.misses,
            m.prefix_cache.lookups);
  EXPECT_GT(m.prefix_cache.hits, 0);

  // >= 30% of the workload's total prefill tokens come from the cache
  // (the acceptance gate bench_kvcache enforces, replayed here exactly).
  const Scenario scenario = [&] {
    Scenario s = scenario_by_name("session-chat");
    s.num_requests = spec.workload.num_requests;
    return s;
  }();
  TokenCount total_prefill = 0;
  for (const Request& r : generate_scenario_trace(scenario, spec.seed))
    total_prefill += r.prefill_tokens;
  ASSERT_GT(total_prefill, 0);
  EXPECT_GE(static_cast<double>(m.prefix_cache.tokens_saved),
            0.30 * static_cast<double>(total_prefill));

  // The result JSON carries the cache section with the same numbers.
  const JsonValue j = result.to_json();
  const JsonValue* pc = j.find("prefix_cache");
  ASSERT_NE(pc, nullptr);
  EXPECT_EQ(pc->at("lookups").as_int(), m.prefix_cache.lookups);
  EXPECT_EQ(pc->at("prefill_tokens_saved").as_int(),
            m.prefix_cache.tokens_saved);
  ASSERT_NE(pc->find("by_tenant"), nullptr);
}

TEST(GoldenSpecs, SpotChurnSurvivesPreemptionWithoutLosingRequests) {
  // The committed chaos spec: multi-turn chat + background batch over an
  // elastic 3-replica pool that loses capacity to two spot-preemption
  // windows (one abrupt 2-replica reclaim, one with a drain notice). The
  // golden facts are the resilience story: every reclaim is repaired by
  // the autoscaler (MTTR > 0), failed work retries instead of vanishing,
  // the shed floor drops only low-priority traffic, and no request is
  // ever lost or double-completed.
  const ExperimentSpec spec = load_spec("spot-churn.json");
  EXPECT_NO_THROW(spec.validate());
  const ExperimentResult result = run_experiment(spec);
  ASSERT_FALSE(result.failed()) << result.error;
  const SimulationMetrics& m = result.metrics;

  EXPECT_EQ(m.num_requests, 400u);
  ASSERT_TRUE(m.resilience.enabled);
  // Request conservation: every arrival either completed or was shed by
  // the capacity floor; nothing lost, nothing duplicated.
  EXPECT_EQ(m.resilience.num_lost, 0);
  EXPECT_EQ(static_cast<std::int64_t>(m.num_completed) +
                m.resilience.num_shed,
            static_cast<std::int64_t>(m.num_requests));
  EXPECT_EQ(m.num_completed, 372u);

  // Fault + recovery structure: three replicas reclaimed across the two
  // windows, the abrupt kill forced at least one restart-with-backoff
  // (re-prefilling the tokens it lost), and the autoscaler closed both
  // first-window capacity holes.
  EXPECT_EQ(m.resilience.num_crashes, 0);
  EXPECT_EQ(m.resilience.num_spot_reclaims, 3);
  EXPECT_GE(m.resilience.num_retries, 1);
  EXPECT_GT(m.resilience.tokens_reprefilled, 0);
  EXPECT_EQ(m.resilience.num_repairs, 2);
  EXPECT_GT(m.resilience.mttr_s, 0.0);
  expect_near_rel(m.resilience.mttr_s, 53.5, "MTTR");

  // SLO attainment stays in the pinned band despite the churn, and the
  // blame split shows untouched requests were unharmed.
  expect_near_rel(m.aggregate_slo_attainment(), 0.93, "SLO attainment");
  EXPECT_GE(m.aggregate_slo_attainment(), 0.90);
  EXPECT_EQ(m.resilience.slo_attainment_clean, 1.0);

  // Headline throughput numbers hold.
  expect_near_rel(m.makespan, 219.9553, "makespan");
  EXPECT_TRUE(m.prefix_cache.enabled);
  EXPECT_GT(m.prefix_cache.hits, 0);

  // The result JSON carries the resilience section with the same numbers.
  const JsonValue j = result.to_json();
  const JsonValue* res = j.find("resilience");
  ASSERT_NE(res, nullptr);
  EXPECT_EQ(res->at("spot_reclaims").as_int(),
            m.resilience.num_spot_reclaims);
  EXPECT_EQ(res->at("lost").as_int(), 0);
  EXPECT_EQ(res->at("repairs").as_int(), m.resilience.num_repairs);
  ASSERT_NE(res->find("mttr_s"), nullptr);
}

TEST(GoldenSpecs, GoldenSpecsAreCanonicallySerialized) {
  // Every committed spec must be the exact fixed point of the serializer,
  // so hand edits that survive a round trip cannot drift the formatting.
  const std::vector<std::filesystem::path> paths = spec_paths();
  ASSERT_FALSE(paths.empty()) << "no specs in " << VIDUR_SPEC_DIR;
  for (const std::filesystem::path& path : paths) {
    std::string committed = read_file(path);
    const std::string canonical =
        ExperimentSpec::from_json_string(committed).to_json_string();
    // Tolerate exactly one extra trailing newline.
    if (committed == canonical + "\n") committed.pop_back();
    EXPECT_EQ(canonical, committed)
        << path << " is not canonically serialized; regenerate it with "
        << "ExperimentSpec::to_json_string()";
  }
}

TEST(GoldenSpecs, MutatedSpecsFailOnlyWithVidurErrors) {
  // Seeded byte flips, truncations, short deletions and hostile token
  // insertions into every committed spec. Each mutant must parse or throw
  // vidur::Error, and a parsed mutant must validate or throw vidur::Error:
  // no other exception may escape the reader or validate().
  const std::vector<std::string> tokens = {
      "1e400", "\"", "9223372036854775808", "\\ud800", "-1", "2147483648",
      "-9223372036854775809", "1.5", "0", "null", "true", "\"\"", "[]",
      "{}", "{", "}", "[", "]", ",", ":"};
  Rng rng(20261017);
  const auto below = [&rng](std::size_t n) {
    return static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
  };
  int parsed = 0, valid = 0;
  for (const std::filesystem::path& path : spec_paths()) {
    const std::string text = read_file(path);
    for (int i = 0; i < 1000; ++i) {
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
        const ExperimentSpec spec = ExperimentSpec::from_json_string(mutant);
        ++parsed;
        spec.validate();
        ++valid;
      } catch (const Error&) {
      } catch (const std::exception& e) {
        ADD_FAILURE() << path << ": " << e.what() << " escaped for\n"
                      << mutant;
      }
    }
  }
  // Enough mutants must reach past the JSON parser for the harness to
  // exercise the spec reader and validate().
  EXPECT_GT(parsed, 200);
  EXPECT_GT(valid, 100);
}

}  // namespace
}  // namespace vidur
