// Tests for src/scenario: rate profiles (shape + empirical arrival rate),
// multi-tenant trace composition (shares, tags, determinism), the scenario
// registry, and per-tenant metric attribution.
#include <gtest/gtest.h>

#include <cmath>

#include "common/check.h"
#include "common/stats.h"
#include "metrics/metrics.h"
#include "scenario/registry.h"
#include "scenario/scenario.h"

namespace vidur {
namespace {

// ------------------------------------------------------------ RateProfile

TEST(RateProfile, ConstantIsOneEverywhere) {
  const RateProfile p = RateProfile::constant();
  EXPECT_DOUBLE_EQ(p.factor_at(0.0), 1.0);
  EXPECT_DOUBLE_EQ(p.factor_at(12345.0), 1.0);
  EXPECT_DOUBLE_EQ(p.peak_factor(), 1.0);
}

TEST(RateProfile, DiurnalOscillatesBetweenLowAndHigh) {
  const RateProfile p = RateProfile::diurnal(/*period=*/100.0, 0.5, 1.5);
  EXPECT_NEAR(p.factor_at(0.0), 1.0, 1e-12);    // midpoint, rising
  EXPECT_NEAR(p.factor_at(25.0), 1.5, 1e-12);   // crest at period/4
  EXPECT_NEAR(p.factor_at(75.0), 0.5, 1e-12);   // trough at 3/4 period
  EXPECT_NEAR(p.factor_at(100.0), 1.0, 1e-9);   // periodic
  EXPECT_DOUBLE_EQ(p.peak_factor(), 1.5);
  for (double t = 0; t < 200; t += 1.7) {
    EXPECT_GE(p.factor_at(t), 0.5 - 1e-12);
    EXPECT_LE(p.factor_at(t), 1.5 + 1e-12);
  }
}

TEST(RateProfile, RampInterpolatesThenHolds) {
  const RateProfile p = RateProfile::ramp(1.0, 3.0, /*duration=*/10.0);
  EXPECT_DOUBLE_EQ(p.factor_at(0.0), 1.0);
  EXPECT_DOUBLE_EQ(p.factor_at(5.0), 2.0);
  EXPECT_DOUBLE_EQ(p.factor_at(10.0), 3.0);
  EXPECT_DOUBLE_EQ(p.factor_at(1000.0), 3.0);
  EXPECT_DOUBLE_EQ(p.peak_factor(), 3.0);
}

TEST(RateProfile, SpikeWindowIsHalfOpen) {
  const RateProfile p = RateProfile::spike(1.0, 5.0, /*start=*/10.0,
                                           /*duration=*/5.0);
  EXPECT_DOUBLE_EQ(p.factor_at(9.999), 1.0);
  EXPECT_DOUBLE_EQ(p.factor_at(10.0), 5.0);
  EXPECT_DOUBLE_EQ(p.factor_at(14.999), 5.0);
  EXPECT_DOUBLE_EQ(p.factor_at(15.0), 1.0);
  EXPECT_DOUBLE_EQ(p.peak_factor(), 5.0);
}

TEST(RateProfile, PiecewiseStepsHold) {
  const RateProfile p = RateProfile::piecewise(
      {RateStep{0.0, 0.5}, RateStep{10.0, 2.0}, RateStep{20.0, 1.0}});
  EXPECT_DOUBLE_EQ(p.factor_at(0.0), 0.5);
  EXPECT_DOUBLE_EQ(p.factor_at(9.9), 0.5);
  EXPECT_DOUBLE_EQ(p.factor_at(10.0), 2.0);
  EXPECT_DOUBLE_EQ(p.factor_at(25.0), 1.0);
  EXPECT_DOUBLE_EQ(p.peak_factor(), 2.0);
}

TEST(RateProfile, MeanFactorMatchesAnalyticAverages) {
  // Full diurnal period averages to the midpoint.
  EXPECT_NEAR(RateProfile::diurnal(100.0, 0.5, 1.5).mean_factor(100.0), 1.0,
              1e-3);
  // Ramp 1->3 over 10s then hold: mean over [0,20] = (2*10 + 3*10) / 20.
  EXPECT_NEAR(RateProfile::ramp(1.0, 3.0, 10.0).mean_factor(20.0), 2.5,
              1e-3);
  // Spike 4x for a quarter of the horizon: 0.75*1 + 0.25*4.
  EXPECT_NEAR(
      RateProfile::spike(1.0, 4.0, 10.0, 25.0).mean_factor(100.0), 1.75,
      0.01);
  EXPECT_DOUBLE_EQ(RateProfile::constant().mean_factor(50.0), 1.0);
}

TEST(RateProfile, ExpectedRequestsBudgetsTraceSizes) {
  Scenario s;
  s.name = "budget";
  s.tenants = {TenantSpec{.name = "t", .trace = trace_by_name("chat1m")}};
  s.arrival = ArrivalSpec{ArrivalKind::kPoisson, 10.0, 0};
  s.profile = RateProfile::spike(1.0, 4.0, 100.0, 100.0);
  s.num_requests = 1 << 20;  // effectively unbounded
  s.max_duration = 300.0;
  // Expected over [0,300]: 10 qps * (200s at 1x + 100s at 4x) = 6000.
  const double expected = s.expected_requests(300.0);
  EXPECT_NEAR(expected, 6000.0, 10.0);
  const Trace trace = generate_scenario_trace(s, 29);
  EXPECT_NEAR(static_cast<double>(trace.size()), expected,
              0.05 * expected);
}

TEST(RateProfile, InvalidParametersThrow) {
  EXPECT_THROW(RateProfile::diurnal(0.0, 0.5, 1.5), Error);    // period
  EXPECT_THROW(RateProfile::diurnal(10.0, 2.0, 1.0), Error);   // low > high
  EXPECT_THROW(RateProfile::diurnal(10.0, -1.0, 1.0), Error);  // negative
  EXPECT_THROW(RateProfile::ramp(1.0, 2.0, 0.0), Error);
  EXPECT_THROW(RateProfile::spike(1.0, 4.0, -1.0, 5.0), Error);
  EXPECT_THROW(RateProfile::spike(1.0, 4.0, 0.0, 0.0), Error);
  EXPECT_THROW(RateProfile::piecewise({}), Error);
  EXPECT_THROW(RateProfile::piecewise({RateStep{5.0, 1.0}}), Error);
  EXPECT_THROW(RateProfile::piecewise(
                   {RateStep{0.0, 1.0}, RateStep{0.0, 2.0}}),
               Error);
  EXPECT_THROW(RateProfile::piecewise({RateStep{0.0, 0.0}}), Error);
}

// --------------------------------------------------- empirical arrival rate

Scenario single_tenant_scenario(RateProfile profile, double qps,
                                int num_requests) {
  Scenario s;
  s.name = "test";
  s.tenants = {TenantSpec{.name = "t", .trace = trace_by_name("chat1m")}};
  s.arrival = ArrivalSpec{ArrivalKind::kPoisson, qps, 0};
  s.profile = std::move(profile);
  s.num_requests = num_requests;
  return s;
}

/// Arrivals per second within [lo, hi).
double window_rate(const Trace& trace, Seconds lo, Seconds hi) {
  int n = 0;
  for (const Request& r : trace)
    if (r.arrival_time >= lo && r.arrival_time < hi) ++n;
  return n / (hi - lo);
}

TEST(ScenarioArrivals, SpikeEmpiricalRateMatchesProfile) {
  // 10 qps baseline with a 4x burst in [100, 200): the thinned process must
  // reproduce both levels.
  // ~5000 arrivals are expected by t=200, so a 6000 budget guarantees the
  // trace covers both measurement windows.
  Scenario s = single_tenant_scenario(
      RateProfile::spike(1.0, 4.0, 100.0, 100.0), /*qps=*/10.0, 6000);
  const Trace trace = generate_scenario_trace(s, 11);
  const double base = window_rate(trace, 0.0, 100.0);
  const double burst = window_rate(trace, 100.0, 200.0);
  EXPECT_NEAR(base, 10.0, 1.5);
  EXPECT_NEAR(burst, 40.0, 4.0);
}

TEST(ScenarioArrivals, RampEmpiricalRateMatchesProfile) {
  Scenario s = single_tenant_scenario(RateProfile::ramp(0.5, 2.0, 100.0),
                                      /*qps=*/10.0, 3000);
  const Trace trace = generate_scenario_trace(s, 13);
  EXPECT_NEAR(window_rate(trace, 0.0, 20.0), 10.0 * 0.65, 2.0);
  EXPECT_NEAR(window_rate(trace, 80.0, 100.0), 10.0 * 1.85, 2.5);
  EXPECT_NEAR(window_rate(trace, 100.0, 150.0), 20.0, 2.5);
}

TEST(ScenarioArrivals, DiurnalPeakAndTroughWindows) {
  // period 400s in [0.25, 1.75]: crest around t=100, trough around t=300.
  Scenario s = single_tenant_scenario(
      RateProfile::diurnal(400.0, 0.25, 1.75), /*qps=*/10.0, 4000);
  const Trace trace = generate_scenario_trace(s, 17);
  const double crest = window_rate(trace, 60.0, 140.0);
  const double trough = window_rate(trace, 260.0, 340.0);
  EXPECT_GT(crest, 2.5 * trough);
  EXPECT_NEAR(crest, 16.4, 2.5);   // mean factor over the crest window
  EXPECT_NEAR(trough, 3.6, 1.5);
}

TEST(ScenarioArrivals, ArrivalsSortedAndIdsSequential) {
  Scenario s = single_tenant_scenario(
      RateProfile::diurnal(100.0, 0.5, 1.5), 5.0, 500);
  const Trace trace = generate_scenario_trace(s, 3);
  ASSERT_EQ(trace.size(), 500u);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(trace[i].id, static_cast<RequestId>(i));
    if (i > 0) {
      EXPECT_GE(trace[i].arrival_time, trace[i - 1].arrival_time);
    }
  }
}

TEST(ScenarioArrivals, MaxDurationTruncates) {
  Scenario s = single_tenant_scenario(RateProfile::constant(), 10.0, 100000);
  s.max_duration = 20.0;
  const Trace trace = generate_scenario_trace(s, 5);
  EXPECT_LT(trace.size(), 100000u);
  EXPECT_GT(trace.size(), 100u);  // ~200 expected
  for (const Request& r : trace) EXPECT_LE(r.arrival_time, 20.0);
}

TEST(ScenarioArrivals, StarvingProfileThrowsInsteadOfSpinning) {
  // After t=1 the schedule is permanently (near) zero with no max_duration:
  // generation must fail loudly, not loop forever.
  Scenario s = single_tenant_scenario(
      RateProfile::piecewise({RateStep{0.0, 1e-9}, RateStep{1.0, 0.0}}),
      10.0, 1000);
  EXPECT_THROW(generate_scenario_trace(s, 1), Error);
}

// ------------------------------------------------------------ tenant mixes

Scenario two_tenant_scenario() {
  Scenario s;
  s.name = "mix";
  s.tenants = {TenantSpec{.name = "chat",
                          .trace = trace_by_name("chat1m"),
                          .share = 3.0,
                          .priority = 2,
                          .slo = SloSpec{1.0, 0.2}},
               TenantSpec{.name = "paper",
                          .trace = trace_by_name("arxiv4k"),
                          .share = 1.0,
                          .priority = 0}};
  s.arrival = ArrivalSpec{ArrivalKind::kGamma, 4.0, 2.0};
  s.profile = RateProfile::spike(1.0, 3.0, 50.0, 50.0);
  s.num_requests = 4000;
  return s;
}

TEST(TenantMix, SharesAreRespected) {
  const Trace trace = generate_scenario_trace(two_tenant_scenario(), 21);
  std::size_t chat = 0;
  for (const Request& r : trace) chat += r.tenant == 0 ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(chat) / trace.size(), 0.75, 0.03);
}

TEST(TenantMix, TagsCarryTenantAndPriority) {
  const Trace trace = generate_scenario_trace(two_tenant_scenario(), 21);
  for (const Request& r : trace) {
    ASSERT_TRUE(r.tenant == 0 || r.tenant == 1);
    EXPECT_EQ(r.priority, r.tenant == 0 ? 2 : 0);
  }
}

TEST(TenantMix, LengthsFollowEachTenantsTrace) {
  const Trace trace = generate_scenario_trace(two_tenant_scenario(), 23);
  SampleSeries chat_prefill, paper_prefill;
  for (const Request& r : trace)
    (r.tenant == 0 ? chat_prefill : paper_prefill)
        .add(static_cast<double>(r.prefill_tokens));
  // arxiv4k prefills (median ~2730) dwarf chat1m prefills (median ~417).
  EXPECT_GT(paper_prefill.median(), 4.0 * chat_prefill.median());
}

TEST(TenantMix, SameSeedSameTrace) {
  const Trace a = generate_scenario_trace(two_tenant_scenario(), 99);
  const Trace b = generate_scenario_trace(two_tenant_scenario(), 99);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].tenant, b[i].tenant);
    EXPECT_EQ(a[i].prefill_tokens, b[i].prefill_tokens);
    EXPECT_EQ(a[i].decode_tokens, b[i].decode_tokens);
    EXPECT_DOUBLE_EQ(a[i].arrival_time, b[i].arrival_time);
  }
}

TEST(TenantMix, DifferentSeedsDiffer) {
  const Trace a = generate_scenario_trace(two_tenant_scenario(), 1);
  const Trace b = generate_scenario_trace(two_tenant_scenario(), 2);
  int differing = 0;
  const std::size_t n = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < n; ++i)
    differing += a[i].prefill_tokens != b[i].prefill_tokens ? 1 : 0;
  EXPECT_GT(differing, static_cast<int>(n / 2));
}

TEST(TenantMix, StaticArrivalsMixTenantsAtTimeZero) {
  Scenario s = two_tenant_scenario();
  s.arrival = ArrivalSpec{ArrivalKind::kStatic, 0, 0};
  s.profile = RateProfile::constant();
  s.num_requests = 500;
  const Trace trace = generate_scenario_trace(s, 5);
  ASSERT_EQ(trace.size(), 500u);
  bool saw_both = false;
  for (const Request& r : trace) {
    EXPECT_EQ(r.arrival_time, 0.0);
    saw_both = saw_both || r.tenant == 1;
  }
  EXPECT_TRUE(saw_both);
}

TEST(ScenarioValidation, RejectsDegenerateScenarios) {
  Scenario s = two_tenant_scenario();
  s.tenants.clear();
  EXPECT_THROW(s.validate(), Error);

  s = two_tenant_scenario();
  s.tenants[1].name = "chat";  // duplicate
  EXPECT_THROW(s.validate(), Error);

  s = two_tenant_scenario();
  s.tenants[0].share = 0.0;
  EXPECT_THROW(s.validate(), Error);

  s = two_tenant_scenario();
  s.num_requests = 0;
  EXPECT_THROW(s.validate(), Error);

  // A time-varying profile over static arrivals is meaningless.
  s = two_tenant_scenario();
  s.arrival = ArrivalSpec{ArrivalKind::kStatic, 0, 0};
  EXPECT_THROW(s.validate(), Error);
}

// --------------------------------------------------------------- registry

TEST(Registry, BuiltinsAreRegisteredAndValid) {
  const auto& names = builtin_scenario_names();
  EXPECT_GE(names.size(), 3u);
  for (const std::string& name : names) {
    const Scenario& s = scenario_by_name(name);
    EXPECT_EQ(s.name, name);
    EXPECT_NO_THROW(s.validate());
  }
  EXPECT_TRUE(ScenarioRegistry::instance().contains("diurnal-chat"));
  EXPECT_TRUE(ScenarioRegistry::instance().contains("flash-crowd-mixed"));
  EXPECT_TRUE(ScenarioRegistry::instance().contains("batch-over-interactive"));
}

TEST(Registry, UnknownScenarioThrows) {
  EXPECT_THROW(scenario_by_name("no-such-scenario"), Error);
}

TEST(Registry, ProgrammaticRegistrationAndDuplicateRejection) {
  Scenario s = two_tenant_scenario();
  s.name = "test-programmatic";
  if (!ScenarioRegistry::instance().contains(s.name))
    ScenarioRegistry::instance().add(s);
  EXPECT_TRUE(ScenarioRegistry::instance().contains(s.name));
  EXPECT_EQ(scenario_by_name(s.name).tenants.size(), 2u);
  EXPECT_THROW(ScenarioRegistry::instance().add(s), Error);  // duplicate
}

TEST(Registry, BuiltinTracesAreDeterministic) {
  for (const std::string& name : builtin_scenario_names()) {
    Scenario s = scenario_by_name(name);
    s.num_requests = 200;
    const Trace a = generate_scenario_trace(s, 42);
    const Trace b = generate_scenario_trace(s, 42);
    ASSERT_EQ(a.size(), b.size()) << name;
    for (std::size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(a[i].tenant, b[i].tenant) << name;
      ASSERT_EQ(a[i].prefill_tokens, b[i].prefill_tokens) << name;
      ASSERT_DOUBLE_EQ(a[i].arrival_time, b[i].arrival_time) << name;
    }
  }
}

// ---------------------------------------------------- per-tenant metrics

RequestRecord completed_record(RequestId id, TenantId tenant, Seconds ttft,
                               Seconds tbt_gap, int decode_tokens = 3) {
  RequestRecord r;
  r.id = id;
  r.tenant = tenant;
  r.arrival_time = 0.0;
  r.first_scheduled_time = 0.0;
  r.prefill_completed_time = ttft;
  r.decode_tokens = decode_tokens;
  r.prefill_tokens = 10;
  std::vector<Seconds> times;
  for (int i = 0; i < decode_tokens; ++i) times.push_back(ttft + i * tbt_gap);
  r.token_times = TokenTimes(times);
  r.completed_time = r.token_times.back();
  return r;
}

TEST(TenantMetrics, UntaggedSingleTenantRunHasNoBreakdown) {
  MetricsCollector collector(1, 1e12, 1);
  collector.record_request(completed_record(0, 0, 0.1, 0.02));
  const SimulationMetrics m = collector.finalize(1.0);
  EXPECT_TRUE(m.tenant_metrics.empty());
  EXPECT_TRUE(m.tenant_table().empty());
}

TEST(TenantMetrics, BreakdownGroupsByTenant) {
  MetricsCollector collector(1, 1e12, 1);
  collector.set_tenants(
      {TenantInfo{0, "fast", 1, SloSpec{0.5, 0.1}},
       TenantInfo{1, "slow", 0, SloSpec{}}});
  // fast: one request inside SLO, one with a late first token.
  collector.record_request(completed_record(0, 0, 0.2, 0.05));
  collector.record_request(completed_record(1, 0, 2.0, 0.05));
  // slow: no SLO configured.
  collector.record_request(completed_record(2, 1, 4.0, 0.5));
  const SimulationMetrics m = collector.finalize(10.0);

  ASSERT_EQ(m.tenant_metrics.size(), 2u);
  const auto& fast = m.tenant_metrics[0];
  const auto& slow = m.tenant_metrics[1];
  EXPECT_EQ(fast.info.name, "fast");
  EXPECT_EQ(fast.num_requests, 2u);
  EXPECT_EQ(fast.num_completed, 2u);
  EXPECT_NEAR(fast.slo_attainment, 0.5, 1e-12);
  EXPECT_NEAR(fast.throughput_qps, 0.2, 1e-12);
  EXPECT_EQ(slow.info.name, "slow");
  EXPECT_EQ(slow.num_requests, 1u);
  EXPECT_LT(slow.slo_attainment, 0.0);  // no SLO -> sentinel
  EXPECT_FALSE(m.tenant_table().empty());
}

TEST(TenantMetrics, TbtTargetViolationsCountAgainstSlo) {
  MetricsCollector collector(1, 1e12, 1);
  collector.set_tenants({TenantInfo{0, "t", 0, SloSpec{10.0, 0.1}}});
  collector.record_request(completed_record(0, 0, 0.1, 0.05));  // ok
  collector.record_request(completed_record(1, 0, 0.1, 0.2));   // tbt miss
  const SimulationMetrics m = collector.finalize(10.0);
  ASSERT_EQ(m.tenant_metrics.size(), 1u);
  EXPECT_NEAR(m.tenant_metrics[0].slo_attainment, 0.5, 1e-12);
}

TEST(TenantMetrics, IncompleteRequestsAreSloMisses) {
  MetricsCollector collector(1, 1e12, 1);
  collector.set_tenants({TenantInfo{0, "t", 0, SloSpec{10.0, 10.0}}});
  collector.record_request(completed_record(0, 0, 0.1, 0.05));
  RequestRecord unfinished;
  unfinished.id = 1;
  unfinished.tenant = 0;
  collector.record_request(unfinished);
  const SimulationMetrics m = collector.finalize(10.0);
  ASSERT_EQ(m.tenant_metrics.size(), 1u);
  EXPECT_EQ(m.tenant_metrics[0].num_requests, 2u);
  EXPECT_EQ(m.tenant_metrics[0].num_completed, 1u);
  EXPECT_NEAR(m.tenant_metrics[0].slo_attainment, 0.5, 1e-12);
}

TEST(TenantMetrics, UnregisteredTagsGetGeneratedNames) {
  MetricsCollector collector(1, 1e12, 1);
  collector.record_request(completed_record(0, 3, 0.1, 0.05));
  const SimulationMetrics m = collector.finalize(1.0);
  ASSERT_EQ(m.tenant_metrics.size(), 1u);
  EXPECT_EQ(m.tenant_metrics[0].info.name, "tenant3");
  EXPECT_LT(m.tenant_metrics[0].slo_attainment, 0.0);
}

TEST(TenantMetrics, TenantInfosMatchScenario) {
  const Scenario s = scenario_by_name("flash-crowd-mixed");
  const auto infos = s.tenant_infos();
  ASSERT_EQ(infos.size(), s.tenants.size());
  for (std::size_t i = 0; i < infos.size(); ++i) {
    EXPECT_EQ(infos[i].id, static_cast<TenantId>(i));
    EXPECT_EQ(infos[i].name, s.tenants[i].name);
    EXPECT_EQ(infos[i].priority, s.tenants[i].priority);
  }
}

}  // namespace
}  // namespace vidur
