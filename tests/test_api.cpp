// Tests for src/api: ExperimentSpec JSON round-trip identity across every
// mode, actionable validate() errors (did-you-mean, conflict messages),
// sweep expansion, and run_experiment/run_sweep dispatch parity with the
// direct VidurSession paths.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>

#include "api/run.h"
#include "common/check.h"
#include "scenario/registry.h"

namespace vidur {
namespace {

// ------------------------------------------------------- spec round-trip

/// parse(serialize(s)) == s, via both JsonValue and text.
void expect_round_trip(const ExperimentSpec& spec) {
  const ExperimentSpec reparsed = ExperimentSpec::from_json(spec.to_json());
  EXPECT_EQ(reparsed, spec) << spec.to_json_string();
  EXPECT_EQ(ExperimentSpec::from_json_string(spec.to_json_string()), spec);
}

TEST(ExperimentSpecJson, DefaultSpecRoundTrips) {
  expect_round_trip(ExperimentSpec{});
}

TEST(ExperimentSpecJson, SimulateSpecRoundTrips) {
  ExperimentSpec spec;
  spec.with_name("rt-simulate")
      .with_model("llama2-70b")
      .with_sku("h100")
      .with_parallelism(4, 2, 3)
      .with_scheduler(SchedulerKind::kSarathi, 256, 1024)
      .with_routing(GlobalSchedulerKind::kPriority)
      .with_trace("arxiv4k", 2.5, 333)
      .with_slo(SloSpec{1.0, 0.1})
      .with_seed(0xdeadbeefULL);
  spec.deployment.async_pipeline_comm = true;
  spec.deployment.scheduler.max_tokens_per_iteration = 8192;
  spec.deployment.scheduler.watermark_fraction = 0.05;
  spec.tp_degrees = {1, 2, 4, 8};
  spec.num_threads = 3;
  expect_round_trip(spec);
}

TEST(ExperimentSpecJson, GammaArrivalRoundTrips) {
  ExperimentSpec spec;
  spec.workload.arrival = ArrivalSpec{ArrivalKind::kGamma, 3.25, 4.0};
  expect_round_trip(spec);
}

TEST(ExperimentSpecJson, DisaggSpecRoundTrips) {
  ExperimentSpec spec;
  spec.with_name("rt-disagg").with_parallelism(1, 1, 4);
  spec.deployment.disagg.num_prefill_replicas = 2;
  spec.deployment.disagg.transfer_bandwidth_gbps = 50.0;
  spec.deployment.disagg.transfer_latency = 1e-3;
  expect_round_trip(spec);
}

TEST(ExperimentSpecJson, ReactiveAutoscaleSpecRoundTrips) {
  ExperimentSpec spec;
  spec.with_name("rt-autoscale").with_parallelism(1, 1, 6);
  spec.deployment.autoscale.kind = AutoscalerKind::kReactive;
  spec.deployment.autoscale.min_replicas = 2;
  spec.deployment.autoscale.initial_replicas = 3;
  spec.deployment.autoscale.provision_delay = 12.0;
  spec.deployment.autoscale.warmup_delay = 3.5;
  spec.deployment.autoscale.decision_interval = 2.0;
  spec.deployment.autoscale.scale_down_cooldown = 45.0;
  spec.deployment.autoscale.max_scale_step = 2;
  spec.deployment.autoscale.target_load_per_replica = 9.0;
  spec.deployment.autoscale.scale_up_load = 15.0;
  spec.deployment.autoscale.scale_down_load = 2.0;
  expect_round_trip(spec);
}

TEST(ExperimentSpecJson, PredictiveAutoscaleRoundTripsEveryProfileKind) {
  const RateProfile profiles[] = {
      RateProfile::constant(),
      RateProfile::diurnal(600.0, 0.4, 1.6),
      RateProfile::ramp(0.5, 2.0, 300.0),
      RateProfile::spike(1.0, 4.0, 60.0, 120.0),
      RateProfile::piecewise(
          {RateStep{0.0, 0.5}, RateStep{120.0, 3.0}, RateStep{360.0, 1.0}}),
  };
  for (const RateProfile& profile : profiles) {
    ExperimentSpec spec;
    spec.deployment.autoscale.kind = AutoscalerKind::kPredictive;
    spec.deployment.autoscale.profile = profile;
    spec.deployment.autoscale.baseline_qps = 2.0;
    spec.deployment.autoscale.replica_capacity_qps = 2.5;
    spec.deployment.autoscale.headroom = 0.3;
    spec.deployment.autoscale.lookahead = 40.0;
    expect_round_trip(spec);
  }
}

TEST(ExperimentSpecJson, ScenarioWorkloadRoundTrips) {
  ExperimentSpec spec;
  spec.with_scenario("flash-crowd-mixed");
  expect_round_trip(spec);
  spec.with_scenario("diurnal-chat", 1234);
  expect_round_trip(spec);
}

TEST(ExperimentSpecJson, CapacitySearchSpecRoundTrips) {
  ExperimentSpec spec;
  spec.with_mode(ExperimentMode::kCapacitySearch);
  spec.search.skus = {"a100"};
  spec.search.tp_degrees = {1, 2};
  spec.search.pp_degrees = {1};
  spec.search.max_total_gpus = 8;
  spec.search.schedulers = {SchedulerKind::kVllm, SchedulerKind::kOrca};
  spec.search.batch_sizes = {64, 128};
  spec.search.sarathi_chunk_sizes = {512, 1024};
  spec.search.max_tokens_per_iteration = 2048;
  spec.search.global_scheduler = GlobalSchedulerKind::kLeastOutstanding;
  expect_round_trip(spec);
}

TEST(ExperimentSpecJson, ElasticPlanSpecRoundTrips) {
  ExperimentSpec spec;
  spec.with_mode(ExperimentMode::kElasticPlan)
      .with_scenario("flash-crowd-mixed");
  spec.deployment.autoscale.kind = AutoscalerKind::kReactive;
  spec.elastic.slo_target = 0.97;
  spec.elastic.max_replicas = 6;
  spec.elastic.burst_slots = 1;
  expect_round_trip(spec);
}

TEST(ExperimentSpecJson, SweepSpecRoundTrips) {
  ExperimentSpec spec;
  spec.sweep.sku = {"a100", "h100"};
  spec.sweep.tensor_parallel = {1, 2};
  spec.sweep.pipeline_parallel = {1, 2};
  spec.sweep.num_replicas = {1, 4};
  spec.sweep.scheduler = {"vllm", "sarathi"};
  spec.sweep.max_batch_size = {64, 256};
  spec.sweep.chunk_size = {512, 2048};
  spec.sweep.qps = {0.5, 1.5, 3.0};
  expect_round_trip(spec);
}

TEST(ExperimentSpecJson, ReferenceModeRoundTrips) {
  ExperimentSpec spec;
  spec.with_mode(ExperimentMode::kReference).with_seed(99);
  expect_round_trip(spec);
}

TEST(ExperimentSpecJson, DefaultSectionsAreOmittedFromOutput) {
  const JsonValue j = ExperimentSpec{}.to_json();
  // A default spec stays minimal: no disagg/autoscale/search/sweep noise.
  EXPECT_EQ(j.find("search"), nullptr);
  EXPECT_EQ(j.find("elastic"), nullptr);
  EXPECT_EQ(j.find("sweep"), nullptr);
  EXPECT_EQ(j.at("deployment").find("disagg"), nullptr);
  EXPECT_EQ(j.at("deployment").find("autoscale"), nullptr);
}

TEST(ExperimentSpecJson, ModeNamesRoundTrip) {
  for (const auto mode :
       {ExperimentMode::kSimulate, ExperimentMode::kReference,
        ExperimentMode::kCapacitySearch, ExperimentMode::kElasticPlan})
    EXPECT_EQ(experiment_mode_from_name(experiment_mode_name(mode)), mode);
  EXPECT_THROW(experiment_mode_from_name("simulat"), Error);
}

// ------------------------------------------------- actionable validation

/// Expect validate() to throw with `needle` in the message.
void expect_invalid(const ExperimentSpec& spec, const std::string& needle) {
  try {
    spec.validate();
    FAIL() << "expected vidur::Error containing '" << needle << "'";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "actual message: " << e.what();
  }
}

TEST(ExperimentSpecValidate, UnknownModelSuggestsClosest) {
  ExperimentSpec spec;
  spec.model = "llama-7b";
  expect_invalid(spec, "did you mean 'llama2-7b'?");
}

TEST(ExperimentSpecValidate, UnknownSkuSuggestsClosest) {
  ExperimentSpec spec;
  spec.deployment.sku_name = "a100x";
  expect_invalid(spec, "did you mean 'a100'?");
}

TEST(ExperimentSpecValidate, UnknownTraceSuggestsClosest) {
  ExperimentSpec spec;
  spec.workload.trace = "chat1M";
  expect_invalid(spec, "did you mean 'chat1m'?");
}

TEST(ExperimentSpecValidate, UnknownScenarioSuggestsClosest) {
  ExperimentSpec spec;
  spec.with_scenario("flashcrowd-mixed");
  expect_invalid(spec, "did you mean 'flash-crowd-mixed'?");
}

TEST(ExperimentSpecValidate, UncoveredTensorParallelNamesTpDegrees) {
  ExperimentSpec spec;
  spec.with_parallelism(8, 1, 1);
  expect_invalid(spec, "not covered by the session tp_degrees");
  // Extending tp_degrees fixes it.
  spec.tp_degrees = {1, 2, 4, 8};
  spec.model = "llama2-70b";  // 7B's 32 heads split by 8 is fine too
  EXPECT_NO_THROW(spec.validate());
}

TEST(ExperimentSpecValidate, DisaggPlusAutoscaleConflict) {
  ExperimentSpec spec;
  spec.with_parallelism(1, 1, 4);
  spec.deployment.disagg.num_prefill_replicas = 2;
  spec.deployment.autoscale.kind = AutoscalerKind::kReactive;
  expect_invalid(spec, "cannot be combined");
}

TEST(ExperimentSpecValidate, DisaggRangesAreCheckedWhereSpecsAre) {
  // No decode replica left.
  ExperimentSpec spec;
  spec.with_parallelism(1, 1, 2);
  spec.deployment.disagg.num_prefill_replicas = 2;
  expect_invalid(spec,
                 "deployment.disagg.num_prefill_replicas (2) must be below "
                 "deployment.num_replicas (2)");

  // A zero-bandwidth link, a negative setup latency.
  spec.deployment.disagg.num_prefill_replicas = 1;
  spec.deployment.disagg.transfer_bandwidth_gbps = 0.0;
  expect_invalid(spec, "disagg.transfer_bandwidth_gbps must be finite");
  spec.deployment.disagg.transfer_bandwidth_gbps = 25.0;
  spec.deployment.disagg.transfer_latency = -1.0;
  expect_invalid(spec, "disagg.transfer_latency_s must be finite");

  // A negative count is not "disabled".
  spec = ExperimentSpec{};
  spec.deployment.disagg.num_prefill_replicas = -1;
  expect_invalid(spec, "disagg.num_prefill_replicas must be >= 0");
}

TEST(ExperimentSpecValidate, CapacitySearchRejectsScenarioWorkload) {
  ExperimentSpec spec;
  spec.with_mode(ExperimentMode::kCapacitySearch)
      .with_scenario("diurnal-chat");
  expect_invalid(spec, "needs a synthetic workload");
}

TEST(ExperimentSpecValidate, ElasticPlanNeedsScenarioAndPolicy) {
  ExperimentSpec spec;
  spec.with_mode(ExperimentMode::kElasticPlan);
  expect_invalid(spec, "set workload.scenario");
  spec.with_scenario("flash-crowd-mixed");
  expect_invalid(spec, "deployment.autoscale");
  spec.deployment.autoscale.kind = AutoscalerKind::kReactive;
  EXPECT_NO_THROW(spec.validate());
}

TEST(ExperimentSpecValidate, SweepAxesAreChecked) {
  ExperimentSpec spec;
  spec.sweep.sku = {"h100x"};
  expect_invalid(spec, "did you mean 'h100'?");

  spec = ExperimentSpec{};
  spec.sweep.scheduler = {"sarathi", "vlm"};
  expect_invalid(spec, "did you mean 'vllm'?");

  spec = ExperimentSpec{};
  spec.sweep.tensor_parallel = {1, 8};
  expect_invalid(spec, "tp_degrees");

  spec = ExperimentSpec{};
  spec.with_scenario("diurnal-chat");
  spec.sweep.qps = {1.0, 2.0};
  expect_invalid(spec, "carries its own arrival rate");
}

TEST(ExperimentSpecValidate, SyntheticWorkloadNeedsRequests) {
  ExperimentSpec spec;
  spec.workload.num_requests = 0;
  expect_invalid(spec, "num_requests");
}

TEST(ExperimentSpecJson, UnknownFieldsRejectedWithSuggestion) {
  try {
    ExperimentSpec::from_json_string(R"({"modle": "simulate"})");
    FAIL() << "expected vidur::Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("did you mean 'mode'?"),
              std::string::npos);
  }
  try {
    ExperimentSpec::from_json_string(
        R"({"deployment": {"tensor_paralel": 2}})");
    FAIL() << "expected vidur::Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("did you mean 'tensor_parallel'?"),
              std::string::npos);
  }
}

TEST(ExperimentSpecJson, IllTypedFieldsRejected) {
  EXPECT_THROW(ExperimentSpec::from_json_string(R"({"name": 3})"), Error);
  EXPECT_THROW(
      ExperimentSpec::from_json_string(R"({"deployment": {"sku": 1}})"),
      Error);
  EXPECT_THROW(ExperimentSpec::from_json_string(R"({"seed": "x"})"), Error);
}

TEST(ExperimentSpecJson, OutOfRangeIntFieldsRejectedNotTruncated) {
  try {
    ExperimentSpec::from_json_string(
        R"({"workload": {"num_requests": 5000000000}})");
    FAIL() << "expected vidur::Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("out of the 32-bit integer range"),
              std::string::npos);
  }
}

TEST(ExperimentSpecJson, PresentSectionsParseOntoTheSpecDefaults) {
  // An empty section leaves every field at the spec's default, at every
  // level.
  for (const char* json : {
           R"({"deployment": {}})",
           R"({"deployment": {"scheduler": {}, "disagg": {}}})",
           R"({"deployment": {"autoscale": {"profile": {}}}})",
           R"({"deployment": {"prefix_cache": {}, "execution": {}}})",
           R"({"deployment": {"faults": {"recovery": {}, "shed": {}}}})",
           R"({"workload": {}})",
           R"({"workload": {"arrival": {}}})",
           R"({"slo": {}})",
           R"({"search": {}})",
           R"({"elastic": {}})",
           R"({"obs": {}})",
           R"({"sweep": {}})",
       })
    EXPECT_EQ(ExperimentSpec::from_json_string(json), ExperimentSpec{})
        << json;

  // A partial section keeps the spec's default for every key it omits.
  const ExperimentSpec arrival = ExperimentSpec::from_json_string(
      R"({"workload": {"arrival": {"qps": 3}}})");
  EXPECT_EQ(arrival.workload.arrival,
            (ArrivalSpec{ArrivalKind::kPoisson, 3.0, 2.0}));
  const ExperimentSpec slo =
      ExperimentSpec::from_json_string(R"({"slo": {"ttft_target_s": 1}})");
  EXPECT_EQ(slo.slo, (SloSpec{1.0, 0.2}));
}

TEST(ExperimentSpecJson, ParseErrorsNameTheFullPath) {
  const std::pair<const char*, const char*> cases[] = {
      {R"({"seed": "x"})", "spec field 'seed' must be an integer"},
      {R"({"search": {"skus": "a100"}})",
       "spec field 'search.skus' must be an array"},
      {R"({"obs": {"trace": 1}})", "spec field 'obs.trace' must be a boolean"},
      {R"({"deployment": {"scheduler": {"kind": "vlm"}}})",
       "spec field 'deployment.scheduler.kind': unknown scheduler 'vlm' "
       "(did you mean 'vllm'?)"},
      {R"({"workload": {"arrival": {"kind": "poison"}}})",
       "spec field 'workload.arrival.kind': unknown arrival kind 'poison' "
       "(did you mean 'poisson'?)"},
      {R"({"deployment": {"pools": [
           {"name": "a", "autoscale": {"min_replicas": 1.5}}]}})",
       "spec field 'deployment.pools['a'].autoscale.min_replicas' must be an "
       "integer"},
      {R"({"sweep": {"chunk_size": [512, true]}})",
       "spec field 'sweep.chunk_size[1]' must be an integer"},
  };
  for (const auto& [json, needle] : cases) {
    std::string msg;
    try {
      ExperimentSpec::from_json_string(json);
    } catch (const Error& e) {
      msg = e.what();
    }
    EXPECT_NE(msg.find(needle), std::string::npos) << json << "\n" << msg;
  }
}

TEST(ExperimentSpecValidate, CapacitySearchRejectsCustomArrival) {
  ExperimentSpec spec;
  spec.with_mode(ExperimentMode::kCapacitySearch);
  spec.workload.arrival.qps = 3.0;  // would be silently ignored otherwise
  expect_invalid(spec, "probes its own arrival rates");
  spec.workload.arrival = WorkloadSpec{}.arrival;
  EXPECT_NO_THROW(spec.validate());
}

// ------------------------------------------------------- sweep expansion

TEST(SweepAxes, ExpansionIsCartesianAndNamed) {
  ExperimentSpec spec;
  spec.with_name("grid");
  spec.sweep.qps = {1.0, 2.0};
  spec.sweep.max_batch_size = {64, 128, 256};
  EXPECT_EQ(spec.sweep.num_points(), 6u);

  const std::vector<ExperimentSpec> points = spec.expand_sweep();
  ASSERT_EQ(points.size(), 6u);
  for (const ExperimentSpec& p : points) {
    EXPECT_TRUE(p.sweep.empty());
    EXPECT_NE(p.name.find("grid["), std::string::npos);
    EXPECT_NE(p.name.find("qps="), std::string::npos);
    EXPECT_NE(p.name.find("bs="), std::string::npos);
  }
  // Unswept axes keep the base value; swept ones take each axis value.
  EXPECT_DOUBLE_EQ(points[0].workload.arrival.qps, 1.0);
  EXPECT_DOUBLE_EQ(points.back().workload.arrival.qps, 2.0);
  EXPECT_EQ(points[0].deployment.scheduler.max_batch_size, 64);
  EXPECT_EQ(points.back().deployment.scheduler.max_batch_size, 256);
  EXPECT_EQ(points[0].deployment.sku_name, spec.deployment.sku_name);
}

TEST(SweepAxes, SingleElementAxisStillPinsItsCoordinate) {
  // Regression: a one-value axis is a real sweep of one point, not "no
  // sweep" — the value must replace the base spec's.
  ExperimentSpec spec;
  spec.sweep.qps = {9.0};
  EXPECT_FALSE(spec.sweep.empty());
  const std::vector<ExperimentSpec> points = spec.expand_sweep();
  ASSERT_EQ(points.size(), 1u);
  EXPECT_DOUBLE_EQ(points[0].workload.arrival.qps, 9.0);
  EXPECT_NE(points[0].name.find("qps=9"), std::string::npos);
}

TEST(ExperimentSpecValidate, ScenarioWorkloadRejectsSyntheticOverrides) {
  ExperimentSpec spec;
  spec.with_scenario("diurnal-chat");
  spec.workload.arrival.qps = 5.0;  // would be silently ignored otherwise
  expect_invalid(spec, "carries its own traces and arrival process");
  spec.workload.arrival = WorkloadSpec{}.arrival;
  EXPECT_NO_THROW(spec.validate());
}

TEST(SweepAxes, NoAxesYieldsTheBaseSpec) {
  ExperimentSpec spec;
  spec.with_name("solo");
  const std::vector<ExperimentSpec> points = spec.expand_sweep();
  ASSERT_EQ(points.size(), 1u);
  EXPECT_EQ(points[0].name, "solo");
  EXPECT_EQ(points[0], spec);
}

// ------------------------------------------------------------- dispatch

TEST(RunExperiment, ReproducesTheDirectSessionPath) {
  ExperimentSpec spec;
  spec.with_name("parity")
      .with_scheduler(SchedulerKind::kSarathi, 128, 512)
      .with_trace("chat1m", 1.5, 60)
      .with_seed(7);
  const ExperimentResult result = run_experiment(spec);

  // Hand-wired equivalent (the old programmatic path).
  VidurSession session(model_by_name("llama2-7b"));
  DeploymentConfig config;
  config.sku_name = "a100";
  config.scheduler.kind = SchedulerKind::kSarathi;
  config.scheduler.max_batch_size = 128;
  config.scheduler.chunk_size = 512;
  const Trace trace =
      generate_trace(trace_by_name("chat1m"),
                     ArrivalSpec{ArrivalKind::kPoisson, 1.5, 2.0}, 60, 7);
  const SimulationMetrics direct = session.simulate(config, trace);

  EXPECT_EQ(result.metrics.num_completed, direct.num_completed);
  EXPECT_DOUBLE_EQ(result.metrics.makespan, direct.makespan);
  EXPECT_DOUBLE_EQ(result.metrics.ttft.p90, direct.ttft.p90);
  EXPECT_DOUBLE_EQ(result.metrics.throughput_qps, direct.throughput_qps);
}

TEST(RunExperiment, ScenarioWorkloadCarriesTenantMetrics) {
  ExperimentSpec spec;
  spec.with_scenario("flash-crowd-mixed", /*num_requests=*/120)
      .with_routing(GlobalSchedulerKind::kPriority)
      .with_seed(3);
  const ExperimentResult result = run_experiment(spec);
  ASSERT_EQ(result.metrics.tenant_metrics.size(), 2u);
  EXPECT_EQ(result.metrics.tenant_metrics[0].info.name, "interactive");
  EXPECT_GE(result.metrics.aggregate_slo_attainment(), 0.0);
}

TEST(RunExperiment, ReferenceModeUsesTheGroundTruthExecutor) {
  ExperimentSpec spec;
  spec.with_trace("chat1m", 1.0, 40).with_seed(11);
  const ExperimentResult predicted = run_experiment(spec);
  spec.with_mode(ExperimentMode::kReference);
  const ExperimentResult real = run_experiment(spec);
  EXPECT_EQ(real.metrics.num_completed, 40u);
  // Different backends: metrics agree approximately, not bit-for-bit.
  EXPECT_NE(predicted.metrics.makespan, real.metrics.makespan);
}

TEST(RunExperiment, SessionOverloadRejectsModelMismatch) {
  VidurSession session(model_by_name("llama2-7b"));
  ExperimentSpec spec;
  spec.with_model("qwen-72b").with_parallelism(4, 1, 1);
  EXPECT_THROW(run_experiment(session, spec), Error);
}

TEST(RunExperiment, SessionOverloadRejectsUncoveredTensorParallel) {
  // The spec's own tp_degrees cover TP 8, but the caller-owned session
  // only profiled the defaults — fail with the actionable message, not an
  // internal estimator check much later.
  VidurSession session(model_by_name("llama2-7b"));
  ExperimentSpec spec;
  spec.with_parallelism(8, 1, 1).with_trace("chat1m", 1.0, 20);
  spec.tp_degrees = {1, 2, 4, 8};
  try {
    run_experiment(session, spec);
    FAIL() << "expected vidur::Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("profiled tp_degrees"),
              std::string::npos);
  }
}

TEST(RunExperiment, RejectsSweepSpecs) {
  ExperimentSpec spec;
  spec.sweep.qps = {1.0, 2.0};
  EXPECT_THROW(run_experiment(spec), Error);
}

TEST(RunSweep, RunsEveryPointAndIsolatesFailures) {
  ExperimentSpec spec;
  spec.with_name("sweep")
      .with_model("llama2-70b")
      .with_trace("chat1m", 1.0, 30)
      .with_seed(5);
  // TP1 cannot fit a 70B model on one A100 (should fail, isolated); TP4
  // fits (should succeed).
  spec.sweep.tensor_parallel = {1, 4};
  spec.num_threads = 2;
  const std::vector<ExperimentResult> results = run_sweep(spec);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_TRUE(results[0].failed());
  EXPECT_NE(results[0].error.find("does not fit"), std::string::npos);
  EXPECT_FALSE(results[1].failed());
  EXPECT_EQ(results[1].metrics.num_completed, 30u);
  EXPECT_EQ(results[1].spec.deployment.parallel.tensor_parallel, 4);
}

TEST(ExperimentResult, JsonCarriesBenchCompatibleFields) {
  ExperimentSpec spec;
  spec.with_trace("chat1m", 1.0, 30).with_seed(2);
  const ExperimentResult result = run_experiment(spec);
  const JsonValue j = result.to_json();
  EXPECT_EQ(j.at("num_completed").as_int(), 30);
  EXPECT_GT(j.at("makespan_s").as_double(), 0.0);
  EXPECT_GT(j.at("throughput_qps").as_double(), 0.0);
  EXPECT_GT(j.at("ttft_s").at("p90").as_double(), 0.0);
  EXPECT_EQ(j.at("fleet").at("fleet_slots").as_int(), 1);
  // And the wrapper round-trips through the parser.
  EXPECT_NO_THROW(JsonValue::parse(j.dump()));
}

}  // namespace
}  // namespace vidur
