#include "bench_util.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>

#include <thread>

#include "common/check.h"
#include "common/thread_pool.h"
#include "search/capacity.h"

// Build provenance from CMake: the build type as a definition on this
// target, the SHA in a header generated on every build. Fall back so the
// file still compiles standalone (e.g. in a scratch harness).
#if __has_include("vidur_git_sha.h")
#include "vidur_git_sha.h"
#endif
#ifndef VIDUR_GIT_SHA
#define VIDUR_GIT_SHA "unknown"
#endif
#ifndef VIDUR_BUILD_TYPE
#define VIDUR_BUILD_TYPE "unknown"
#endif

namespace vidur::bench {

namespace {

/// The CPU's model name from /proc/cpuinfo, or "unknown" off Linux.
std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("model name", 0) != 0) continue;
    const std::size_t colon = line.find(':');
    if (colon == std::string::npos || colon + 2 > line.size()) break;
    return line.substr(colon + 2);
  }
  return "unknown";
}

/// Provenance block stamped into every BENCH_*.json: enough to tell two
/// artifacts apart (which commit, which build flavor, which machine, how
/// scaled an effort) when diffing trajectories across PRs.
Json bench_meta() {
  Json meta = Json::object();
  meta.set("git_sha", std::string(VIDUR_GIT_SHA));
  meta.set("build_type", std::string(VIDUR_BUILD_TYPE));
  meta.set("cpu_model", cpu_model());
  // hardware_threads() (not raw hardware_concurrency()) so an unknowable
  // core count stamps 1, never a nonsense 0.
  meta.set("hardware_threads", static_cast<std::int64_t>(hardware_threads()));
  meta.set("bench_scale", bench_scale());
  return meta;
}

}  // namespace

void write_bench_json(const std::string& bench_name, const Json& doc) {
  Json wrapped = Json::object();
  wrapped.set("bench", bench_name);
  wrapped.set("bench_scale", bench_scale());
  wrapped.set("meta", bench_meta());
  wrapped.set("results", doc);

  const char* dir = std::getenv("VIDUR_BENCH_JSON_DIR");
  const std::string path = (dir != nullptr ? std::string(dir) + "/" : "") +
                           "BENCH_" + bench_name + ".json";
  std::ofstream out(path);
  VIDUR_CHECK_MSG(out.good(), "cannot write " << path);
  out << wrapped.dump();
  out.close();
  VIDUR_CHECK_MSG(out.good(), "failed writing " << path);
  std::cout << "\n[bench json] " << path << "\n";
}

double bench_scale() {
  static const double scale = [] {
    const char* env = std::getenv("VIDUR_BENCH_SCALE");
    if (env == nullptr) return 1.0;
    const double v = std::atof(env);
    return v > 0.0 ? v : 1.0;
  }();
  return scale;
}

int scaled(int n, int min_n) {
  return std::max(min_n, static_cast<int>(n * bench_scale()));
}

namespace {

bool env_filter(const char* var, const std::string& value) {
  const char* env = std::getenv(var);
  return env == nullptr || value == env;
}

}  // namespace

bool model_enabled(const std::string& model_name) {
  return env_filter("VIDUR_BENCH_MODEL", model_name);
}

bool trace_enabled(const std::string& trace_name) {
  return env_filter("VIDUR_BENCH_TRACE", trace_name);
}

const std::vector<ModelSetup>& paper_model_setups() {
  static const std::vector<ModelSetup> setups = {
      {"llama2-7b", 1, "LLaMA2-7B (TP1)"},
      {"internlm-20b", 2, "InternLM-20B (TP2)"},
      {"llama2-70b", 4, "LLaMA2-70B (TP4)"},
      {"qwen-72b", 4, "Qwen-72B (TP4)"},
  };
  return setups;
}

const std::vector<TraceSetup>& paper_trace_setups() {
  static const std::vector<TraceSetup> setups = {
      {"chat1m", "Chat-1M"},
      {"arxiv4k", "Arxiv-4K"},
      {"bwb4k", "BWB-4K"},
  };
  return setups;
}

DeploymentConfig fidelity_deployment(const ModelSetup& setup) {
  DeploymentConfig config;
  config.sku_name = "a100";
  config.parallel = ParallelConfig{setup.tensor_parallel, 1, 1};
  config.scheduler.kind = SchedulerKind::kVllm;  // paper: default vLLM
  config.scheduler.max_batch_size = 128;
  return config;
}

namespace {

FidelityPoint compare(const SimulationMetrics& real,
                      const SimulationMetrics& pred, bool execution_metric) {
  FidelityPoint point;
  const Summary& r = execution_metric ? real.normalized_execution_latency
                                      : real.normalized_e2e_latency;
  const Summary& p = execution_metric ? pred.normalized_execution_latency
                                      : pred.normalized_e2e_latency;
  point.real_median = r.p50;
  point.pred_median = p.p50;
  point.real_p95 = r.p95;
  point.pred_p95 = p.p95;
  return point;
}

}  // namespace

FidelityPoint static_fidelity(VidurSession& session,
                              const DeploymentConfig& config,
                              const std::string& trace_name,
                              int num_requests, std::uint64_t seed) {
  const Trace trace = generate_trace(trace_by_name(trace_name),
                                     ArrivalSpec{ArrivalKind::kStatic, 0, 0},
                                     num_requests, seed);
  const SimulationMetrics pred = session.simulate(config, trace);
  const SimulationMetrics real =
      session.simulate_reference(config, trace, seed ^ 0x5ca1ab1eULL);
  return compare(real, pred, /*execution_metric=*/true);
}

double find_capacity_qps(VidurSession& session,
                         const DeploymentConfig& config,
                         const std::string& trace_name, int num_requests) {
  CapacitySearchOptions options;
  options.num_requests = num_requests;
  const CapacityResult cap =
      find_capacity(session, config, trace_by_name(trace_name), options);
  VIDUR_CHECK_MSG(cap.feasible, "no feasible capacity for "
                                    << config.to_string() << " on "
                                    << trace_name);
  return cap.capacity_qps;
}

FidelityPoint dynamic_fidelity(VidurSession& session,
                               const DeploymentConfig& config,
                               const std::string& trace_name,
                               double rate_fraction, int num_requests,
                               std::uint64_t seed) {
  const double capacity =
      find_capacity_qps(session, config, trace_name, num_requests);
  const double qps = capacity * rate_fraction;
  const Trace trace =
      generate_trace(trace_by_name(trace_name),
                     ArrivalSpec{ArrivalKind::kPoisson, qps, 0}, num_requests,
                     seed);
  const SimulationMetrics pred = session.simulate(config, trace);
  const SimulationMetrics real =
      session.simulate_reference(config, trace, seed ^ 0x5ca1ab1eULL);
  return compare(real, pred, /*execution_metric=*/false);
}

}  // namespace vidur::bench
