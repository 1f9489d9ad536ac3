// One measurement process of the repository benchmark. perfbench/run.py
// launches it once per sample, so every sample owns its process and its
// peak RSS; it prints one JSON document on stdout.
//
//   perfbench sample <spec.json> <seed>
//       Untraced: VidurSession + onboard (setup), then run_experiment()
//       through the public API, with VmRSS/VmHWM read around it.
//   perfbench trace <spec.json> <seed> [--fidelity]
//       Traced: times the calls into each layer's public entry points
//       (profiler, estimator, workload, simulator with a timing backend,
//       metrics finalize, Vidur-Search, result JSON).
//
// Simulated latencies are reported as outputs to check, never as metrics.
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "api/experiment.h"
#include "api/result.h"
#include "api/run.h"
#include "common/check.h"
#include "core/session.h"
#include "metrics/metrics.h"
#include "perf_helpers.h"
#include "profiler/profiler.h"
#include "scenario/registry.h"
#include "search/capacity.h"
#include "search/search.h"
#include "sim/simulator.h"
#include "workload/trace_generator.h"

using namespace vidur;
using perfbench::now_s;
using perfbench::ProcMemory;
using perfbench::read_proc_memory;

namespace {

constexpr double kMB = 1e6;

/// Reset the process's VmHWM to its current RSS so the next peak belongs to
/// the next call alone. Returns false when the kernel refuses it; peaks are
/// then measured against the earlier high-water mark.
bool reset_peak_rss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.flush();
  return clear.good();
}

/// Memory growth of one call: peak resident during it minus resident
/// before it (bytes).
struct MemSpan {
  ProcMemory before;
  bool reset = false;

  void begin() {
    reset = reset_peak_rss();
    before = read_proc_memory();
  }
  std::int64_t peak_growth() const {
    return read_proc_memory().hwm_bytes - before.rss_bytes;
  }
};

ExperimentSpec load_spec(const std::string& path, std::uint64_t seed) {
  std::ifstream in(path);
  VIDUR_CHECK_MSG(in.good(), "cannot open spec '" << path << "'");
  std::stringstream text;
  text << in.rdbuf();
  ExperimentSpec spec = ExperimentSpec::from_json_string(text.str());
  spec.seed = seed;
  spec.validate();
  return spec;
}

SessionOptions session_options(const ExperimentSpec& spec) {
  SessionOptions options;
  options.tp_degrees = spec.tp_degrees;
  return options;
}

std::uint64_t counter(const SimulationMetrics& m, const std::string& name) {
  for (const auto& c : m.registry.counters)
    if (c.name == name) return c.value;
  return 0;
}

double histogram_quantile(const SimulationMetrics& m, const std::string& name,
                          bool p99) {
  for (const auto& h : m.registry.histograms)
    if (h.name == name) return p99 ? h.p99 : h.p50;
  return 0.0;
}

/// Simulated output tokens of a run (output_tokens_per_sec * makespan is
/// an exact integer count up to rounding).
std::int64_t decode_tokens(const SimulationMetrics& m) {
  return std::llround(m.output_tokens_per_sec * m.makespan);
}

/// Simulated outputs of one simulation: `exact` must repeat bit for bit,
/// `approx` within the golden-spec tolerance.
JsonValue simulation_outputs(const SimulationMetrics& m) {
  JsonValue exact = JsonValue::object();
  exact.set("num_requests", m.num_requests);
  exact.set("num_completed", m.num_completed);
  exact.set("num_lost", m.resilience.num_lost);
  exact.set("num_shed", m.resilience.num_shed);
  exact.set("makespan_s", m.makespan);
  exact.set("decode_tokens", decode_tokens(m));
  exact.set("batches", static_cast<std::int64_t>(counter(m, "sim.batches")));
  exact.set("events", static_cast<std::int64_t>(m.num_sim_events));
  exact.set("preemptions",
            static_cast<std::int64_t>(counter(m, "scheduler.preemptions")));
  exact.set("prefix_cache_hits", m.prefix_cache.hits);
  JsonValue approx = JsonValue::object();
  approx.set("ttft_p50_s", m.ttft.p50);
  approx.set("ttft_p99_s", m.ttft.p99);
  approx.set("tbt_p50_s", m.tbt.p50);
  approx.set("tbt_p99_s", m.tbt.p99);
  approx.set("e2e_p50_s", histogram_quantile(m, "request.e2e_s", false));
  approx.set("e2e_p99_s", histogram_quantile(m, "request.e2e_s", true));
  JsonValue out = JsonValue::object();
  out.set("exact", std::move(exact));
  out.set("approx", std::move(approx));
  return out;
}

JsonValue search_outputs(const SearchResult& result) {
  JsonValue names = JsonValue::array();
  JsonValue probes = JsonValue::array();
  JsonValue capacity = JsonValue::array();
  for (const ConfigEvaluation& e : result.evaluations) {
    names.push(e.config.to_string());
    probes.push(e.num_probes);
    capacity.push(e.capacity_qps);
  }
  const auto best = result.best();
  JsonValue exact = JsonValue::object();
  exact.set("num_configs", result.evaluations.size());
  exact.set("best", best ? best->config.to_string() : std::string("none"));
  exact.set("configs", std::move(names));
  exact.set("probes", std::move(probes));
  JsonValue approx = JsonValue::object();
  approx.set("capacity_qps", std::move(capacity));
  JsonValue out = JsonValue::object();
  out.set("exact", std::move(exact));
  out.set("approx", std::move(approx));
  return out;
}

/// Options run_experiment() hands to Vidur-Search for this spec.
VidurSearchOptions search_options(const ExperimentSpec& spec) {
  VidurSearchOptions options;
  options.slo = spec.slo;
  options.num_threads = spec.num_threads;
  options.capacity.trace_seed = spec.seed;
  if (spec.workload.num_requests > 0)
    options.capacity.num_requests = spec.workload.num_requests;
  return options;
}

/// Output tokens of the first `n` requests of a capacity probe: the probe
/// draws its lengths from Rng(trace_seed) one sample_request() at a time
/// (src/search/capacity.cpp), so every probe of one search shares them.
std::vector<std::int64_t> probe_decode_prefix(const TraceSpec& workload,
                                              std::uint64_t seed, int n) {
  std::vector<std::int64_t> prefix(static_cast<std::size_t>(n) + 1, 0);
  Rng rng(seed);
  for (int i = 0; i < n; ++i)
    prefix[static_cast<std::size_t>(i) + 1] =
        prefix[static_cast<std::size_t>(i)] +
        sample_request(workload, rng).decode_tokens;
  return prefix;
}

/// The workload run_experiment() materializes for a simulate-mode spec.
Trace build_trace(const ExperimentSpec& spec, std::vector<TenantInfo>* tenants) {
  if (!spec.workload.synthetic()) {
    Scenario scenario = scenario_by_name(spec.workload.scenario);
    if (spec.workload.num_requests > 0)
      scenario.num_requests = spec.workload.num_requests;
    *tenants = scenario.tenant_infos();
    return generate_scenario_trace(scenario, spec.seed);
  }
  return generate_trace(trace_by_name(spec.workload.trace),
                        spec.workload.arrival, spec.workload.num_requests,
                        spec.seed);
}

/// The SimulationConfig VidurSession::simulate() builds for a homogeneous
/// (non-pool) deployment.
SimulationConfig sim_config(const ExperimentSpec& spec,
                            const SessionOptions& options) {
  const DeploymentConfig& d = spec.deployment;
  VIDUR_CHECK_MSG(d.pools.empty() && !d.faults.enabled(),
                  "the traced replay supports homogeneous, fault-free "
                  "deployments only");
  SimulationConfig sim;
  sim.model = model_by_name(spec.model);
  sim.node.sku = sku_by_name(d.sku_name);
  sim.parallel = d.parallel;
  sim.scheduler = d.scheduler;
  sim.global_scheduler = d.global_scheduler;
  sim.memory_utilization = options.memory_utilization;
  sim.async_pipeline_comm = d.async_pipeline_comm;
  sim.collect_operator_metrics = options.collect_operator_metrics;
  sim.disagg = d.disagg;
  sim.autoscale = d.autoscale;
  sim.prefix_cache = d.prefix_cache;
  sim.threads = d.threads;
  return sim;
}

// ------------------------------------------------------------- sample mode

int run_sample(const ExperimentSpec& spec) {
  const double t0 = now_s();
  VidurSession session(model_by_name(spec.model), session_options(spec));
  session.onboard(spec.deployment.sku_name);
  const double setup_s = now_s() - t0;

  const std::int64_t setup_peak = read_proc_memory().hwm_bytes;
  MemSpan mem;
  mem.begin();
  const double t1 = now_s();
  const ExperimentResult result = run_experiment(session, spec);
  const double wall_s = now_s() - t1;
  const std::int64_t run_growth = mem.peak_growth();
  const std::int64_t peak =
      std::max(setup_peak, read_proc_memory().hwm_bytes);

  JsonValue out = JsonValue::object();
  out.set("setup_s", setup_s);
  out.set("wall_s", wall_s);
  out.set("peak_rss_bytes", peak);
  out.set("run_rss_growth_bytes", run_growth);
  out.set("hwm_reset", mem.reset);
  if (spec.mode == ExperimentMode::kCapacitySearch) {
    const TraceSpec workload = trace_by_name(spec.workload.trace);
    const CapacitySearchOptions cap = search_options(spec).capacity;
    std::int64_t requests = 0, tokens = 0;
    std::vector<std::int64_t> prefix;
    for (const ConfigEvaluation& e : result.search.evaluations) {
      const int n = cap.probe_requests(e.config);
      if (prefix.size() <= static_cast<std::size_t>(n))
        prefix = probe_decode_prefix(workload, cap.trace_seed, n);
      requests += static_cast<std::int64_t>(e.num_probes) * n;
      tokens += e.num_probes * prefix[static_cast<std::size_t>(n)];
    }
    out.set("sim_requests", requests);
    out.set("decode_tokens", tokens);
    out.set("outputs", search_outputs(result.search));
  } else {
    out.set("sim_requests", result.metrics.num_requests);
    out.set("decode_tokens", decode_tokens(result.metrics));
    out.set("outputs", simulation_outputs(result.metrics));
  }
  std::cout << out.dump();
  return 0;
}

// -------------------------------------------------------------- trace mode

/// Replay `trace` through Simulator(SimulationConfig, Trace, BackendFactory)
/// with every replica's predictor wrapped in a TimingBackend, timing the
/// constructor, run() and a MetricsCollector::finalize() of the same
/// records. Returns the run's metrics.
SimulationMetrics traced_simulation(const SimulationConfig& config,
                                    const Trace& trace,
                                    const RuntimeEstimator& estimator,
                                    const SessionOptions& options,
                                    JsonValue& layers) {
  perfbench::BackendTimes times;
  std::vector<const ExecutionTimePredictor*> predictors;
  const ModelSpec model = config.model;
  BackendFactory factory = [&](ReplicaId) {
    auto predictor = std::make_unique<ExecutionTimePredictor>(
        &estimator, model, config.parallel, options.cpu_overhead);
    predictors.push_back(predictor.get());
    return std::make_unique<perfbench::TimingBackend>(std::move(predictor),
                                                      &times);
  };
  const std::size_t lookups_before = estimator.cache_lookups();
  const std::size_t hits_before = estimator.cache_hits();

  MemSpan mem;
  mem.begin();
  double t0 = now_s();
  Simulator sim(config, trace, std::move(factory));
  const double construct_s = now_s() - t0;
  layers.set("mem.construct_mb", mem.peak_growth() / kMB);

  mem.begin();
  t0 = now_s();
  SimulationMetrics metrics = sim.run();
  const double run_s = now_s() - t0;
  layers.set("mem.run_mb", mem.peak_growth() / kMB);

  std::size_t memo_hits = 0, memo_misses = 0;
  for (const ExecutionTimePredictor* p : predictors) {
    memo_hits += p->timing_cache_hits();
    memo_misses += p->timing_cache_misses();
  }
  const double lookups =
      static_cast<double>(estimator.cache_lookups() - lookups_before);
  const double hits = static_cast<double>(estimator.cache_hits() - hits_before);

  layers.set("sim.construct_ms", construct_s * 1e3);
  layers.set("sim.run_ms", run_s * 1e3);
  layers.set("sim.self_ms", (run_s - times.seconds) * 1e3);
  layers.set("sim.events", static_cast<double>(metrics.num_sim_events));
  layers.set("sim.ns_per_event",
             run_s * 1e9 / static_cast<double>(metrics.num_sim_events));
  layers.set("execution.stage_timing_calls",
             static_cast<double>(times.stage_timing_calls));
  layers.set("execution.predict_ms", times.seconds * 1e3);
  layers.set("execution.memo_hit_rate",
             static_cast<double>(memo_hits) /
                 static_cast<double>(memo_hits + memo_misses));
  layers.set("estimator.lookups", lookups);
  layers.set("estimator.cache_hit_rate", lookups > 0 ? hits / lookups : 0.0);
  layers.set("scheduler.batches",
             static_cast<double>(counter(metrics, "sim.batches")));
  layers.set("scheduler.preemptions",
             static_cast<double>(counter(metrics, "scheduler.preemptions")));
  layers.set("scheduler.admissions",
             static_cast<double>(counter(metrics, "scheduler.admissions")));
  layers.set("scheduler.mean_batch_size", metrics.mean_batch_size);

  TokenCount prefill_tokens = 0;
  for (const Request& r : trace) prefill_tokens += r.prefill_tokens;
  const PrefixCacheMetrics& pc = metrics.prefix_cache;
  layers.set("kvcache.hit_rate", pc.hit_rate());
  layers.set("kvcache.prefill_tokens_saved_frac",
             static_cast<double>(pc.tokens_saved) /
                 static_cast<double>(prefill_tokens));
  layers.set("kvcache.evicted_blocks", static_cast<double>(pc.evicted_blocks));

  // Replay the run's request records into a fresh collector (copies are
  // made before the timer starts) and time the aggregation alone.
  MetricsCollector collector(config.parallel.num_replicas,
                             config.node.sku.peak_flops(),
                             config.parallel.gpus_per_replica(),
                             config.node.sku.hbm_bytes_per_sec());
  std::int64_t token_samples = 0;
  for (const RequestState& state : sim.request_states()) {
    collector.record_request(state.record);
    token_samples += static_cast<std::int64_t>(state.record.token_times.size());
  }
  mem.begin();
  t0 = now_s();
  const SimulationMetrics replayed = collector.finalize(metrics.makespan);
  layers.set("metrics.finalize_ms", (now_s() - t0) * 1e3);
  layers.set("mem.finalize_mb", mem.peak_growth() / kMB);
  layers.set("metrics.token_samples", static_cast<double>(token_samples));
  VIDUR_CHECK_MSG(replayed.num_completed == metrics.num_completed &&
                      replayed.ttft.p50 == metrics.ttft.p50 &&
                      replayed.tbt.p99 == metrics.tbt.p99,
                  "finalize replay disagrees with the run's own metrics");
  return metrics;
}

/// Largest relative gap (percent) between predicted and reference p50
/// TTFT, TBT and end-to-end latency.
double fidelity_error_pct(const SimulationMetrics& predicted,
                          const SimulationMetrics& reference) {
  const double pairs[][2] = {
      {predicted.ttft.p50, reference.ttft.p50},
      {predicted.tbt.p50, reference.tbt.p50},
      {histogram_quantile(predicted, "request.e2e_s", false),
       histogram_quantile(reference, "request.e2e_s", false)}};
  double worst = 0.0;
  for (const auto& [p, r] : pairs)
    worst = std::max(worst, std::abs(p - r) / r * 100.0);
  return worst;
}

double time_result_json(const ExperimentSpec& spec,
                        const SimulationMetrics& metrics) {
  ExperimentResult result;
  result.spec = spec;
  result.metrics = metrics;
  const double t0 = now_s();
  const std::string text = result.to_json().dump();
  const double ms = (now_s() - t0) * 1e3;
  VIDUR_CHECK(!text.empty());
  return ms;
}

/// Vidur-Search layer: enumerate the space, then offline_throughput_qps and
/// find_capacity serially for every config, each call timed.
JsonValue traced_search(VidurSession& session, const SearchSpace& space,
                        const TraceSpec& workload,
                        const VidurSearchOptions& options) {
  const std::vector<DeploymentConfig> configs =
      space.enumerate(session.model());
  JsonValue offline_ms = JsonValue::array();
  JsonValue capacity_ms = JsonValue::array();
  JsonValue capacity = JsonValue::array();
  JsonValue probes = JsonValue::array();
  JsonValue names = JsonValue::array();
  for (const DeploymentConfig& config : configs) {
    double t0 = now_s();
    const double offline =
        offline_throughput_qps(session, config, workload, options.capacity);
    offline_ms.push((now_s() - t0) * 1e3);
    t0 = now_s();
    const CapacityResult cap =
        find_capacity(session, config, workload, options.capacity, offline);
    capacity_ms.push((now_s() - t0) * 1e3);
    capacity.push(cap.capacity_qps);
    probes.push(cap.num_probes + 1);  // + the offline probe
    names.push(config.to_string());
  }
  JsonValue out = JsonValue::object();
  out.set("configs", std::move(names));
  out.set("offline_ms", std::move(offline_ms));
  out.set("find_capacity_ms", std::move(capacity_ms));
  out.set("capacity_qps", std::move(capacity));
  out.set("probes", std::move(probes));
  return out;
}

int run_trace(const ExperimentSpec& spec, bool fidelity) {
  const SessionOptions options = session_options(spec);
  const ModelSpec model = model_by_name(spec.model);
  JsonValue layers = JsonValue::object();  // metric name -> value

  NodeSpec node;
  node.sku = sku_by_name(spec.deployment.sku_name);
  double t0 = now_s();
  const ProfileDb db =
      profile_model(model, node, options.tp_degrees, options.profiler);
  layers.set("profiler.profile_s", now_s() - t0);
  t0 = now_s();
  const RuntimeEstimator estimator(db, options.estimator);
  layers.set("estimator.train_s", now_s() - t0);

  JsonValue out = JsonValue::object();
  if (spec.mode == ExperimentMode::kCapacitySearch) {
    const TraceSpec workload = trace_by_name(spec.workload.trace);
    VidurSearchOptions search = search_options(spec);
    // Untraced single-worker search on a cold session: the serial time the
    // traced per-config spans are compared against.
    VidurSearchOptions serial = search;
    serial.num_threads = 1;
    VidurSession serial_session(model, options);
    serial_session.onboard(spec.deployment.sku_name);
    t0 = now_s();
    const SearchResult result =
        run_search(serial_session, spec.search, workload, serial);
    out.set("serial_search_s", now_s() - t0);
    out.set("serial_outputs", search_outputs(result));

    // The traced calls share one cold session, as run_search's do; its
    // estimator counters cover the whole serial sweep.
    VidurSession session(model, options);
    session.onboard(spec.deployment.sku_name);
    const RuntimeEstimator& est = session.estimator(spec.deployment.sku_name);
    const std::size_t lookups_before = est.cache_lookups();
    const std::size_t hits_before = est.cache_hits();
    out.set("search", traced_search(session, spec.search, workload, search));
    const double lookups =
        static_cast<double>(est.cache_lookups() - lookups_before);
    const double hits = static_cast<double>(est.cache_hits() - hits_before);
    layers.set("estimator.lookups", lookups);
    layers.set("estimator.cache_hit_rate", hits / lookups);

    // The simulator, execution and metrics layers on one representative
    // probe: the highest-QPS/$ feasible config under Poisson load at its
    // found capacity (SLO-blind: some seeds leave no SLO-compliant config).
    const auto best = result.best_unconstrained();
    VIDUR_CHECK_MSG(best.has_value(), "the search found no feasible config");
    ExperimentSpec probe = spec;
    probe.mode = ExperimentMode::kSimulate;
    probe.deployment = best->config;
    probe.workload.arrival = ArrivalSpec{ArrivalKind::kPoisson,
                                         best->capacity_qps, 2.0};
    probe.workload.num_requests = search.capacity.probe_requests(best->config);
    std::vector<TenantInfo> tenants;
    t0 = now_s();
    const Trace trace = build_trace(probe, &tenants);
    layers.set("workload.generate_ms", (now_s() - t0) * 1e3);
    const SimulationMetrics metrics = traced_simulation(
        sim_config(probe, options), trace, estimator, options, layers);
    layers.set("api.result_json_ms", time_result_json(probe, metrics));
    layers.set("execution.fidelity_err_pct", 0.0);
  } else {
    std::vector<TenantInfo> tenants;
    t0 = now_s();
    const Trace trace = build_trace(spec, &tenants);
    layers.set("workload.generate_ms", (now_s() - t0) * 1e3);
    SimulationConfig config = sim_config(spec, options);
    config.tenants = tenants;
    const SimulationMetrics metrics =
        traced_simulation(config, trace, estimator, options, layers);
    layers.set("api.result_json_ms", time_result_json(spec, metrics));
    out.set("outputs", simulation_outputs(metrics));

    // The search layer on this workload's own deployment: what Vidur-Search
    // spends to size it (capacity probes on the chat1m trace).
    VidurSession session(model, options);
    session.onboard(spec.deployment.sku_name);
    const VidurSearchOptions search = search_options(spec);
    t0 = now_s();
    const double offline = offline_throughput_qps(
        session, spec.deployment, trace_by_name("chat1m"), search.capacity);
    const double offline_ms = (now_s() - t0) * 1e3;
    t0 = now_s();
    const CapacityResult cap =
        find_capacity(session, spec.deployment, trace_by_name("chat1m"),
                      search.capacity, offline);
    JsonValue s = JsonValue::object();
    s.set("configs", JsonValue::array().push(spec.deployment.to_string()));
    s.set("offline_ms", JsonValue::array().push(offline_ms));
    s.set("find_capacity_ms",
          JsonValue::array().push((now_s() - t0) * 1e3));
    s.set("capacity_qps", JsonValue::array().push(cap.capacity_qps));
    s.set("probes", JsonValue::array().push(cap.num_probes + 1));
    out.set("search", std::move(s));

    double err = 0.0;
    if (fidelity) {
      const SimulationMetrics reference = session.simulate_reference(
          spec.deployment, trace, spec.seed, tenants);
      err = fidelity_error_pct(metrics, reference);
    }
    layers.set("execution.fidelity_err_pct", err);
  }
  out.set("layers", std::move(layers));
  std::cout << out.dump();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const std::vector<std::string> args(argv + 1, argv + argc);
    VIDUR_CHECK_MSG(args.size() >= 3 && (args[0] == "sample" ||
                                         args[0] == "trace"),
                    "usage: perfbench sample|trace <spec.json> <seed> "
                    "[--fidelity]");
    const ExperimentSpec spec =
        load_spec(args[1], std::stoull(args[2]));
    if (args[0] == "sample") return run_sample(spec);
    const bool fidelity = args.size() > 3 && args[3] == "--fidelity";
    return run_trace(spec, fidelity);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
