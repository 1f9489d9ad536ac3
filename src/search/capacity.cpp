#include "search/capacity.h"

#include <algorithm>
#include <exception>
#include <optional>

#include "common/check.h"
#include "common/thread_pool.h"

namespace vidur {

namespace {

/// Fixed request lengths + unit-rate arrival offsets; probes at different
/// QPS share all randomness, so feasibility is monotone in QPS.
struct ProbeTrace {
  std::vector<Request> requests;      // lengths, ids; arrival unset
  std::vector<double> unit_arrivals;  // cumulative Exp(1) inter-arrivals

  Trace at_qps(double qps) const {
    Trace out = requests;
    for (std::size_t i = 0; i < out.size(); ++i)
      out[i].arrival_time = unit_arrivals[i] / qps;
    return out;
  }

  Trace statically() const {
    Trace out = requests;
    for (auto& r : out) r.arrival_time = 0.0;
    return out;
  }
};

ProbeTrace make_probe_trace(const TraceSpec& workload, int num_requests,
                            std::uint64_t seed) {
  ProbeTrace probe;
  workload.validate();
  Rng length_rng(seed);
  Rng arrival_rng(seed ^ 0xabcdef0123456789ULL);
  double clock = 0.0;
  probe.requests.reserve(static_cast<std::size_t>(num_requests));
  probe.unit_arrivals.reserve(static_cast<std::size_t>(num_requests));
  for (int i = 0; i < num_requests; ++i) {
    Request r = sample_request(workload, length_rng);
    r.id = i;
    probe.requests.push_back(r);
    clock += arrival_rng.exponential(1.0);
    probe.unit_arrivals.push_back(clock);
  }
  return probe;
}

}  // namespace

int CapacitySearchOptions::probe_requests(
    const DeploymentConfig& config) const {
  const long slots = static_cast<long>(config.scheduler.max_batch_size) *
                     config.parallel.num_replicas;
  // Cap the probe size: past ~2x the slot count, queue blow-up at overload
  // is already observable, and probe cost grows linearly with requests.
  const long scaled = std::min<long>(slots * requests_per_slot, 12000);
  return static_cast<int>(std::max<long>(num_requests, scaled));
}

bool probe_feasible(const SimulationMetrics& metrics, int num_requests,
                    const CapacitySearchOptions& options) {
  if (metrics.num_completed != static_cast<std::size_t>(num_requests))
    return false;
  return metrics.scheduling_delay.p99 < options.max_p99_scheduling_delay;
}

double offline_throughput_qps(VidurSession& session,
                              const DeploymentConfig& config,
                              const TraceSpec& workload,
                              const CapacitySearchOptions& options) {
  const int n = options.probe_requests(config);
  const ProbeTrace probe = make_probe_trace(workload, n, options.trace_seed);
  try {
    const SimulationMetrics offline =
        session.simulate(config, probe.statically());
    if (offline.num_completed != static_cast<std::size_t>(n)) return 0.0;
    return offline.throughput_qps;
  } catch (const Error&) {
    return 0.0;  // infeasible deployment (does not fit, etc.)
  }
}

namespace {

/// The serial bracket-and-bisect search as a state machine over
/// (phase, step, lo, hi, q). next() is the rate the serial search probes
/// next (nullopt once it is over); apply() moves past that probe given its
/// verdict. Bracketing steps down from 0.95x the offline bound by 0.6x
/// until a probe passes, then bisection halves [lo, hi].
struct CapacityBisection {
  const CapacitySearchOptions* options;
  bool bracketing = true;
  int step = 0;
  double lo = 0.0;
  double hi;
  double q;

  CapacityBisection(double offline_qps, const CapacitySearchOptions& opts)
      : options(&opts), hi(offline_qps), q(offline_qps * 0.95) {}

  std::optional<double> next() const {
    if (bracketing)
      return step < options->max_bracket_steps ? std::optional(q)
                                               : std::nullopt;
    return step < options->binary_search_iters
               ? std::optional(0.5 * (lo + hi))
               : std::nullopt;
  }

  void apply(bool ok) {
    if (bracketing && ok) {
      lo = q;
      bracketing = false;
      step = 0;
    } else if (bracketing) {
      hi = q;
      q *= 0.6;
      ++step;
    } else {
      (ok ? lo : hi) = 0.5 * (lo + hi);
      ++step;
    }
  }

  /// Some probe passed: bracketing ended in a sustainable rate.
  bool found() const { return !bracketing; }
};

/// One probe's outcome. A vidur::Error (infeasible deployment) leaves it
/// uncounted and failing; any other exception is kept for the caller.
struct ProbeOutcome {
  bool counted = false;
  bool ok = false;
  SimulationMetrics metrics;
  std::exception_ptr other;
};

}  // namespace

CapacityResult find_capacity(VidurSession& session,
                             const DeploymentConfig& config,
                             const TraceSpec& workload,
                             const CapacitySearchOptions& options,
                             double offline_qps_hint, ThreadPool* pool) {
  CapacityResult result;
  const int n = options.probe_requests(config);
  const ProbeTrace probe = make_probe_trace(workload, n, options.trace_seed);

  // Initial guess from an offline run: serve everything at once and read the
  // service throughput off the makespan. This is an upper bound on capacity.
  double offline_qps = offline_qps_hint;
  if (offline_qps <= 0.0) {
    offline_qps = offline_throughput_qps(session, config, workload, options);
    ++result.num_probes;
    if (offline_qps <= 0.0) return result;
  }

  // Pool tasks must not throw, so every outcome, exceptions included, is
  // captured here and acted on by the replay below.
  auto run_probe = [&](double qps, ProbeOutcome& out) {
    try {
      out.metrics = session.simulate(config, probe.at_qps(qps));
      out.counted = true;
      out.ok = probe_feasible(out.metrics, n, options);
    } catch (const Error&) {
    } catch (...) {
      out.other = std::current_exception();
    }
  };

  const std::size_t width = pool == nullptr ? 1 : pool->num_threads();
  CapacityBisection search(offline_qps, options);
  SimulationMetrics lo_metrics;
  std::vector<double> rates;
  std::vector<ProbeOutcome> outcomes;
  while (search.next()) {
    // The next probe, then the ones the serial search runs after it if
    // each one passes.
    rates.clear();
    for (CapacityBisection ahead = search; rates.size() < width;
         ahead.apply(true)) {
      const std::optional<double> q = ahead.next();
      if (!q) break;
      rates.push_back(*q);
    }
    outcomes.assign(rates.size(), ProbeOutcome{});
    if (rates.size() == 1) {
      run_probe(rates[0], outcomes[0]);
    } else {
      parallel_for(*pool, rates.size(),
                   [&](std::size_t j) { run_probe(rates[j], outcomes[j]); });
    }
    // Replay the serial decisions. Probes after the first failure assumed
    // it would pass: they are discarded, neither counted nor kept.
    for (ProbeOutcome& out : outcomes) {
      if (out.other) std::rethrow_exception(out.other);
      if (out.counted) ++result.num_probes;
      search.apply(out.ok);
      if (!out.ok) break;
      lo_metrics = std::move(out.metrics);
    }
  }
  if (!search.found()) return result;  // no sustainable rate found

  result.feasible = true;
  result.capacity_qps = search.lo;
  result.metrics_at_capacity = std::move(lo_metrics);
  return result;
}

}  // namespace vidur
