// Vidur-Search (paper §6): evaluates every deployment configuration's
// capacity, filters by latency SLOs, and maximizes QPS per dollar. Also
// exports the Pareto frontiers visualized in the paper's Figure 5.
#pragma once

#include <optional>
#include <vector>

#include "common/thread_pool.h"
#include "search/capacity.h"
#include "search/config_space.h"

namespace vidur {

/// Evaluation outcome for one deployment configuration.
struct ConfigEvaluation {
  DeploymentConfig config;
  bool feasible = false;
  double capacity_qps = 0.0;
  double cost_per_hour = 0.0;
  double qps_per_dollar = 0.0;  ///< capacity / hourly cost
  Seconds ttft_p90 = 0.0;       ///< at the capacity operating point
  Seconds tbt_p99 = 0.0;
  bool meets_slo = false;
  int num_probes = 0;
};

struct SearchResult {
  std::vector<ConfigEvaluation> evaluations;

  /// Highest QPS/$ among SLO-compliant configs (nullopt when none qualify).
  std::optional<ConfigEvaluation> best() const;
  /// Highest QPS/$ ignoring SLOs (the paper's Fig. 1a objective).
  std::optional<ConfigEvaluation> best_unconstrained() const;

  /// Pareto frontier of (latency metric, QPS/$): configs not dominated by
  /// any other (lower latency and higher QPS/$). `use_ttft` selects the
  /// TTFT-P90 frontier, otherwise TBT-P99 (Fig. 5 left/middle).
  std::vector<ConfigEvaluation> pareto_frontier(bool use_ttft) const;
};

struct VidurSearchOptions {
  CapacitySearchOptions capacity;
  /// Paper §7.3 defaults: TTFT P90 < 2 s, TBT P99 < 200 ms. The shared
  /// SloSpec (metrics.h) is applied here to the fleet-level percentiles at
  /// the capacity operating point.
  SloSpec slo{2.0, 0.2};
  /// Worker threads (the paper parallelizes per-config searches across
  /// 96 CPU cores). The offline probes, and without pruning whole capacity
  /// searches, run one config per worker; branch and bound visits configs
  /// serially and runs each capacity search's speculative probes on the
  /// workers (see find_capacity). Results do not depend on this count.
  /// 0 = hardware concurrency.
  int num_threads = 0;
  /// Branch-and-bound pruning: a config's offline throughput is an upper
  /// bound on its capacity, so configs whose offline QPS/$ cannot beat the
  /// best capacity QPS/$ found so far skip the full binary search. Exact
  /// for finding the optimum; disable to get capacity/latency metrics for
  /// every config (needed for Pareto-frontier plots).
  bool prune = true;
};

/// Evaluate the whole space for (session's model, workload).
SearchResult run_search(VidurSession& session, const SearchSpace& space,
                        const TraceSpec& workload,
                        const VidurSearchOptions& options);

}  // namespace vidur
