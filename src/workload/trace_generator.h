// Workload trace generation (Vidur-Bench, paper §5.1 and Table 1).
//
// The paper derives request-length characteristics from three public
// datasets, truncated to 4096 total tokens: LMSys-Chat-1M, Arxiv
// Summarization, and Bilingual-Web-Book. We do not have the datasets, so we
// synthesize requests from lognormal length distributions whose parameters
// are fit to the published Table 1 statistics, applying the same
// max-4K-total-token filter the paper applies. The bench for Table 1
// verifies the generated statistics against the published numbers.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/random.h"
#include "workload/request.h"

namespace vidur {

/// Length-distribution parameters for one workload.
struct TraceSpec {
  std::string name;
  // Lognormal parameters of the *underlying* (pre-filter) distributions.
  double prefill_log_mu = 0.0;
  double prefill_log_sigma = 0.0;
  double decode_log_mu = 0.0;
  double decode_log_sigma = 0.0;
  /// Correlation between log-prefill and log-decode length (e.g. longer
  /// documents have longer summaries/translations).
  double length_correlation = 0.0;
  TokenCount min_prefill_tokens = 4;
  TokenCount min_decode_tokens = 2;
  /// Requests whose total exceeds this are rejected and re-sampled
  /// (the paper's "with max 4k total tokens" construction).
  TokenCount max_total_tokens = 4096;

  /// Throws vidur::Error on degenerate parameters: non-finite or negative
  /// sigmas, correlation outside [-1, 1], non-positive minimum lengths, or
  /// minimums that cannot fit under the total-token cap.
  void validate() const;
};

/// Built-in workloads: "chat1m", "arxiv4k", "bwb4k".
/// Throws vidur::Error for unknown names.
TraceSpec trace_by_name(const std::string& name);

/// All built-in trace names, in paper order.
const std::vector<std::string>& builtin_trace_names();

/// Request arrival pattern.
enum class ArrivalKind {
  kStatic,   ///< all requests arrive at t=0 (offline workload, Fig. 3)
  kPoisson,  ///< Poisson process at a fixed QPS (online workload, Fig. 4)
  kGamma,    ///< gamma-renewal process: bursty arrivals with CV > 1
};

/// Stable name, e.g. "poisson".
const std::string& arrival_kind_name(ArrivalKind kind);

struct ArrivalSpec {
  ArrivalKind kind = ArrivalKind::kStatic;
  double qps = 1.0;  ///< mean arrival rate for kPoisson / kGamma
  double cv = 2.0;   ///< coefficient of variation for kGamma

  /// Throws vidur::Error on a non-finite or non-positive rate (kPoisson /
  /// kGamma) or coefficient of variation (kGamma).
  void validate() const;

  bool operator==(const ArrivalSpec&) const = default;
};

/// Sample lengths for one request (arrival time left at 0).
Request sample_request(const TraceSpec& spec, Rng& rng);

/// Generate `num_requests` with lengths from `trace` and arrival times from
/// `arrival`. Request ids are 0..n-1 in arrival order.
Trace generate_trace(const TraceSpec& trace, const ArrivalSpec& arrival,
                     int num_requests, std::uint64_t seed);

/// Summary statistics of a trace (the Table 1 columns).
struct TraceStats {
  double prefill_mean = 0.0;
  double prefill_median = 0.0;
  double prefill_p90 = 0.0;
  double decode_mean = 0.0;
  double decode_median = 0.0;
  double decode_p90 = 0.0;
  double pd_ratio_median = 0.0;
  double pd_ratio_stddev = 0.0;
};

TraceStats compute_trace_stats(const Trace& trace);

/// The published Table 1 row for a built-in workload (for bench comparison).
TraceStats published_trace_stats(const std::string& name);

}  // namespace vidur
