#include "workload/trace_generator.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/check.h"
#include "common/stats.h"

namespace vidur {

namespace {

// Underlying (pre-4K-filter) lognormal parameters are derived from the
// published full-dataset statistics in Table 1 via
//   mu = ln(median),  sigma = sqrt(2 ln(mean / median)).
// The 4K rows then emerge from the same max-total-token filter the paper
// applies; bench_table1_workloads verifies the resulting statistics.

TraceSpec make_chat1m() {
  return TraceSpec{.name = "chat1m",
                   // full LMSys-Chat-1M: prefill 786/417, decode 215/141
                   .prefill_log_mu = 6.033,
                   .prefill_log_sigma = 1.126,
                   .decode_log_mu = 4.949,
                   .decode_log_sigma = 0.918,
                   .min_prefill_tokens = 4,
                   .min_decode_tokens = 2,
                   .max_total_tokens = 4096};
}

TraceSpec make_arxiv4k() {
  return TraceSpec{.name = "arxiv4k",
                   // full Arxiv-Summarization: prefill 9882/7827,
                   // decode median 228 / p90 475. The decode sigma is fit
                   // from median+p90 (not mean/median): the dataset's mean
                   // is dominated by outliers a lognormal cannot carry.
                   .prefill_log_mu = 8.965,
                   .prefill_log_sigma = 0.683,
                   .decode_log_mu = 5.429,
                   .decode_log_sigma = 0.573,
                   // Longer papers have longer abstracts; the 4K filter then
                   // pulls the decode median down as published (228 -> 167).
                   .length_correlation = 0.35,
                   .min_prefill_tokens = 64,
                   .min_decode_tokens = 8,
                   .max_total_tokens = 4096};
}

TraceSpec make_bwb4k() {
  // BWB-4K cannot arise from filtering the full BWB distribution (its
  // medians already exceed 4K total), so it is fit directly to the 4K row:
  // prefill 1067/1037, decode 1612/1601.
  return TraceSpec{.name = "bwb4k",
                   .prefill_log_mu = 6.944,
                   .prefill_log_sigma = 0.239,
                   .decode_log_mu = 7.378,
                   .decode_log_sigma = 0.200,
                   // Translations track their source length closely (the
                   // published P:D ratio std-dev is only 0.37).
                   .length_correlation = 0.8,
                   .min_prefill_tokens = 16,
                   .min_decode_tokens = 16,
                   .max_total_tokens = 4096};
}

}  // namespace

TraceSpec trace_by_name(const std::string& name) {
  if (name == "chat1m") return make_chat1m();
  if (name == "arxiv4k") return make_arxiv4k();
  if (name == "bwb4k") return make_bwb4k();
  throw Error("unknown trace: " + name);
}

const std::vector<std::string>& builtin_trace_names() {
  static const std::vector<std::string> names = {"chat1m", "arxiv4k",
                                                 "bwb4k"};
  return names;
}

void TraceSpec::validate() const {
  VIDUR_CHECK_MSG(std::isfinite(prefill_log_mu) &&
                      std::isfinite(decode_log_mu),
                  "trace '" << name << "': non-finite lognormal mu");
  VIDUR_CHECK_MSG(std::isfinite(prefill_log_sigma) && prefill_log_sigma >= 0,
                  "trace '" << name << "': invalid prefill sigma");
  VIDUR_CHECK_MSG(std::isfinite(decode_log_sigma) && decode_log_sigma >= 0,
                  "trace '" << name << "': invalid decode sigma");
  VIDUR_CHECK_MSG(length_correlation >= -1.0 && length_correlation <= 1.0,
                  "trace '" << name << "': invalid length correlation");
  VIDUR_CHECK_MSG(min_prefill_tokens >= 1 && min_decode_tokens >= 1,
                  "trace '" << name << "': minimum lengths must be >= 1");
  VIDUR_CHECK_MSG(
      min_prefill_tokens + min_decode_tokens <= max_total_tokens,
      "trace '" << name << "': minimum lengths ("
                << min_prefill_tokens << " + " << min_decode_tokens
                << ") exceed the total-token cap " << max_total_tokens);
}

namespace {

const std::vector<std::pair<ArrivalKind, std::string>>& arrival_names() {
  static const std::vector<std::pair<ArrivalKind, std::string>> table = {
      {ArrivalKind::kStatic, "static"},
      {ArrivalKind::kPoisson, "poisson"},
      {ArrivalKind::kGamma, "gamma"},
  };
  return table;
}

}  // namespace

const std::string& arrival_kind_name(ArrivalKind kind) {
  for (const auto& [k, n] : arrival_names())
    if (k == kind) return n;
  throw Error("unhandled ArrivalKind");
}

void ArrivalSpec::validate() const {
  if (kind == ArrivalKind::kStatic) return;
  VIDUR_CHECK_MSG(std::isfinite(qps) && qps > 0,
                  "arrival qps must be finite and > 0, got " << qps);
  if (kind == ArrivalKind::kGamma)
    VIDUR_CHECK_MSG(std::isfinite(cv) && cv > 0,
                    "arrival cv must be finite and > 0, got " << cv);
}

Request sample_request(const TraceSpec& spec, Rng& rng) {
  constexpr int kMaxAttempts = 100000;
  // Callers validate() the spec once before their sampling loops; only the
  // correlation is re-checked here because it feeds sqrt() below.
  const double rho = spec.length_correlation;
  VIDUR_CHECK_MSG(rho >= -1.0 && rho <= 1.0, "invalid length correlation");
  for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
    // Correlated bivariate lognormal via a shared Gaussian factor.
    const double zp = rng.normal();
    const double zd = rho * zp + std::sqrt(1.0 - rho * rho) * rng.normal();
    const auto prefill = static_cast<TokenCount>(std::llround(
        std::exp(spec.prefill_log_mu + spec.prefill_log_sigma * zp)));
    const auto decode = static_cast<TokenCount>(std::llround(
        std::exp(spec.decode_log_mu + spec.decode_log_sigma * zd)));
    Request r;
    r.prefill_tokens = std::max(prefill, spec.min_prefill_tokens);
    r.decode_tokens = std::max(decode, spec.min_decode_tokens);
    if (r.total_tokens() <= spec.max_total_tokens) return r;
  }
  throw Error("trace '" + spec.name +
              "': could not sample a request within the token cap — "
              "distribution parameters are inconsistent with the cap");
}

Trace generate_trace(const TraceSpec& trace, const ArrivalSpec& arrival,
                     int num_requests, std::uint64_t seed) {
  VIDUR_CHECK(num_requests >= 0);
  trace.validate();
  arrival.validate();

  Rng rng(seed);
  Trace out;
  out.reserve(static_cast<std::size_t>(num_requests));
  Seconds clock = 0.0;
  for (int i = 0; i < num_requests; ++i) {
    Request r = sample_request(trace, rng);
    r.id = i;
    switch (arrival.kind) {
      case ArrivalKind::kStatic:
        r.arrival_time = 0.0;
        break;
      case ArrivalKind::kPoisson:
        clock += rng.exponential(arrival.qps);
        r.arrival_time = clock;
        break;
      case ArrivalKind::kGamma: {
        const double shape = 1.0 / (arrival.cv * arrival.cv);
        const double scale = arrival.cv * arrival.cv / arrival.qps;
        clock += rng.gamma(shape, scale);
        r.arrival_time = clock;
        break;
      }
    }
    out.push_back(r);
  }
  return out;
}

TraceStats compute_trace_stats(const Trace& trace) {
  VIDUR_CHECK_MSG(!trace.empty(), "cannot compute stats of an empty trace");
  SampleSeries prefill, decode, ratio;
  for (const Request& r : trace) {
    prefill.add(static_cast<double>(r.prefill_tokens));
    decode.add(static_cast<double>(r.decode_tokens));
    ratio.add(static_cast<double>(r.prefill_tokens) /
              static_cast<double>(r.decode_tokens));
  }
  TraceStats s;
  s.prefill_mean = prefill.mean();
  s.prefill_median = prefill.median();
  s.prefill_p90 = prefill.quantile(0.90);
  s.decode_mean = decode.mean();
  s.decode_median = decode.median();
  s.decode_p90 = decode.quantile(0.90);
  s.pd_ratio_median = ratio.median();
  s.pd_ratio_stddev = ratio.stddev();
  return s;
}

TraceStats published_trace_stats(const std::string& name) {
  // Table 1, 4K-capped rows.
  if (name == "chat1m")
    return TraceStats{686, 417, 1678, 197, 139, 484, 2.3, 228};
  if (name == "arxiv4k")
    return TraceStats{2588, 2730, 3702, 291, 167, 372, 15.7, 16};
  if (name == "bwb4k")
    return TraceStats{1067, 1037, 1453, 1612, 1601, 2149, 0.65, 0.37};
  throw Error("no published stats for trace: " + name);
}

}  // namespace vidur
