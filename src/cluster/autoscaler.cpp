#include "cluster/autoscaler.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "common/check.h"

namespace vidur {

namespace {

const std::vector<std::pair<AutoscalerKind, std::string>>& kind_names() {
  static const std::vector<std::pair<AutoscalerKind, std::string>> table = {
      {AutoscalerKind::kNone, "none"},
      {AutoscalerKind::kReactive, "reactive"},
      {AutoscalerKind::kPredictive, "predictive"},
  };
  return table;
}

const std::vector<std::pair<ScaleSignal, std::string>>& signal_names() {
  static const std::vector<std::pair<ScaleSignal, std::string>> table = {
      {ScaleSignal::kOutstanding, "outstanding"},
      {ScaleSignal::kKvPressure, "kv_pressure"},
  };
  return table;
}

int clamp_replicas(int n, const ClusterSample& s) {
  return std::clamp(n, s.min_replicas, s.max_replicas);
}

// Threshold scaling with a hysteresis band, on one of two load signals:
// outstanding requests per replica (arrival-serving pools), or mean KV
// utilization across active replicas (decode pools, whose load is resident
// sequences rather than a queue). Capacity already in flight
// (provisioning/warming) counts toward the queue-depth denominator, so
// repeated ticks during a cold start do not over-provision; the band
// between the two thresholds absorbs load noise without fleet changes.
class ReactiveAutoscaler : public AutoscalerPolicy {
 public:
  explicit ReactiveAutoscaler(AutoscalerConfig config)
      : config_(std::move(config)) {}

  int desired_replicas(const ClusterSample& s) override {
    if (config_.signal == ScaleSignal::kKvPressure) return desired_by_kv(s);
    const int effective = s.active + s.pending;
    const double load =
        static_cast<double>(s.outstanding) / std::max(1, effective);
    const int sized = clamp_replicas(
        static_cast<int>(std::ceil(static_cast<double>(s.outstanding) /
                                   config_.target_load_per_replica)),
        s);
    if (load > config_.scale_up_load && sized > effective) return sized;
    if (load < config_.scale_down_load && sized < effective) return sized;
    return effective;  // inside the hysteresis band: hold
  }

  const std::string& name() const override {
    return autoscaler_name(AutoscalerKind::kReactive);
  }

 private:
  int desired_by_kv(const ClusterSample& s) {
    // KV occupancy lives only on active replicas, so the mean ignores
    // pending capacity; sizing then spreads the same total occupancy over
    // the target utilization. Pending capacity still suppresses repeat
    // scale-ups through the `sized > effective` guard.
    const double mean_util = s.kv_pressure / std::max(1, s.active);
    const int effective = s.active + s.pending;
    const int sized = clamp_replicas(
        static_cast<int>(std::ceil(s.kv_pressure /
                                   config_.target_kv_utilization)),
        s);
    if (mean_util > config_.scale_up_kv_utilization && sized > effective)
      return sized;
    if (mean_util < config_.scale_down_kv_utilization && sized < effective)
      return sized;
    return effective;
  }

  AutoscalerConfig config_;
};

// Sizes the fleet for the worst arrival rate visible within the cold-start
// horizon: capacity ordered now is active exactly when the profile says the
// load arrives. Falls back to reactive-style behavior only through its
// headroom margin — an unmodeled burst still lands on the safety factor.
class PredictiveAutoscaler : public AutoscalerPolicy {
 public:
  explicit PredictiveAutoscaler(AutoscalerConfig config)
      : config_(std::move(config)) {}

  int desired_replicas(const ClusterSample& s) override {
    const Seconds lead = config_.lookahead > 0
                             ? config_.lookahead
                             : config_.provision_delay + config_.warmup_delay;
    // Worst factor over [now, now + lead], sampled densely enough to catch
    // step profiles (spike/piecewise) whose edges fall inside the window.
    double peak = 0.0;
    constexpr int kSamples = 8;
    for (int i = 0; i <= kSamples; ++i) {
      const Seconds t = s.now + lead * i / kSamples;
      peak = std::max(peak, config_.profile.factor_at(t));
    }
    const double qps = config_.baseline_qps * peak * (1.0 + config_.headroom);
    return clamp_replicas(
        static_cast<int>(std::ceil(qps / config_.replica_capacity_qps)), s);
  }

  const std::string& name() const override {
    return autoscaler_name(AutoscalerKind::kPredictive);
  }

 private:
  AutoscalerConfig config_;
};

}  // namespace

const std::string& autoscaler_name(AutoscalerKind kind) {
  for (const auto& [k, n] : kind_names())
    if (k == kind) return n;
  throw Error("unhandled AutoscalerKind");
}

AutoscalerKind autoscaler_from_name(const std::string& name) {
  for (const auto& [k, n] : kind_names())
    if (n == name) return k;
  throw Error("unknown autoscaler: " + name);
}

const std::string& scale_signal_name(ScaleSignal signal) {
  for (const auto& [s, n] : signal_names())
    if (s == signal) return n;
  throw Error("unhandled ScaleSignal");
}

void AutoscalerConfig::validate() const {
  if (!enabled()) return;
  VIDUR_CHECK_MSG(min_replicas >= 1, "autoscaler: min_replicas must be >= 1");
  VIDUR_CHECK_MSG(initial_replicas == 0 || initial_replicas >= min_replicas,
                  "autoscaler: initial_replicas below min_replicas");
  VIDUR_CHECK(provision_delay >= 0 && warmup_delay >= 0);
  VIDUR_CHECK_MSG(decision_interval > 0,
                  "autoscaler: decision_interval must be positive");
  VIDUR_CHECK(scale_up_cooldown >= 0 && scale_down_cooldown >= 0);
  VIDUR_CHECK(max_scale_step >= 0);
  if (kind == AutoscalerKind::kReactive &&
      signal == ScaleSignal::kOutstanding) {
    VIDUR_CHECK_MSG(target_load_per_replica > 0 && scale_up_load > 0,
                    "autoscaler: loads must be positive");
    VIDUR_CHECK_MSG(scale_down_load >= 0 && scale_down_load < scale_up_load,
                    "autoscaler: scale_down_load must sit below "
                    "scale_up_load (hysteresis band)");
    VIDUR_CHECK_MSG(target_load_per_replica >= scale_down_load &&
                        target_load_per_replica <= scale_up_load,
                    "autoscaler: target load must lie inside the "
                    "hysteresis band, or sizing re-triggers itself");
  }
  if (kind == AutoscalerKind::kReactive &&
      signal == ScaleSignal::kKvPressure) {
    VIDUR_CHECK_MSG(target_kv_utilization > 0 && target_kv_utilization <= 1 &&
                        scale_up_kv_utilization > 0 &&
                        scale_up_kv_utilization <= 1,
                    "autoscaler: KV utilization thresholds must lie in "
                    "(0, 1]");
    VIDUR_CHECK_MSG(scale_down_kv_utilization >= 0 &&
                        scale_down_kv_utilization < scale_up_kv_utilization,
                    "autoscaler: scale_down_kv_utilization must sit below "
                    "scale_up_kv_utilization (hysteresis band)");
    VIDUR_CHECK_MSG(target_kv_utilization >= scale_down_kv_utilization &&
                        target_kv_utilization <= scale_up_kv_utilization,
                    "autoscaler: target KV utilization must lie inside the "
                    "hysteresis band, or sizing re-triggers itself");
  }
  if (kind == AutoscalerKind::kPredictive) {
    VIDUR_CHECK_MSG(signal == ScaleSignal::kOutstanding,
                    "autoscaler: the predictive policy forecasts arrival "
                    "rates and ignores the load signal; leave signal at "
                    "'outstanding'");
    profile.validate();
    VIDUR_CHECK_MSG(baseline_qps > 0 && replica_capacity_qps > 0,
                    "autoscaler: predictive policy needs baseline_qps and "
                    "replica_capacity_qps");
    VIDUR_CHECK(headroom >= 0 && lookahead >= 0);
  }
}

std::unique_ptr<AutoscalerPolicy> make_autoscaler_policy(
    const AutoscalerConfig& config) {
  config.validate();
  switch (config.kind) {
    case AutoscalerKind::kNone:
      return nullptr;
    case AutoscalerKind::kReactive:
      return std::make_unique<ReactiveAutoscaler>(config);
    case AutoscalerKind::kPredictive:
      return std::make_unique<PredictiveAutoscaler>(config);
  }
  throw Error("unhandled AutoscalerKind");
}

}  // namespace vidur
