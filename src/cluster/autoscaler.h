// Autoscaling policies for the elastic cluster subsystem.
//
// A policy maps a ClusterSample (load and fleet composition at one decision
// tick) to a desired active-replica count; the ClusterManager turns the
// difference into provisioning / draining transitions. Two families ship:
//
//   - kReactive: classic threshold scaling on outstanding requests per
//     replica, with a hysteresis band (scale up above `scale_up_load`,
//     down below `scale_down_load`, hold in between) so load noise inside
//     the band never flaps the fleet.
//   - kPredictive: looks ahead on the scenario's RateProfile by the
//     cold-start delay and sizes the fleet for the worst arrival rate in
//     that window, so capacity is already warm when a (known) surge lands.
#pragma once

#include <memory>
#include <string>

#include "common/types.h"
#include "scenario/rate_profile.h"

namespace vidur {

enum class AutoscalerKind {
  kNone,        ///< fixed fleet (autoscaling disabled)
  kReactive,    ///< queue-depth thresholds with hysteresis + cooldown
  kPredictive,  ///< RateProfile lookahead over the cold-start horizon
};

const std::string& autoscaler_name(AutoscalerKind kind);
AutoscalerKind autoscaler_from_name(const std::string& name);

/// What load quantity a reactive policy sizes the fleet on.
///
///   kOutstanding — waiting + running requests per replica (the classic
///     queue-depth signal; the default, and the right one for pools that
///     receive arrivals: unified fleets and disaggregated prefill pools).
///   kKvPressure — mean KV-cache block utilization across the pool's
///     active replicas. Decode pools scale on this: their load is resident
///     sequences holding KV memory, not a request queue — a decode replica
///     with 40 slow-decoding residents and an empty queue is still full.
enum class ScaleSignal {
  kOutstanding,
  kKvPressure,
};

const std::string& scale_signal_name(ScaleSignal signal);

struct AutoscalerConfig {
  AutoscalerKind kind = AutoscalerKind::kNone;
  /// Load signal of the reactive policy (predictive ignores it and must
  /// leave it at kOutstanding).
  ScaleSignal signal = ScaleSignal::kOutstanding;

  /// Active-replica floor; draining never goes below it.
  int min_replicas = 1;
  /// Replicas active at t=0 (0 means min_replicas). Initial replicas start
  /// warm — the cold-start delay applies only to scale-ups during the run.
  int initial_replicas = 0;

  // ---- cold start ----
  /// Instance acquisition time (provisioning -> warming).
  Seconds provision_delay = 30.0;
  /// Weight-loading / cache-priming time (warming -> active).
  Seconds warmup_delay = 15.0;

  // ---- decision cadence ----
  /// The policy is evaluated every `decision_interval` seconds while any
  /// request is unfinished.
  Seconds decision_interval = 5.0;
  /// Minimum gap between consecutive scale-ups.
  Seconds scale_up_cooldown = 0.0;
  /// Minimum gap between a scaling action (either direction) and a
  /// subsequent scale-down: freshly added capacity gets time to absorb the
  /// backlog before the fleet shrinks again.
  Seconds scale_down_cooldown = 60.0;
  /// Cap on replicas added or removed per decision (0 = unlimited).
  int max_scale_step = 0;

  // ---- reactive thresholds (outstanding requests per replica) ----
  /// Sizing target: desired = ceil(outstanding / target_load_per_replica).
  double target_load_per_replica = 12.0;
  /// Scale up when load per (active + in-flight) replica exceeds this.
  double scale_up_load = 20.0;
  /// Scale down when load per replica falls below this. The gap between
  /// the two thresholds is the hysteresis band.
  double scale_down_load = 4.0;

  // ---- kKvPressure thresholds (mean KV utilization, 0..1) ----
  /// Sizing target: desired = ceil(active * mean_util / target).
  double target_kv_utilization = 0.6;
  /// Scale up when mean KV utilization across active replicas exceeds this.
  double scale_up_kv_utilization = 0.8;
  /// Scale down below this; the gap to scale_up is the hysteresis band.
  double scale_down_kv_utilization = 0.3;

  // ---- predictive inputs ----
  /// Scenario arrival-rate shape the policy reads the future from.
  RateProfile profile;
  /// Baseline arrival rate the profile multiplies (the scenario's qps).
  double baseline_qps = 0.0;
  /// Sustainable per-replica throughput (measure with capacity search).
  double replica_capacity_qps = 0.0;
  /// Extra margin on the predicted requirement (0.15 = 15% headroom).
  double headroom = 0.15;
  /// Lookahead horizon; 0 means provision_delay + warmup_delay.
  Seconds lookahead = 0.0;

  bool enabled() const { return kind != AutoscalerKind::kNone; }

  /// Throws vidur::Error on nonsensical parameters (thresholds out of
  /// order, non-positive cadence, missing predictive inputs, ...).
  void validate() const;

  bool operator==(const AutoscalerConfig&) const = default;
};

/// Fleet composition and load at one decision tick.
struct ClusterSample {
  Seconds now = 0.0;
  int active = 0;     ///< routable replicas
  int pending = 0;    ///< provisioning + warming (capacity in flight)
  int draining = 0;
  int min_replicas = 1;
  int max_replicas = 1;  ///< fleet size (slot count)
  /// Waiting + running requests across the whole cluster, including the
  /// global scheduler's parked central queue and draining replicas' work.
  int outstanding = 0;
  /// Summed KV-cache utilization (0..1 each) of the active replicas; the
  /// kKvPressure signal divides by `active` for the mean. Zero when the
  /// sampler does not track KV occupancy.
  double kv_pressure = 0.0;
};

class AutoscalerPolicy {
 public:
  virtual ~AutoscalerPolicy() = default;

  /// Desired number of active replicas. The manager clamps the answer to
  /// [min_replicas, max_replicas] and applies cooldowns, so policies only
  /// encode *sizing*, not rate limiting.
  virtual int desired_replicas(const ClusterSample& sample) = 0;

  virtual const std::string& name() const = 0;
};

/// Constructs the policy named by `config.kind`; nullptr for kNone.
/// Throws vidur::Error when the config fails validation.
std::unique_ptr<AutoscalerPolicy> make_autoscaler_policy(
    const AutoscalerConfig& config);

}  // namespace vidur
