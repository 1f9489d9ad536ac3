// Time-varying arrival-rate profiles for the scenario engine.
//
// A RateProfile maps simulation time to a dimensionless rate factor that
// multiplies a scenario's baseline arrival rate. Arrival generation uses
// thinning (Lewis & Shedler): candidate arrivals are drawn from the base
// renewal process at the profile's peak rate and accepted with probability
// factor(t) / peak_factor, which for a Poisson base yields an exact
// non-homogeneous Poisson process and a close approximation for bursty
// gamma-renewal bases.
#pragma once

#include <string>
#include <vector>

#include "common/types.h"

namespace vidur {

enum class RateProfileKind {
  kConstant,   ///< factor 1 everywhere (plain stationary arrivals)
  kDiurnal,    ///< sinusoid between a low and a high factor (day/night)
  kRamp,       ///< linear ramp from one factor to another, then hold
  kSpike,      ///< flash crowd: baseline with a temporary burst window
  kPiecewise,  ///< step schedule: explicit (start_time, factor) segments
};

/// Stable name, e.g. "diurnal".
const std::string& rate_profile_kind_name(RateProfileKind kind);

/// One step of a piecewise schedule: `factor` applies from `start_time`
/// until the next step's start (the last step holds forever).
struct RateStep {
  Seconds start_time = 0.0;
  double factor = 1.0;

  bool operator==(const RateStep&) const = default;
};

class RateProfile {
 public:
  /// The default profile is constant (factor 1 at all times).
  RateProfile() = default;

  static RateProfile constant();
  /// Sinusoid with the given period oscillating in [low, high], starting at
  /// the midpoint and rising (peak at period/4).
  static RateProfile diurnal(Seconds period, double low, double high);
  /// Linear interpolation from `start` to `end` over `duration`, holding
  /// `end` afterwards.
  static RateProfile ramp(double start, double end, Seconds duration);
  /// Baseline factor with a burst of `spike` during
  /// [spike_start, spike_start + spike_duration).
  static RateProfile spike(double baseline, double spike, Seconds spike_start,
                           Seconds spike_duration);
  /// Explicit schedule; steps must be sorted by strictly increasing
  /// start_time, with the first at t=0.
  static RateProfile piecewise(std::vector<RateStep> steps);

  RateProfileKind kind() const { return kind_; }

  /// Rate factor at absolute simulation time `t` (>= 0).
  double factor_at(Seconds t) const;
  /// Supremum of factor_at over all t (the thinning envelope).
  double peak_factor() const;
  /// Mean factor over [0, horizon] (for sizing scenario request budgets).
  double mean_factor(Seconds horizon) const;

  /// Throws vidur::Error on non-finite/negative factors, non-positive
  /// periods or durations, or an ill-formed piecewise schedule.
  void validate() const;

  std::string to_string() const;

  /// Raw parameter view for serialization (src/api/): the meaning of each
  /// slot depends on kind() — see the private member comment. Reconstruct
  /// through the named factories, never from these directly.
  double raw_a() const { return a_; }
  double raw_b() const { return b_; }
  Seconds raw_t0() const { return t0_; }
  Seconds raw_t1() const { return t1_; }
  const std::vector<RateStep>& steps() const { return steps_; }

  bool operator==(const RateProfile&) const = default;

 private:
  RateProfileKind kind_ = RateProfileKind::kConstant;
  // kDiurnal: a=low, b=high, t0=period. kRamp: a=start, b=end, t0=duration.
  // kSpike: a=baseline, b=spike, t0=start, t1=duration.
  double a_ = 1.0;
  double b_ = 1.0;
  Seconds t0_ = 0.0;
  Seconds t1_ = 0.0;
  std::vector<RateStep> steps_;  // kPiecewise
};

}  // namespace vidur
