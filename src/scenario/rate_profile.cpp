#include "scenario/rate_profile.h"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <sstream>
#include <utility>

#include "common/check.h"

namespace vidur {

namespace {

const std::vector<std::pair<RateProfileKind, std::string>>& kind_names() {
  static const std::vector<std::pair<RateProfileKind, std::string>> table = {
      {RateProfileKind::kConstant, "constant"},
      {RateProfileKind::kDiurnal, "diurnal"},
      {RateProfileKind::kRamp, "ramp"},
      {RateProfileKind::kSpike, "spike"},
      {RateProfileKind::kPiecewise, "piecewise"},
  };
  return table;
}

}  // namespace

const std::string& rate_profile_kind_name(RateProfileKind kind) {
  for (const auto& [k, n] : kind_names())
    if (k == kind) return n;
  throw Error("unhandled RateProfileKind");
}

RateProfile RateProfile::constant() { return RateProfile{}; }

RateProfile RateProfile::diurnal(Seconds period, double low, double high) {
  RateProfile p;
  p.kind_ = RateProfileKind::kDiurnal;
  p.a_ = low;
  p.b_ = high;
  p.t0_ = period;
  p.validate();
  return p;
}

RateProfile RateProfile::ramp(double start, double end, Seconds duration) {
  RateProfile p;
  p.kind_ = RateProfileKind::kRamp;
  p.a_ = start;
  p.b_ = end;
  p.t0_ = duration;
  p.validate();
  return p;
}

RateProfile RateProfile::spike(double baseline, double spike,
                               Seconds spike_start, Seconds spike_duration) {
  RateProfile p;
  p.kind_ = RateProfileKind::kSpike;
  p.a_ = baseline;
  p.b_ = spike;
  p.t0_ = spike_start;
  p.t1_ = spike_duration;
  p.validate();
  return p;
}

RateProfile RateProfile::piecewise(std::vector<RateStep> steps) {
  RateProfile p;
  p.kind_ = RateProfileKind::kPiecewise;
  p.steps_ = std::move(steps);
  p.validate();
  return p;
}

double RateProfile::factor_at(Seconds t) const {
  VIDUR_CHECK_MSG(t >= 0, "rate profile queried at negative time");
  switch (kind_) {
    case RateProfileKind::kConstant:
      return 1.0;
    case RateProfileKind::kDiurnal: {
      const double mid = (a_ + b_) / 2.0;
      const double amplitude = (b_ - a_) / 2.0;
      return mid +
             amplitude * std::sin(2.0 * std::numbers::pi * t / t0_);
    }
    case RateProfileKind::kRamp:
      if (t >= t0_) return b_;
      return a_ + (b_ - a_) * t / t0_;
    case RateProfileKind::kSpike:
      return t >= t0_ && t < t0_ + t1_ ? b_ : a_;
    case RateProfileKind::kPiecewise: {
      // Last step whose start_time <= t; before the first step the schedule
      // has not begun, but validate() pins the first step to t=0.
      double factor = steps_.front().factor;
      for (const RateStep& s : steps_) {
        if (s.start_time > t) break;
        factor = s.factor;
      }
      return factor;
    }
  }
  throw Error("unhandled RateProfileKind");
}

double RateProfile::peak_factor() const {
  switch (kind_) {
    case RateProfileKind::kConstant:
      return 1.0;
    case RateProfileKind::kDiurnal:
    case RateProfileKind::kRamp:
    case RateProfileKind::kSpike:
      return std::max(a_, b_);
    case RateProfileKind::kPiecewise: {
      double peak = 0.0;
      for (const RateStep& s : steps_) peak = std::max(peak, s.factor);
      return peak;
    }
  }
  throw Error("unhandled RateProfileKind");
}

double RateProfile::mean_factor(Seconds horizon) const {
  VIDUR_CHECK(horizon > 0);
  // Trapezoidal average; exact enough for budgeting and kind-agnostic.
  constexpr int kSteps = 4096;
  double sum = 0.0;
  for (int i = 0; i <= kSteps; ++i) {
    const double f = factor_at(horizon * i / kSteps);
    sum += (i == 0 || i == kSteps) ? f / 2.0 : f;
  }
  return sum / kSteps;
}

void RateProfile::validate() const {
  const auto check_factor = [](double f, const char* what) {
    VIDUR_CHECK_MSG(std::isfinite(f) && f >= 0,
                    "rate profile " << what
                                    << " must be finite and >= 0, got " << f);
  };
  switch (kind_) {
    case RateProfileKind::kConstant:
      return;
    case RateProfileKind::kDiurnal:
      check_factor(a_, "low factor");
      check_factor(b_, "high factor");
      VIDUR_CHECK_MSG(a_ <= b_, "diurnal low factor exceeds high factor");
      VIDUR_CHECK_MSG(std::isfinite(t0_) && t0_ > 0,
                      "diurnal period must be > 0");
      return;
    case RateProfileKind::kRamp:
      check_factor(a_, "start factor");
      check_factor(b_, "end factor");
      VIDUR_CHECK_MSG(std::isfinite(t0_) && t0_ > 0,
                      "ramp duration must be > 0");
      return;
    case RateProfileKind::kSpike:
      check_factor(a_, "baseline factor");
      check_factor(b_, "spike factor");
      VIDUR_CHECK_MSG(std::isfinite(t0_) && t0_ >= 0,
                      "spike start must be >= 0");
      VIDUR_CHECK_MSG(std::isfinite(t1_) && t1_ > 0,
                      "spike duration must be > 0");
      return;
    case RateProfileKind::kPiecewise: {
      VIDUR_CHECK_MSG(!steps_.empty(), "piecewise profile needs steps");
      VIDUR_CHECK_MSG(steps_.front().start_time == 0.0,
                      "piecewise schedule must start at t=0");
      for (std::size_t i = 0; i < steps_.size(); ++i) {
        check_factor(steps_[i].factor, "step factor");
        if (i > 0)
          VIDUR_CHECK_MSG(steps_[i].start_time > steps_[i - 1].start_time,
                          "piecewise step times must strictly increase");
      }
      VIDUR_CHECK_MSG(peak_factor() > 0,
                      "piecewise profile is zero everywhere");
      return;
    }
  }
  throw Error("unhandled RateProfileKind");
}

std::string RateProfile::to_string() const {
  std::ostringstream os;
  switch (kind_) {
    case RateProfileKind::kConstant:
      os << "constant";
      break;
    case RateProfileKind::kDiurnal:
      os << "diurnal(period=" << t0_ << "s, " << a_ << ".." << b_ << "x)";
      break;
    case RateProfileKind::kRamp:
      os << "ramp(" << a_ << "x -> " << b_ << "x over " << t0_ << "s)";
      break;
    case RateProfileKind::kSpike:
      os << "spike(" << a_ << "x, burst " << b_ << "x @ " << t0_ << "s for "
         << t1_ << "s)";
      break;
    case RateProfileKind::kPiecewise:
      os << "piecewise(" << steps_.size() << " steps, peak " << peak_factor()
         << "x)";
      break;
  }
  return os.str();
}

}  // namespace vidur
