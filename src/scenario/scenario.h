// Scenario engine: composes workloads into named, reproducible multi-tenant
// serving scenarios.
//
// A Scenario is (a) a set of tenants, each with its own length distribution
// (TraceSpec), share of traffic, priority and SLO, and (b) an arrival
// process — a baseline ArrivalSpec modulated by a time-varying RateProfile.
// generate_scenario_trace() merges everything into one tenant-tagged Trace
// that the existing Simulator plays unchanged; pass
// Scenario::tenant_infos() to the metrics layer to get per-tenant TTFT /
// TBT / throughput / SLO-attainment breakdowns.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "metrics/metrics.h"
#include "scenario/rate_profile.h"
#include "workload/trace_generator.h"

namespace vidur {

/// Multi-turn session structure of one tenant's traffic (the prefix-cache
/// workload shape: conversations that reuse their own growing context, and
/// fleets of sessions sharing a system prompt). Disabled by default: every
/// arrival is an independent single-turn request, and generation is
/// bit-identical to the pre-session engine.
struct SessionSpec {
  /// Turns per session, drawn uniformly from [1, max_turns]. 1 disables
  /// multi-turn structure (but shared_prefix_tokens still applies).
  int max_turns = 1;
  /// Mean think-time gap between a turn's arrival and the next turn's
  /// (exponential); 0 makes follow-up turns arrive immediately.
  Seconds mean_think_time_s = 0.0;
  /// Leading prompt tokens shared across this tenant's sessions (a system
  /// prompt). Added on top of each first turn's sampled input length.
  TokenCount shared_prefix_tokens = 0;
  /// Distinct shared prompts the tenant rotates over (each session picks
  /// one uniformly); > 1 models a mixed-prompt tenant.
  int prefix_groups = 1;
  /// Context-window cap: a turn's grown prompt (previous context + new
  /// input) is truncated to this many tokens.
  TokenCount max_context_tokens = 16384;

  bool enabled() const { return max_turns > 1 || shared_prefix_tokens > 0; }

  bool operator==(const SessionSpec&) const = default;
};

/// One tenant's contribution to a scenario.
struct TenantSpec {
  std::string name;
  TraceSpec trace;
  /// Relative traffic weight; normalized over the scenario's tenants.
  double share = 1.0;
  /// Higher is more important (GlobalSchedulerKind::kPriority routing).
  int priority = 0;
  SloSpec slo = {};
  /// Session structure (multi-turn, shared prefixes); default single-turn.
  SessionSpec session = {};
};

struct Scenario {
  std::string name;
  std::string description;
  std::vector<TenantSpec> tenants;
  /// Baseline arrival process; the profile multiplies `arrival.qps` over
  /// time. kStatic requires a constant profile (there is no timeline to
  /// modulate).
  ArrivalSpec arrival;
  RateProfile profile;
  /// Total requests across tenants (generation may stop earlier when
  /// `max_duration` is hit).
  int num_requests = 1000;
  /// Optional horizon; 0 means unlimited (stop at num_requests).
  Seconds max_duration = 0.0;

  /// Throws vidur::Error on empty/duplicate tenant names, non-positive
  /// shares, degenerate tenant traces, or an invalid arrival/profile combo.
  void validate() const;

  /// Tenant identities (id = index into `tenants`) for MetricsCollector.
  std::vector<TenantInfo> tenant_infos() const;

  /// Requests expected from the modulated arrival process over
  /// [0, horizon] — qps x mean profile factor x horizon. Use it to budget
  /// `num_requests` so a trace covers a wanted timespan (and vice versa).
  /// Requires a non-static arrival kind.
  double expected_requests(Seconds horizon) const;

  /// Human-readable one-liner for reports.
  std::string to_string() const;
};

/// Generate the merged tenant-tagged trace of `scenario`.
///
/// Deterministic: the same (scenario, seed) yields the identical trace.
/// Arrivals come from the baseline renewal process run at the profile's
/// peak rate, thinned by factor(t) / peak_factor; each accepted arrival is
/// assigned a tenant by share, and its lengths are drawn from that tenant's
/// TraceSpec using a per-tenant forked RNG stream, so one tenant's length
/// sequence does not depend on the other tenants' sampling.
///
/// Tenants with an enabled SessionSpec expand each accepted arrival into a
/// whole session: turn j+1 arrives a think-time gap after turn j, its
/// prompt is turn j's full context (prompt + decoded tokens) plus a fresh
/// sampled input (capped at max_context_tokens), and every turn carries the
/// session id / turn index / shared-prefix tagging the prefix cache keys
/// on. The merged trace is re-sorted by arrival time and truncated to
/// num_requests.
Trace generate_scenario_trace(const Scenario& scenario, std::uint64_t seed);

}  // namespace vidur
