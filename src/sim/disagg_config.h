// Configuration of disaggregated prefill/decode serving (Splitwise, Patel
// et al. 2023; DistServe, Zhong et al. 2024 — discussed in paper §2.2).
#pragma once

#include <cmath>

#include "common/check.h"
#include "common/types.h"

namespace vidur {

/// A fixed subset of replicas runs only prompt processing; completed prompts
/// ship their KV cache to a decode replica over the cluster interconnect.
struct DisaggConfig {
  /// Replicas [0, num_prefill_replicas) serve prefill; the rest decode.
  /// 0 disables disaggregation (all replicas unified).
  int num_prefill_replicas = 0;
  /// KV-transfer bandwidth between a prefill and a decode replica, GB/s
  /// (default: one 200 Gb/s InfiniBand rail ~ 25 GB/s).
  double transfer_bandwidth_gbps = 25.0;
  /// Fixed per-transfer setup latency (rendezvous + registration).
  Seconds transfer_latency = 2e-3;

  bool enabled() const { return num_prefill_replicas > 0; }

  /// Range checks; each message names the spec key.
  void validate() const {
    VIDUR_CHECK_MSG(num_prefill_replicas >= 0,
                    "disagg.num_prefill_replicas must be >= 0 (0 disables "
                    "disaggregation; got "
                        << num_prefill_replicas << ")");
    VIDUR_CHECK_MSG(
        std::isfinite(transfer_bandwidth_gbps) && transfer_bandwidth_gbps > 0,
        "disagg.transfer_bandwidth_gbps must be finite and > 0 (got "
            << transfer_bandwidth_gbps << ")");
    VIDUR_CHECK_MSG(std::isfinite(transfer_latency) && transfer_latency >= 0,
                    "disagg.transfer_latency_s must be finite and >= 0 (got "
                        << transfer_latency << ")");
  }

  bool operator==(const DisaggConfig&) const = default;
};

}  // namespace vidur
