// Replica lifecycle states and the scaling report of an elastic cluster.
//
// This header is deliberately dependency-light (common/types.h only): the
// metrics layer embeds ClusterScalingReport in SimulationMetrics without
// pulling in the full cluster subsystem.
#pragma once

#include <string>
#include <vector>

#include "common/types.h"

namespace vidur {

/// Lifecycle of one replica slot in an elastic fleet.
///
///   decommissioned -> provisioning -> warming -> active -> draining
///         ^                                                   |
///         +---------------------------------------------------+
///
/// Provisioning models instance acquisition (the cold-start delay proper);
/// warming models weight loading / cache priming. A draining replica takes
/// no new requests but finishes everything already routed to it, then
/// returns to decommissioned, where the slot may be re-provisioned later.
enum class ReplicaState {
  kDecommissioned,
  kProvisioning,
  kWarming,
  kActive,
  kDraining,
};

const std::string& replica_state_name(ReplicaState state);

/// One lifecycle transition of one replica.
struct ScalingEvent {
  Seconds time = 0.0;
  ReplicaId replica = 0;
  ReplicaState from = ReplicaState::kDecommissioned;
  ReplicaState to = ReplicaState::kDecommissioned;

  bool operator==(const ScalingEvent&) const = default;
};

/// A step sample of the active-replica count (taken at every transition).
struct ReplicaCountSample {
  Seconds time = 0.0;
  int active = 0;

  bool operator==(const ReplicaCountSample&) const = default;
};

/// Per-pool slice of a heterogeneous fleet's scaling report. Role and SKU
/// are carried as strings to keep this header dependency-light (the pool
/// subsystem proper lives in cluster/pool.h).
struct PoolScalingReport {
  std::string name;
  std::string sku;
  std::string role;        ///< "unified" / "prefill" / "decode"
  int first_slot = 0;      ///< pool occupies [first_slot, first_slot+slots)
  int slots = 0;
  int min_replicas = 0;
  int initial_replicas = 0;
  int gpus_per_replica = 1;
  double cost_per_gpu_hour = 0.0;
  bool autoscaled = false;  ///< false: static pool, pinned at `slots`

  int peak_active = 0;
  double mean_active_replicas = 0.0;
  int num_scale_up_events = 0;
  int num_scale_down_events = 0;

  double replica_hours = 0.0;
  double gpu_hours = 0.0;
  double cost_usd = 0.0;

  /// Exact per-pool utilization/energy attribution, filled by the metrics
  /// collector from the pool's actual batch execution records against the
  /// pool's own SKU rates; the fleet's energy is the sum of the pools'.
  /// MFU/MBU are normalized by the pool's *paid* GPU-time (provisioning
  /// through decommission) — utilization of the capacity the pool actually
  /// billed, which is the honest denominator for autoscaled pools. Zero
  /// when the run carried no batch-level resource accounting.
  double mfu = 0.0;
  double mbu = 0.0;
  double busy_fraction = 0.0;   ///< busy replica-time / paid replica-time
  double energy_joules = 0.0;   ///< busy + idle energy billed to the pool

  std::vector<ReplicaCountSample> active_timeline;  ///< pool-local counts

  bool operator==(const PoolScalingReport&) const = default;
};

/// Capacity/cost accounting of one simulation's replica fleet. Filled for
/// every run: static fleets get a flat report (enabled == false), elastic
/// runs carry the full event log and timeline. A replica accrues paid GPU
/// time from provisioning start until decommission — cold starts and drains
/// are billed like any cloud instance.
struct ClusterScalingReport {
  bool enabled = false;  ///< an autoscaler was managing the fleet
  int fleet_size = 0;    ///< replica slots (the scale-up ceiling)
  int min_replicas = 0;
  int initial_replicas = 0;

  int peak_active = 0;
  double mean_active_replicas = 0.0;  ///< time-weighted over the run
  int num_scale_up_events = 0;    ///< replicas provisioned after t=0
  int num_scale_down_events = 0;  ///< replicas put into draining

  double replica_hours = 0.0;  ///< summed per-replica paid up-time
  double gpu_hours = 0.0;      ///< replica_hours x gpus_per_replica
  double cost_usd = 0.0;       ///< gpu_hours x SKU $/GPU-hour

  std::vector<ScalingEvent> events;              ///< chronological
  std::vector<ReplicaCountSample> active_timeline;  ///< step function

  /// Per-pool breakout, in slot order. Every simulation fills it (the
  /// ClusterManager for elastic runs, static_pools_report otherwise; a
  /// homogeneous fleet is its one "fleet" pool). Only the standalone
  /// static_fleet_report leaves it empty.
  std::vector<PoolScalingReport> pools;

  std::string to_string() const;

  bool operator==(const ClusterScalingReport&) const = default;
};

/// The report of a fixed fleet: `num_replicas` active for the whole run.
ClusterScalingReport static_fleet_report(int num_replicas, Seconds makespan,
                                         int gpus_per_replica,
                                         double cost_per_gpu_hour);

}  // namespace vidur
