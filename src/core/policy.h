// Autoscaling-policy interface: the contract between the cluster substrate
// (deployment or matched simulator) and any autoscaler (Faro or a baseline).
//
// The substrate collects per-job metrics continually (the modified Ray Router
// of §5) and invokes the policy on two cadences: the long-term decision
// interval (Decide, default every 5 minutes) and a fast reactive tick
// (FastReact, default every 10 seconds) used by hybrid policies (§4.4) and
// reactive baselines.

#ifndef SRC_CORE_POLICY_H_
#define SRC_CORE_POLICY_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/core/objectives.h"

namespace faro {

// Rolling metrics for one job, as exported by its router.
struct JobMetrics {
  // Smoothed arrival rate over the last metrics window (req/s), including
  // requests that were later dropped.
  double arrival_rate = 0.0;
  // Average per-request replica processing time (s) observed recently.
  double processing_time = 0.0;
  // Tail and mean latency over the last window (s); dropped requests count as
  // +infinity, mirroring §6's metric definition.
  double p99_latency = 0.0;
  double mean_latency = 0.0;
  // Fraction of the window's arrivals that were dropped (tail drop or
  // explicit drop).
  double drop_rate = 0.0;
  // Replicas currently serving (ready), plus replicas still cold-starting.
  uint32_t ready_replicas = 1;
  uint32_t starting_replicas = 0;
  // Per-minute arrival-rate history (req/s, oldest first) for predictors.
  std::vector<double> arrival_history;
  // Seconds the job has continuously violated / met its SLO (for the 30 s /
  // 5 min up/down triggers shared by Faro's reactive stage and baselines).
  double overloaded_for = 0.0;
  double underloaded_for = 0.0;
};

// Stage-2 solver telemetry a policy accumulates over a run. Faro's multi-start
// driver fills this (one increment batch per long-term decision); baselines
// report the default zeros. Wall-clock fields are measurement, not state: no
// decision ever depends on them, so determinism is unaffected.
struct SolverTelemetry {
  uint64_t cycles = 0;                 // long-term Decide() calls
  uint64_t starts_launched = 0;        // solver tasks actually run
  // Tasks that did not run to their budget, by cause: cancelled by the
  // early-exit rule, skipped by the wall-clock deadline, or stopped by the
  // BAI racing rule (pruned arms still ran their probe).
  uint64_t starts_cancelled = 0;
  uint64_t starts_deadline_skipped = 0;
  uint64_t starts_pruned = 0;
  uint64_t early_exits = 0;            // solves won by the early-exit rule
  // --- BAI racing (multi-start arms race; see src/optim/bai.h) -------------
  uint64_t race_rounds = 0;            // probe + extension rounds across solves
  uint64_t race_evals_saved = 0;       // evaluations saved vs every arm at its tier cap
  uint64_t warm_start_hits = 0;        // solves starting from the cached solution
  uint64_t wins_warm_current = 0;      // winner provenance counts
  uint64_t wins_prev_solution = 0;
  uint64_t wins_heuristic = 0;
  uint64_t wins_jitter = 0;
  uint64_t objective_evaluations = 0;  // across all solver tasks
  uint64_t group_solves = 0;           // hierarchical per-group sub-solves
  double solve_seconds_total = 0.0;    // wall-clock inside Stage-2 solves
  double solve_seconds_max = 0.0;      // worst single cycle
  // --- degradation ladder (robustness) -------------------------------------
  uint64_t deadline_misses = 0;        // Stage-2 solves cut off by the deadline
  uint64_t fallback_warm = 0;          // cycles served by the rescaled warm start
  uint64_t fallback_heuristic = 0;     // cycles served by the capacity heuristic
  uint64_t forecast_fallbacks = 0;     // insane forecasts replaced by last-value
  uint64_t actuation_retries = 0;      // reactive re-issues of a missed scale-up
  uint64_t capacity_resolves = 0;      // off-cadence solves after capacity loss
};

// A scaling decision covering every job. `replicas` are absolute targets;
// `drop_rates` (optional, same length) instruct routers to shed a fraction of
// incoming load (only Faro-Penalty* sets this).
struct ScalingAction {
  std::vector<uint32_t> replicas;
  std::vector<double> drop_rates;
};

class AutoscalingPolicy {
 public:
  virtual ~AutoscalingPolicy() = default;

  virtual std::string name() const = 0;

  // Long-term decision. `job_specs` and `metrics` are index-aligned.
  virtual ScalingAction Decide(double now_s, const std::vector<JobSpec>& job_specs,
                               const std::vector<JobMetrics>& metrics,
                               const ClusterResources& resources) = 0;

  // Seconds between Decide() calls.
  virtual double decision_interval_s() const { return 300.0; }

  // Fast-path reaction between long-term decisions; return std::nullopt to
  // leave the allocation untouched.
  virtual std::optional<ScalingAction> FastReact(double now_s,
                                                 const std::vector<JobSpec>& job_specs,
                                                 const std::vector<JobMetrics>& metrics,
                                                 const ClusterResources& resources) {
    return std::nullopt;
  }

  // Solver telemetry accumulated so far (zeros for policies without a solver).
  virtual SolverTelemetry solver_telemetry() const { return {}; }
};

}  // namespace faro

#endif  // SRC_CORE_POLICY_H_
