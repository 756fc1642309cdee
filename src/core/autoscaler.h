// The Faro multi-tenant autoscaler (§4).
//
// Every decision interval the autoscaler executes three stages:
//   Stage 1  Per-job formulation: fetch each job's processing time and
//            arrival history, predict the load over the upcoming window
//            (probabilistic N-HiTS in production; pluggable here), and plan
//            for replica availability only after the cold-start delay.
//   Stage 2  Multi-tenant solve: combine the per-job objectives into the
//            configured cluster objective (relaxed by default) and solve it
//            with COBYLA under the cluster's vCPU/memory capacity, then
//            integerise the solution within capacity.
//   Stage 3  Shrinking: iteratively return replicas from jobs already at
//            utility 1 while the cluster objective is unchanged, right-sizing
//            the allocation.
//
// Between long-term decisions a short-term reactive loop (§4.4) upscales a
// job additively when it has violated its SLO for a sustained period; it
// never downscales (the long-term stage owns the baseline allocation).

#ifndef SRC_CORE_AUTOSCALER_H_
#define SRC_CORE_AUTOSCALER_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>

#include "src/common/rng.h"
#include "src/core/objectives.h"
#include "src/core/policy.h"
#include "src/core/predictor.h"
#include "src/obs/trace.h"

namespace faro {

class AuditLog;  // src/obs/slo.h -- decision audit sink (pointer-only here).

struct FaroConfig {
  ObjectiveKind objective = ObjectiveKind::kFairSum;

  // --- Ablation switches (Fig. 16) ---------------------------------------
  // Relaxed (sloppified) objective vs the precise step formulation.
  bool relaxed = true;
  // M/D/c latency model vs the pessimistic upper bound.
  LatencyModelKind latency_model = LatencyModelKind::kMdcRelaxed;
  // Time-series prediction on/off (off = size for the current rate only).
  bool enable_prediction = true;
  // Probabilistic prediction (pessimistic quantile of sampled trajectories)
  // vs the point (median) forecast.
  bool probabilistic = true;
  // Short-term reactive autoscaler on/off.
  bool enable_hybrid = true;
  // Stage-3 shrinking on/off.
  bool enable_shrinking = true;

  // Quantile of the predictive distribution used for sizing when
  // `probabilistic` is set (the pessimistic envelope of Fig. 8c; high enough
  // to absorb fluctuation, low enough not to saturate a constrained cluster).
  double prediction_quantile = 0.75;
  // Prediction window (steps of `step_seconds`); 7 min overlaps the next
  // decision cycle and covers cold start (§5).
  size_t prediction_window_steps = 7;
  double step_seconds = 60.0;
  // Replica cold-start delay planned around by Stage 1.
  double cold_start_s = 60.0;

  // Long-term decision cadence and reactive trigger (§4.4, §6).
  double decision_interval_s = 300.0;
  double overload_trigger_s = 30.0;

  // Hierarchical optimisation: number of random job groups G (§3.4). The
  // paper uses G = 10; since Fig. 7 shows aggregation degrades the objective
  // below ~50 jobs while the flat solve is still fast there, grouping only
  // activates above `hierarchical_threshold` jobs.
  size_t hierarchical_groups = 10;
  size_t hierarchical_threshold = 50;

  double utility_alpha = kDefaultUtilityAlpha;
  double rho_max = kDefaultRhoMax;
  double gamma = -1.0;  // fairness weight; <=0 -> job count

  // Cold-start-aware hysteresis: a re-solve's allocation is adopted only if
  // its predicted cluster-objective value beats the current allocation's by
  // this margin. Replica moves are not free -- the receiving job waits out a
  // cold start while the losing job degrades immediately -- so near-tie
  // reshuffles (common under saturation, where predictions fluctuate but no
  // allocation is good) are suppressed.
  double switch_margin = 0.05;

  // COBYLA settings ("initial variable change of 2", §5).
  double solver_rho_begin = 2.0;
  double solver_rho_end = 1e-3;
  int solver_max_evaluations = 4000;

  // --- Multi-start solve driver ------------------------------------------
  // Number of start points raced per Stage-2 solve (warm start, previous
  // solution, capacity-proportional heuristic, jittered variants; see
  // src/optim/multistart.h). <= 1 selects the legacy serial single-start
  // COBYLA path (with the fairness pre-solve chain), kept for A/B comparison.
  size_t multistart_starts = 4;
  // Thread cap for the solve fan-out (starts and hierarchical groups):
  // 0 = shared pool size, 1 = serial. Solutions are bit-identical at every
  // setting for a fixed seed.
  size_t solve_parallelism = 0;
  // Cross-cycle warm starts: reuse the previous cycle's continuous solution
  // as a start while the job-set signature is unchanged (a signature change
  // drops the cache). A valid warm start also replaces the serial fairness
  // pre-solve -- the cached solution already sits on the right utility
  // frontier.
  bool warm_start_cache = true;

  // --- Degradation ladder (robustness under faults) ------------------------
  // Wall-clock budget for one Stage-2 solve; 0 disables (the default). On a
  // miss the cycle falls back to (1) the cross-cycle warm-start allocation
  // rescaled into current capacity, then (2) the capacity-proportional
  // heuristic -- the autoscaler always completes the cycle. Enabling the
  // deadline trades the bit-determinism contract for bounded decision
  // latency (which starts ran now depends on wall time).
  double solve_deadline_s = 0.0;
  // Forecast sanity guard: a forecast containing non-finite values, only
  // negative values, or values above this multiple of the largest recently
  // observed rate is replaced by the last observed value. <= 1 disables (the
  // default): early cycles have little observed history, so a legitimate
  // trained forecast can exceed any fixed multiple of it -- arming the guard
  // therefore perturbs fault-free runs and is an explicit opt-in (the chaos
  // bench arms it at 8).
  double forecast_max_jump = 0.0;
  // Off-cadence re-solve when cluster capacity shrinks by more than this
  // fraction since the last solve (node crash/drain). <= 0 disables.
  double capacity_resolve_threshold = 0.05;

  uint64_t seed = 7;

  // Observability: wall-clock spans for the decision cycle (forecast ->
  // sloppified solve -> integerize/shrink, plus per-start spans inside the
  // multi-start driver) are recorded into this session when set. Measurement
  // only -- decisions are bit-identical with tracing on or off.
  TraceSession trace;
  // Decision audit log (src/obs/slo.h): when set, every Decide() appends one
  // DecisionAuditRecord (forecast totals, ladder rung, per-cycle telemetry
  // deltas) under `audit_label`. Deterministic fields only, and recording
  // never perturbs the decision.
  AuditLog* audit = nullptr;
  std::string audit_label;
};

// Empty string when `config` is well formed; otherwise a description of the
// first problem found. FaroAutoscaler's constructor throws invalid_argument
// with this message instead of silently misbehaving.
std::string ValidateFaroConfig(const FaroConfig& config);

class FaroAutoscaler : public AutoscalingPolicy {
 public:
  // The predictor is shared across jobs (histories are passed per call); it
  // must outlive the autoscaler. Pass nullptr to use a built-in damped
  // average (prediction still "on", just weaker -- ablation arms use
  // enable_prediction=false instead).
  FaroAutoscaler(FaroConfig config, std::shared_ptr<WorkloadPredictor> predictor = nullptr);

  std::string name() const override;
  double decision_interval_s() const override { return config_.decision_interval_s; }

  ScalingAction Decide(double now_s, const std::vector<JobSpec>& job_specs,
                       const std::vector<JobMetrics>& metrics,
                       const ClusterResources& resources) override;

  std::optional<ScalingAction> FastReact(double now_s, const std::vector<JobSpec>& job_specs,
                                         const std::vector<JobMetrics>& metrics,
                                         const ClusterResources& resources) override;

  const FaroConfig& config() const { return config_; }

  // Accumulated Stage-2 solver telemetry (starts, evaluations, wall-clock).
  SolverTelemetry solver_telemetry() const override { return telemetry_; }

 private:
  // Stage 1: per-job predicted loads over the post-cold-start window (req/s).
  std::vector<std::vector<double>> PredictLoads(const std::vector<JobSpec>& job_specs,
                                                const std::vector<JobMetrics>& metrics);

  // Stage 2 helpers. `solve_seed` is the cycle seed (derived from the config
  // seed and the decision counter); every random choice in a solve -- the
  // hierarchical grouping shuffle, per-start jitter -- is a pure function of
  // it, so solves are bit-identical at any thread count.
  ScalingAction SolveFlat(const std::vector<JobSpec>& job_specs,
                          const std::vector<JobMetrics>& metrics,
                          const std::vector<std::vector<double>>& loads,
                          const ClusterResources& resources, uint64_t solve_seed);
  ScalingAction SolveHierarchical(const std::vector<JobSpec>& job_specs,
                                  const std::vector<JobMetrics>& metrics,
                                  const std::vector<std::vector<double>>& loads,
                                  const ClusterResources& resources, uint64_t solve_seed);

  // Rounds the continuous solution to integers >= 1 within capacity, greedily
  // trimming the replicas whose removal costs the least predicted utility.
  std::vector<uint32_t> Integerize(const ClusterObjective& objective,
                                   std::span<const double> solution,
                                   const ClusterResources& resources) const;

  // Integer polish after rounding: greedily adds replicas into free capacity
  // and moves single replicas between jobs while either improves the
  // (relaxed) cluster objective. Repairs solver sloppiness at integer
  // granularity; on the precise plateau objective it is as blind as the
  // solver, so the relaxation ablation is unaffected.
  void ExchangePolish(const ClusterObjective& objective, std::vector<uint32_t>& replicas,
                      std::span<const double> drop_rates,
                      const ClusterResources& resources) const;

  // Stage 3: shrink utility-1 jobs while the cluster objective is unchanged.
  void Shrink(const ClusterObjective& objective, std::vector<uint32_t>& replicas,
              std::span<const double> drop_rates) const;

  ClusterObjectiveConfig MakeObjectiveConfig() const;

  FaroConfig config_;
  std::shared_ptr<WorkloadPredictor> predictor_;
  // Cross-cycle warm-start cache: the previous continuous solution, reused as
  // a start while the job-set signature matches (invalidation rule: signature
  // change => drop). The hierarchical path caches the group-level solution
  // under its own signature, so flat and grouped solves never cross-feed.
  struct WarmStart {
    uint64_t signature = 0;
    std::vector<double> x;
    bool valid = false;
  };
  WarmStart warm_;
  uint64_t decision_cycles_ = 0;
  SolverTelemetry telemetry_;
  // Per-job time of the last reactive upscale: one additive step per trigger
  // period, so the 10 s tick does not fire continuously through a cold start.
  std::vector<double> last_reactive_up_;
  // --- degradation-ladder state --------------------------------------------
  // Wall-clock deadline of the cycle currently being solved (set per Decide
  // when solve_deadline_s > 0; SolveFlat and the hierarchical group solves
  // all check the same deadline).
  bool cycle_deadline_enabled_ = false;
  std::chrono::steady_clock::time_point cycle_deadline_{};
  // Solve-time capacity, for the capacity-change trigger in FastReact.
  double last_solve_cpu_ = 0.0;
};

}  // namespace faro

#endif  // SRC_CORE_AUTOSCALER_H_
