#include "src/core/autoscaler.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <functional>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "src/common/parallel.h"
#include "src/obs/metrics.h"
#include "src/obs/slo.h"
#include "src/optim/cobyla.h"
#include "src/optim/multistart.h"

namespace faro {
namespace {

// Shrinking treats a job as "at utility 1" when its predicted utility is
// within this tolerance of the maximum.
constexpr double kFullUtilityTolerance = 1e-3;

// Confirmation budget for the primary start of a multi-start solve: the
// incumbent runs at most this many evaluations before the race decides.
// COBYLA's late tail polishes fractional digits the integer exchange polish
// repairs anyway; on the 40-job tab08 shape this cuts per-cycle evaluations
// ~1.5x at a lost utility within 4e-3 of running the full tier.
constexpr int kRacingConfirmEvals = 400;

// Registry mirrors of the per-cycle solver telemetry. Updated once per
// decision cycle (never inside the solve hot path), so they are recorded
// unconditionally. The wall-clock solve histogram is measurement only and
// excluded from the determinism contract, like SolverTelemetry's timing.
Counter& CyclesCounter() {
  static Counter& counter = MetricsRegistry::Global().GetCounter(
      "faro_autoscaler_cycles_total", "Long-term decision cycles executed");
  return counter;
}

Counter& EvaluationsCounter() {
  static Counter& counter = MetricsRegistry::Global().GetCounter(
      "faro_autoscaler_objective_evaluations_total",
      "Objective evaluations spent by Stage-2 solves");
  return counter;
}

Counter& StartsCounter() {
  static Counter& counter = MetricsRegistry::Global().GetCounter(
      "faro_autoscaler_solver_starts_total",
      "Solver tasks launched by the multi-start driver (and legacy path)");
  return counter;
}

Histogram& SolveSecondsHistogram() {
  static Histogram& histogram = MetricsRegistry::Global().GetHistogram(
      "faro_autoscaler_solve_seconds", "Wall-clock seconds per Stage-2 solve");
  return histogram;
}

double MinCpuPerReplica(const std::vector<JobSpec>& job_specs) {
  double min_cpu = 1.0;
  for (const JobSpec& spec : job_specs) {
    min_cpu = std::min(min_cpu, std::max(spec.cpu_per_replica, 1e-6));
  }
  return min_cpu;
}

// Warm-start cache key: the solve's shape, not its loads. Two solves share a
// signature iff they optimise the same jobs (names, count) under the same
// objective, so a cached solution is always dimension- and meaning-compatible.
uint64_t JobSetSignature(const std::vector<JobSpec>& job_specs, ObjectiveKind kind) {
  uint64_t signature = HashCombine(0x5a17u, job_specs.size());
  signature = HashCombine(signature, static_cast<uint64_t>(kind));
  for (const JobSpec& spec : job_specs) {
    signature = HashCombine(signature, std::hash<std::string>{}(spec.name));
  }
  return signature;
}

// Capacity-proportional heuristic start: replicas split in proportion to each
// job's offered load (peak predicted rate x processing time), scaled to spend
// the full vCPU budget; zero drops.
std::vector<double> HeuristicStart(const ClusterObjective& objective,
                                   const ClusterResources& resources) {
  const size_t j = objective.num_jobs();
  std::vector<double> x = objective.InitialPoint();
  std::vector<double> weight(j, 0.0);
  double weight_sum = 0.0;
  for (size_t i = 0; i < j; ++i) {
    const JobContext& job = objective.jobs()[i];
    double peak = 0.0;
    for (const double v : job.predicted_load) {
      peak = std::max(peak, v);
    }
    weight[i] = peak * job.spec.processing_time + 1e-6;
    weight_sum += weight[i];
  }
  for (size_t i = 0; i < j; ++i) {
    const double cpu = std::max(objective.jobs()[i].spec.cpu_per_replica, 1e-6);
    x[i] = std::max(1.0, resources.cpu * weight[i] / weight_sum / cpu);
  }
  return x;
}

}  // namespace

std::string ValidateFaroConfig(const FaroConfig& config) {
  if (config.decision_interval_s <= 0.0) {
    return "FaroConfig: decision_interval_s must be > 0";
  }
  if (config.overload_trigger_s < 0.0) {
    return "FaroConfig: overload_trigger_s must be >= 0";
  }
  if (config.step_seconds <= 0.0) {
    return "FaroConfig: step_seconds must be > 0";
  }
  if (config.cold_start_s < 0.0) {
    return "FaroConfig: cold_start_s must be >= 0";
  }
  if (config.prediction_window_steps == 0) {
    return "FaroConfig: prediction_window_steps must be >= 1";
  }
  if (config.prediction_quantile <= 0.0 || config.prediction_quantile >= 1.0) {
    return "FaroConfig: prediction_quantile must be in (0, 1)";
  }
  if (config.solver_max_evaluations <= 0) {
    return "FaroConfig: solver_max_evaluations must be > 0";
  }
  if (config.switch_margin < 0.0) {
    return "FaroConfig: switch_margin must be >= 0";
  }
  if (config.solve_deadline_s < 0.0) {
    return "FaroConfig: solve_deadline_s must be >= 0 (0 disables)";
  }
  return {};
}

FaroAutoscaler::FaroAutoscaler(FaroConfig config, std::shared_ptr<WorkloadPredictor> predictor)
    : config_(config), predictor_(std::move(predictor)) {
  if (std::string problem = ValidateFaroConfig(config_); !problem.empty()) {
    throw std::invalid_argument(problem);
  }
  if (predictor_ == nullptr) {
    predictor_ = std::make_shared<DampedAveragePredictor>();
  }
}

std::string FaroAutoscaler::name() const { return ObjectiveKindName(config_.objective); }

ClusterObjectiveConfig FaroAutoscaler::MakeObjectiveConfig() const {
  ClusterObjectiveConfig config;
  config.kind = config_.objective;
  config.relaxed = config_.relaxed;
  config.latency_model = config_.latency_model;
  config.utility_alpha = config_.utility_alpha;
  config.rho_max = config_.rho_max;
  config.gamma = config_.gamma;
  return config;
}

std::vector<std::vector<double>> FaroAutoscaler::PredictLoads(
    const std::vector<JobSpec>& job_specs, const std::vector<JobMetrics>& metrics) {
  std::vector<std::vector<double>> loads(metrics.size());
  // Stage 1 plans for replicas that become useful only after cold start: the
  // first cold_start seconds of the window are outside this decision's
  // control, so they are skipped.
  const size_t skip = std::min(
      config_.prediction_window_steps > 0 ? config_.prediction_window_steps - 1 : size_t{0},
      static_cast<size_t>(std::ceil(config_.cold_start_s / config_.step_seconds)));
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (!config_.enable_prediction) {
      loads[i] = {std::max(0.0, metrics[i].arrival_rate)};
      continue;
    }
    const double quantile = config_.probabilistic ? config_.prediction_quantile : 0.5;
    std::vector<double> predicted = predictor_->PredictQuantile(
        i, metrics[i].arrival_history, config_.prediction_window_steps, quantile);
    if (predicted.empty()) {
      loads[i] = {std::max(0.0, metrics[i].arrival_rate)};
      continue;
    }
    // Forecast sanity guard (degradation ladder): a forecast with non-finite
    // values, all-negative values, or a jump beyond forecast_max_jump x the
    // largest recently observed rate is replaced by the last observed value.
    // NaN would otherwise be silently zeroed by the max(0, v) clamp below --
    // the cluster would scale every job to its floor on a poisoned forecast.
    if (config_.forecast_max_jump > 1.0) {
      double observed_max = std::max(1.0, metrics[i].arrival_rate);
      for (const double v : metrics[i].arrival_history) {
        observed_max = std::max(observed_max, v);
      }
      bool insane = true;  // all-negative counts as insane
      for (const double v : predicted) {
        if (!std::isfinite(v) || v > config_.forecast_max_jump * observed_max) {
          insane = true;
          break;
        }
        if (v >= 0.0) {
          insane = false;
        }
      }
      if (insane) {
        ++telemetry_.forecast_fallbacks;
        predicted.assign(config_.prediction_window_steps,
                         std::max(0.0, metrics[i].arrival_rate));
      }
    }
    std::vector<double> window;
    for (size_t k = skip; k < predicted.size(); ++k) {
      window.push_back(std::max(0.0, predicted[k]));
    }
    if (window.empty()) {
      window.push_back(std::max(0.0, predicted.back()));
    }
    loads[i] = std::move(window);
  }
  return loads;
}

std::vector<uint32_t> FaroAutoscaler::Integerize(const ClusterObjective& objective,
                                                 std::span<const double> solution,
                                                 const ClusterResources& resources) const {
  const size_t j = objective.num_jobs();
  const bool drops = UsesDropRates(objective.config().kind);
  std::vector<uint32_t> replicas(j);
  for (size_t i = 0; i < j; ++i) {
    replicas[i] = static_cast<uint32_t>(std::max(1.0, std::round(solution[i])));
  }
  auto drop_of = [&](size_t i) {
    return drops ? std::clamp(solution[j + i], 0.0, 1.0) : 0.0;
  };
  auto cpu_total = [&]() {
    double total = 0.0;
    for (size_t i = 0; i < j; ++i) {
      total += objective.jobs()[i].spec.cpu_per_replica * replicas[i];
    }
    return total;
  };
  auto mem_total = [&]() {
    double total = 0.0;
    for (size_t i = 0; i < j; ++i) {
      total += objective.jobs()[i].spec.mem_per_replica * replicas[i];
    }
    return total;
  };
  // Greedy repair: while over capacity, give back the replica whose removal
  // costs the least (priority-weighted) predicted utility.
  while (cpu_total() > resources.cpu + 1e-9 || mem_total() > resources.mem + 1e-9) {
    size_t victim = j;  // sentinel: none found
    double least_loss = std::numeric_limits<double>::infinity();
    for (size_t i = 0; i < j; ++i) {
      if (replicas[i] <= 1) {
        continue;
      }
      const double pi = objective.jobs()[i].spec.priority;
      const double before = objective.JobUtility(i, replicas[i], drop_of(i));
      const double after = objective.JobUtility(i, replicas[i] - 1, drop_of(i));
      const double loss = pi * (before - after);
      if (loss < least_loss) {
        least_loss = loss;
        victim = i;
      }
    }
    if (victim == j) {
      break;  // every job is already at its 1-replica minimum
    }
    --replicas[victim];
  }
  return replicas;
}

void FaroAutoscaler::ExchangePolish(const ClusterObjective& objective,
                                    std::vector<uint32_t>& replicas,
                                    std::span<const double> drop_rates,
                                    const ClusterResources& resources) const {
  const size_t j = objective.num_jobs();
  if (j == 0) {
    return;
  }
  const bool drops = UsesDropRates(objective.config().kind);
  const ClusterObjectiveConfig& config = objective.config();

  // A candidate grow/move touches one or two jobs, so the cluster objective
  // is re-combined from a patched per-job utility vector instead of pushing
  // every job back through the queueing model: the per-job terms and the
  // summation order match Evaluate exactly, so the value is bit-identical to
  // a full evaluation at two utility lookups plus O(jobs) flops.
  auto drop_of = [&](size_t i) {
    return drops && i < drop_rates.size() ? std::clamp(drop_rates[i], 0.0, 1.0) : 0.0;
  };
  auto util = [&](size_t i, uint32_t r) {
    const double x = static_cast<double>(r);
    return drops ? objective.JobEffectiveUtility(i, x, drop_of(i))
                 : objective.JobUtility(i, x, drop_of(i));
  };
  std::vector<double> u(j);
  for (size_t i = 0; i < j; ++i) {
    u[i] = util(i, replicas[i]);
  }
  // Cluster objective from the utility vector with up to two entries patched
  // (pass a == j, b == j for no patch). Mirrors Evaluate's combination rule.
  auto combined = [&](size_t a, double ua, size_t b, double ub) {
    double weighted_sum = 0.0;
    double min_u = std::numeric_limits<double>::infinity();
    double max_u = -std::numeric_limits<double>::infinity();
    for (size_t i = 0; i < j; ++i) {
      const double ui = i == a ? ua : (i == b ? ub : u[i]);
      weighted_sum += objective.jobs()[i].spec.priority * ui;
      min_u = std::min(min_u, ui);
      max_u = std::max(max_u, ui);
    }
    const double unfairness = max_u - min_u;
    switch (config.kind) {
      case ObjectiveKind::kSum:
      case ObjectiveKind::kPenaltySum:
        return weighted_sum;
      case ObjectiveKind::kFair:
        return -unfairness;
      case ObjectiveKind::kFairSum:
      case ObjectiveKind::kPenaltyFairSum:
        return weighted_sum - config.gamma * unfairness;
    }
    return weighted_sum;
  };
  auto cpu_total = [&]() {
    double total = 0.0;
    for (size_t i = 0; i < j; ++i) {
      total += objective.jobs()[i].spec.cpu_per_replica * replicas[i];
    }
    return total;
  };
  auto mem_total = [&]() {
    double total = 0.0;
    for (size_t i = 0; i < j; ++i) {
      total += objective.jobs()[i].spec.mem_per_replica * replicas[i];
    }
    return total;
  };

  double value = combined(j, 0.0, j, 0.0);
  for (int round = 0; round < 200; ++round) {
    bool improved = false;
    // Grow into free capacity first.
    for (size_t i = 0; i < j; ++i) {
      const JobSpec& spec = objective.jobs()[i].spec;
      if (cpu_total() + spec.cpu_per_replica > resources.cpu + 1e-9 ||
          mem_total() + spec.mem_per_replica > resources.mem + 1e-9) {
        continue;
      }
      const double grown_u = util(i, replicas[i] + 1);
      const double grown = combined(i, grown_u, j, 0.0);
      if (grown > value + 1e-9) {
        ++replicas[i];
        u[i] = grown_u;
        value = grown;
        improved = true;
      }
    }
    // Replica moves between jobs. Multi-replica moves matter: the utility of
    // a job is S-shaped in its replica count, so in an oversubscribed cluster
    // the best step can be taking several replicas from a job that cannot be
    // saved to make another job whole -- a valley single-replica moves never
    // cross.
    size_t best_from = j;
    size_t best_to = j;
    uint32_t best_count = 0;
    double best_value = value;
    const double cpu_now = cpu_total();
    const double mem_now = mem_total();
    for (size_t from = 0; from < j; ++from) {
      const JobSpec& from_spec = objective.jobs()[from].spec;
      for (const uint32_t count : {1u, 2u, 4u, 8u}) {
        if (replicas[from] <= count) {
          continue;
        }
        const double from_u = util(from, replicas[from] - count);
        for (size_t to = 0; to < j; ++to) {
          if (to == from) {
            continue;
          }
          const JobSpec& to_spec = objective.jobs()[to].spec;
          const double moved_cpu =
              cpu_now + count * (to_spec.cpu_per_replica - from_spec.cpu_per_replica);
          const double moved_mem =
              mem_now + count * (to_spec.mem_per_replica - from_spec.mem_per_replica);
          if (moved_cpu <= resources.cpu + 1e-9 && moved_mem <= resources.mem + 1e-9) {
            const double moved =
                combined(from, from_u, to, util(to, replicas[to] + count));
            if (moved > best_value + 1e-9) {
              best_value = moved;
              best_from = from;
              best_to = to;
              best_count = count;
            }
          }
        }
      }
    }
    if (best_from != j) {
      replicas[best_from] -= best_count;
      replicas[best_to] += best_count;
      u[best_from] = util(best_from, replicas[best_from]);
      u[best_to] = util(best_to, replicas[best_to]);
      value = best_value;
      improved = true;
    }
    if (!improved) {
      break;
    }
  }
}

void FaroAutoscaler::Shrink(const ClusterObjective& objective, std::vector<uint32_t>& replicas,
                            std::span<const double> drop_rates) const {
  const size_t j = objective.num_jobs();
  const bool drops = UsesDropRates(objective.config().kind);
  std::vector<double> v(objective.dimension(), 0.0);
  auto sync = [&]() {
    for (size_t i = 0; i < j; ++i) {
      v[i] = static_cast<double>(replicas[i]);
      if (drops) {
        v[j + i] = i < drop_rates.size() ? drop_rates[i] : 0.0;
      }
    }
  };
  sync();
  double cluster_value = objective.Evaluate(v);
  for (size_t i = 0; i < j; ++i) {
    const double drop = drops && i < drop_rates.size() ? drop_rates[i] : 0.0;
    // Only jobs whose predicted utility is already 1 are candidates (§4.3).
    while (replicas[i] > 1 &&
           objective.JobUtility(i, replicas[i], drop) >= 1.0 - kFullUtilityTolerance) {
      --replicas[i];
      sync();
      const double shrunk_value = objective.Evaluate(v);
      if (shrunk_value < cluster_value - 1e-9) {
        // The cluster objective moved: undo and stop shrinking this job.
        ++replicas[i];
        sync();
        break;
      }
      cluster_value = shrunk_value;
    }
  }
}

ScalingAction FaroAutoscaler::SolveFlat(const std::vector<JobSpec>& job_specs,
                                        const std::vector<JobMetrics>& metrics,
                                        const std::vector<std::vector<double>>& loads,
                                        const ClusterResources& resources,
                                        uint64_t solve_seed) {
  std::vector<JobContext> contexts(job_specs.size());
  for (size_t i = 0; i < job_specs.size(); ++i) {
    contexts[i].spec = job_specs[i];
    // Prefer the measured processing time when the router has observed one;
    // the spec's value seeds the very first decisions.
    if (metrics[i].processing_time > 0.0) {
      contexts[i].spec.processing_time = metrics[i].processing_time;
    }
    contexts[i].predicted_load = loads[i];
  }
  ClusterObjectiveConfig obj_config = MakeObjectiveConfig();
  obj_config.max_replicas_per_job =
      std::max(1.0, resources.cpu / MinCpuPerReplica(job_specs));
  ClusterObjective objective(std::move(contexts), resources, obj_config);

  // Warm start from the current allocation; COBYLA explores around it with
  // an initial variable change of 2 (§5), and the integer exchange polish
  // cleans up whatever the solver leaves on the table.
  std::vector<double> x_current = objective.InitialPoint();
  for (size_t i = 0; i < job_specs.size(); ++i) {
    x_current[i] =
        std::max<double>(1.0, metrics[i].ready_replicas + metrics[i].starting_replicas);
    x_current[i] = std::min(x_current[i], obj_config.max_replicas_per_job);
  }
  CobylaConfig solver;
  solver.rho_begin = config_.solver_rho_begin;
  solver.rho_end = config_.solver_rho_end;
  solver.max_evaluations = config_.solver_max_evaluations;

  const uint64_t signature = JobSetSignature(job_specs, config_.objective);
  const bool warm_hit = config_.warm_start_cache && warm_.valid &&
                        warm_.signature == signature &&
                        warm_.x.size() == objective.dimension();

  // Fairness terms gamma * (max U - min U) put a ridge along the symmetric
  // direction: from an allocation with equal utilities, improving any single
  // job is penalised more than the sum gains, which stalls local solvers.
  // Pre-solving the ridge-free Sum variant of the same contexts gives the
  // fairness objective a warm start on the right utility frontier. A valid
  // cross-cycle warm start already sits on that frontier, so the pre-solve
  // only runs on cold starts and job-set changes.
  const bool has_fairness = config_.objective == ObjectiveKind::kFair ||
                            config_.objective == ObjectiveKind::kFairSum ||
                            config_.objective == ObjectiveKind::kPenaltyFairSum;
  auto fairness_presolve = [&](const std::vector<double>& from) -> std::vector<double> {
    ScopedWallSpan presolve_span(config_.trace, kAutoscalerTid, "fairness_presolve",
                                 "autoscaler");
    ClusterObjectiveConfig pre_config = obj_config;
    pre_config.kind = UsesDropRates(config_.objective) ? ObjectiveKind::kPenaltySum
                                                       : ObjectiveKind::kSum;
    ClusterObjective pre_objective(objective.jobs(), resources, pre_config);
    Problem pre_problem = pre_objective.BuildProblem();
    const OptimResult pre_solution = Cobyla(pre_problem, from, solver);
    ++telemetry_.starts_launched;
    telemetry_.objective_evaluations += static_cast<uint64_t>(pre_solution.evaluations);
    return pre_solution.max_violation <= 1e-3 ? pre_solution.x : from;
  };

  Problem problem = objective.BuildProblem();

  // Degradation ladder, rung 1 and 2: when the solve deadline is blown the
  // cycle is served by the cross-cycle warm-start allocation rescaled into
  // current capacity, else by the capacity-proportional heuristic. Either way
  // the cycle completes with a capacity-feasible allocation (Integerize's
  // greedy repair still runs below).
  auto fallback_solution = [&]() {
    std::vector<double> x;
    if (warm_hit) {
      x = warm_.x;
      ++telemetry_.fallback_warm;
    } else {
      x = HeuristicStart(objective, resources);
      ++telemetry_.fallback_heuristic;
    }
    // Uniform rescale into current capacity: node loss can leave the cached
    // allocation oversubscribed, and a proportional trim preserves its shape
    // better than the greedy per-replica repair alone.
    double cpu_cost = 0.0;
    for (size_t i = 0; i < job_specs.size(); ++i) {
      x[i] = std::max(1.0, x[i]);
      cpu_cost += objective.jobs()[i].spec.cpu_per_replica * x[i];
    }
    if (cpu_cost > resources.cpu && cpu_cost > 0.0) {
      const double scale = resources.cpu / cpu_cost;
      for (size_t i = 0; i < job_specs.size(); ++i) {
        x[i] = std::max(1.0, x[i] * scale);
      }
    }
    problem.ClipToBounds(x);
    OptimResult result;
    result.x = std::move(x);
    result.value = problem.Objective(result.x);
    result.max_violation = problem.MaxViolation(result.x);
    result.evaluations = 1;
    telemetry_.objective_evaluations += 1;
    return result;
  };
  const bool deadline_blown =
      cycle_deadline_enabled_ && std::chrono::steady_clock::now() >= cycle_deadline_;

  OptimResult solution;
  bool degraded = false;
  if (deadline_blown) {
    // The budget is already spent (an earlier group solve or the forecast ate
    // it): skip the solver entirely.
    ++telemetry_.deadline_misses;
    solution = fallback_solution();
    degraded = true;
  } else if (config_.multistart_starts <= 1) {
    // Legacy serial single-start path, kept for A/B comparison.
    std::vector<double> x0 = has_fairness ? fairness_presolve(x_current) : x_current;
    // Clip the full warm-start vector -- drop-rate coordinates included --
    // into the problem's box before handing it to the solver.
    problem.ClipToBounds(x0);
    {
      ScopedWallSpan solve_span(config_.trace, kAutoscalerTid, "stage2_solve", "autoscaler");
      solution = Cobyla(problem, x0, solver);
    }
    ++telemetry_.starts_launched;
    ++telemetry_.wins_warm_current;
    telemetry_.objective_evaluations += static_cast<uint64_t>(solution.evaluations);
  } else {
    std::vector<StartPoint> starts;
    if (warm_hit) {
      starts.push_back({warm_.x, StartKind::kPrevSolution});
      starts.push_back({x_current, StartKind::kWarmCurrent});
    } else if (has_fairness) {
      starts.push_back({fairness_presolve(x_current), StartKind::kWarmCurrent});
    } else {
      starts.push_back({x_current, StartKind::kWarmCurrent});
    }
    starts.push_back({HeuristicStart(objective, resources), StartKind::kHeuristic});

    MultiStartConfig ms;
    ms.cobyla = solver;
    // Breadth over depth: each start gets a quarter of the serial path's
    // evaluation budget. COBYLA takes most of its improvement in the first
    // few hundred evaluations from a warm start; the integer exchange polish
    // repairs the truncated tail at far lower cost than letting the
    // continuous solver grind out its last fractional digits.
    ms.cobyla.max_evaluations = std::max(500, config_.solver_max_evaluations / 4);
    ms.racing_confirm_evals = kRacingConfirmEvals;
    ms.seed = solve_seed;
    ms.max_parallelism = config_.solve_parallelism;
    ms.trace = config_.trace;
    ms.deadline_enabled = cycle_deadline_enabled_;
    ms.deadline = cycle_deadline_;
    const size_t extra = config_.multistart_starts > starts.size()
                             ? config_.multistart_starts - starts.size()
                             : 0;
    ScopedWallSpan solve_span(config_.trace, kAutoscalerTid, "stage2_solve", "autoscaler");
    const MultiStartResult ms_result =
        MultiStartSolve(problem, std::move(starts), extra, ms);
    solution = ms_result.best;
    telemetry_.starts_launched += ms_result.starts_launched;
    telemetry_.starts_cancelled += ms_result.starts_cancelled;
    telemetry_.starts_deadline_skipped += ms_result.starts_deadline_skipped;
    telemetry_.starts_pruned += ms_result.starts_pruned;
    telemetry_.early_exits += ms_result.early_exit ? 1 : 0;
    telemetry_.race_rounds += ms_result.race.rounds;
    telemetry_.race_evals_saved += ms_result.race.evaluations_saved;
    telemetry_.objective_evaluations += static_cast<uint64_t>(ms_result.evaluations);
    if (ms_result.deadline_hit) {
      ++telemetry_.deadline_misses;
    }
    if (solution.x.empty()) {
      // The deadline skipped every start before it ran: drop to the ladder.
      solution = fallback_solution();
      degraded = true;
    } else {
      switch (ms_result.winner_kind) {
        case StartKind::kWarmCurrent:
          ++telemetry_.wins_warm_current;
          break;
        case StartKind::kPrevSolution:
          ++telemetry_.wins_prev_solution;
          break;
        case StartKind::kHeuristic:
          ++telemetry_.wins_heuristic;
          break;
        case StartKind::kJitter:
          ++telemetry_.wins_jitter;
          break;
      }
    }
  }
  if (config_.warm_start_cache) {
    telemetry_.warm_start_hits += warm_hit ? 1 : 0;
    warm_.signature = signature;
    warm_.x = solution.x;
    warm_.valid = true;
  }

  ScalingAction action;
  {
    ScopedWallSpan integerize_span(config_.trace, kAutoscalerTid, "integerize",
                                   "autoscaler");
    action.replicas = Integerize(objective, solution.x, resources);
    action.drop_rates.assign(job_specs.size(), 0.0);
    if (UsesDropRates(config_.objective)) {
      for (size_t i = 0; i < job_specs.size(); ++i) {
        double drop = std::clamp(solution.x[job_specs.size() + i], 0.0, 1.0);
        if (drop < 0.01) {
          drop = 0.0;  // ignore solver noise
        }
        action.drop_rates[i] = drop;
      }
    }
    if (!degraded) {
      // The polish is pure wall-clock spend; a degraded cycle is already
      // over budget, and Integerize has made the allocation feasible.
      ExchangePolish(objective, action.replicas, action.drop_rates, resources);
    }
  }

  // Cold-start-aware hysteresis: keep the standing allocation when the new
  // one is not predicted to be materially better (see FaroConfig).
  if (config_.switch_margin > 0.0) {
    std::vector<uint32_t> current(job_specs.size());
    bool differs = false;
    double current_cpu = 0.0;
    double current_mem = 0.0;
    for (size_t i = 0; i < job_specs.size(); ++i) {
      current[i] = std::max<uint32_t>(1, metrics[i].ready_replicas + metrics[i].starting_replicas);
      current_cpu += job_specs[i].cpu_per_replica * current[i];
      current_mem += job_specs[i].mem_per_replica * current[i];
      differs = differs || current[i] != action.replicas[i];
    }
    if (differs && current_cpu <= resources.cpu + 1e-9 && current_mem <= resources.mem + 1e-9) {
      std::vector<double> v_new(objective.dimension(), 0.0);
      std::vector<double> v_cur(objective.dimension(), 0.0);
      for (size_t i = 0; i < job_specs.size(); ++i) {
        v_new[i] = static_cast<double>(action.replicas[i]);
        v_cur[i] = static_cast<double>(current[i]);
        if (UsesDropRates(config_.objective)) {
          v_new[job_specs.size() + i] = action.drop_rates[i];
          v_cur[job_specs.size() + i] = action.drop_rates[i];
        }
      }
      if (objective.Evaluate(v_new) < objective.Evaluate(v_cur) + config_.switch_margin) {
        action.replicas = current;
      }
    }
  }

  if (config_.enable_shrinking && !degraded) {
    ScopedWallSpan shrink_span(config_.trace, kAutoscalerTid, "shrink", "autoscaler");
    Shrink(objective, action.replicas, action.drop_rates);
  }
  return action;
}

ScalingAction FaroAutoscaler::SolveHierarchical(const std::vector<JobSpec>& job_specs,
                                                const std::vector<JobMetrics>& metrics,
                                                const std::vector<std::vector<double>>& loads,
                                                const ClusterResources& resources,
                                                uint64_t solve_seed) {
  const size_t j = job_specs.size();
  const size_t groups = std::min(config_.hierarchical_groups, j);
  // Random assignment of jobs to groups (§3.4: "assigning each job to a
  // random group"). The shuffle RNG is seeded from the cycle seed, so the
  // grouping is a pure function of (config seed, cycle) at any thread count.
  Rng shuffle_rng(HashCombine(solve_seed, 0xf00du));
  const std::vector<size_t> order = ShuffledIndices(j, shuffle_rng);
  std::vector<std::vector<size_t>> members(groups);
  for (size_t k = 0; k < j; ++k) {
    members[k % groups].push_back(order[k]);
  }

  // Aggregate each group: lambda_g = sum of member loads per step, p_g = mean
  // processing time; resource cost per group replica is the member mean.
  size_t window = std::numeric_limits<size_t>::max();
  for (const auto& load : loads) {
    window = std::min(window, load.size());
  }
  std::vector<JobSpec> group_specs(groups);
  std::vector<JobMetrics> group_metrics(groups);
  std::vector<std::vector<double>> group_loads(groups, std::vector<double>(window, 0.0));
  for (size_t g = 0; g < groups; ++g) {
    JobSpec& spec = group_specs[g];
    spec.name = "group-" + std::to_string(g);
    double p_sum = 0.0;
    double cpu_sum = 0.0;
    double mem_sum = 0.0;
    double priority_sum = 0.0;
    double slo = std::numeric_limits<double>::infinity();
    double percentile = 0.0;
    uint32_t current = 0;
    for (const size_t i : members[g]) {
      for (size_t k = 0; k < window; ++k) {
        group_loads[g][k] += loads[i][k];
      }
      const double p = metrics[i].processing_time > 0.0 ? metrics[i].processing_time
                                                        : job_specs[i].processing_time;
      p_sum += p;
      cpu_sum += job_specs[i].cpu_per_replica;
      mem_sum += job_specs[i].mem_per_replica;
      priority_sum += job_specs[i].priority;
      slo = std::min(slo, job_specs[i].slo);
      percentile = std::max(percentile, job_specs[i].percentile);
      current += metrics[i].ready_replicas + metrics[i].starting_replicas;
    }
    const double count = static_cast<double>(members[g].size());
    spec.processing_time = p_sum / count;
    spec.cpu_per_replica = cpu_sum / count;
    spec.mem_per_replica = mem_sum / count;
    spec.priority = priority_sum / count;
    spec.slo = slo;
    spec.percentile = percentile;
    spec.parallel_queues = count;  // no pooling across the member routers
    group_metrics[g].ready_replicas = std::max<uint32_t>(current, 1);
    group_metrics[g].processing_time = spec.processing_time;
  }

  const ScalingAction group_action =
      SolveFlat(group_specs, group_metrics, group_loads, resources,
                HashCombine(solve_seed, 0x6007u));

  // Distribute each group's replicas to members in proportion to their
  // capacity demand (peak predicted load x processing time), one minimum,
  // then refine with the integer exchange on the group's own sub-problem --
  // proportional-to-load splitting ignores the nonlinear queueing economies
  // the exchange sees. Each group touches only its own members, so the groups
  // fan out across the thread pool; results are written at each group's own
  // indices and are bit-identical to the serial loop.
  struct GroupSplit {
    std::vector<uint32_t> replicas;  // members[g] order
    double drop_rate = 0.0;
  };
  const std::vector<GroupSplit> splits = ParallelMap(
      groups,
      [&](size_t g) {
        GroupSplit split;
        const uint32_t budget = group_action.replicas[g];
        const size_t count = members[g].size();
        std::vector<double> weight(count);
        double weight_sum = 0.0;
        for (size_t k = 0; k < count; ++k) {
          const size_t i = members[g][k];
          double peak = 0.0;
          for (const double v : loads[i]) {
            peak = std::max(peak, v);
          }
          weight[k] = peak * job_specs[i].processing_time + 1e-6;
          weight_sum += weight[k];
        }
        split.replicas.assign(count, 1);
        if (!group_action.drop_rates.empty()) {
          split.drop_rate = group_action.drop_rates[g];
        }
        uint32_t assigned = 0;
        std::vector<double> remainder(count);
        for (size_t k = 0; k < count; ++k) {
          const double share = budget * weight[k] / weight_sum;
          split.replicas[k] = static_cast<uint32_t>(std::max(1.0, std::floor(share)));
          remainder[k] = share - std::floor(share);
          assigned += split.replicas[k];
        }
        // Hand out any leftover replicas by largest fractional share.
        while (assigned < budget) {
          size_t best = 0;
          for (size_t k = 1; k < remainder.size(); ++k) {
            if (remainder[k] > remainder[best]) {
              best = k;
            }
          }
          ++split.replicas[best];
          remainder[best] = -1.0;
          ++assigned;
        }

        std::vector<JobContext> member_contexts;
        double group_cpu = 0.0;
        double group_mem = 0.0;
        for (size_t k = 0; k < count; ++k) {
          const size_t i = members[g][k];
          JobContext context;
          context.spec = job_specs[i];
          if (metrics[i].processing_time > 0.0) {
            context.spec.processing_time = metrics[i].processing_time;
          }
          context.predicted_load = loads[i];
          member_contexts.push_back(std::move(context));
          group_cpu += job_specs[i].cpu_per_replica * split.replicas[k];
          group_mem += job_specs[i].mem_per_replica * split.replicas[k];
        }
        ClusterObjectiveConfig member_config = MakeObjectiveConfig();
        member_config.max_replicas_per_job = static_cast<double>(budget);
        ClusterObjective member_objective(std::move(member_contexts),
                                          ClusterResources{group_cpu, group_mem},
                                          member_config);
        const std::vector<double> no_drops(count, 0.0);
        ExchangePolish(member_objective, split.replicas, no_drops,
                       ClusterResources{group_cpu, group_mem});
        return split;
      },
      config_.solve_parallelism);

  ScalingAction action;
  action.replicas.assign(j, 1);
  action.drop_rates.assign(j, 0.0);
  for (size_t g = 0; g < groups; ++g) {
    for (size_t k = 0; k < members[g].size(); ++k) {
      action.replicas[members[g][k]] = splits[g].replicas[k];
      action.drop_rates[members[g][k]] = splits[g].drop_rate;
    }
  }
  telemetry_.group_solves += groups;
  return action;
}

ScalingAction FaroAutoscaler::Decide(double now_s, const std::vector<JobSpec>& job_specs,
                                     const std::vector<JobMetrics>& metrics,
                                     const ClusterResources& resources) {
  ScopedWallSpan decide_span(config_.trace, kAutoscalerTid, "decide", "autoscaler");
  const SolverTelemetry before = telemetry_;
  std::vector<std::vector<double>> loads;
  {
    ScopedWallSpan forecast_span(config_.trace, kAutoscalerTid, "forecast", "autoscaler");
    loads = PredictLoads(job_specs, metrics);
  }
  // Every random choice inside a solve derives from this cycle seed, never
  // from shared mutable RNG state, so a fixed config seed gives bit-identical
  // decisions at any thread count.
  const uint64_t cycle_seed = HashCombine(config_.seed, ++decision_cycles_);
  const auto solve_start = std::chrono::steady_clock::now();
  // Arm the per-cycle solve deadline (degradation ladder). Off by default:
  // cycle_deadline_enabled_ stays false and nothing below consults the clock.
  cycle_deadline_enabled_ = config_.solve_deadline_s > 0.0;
  if (cycle_deadline_enabled_) {
    cycle_deadline_ = solve_start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                                        std::chrono::duration<double>(config_.solve_deadline_s));
  }
  ScalingAction action;
  if (config_.hierarchical_groups > 1 && job_specs.size() > config_.hierarchical_groups &&
      job_specs.size() > config_.hierarchical_threshold) {
    action = SolveHierarchical(job_specs, metrics, loads, resources, cycle_seed);
  } else {
    action = SolveFlat(job_specs, metrics, loads, resources, cycle_seed);
  }
  const double solve_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - solve_start).count();
  // Remember the capacity the target was solved for: FastReact's
  // capacity-change trigger compares against it. (Re-issuing missed
  // scale-ups is no longer the policy's job: the reconciling actuator in
  // src/actuate/ repairs the fleet against the published desired state.)
  last_solve_cpu_ = resources.cpu;
  ++telemetry_.cycles;
  telemetry_.solve_seconds_total += solve_seconds;
  telemetry_.solve_seconds_max = std::max(telemetry_.solve_seconds_max, solve_seconds);
  CyclesCounter().Add(1);
  EvaluationsCounter().Add(telemetry_.objective_evaluations - before.objective_evaluations);
  StartsCounter().Add(telemetry_.starts_launched - before.starts_launched);
  SolveSecondsHistogram().Record(solve_seconds);
  if (config_.audit != nullptr) {
    // Per-cycle decision audit record. Deterministic fields only: wall-clock
    // solve time is deliberately excluded so the JSONL is byte-identical at
    // any thread count.
    DecisionAuditRecord record;
    record.label = config_.audit_label;
    record.time_s = now_s;
    record.cycle = decision_cycles_;
    record.num_jobs = job_specs.size();
    for (const std::vector<double>& load : loads) {
      double peak = 0.0;
      double sum = 0.0;
      for (const double v : load) {
        peak = std::max(peak, v);
        sum += v;
      }
      record.forecast_peak_total += peak;
      record.forecast_mean_total += load.empty() ? 0.0 : sum / static_cast<double>(load.size());
    }
    // Degradation-ladder rung taken this cycle, from the telemetry deltas.
    if (telemetry_.fallback_heuristic > before.fallback_heuristic) {
      record.rung = "heuristic";
    } else if (telemetry_.fallback_warm > before.fallback_warm) {
      record.rung = "warm_rescale";
    } else {
      record.rung = "solve";
    }
    record.hierarchical = config_.hierarchical_groups > 1 &&
                          job_specs.size() > config_.hierarchical_groups &&
                          job_specs.size() > config_.hierarchical_threshold;
    record.forecast_fallback = telemetry_.forecast_fallbacks > before.forecast_fallbacks;
    record.starts = telemetry_.starts_launched - before.starts_launched;
    record.evaluations = telemetry_.objective_evaluations - before.objective_evaluations;
    record.deadline_misses = telemetry_.deadline_misses - before.deadline_misses;
    for (const uint32_t r : action.replicas) {
      record.replicas_total += static_cast<double>(r);
    }
    if (!action.drop_rates.empty()) {
      double drop_sum = 0.0;
      for (const double d : action.drop_rates) {
        drop_sum += d;
      }
      record.drop_rate_mean = drop_sum / static_cast<double>(action.drop_rates.size());
    }
    config_.audit->Append(std::move(record));
  }
  return action;
}

std::optional<ScalingAction> FaroAutoscaler::FastReact(double now_s,
                                                       const std::vector<JobSpec>& job_specs,
                                                       const std::vector<JobMetrics>& metrics,
                                                       const ClusterResources& resources) {
  // Capacity-change trigger (degradation ladder): when the cluster shrank
  // materially since the last solve -- a node crashed or was drained -- the
  // standing allocation may be oversubscribed or badly shaped, and waiting
  // out the decision cadence means minutes of avoidable SLO damage. Force an
  // off-cadence re-solve now. Runs before the enable_hybrid gate: capacity
  // loss matters to ablation arms without the reactive loop too. Never fires
  // in a fault-free run (capacity only shrinks under injected node faults).
  if (config_.capacity_resolve_threshold > 0.0 && last_solve_cpu_ > 0.0 &&
      resources.cpu < last_solve_cpu_ * (1.0 - config_.capacity_resolve_threshold)) {
    ++telemetry_.capacity_resolves;
    if (config_.trace.on()) {
      config_.trace.SimInstant(kAutoscalerTid, "capacity_resolve", "autoscaler", now_s);
    }
    return Decide(now_s, job_specs, metrics, resources);
  }
  if (!config_.enable_hybrid) {
    return std::nullopt;
  }
  if (last_reactive_up_.size() != metrics.size()) {
    last_reactive_up_.assign(metrics.size(), -1e18);
  }
  double used_cpu = 0.0;
  for (size_t i = 0; i < metrics.size(); ++i) {
    used_cpu +=
        job_specs[i].cpu_per_replica * (metrics[i].ready_replicas + metrics[i].starting_replicas);
  }
  ScalingAction action;
  action.replicas.resize(metrics.size());
  bool changed = false;
  // Most-overloaded jobs get first claim on the free capacity.
  std::vector<size_t> order(metrics.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return metrics[a].overloaded_for > metrics[b].overloaded_for;
  });
  for (size_t i = 0; i < metrics.size(); ++i) {
    action.replicas[i] = metrics[i].ready_replicas + metrics[i].starting_replicas;
  }
  for (const size_t i : order) {
    if (metrics[i].overloaded_for < config_.overload_trigger_s ||
        now_s - last_reactive_up_[i] < config_.overload_trigger_s) {
      continue;
    }
    if (used_cpu + job_specs[i].cpu_per_replica > resources.cpu + 1e-9) {
      continue;
    }
    ++action.replicas[i];
    used_cpu += job_specs[i].cpu_per_replica;
    last_reactive_up_[i] = now_s;
    changed = true;
  }
  // Missed scale-ups are repaired by the reconciling actuator (src/actuate/),
  // which re-issues the fleet's shortfall against the published desired state
  // with per-job backoff. The engines fold its repair count into
  // telemetry_.actuation_retries at Finish, so the solver CSV column keeps
  // its historical meaning.
  if (!changed) {
    return std::nullopt;
  }
  return action;
}

}  // namespace faro
