// Table 8: large-scale workloads. 20 jobs over 70 replicas in "cluster"
// (noisy) mode, and 100 jobs over 320 replicas in simulation mode (where
// Faro's hierarchical optimisation with G = 10 carries the solve).
//
// Alongside the paper's quality metrics the tables report the Stage-2 solve
// cost (wall-clock per decision cycle and objective evaluations), and a final
// section A/B-compares the multi-start + parallel-group solve driver against
// the legacy serial single-start path at the largest job count.

#include <cctype>
#include <cstdio>

#include <string>

#include "bench/bench_util.h"
#include "src/sim/harness.h"

namespace faro {
namespace {

std::string PolicySlug(const char* name) {
  std::string slug;
  for (const char* c = name; *c != '\0'; ++c) {
    if (*c == '/' || *c == '-' || *c == ' ') {
      slug.push_back('_');
    } else {
      slug.push_back(static_cast<char>(std::tolower(*c)));
    }
  }
  return slug;
}

void RunScale(BenchJson& json, size_t num_jobs, double capacity, bool noisy,
              size_t epochs) {
  ExperimentSetup setup;
  setup.num_jobs = num_jobs;
  setup.capacity = capacity;
  setup.right_size_replicas = capacity;
  setup.trials = BenchTrials(noisy ? 2 : 1);
  // Raced sweeps get 2x trial headroom: losers stop at the 2-trial minimum,
  // surviving arms sharpen their estimate (the cap is a bound, not the spend).
  setup.race.max_trials = 2 * setup.trials;
  if (!noisy) {
    setup.processing_jitter = 0.0;
    setup.cold_start_jitter_s = 0.0;
  }
  const PreparedWorkload workload = PrepareWorkload(setup);
  const auto predictor = TrainPredictor(workload, setup.seed, epochs);

  std::printf("\n-- %zu jobs, %.0f replicas (%s mode) --\n", num_jobs, capacity,
              noisy ? "cluster" : "simulation");
  std::printf("%-24s %-22s %-24s %-14s %-12s %-7s %-7s %-7s\n", "policy",
              "lost utility (SD)", "SLO violation rate (SD)", "solve ms/cyc", "evals/cyc",
              "queue", "cold", "drop");
  const std::vector<std::string> names = {"FairShare", "Oneshot", "AIAD",
                                          "MArk/Cocktail/Barista", "Faro-FairSum"};
  // Full sweep by default; with --race / FARO_RACE the policies race each
  // other and losing arms stop drawing trials once separated.
  RaceReport report;
  const std::vector<TrialAggregate> aggregates =
      RunAllPolicies(setup, workload, predictor, names, nullptr, &report);
  for (const TrialAggregate& agg : aggregates) {
    std::printf(
        "%-24s %6.2f (%.2f)         %6.3f (%.3f)          %9.2f      %9.0f    %-7.2f %-7.2f "
        "%-7.2f\n",
        agg.policy.c_str(), agg.lost_utility_mean, agg.lost_utility_sd,
        agg.violation_rate_mean, agg.violation_rate_sd, agg.solve_ms_per_cycle_mean,
        agg.solver_evals_per_cycle_mean,
        agg.lost_by_cause_mean[CauseIndex(LossCause::kQueueWait)],
        agg.lost_by_cause_mean[CauseIndex(LossCause::kColdStart)],
        agg.lost_by_cause_mean[CauseIndex(LossCause::kDropAdmission)]);
    const std::string prefix =
        "scale" + std::to_string(num_jobs) + "_" + PolicySlug(agg.policy.c_str());
    json.Set(prefix + "_lost_utility", agg.lost_utility_mean);
    json.Set(prefix + "_violation_rate", agg.violation_rate_mean);
    // Causal decomposition of the lost utility (enum order; sums to the lost
    // utility up to trial averaging) plus the SLO burn-alert totals.
    for (size_t c = 0; c < kNumLossCauses; ++c) {
      json.Set(prefix + "_attr_" + LossCauseName(c), agg.lost_by_cause_mean[c]);
    }
    json.Set(prefix + "_burn_alerts_fast", agg.burn_alerts_fast_mean);
    json.Set(prefix + "_burn_alerts_slow", agg.burn_alerts_slow_mean);
  }
  if (report.raced) {
    const std::string prefix = "scale" + std::to_string(num_jobs) + "_race";
    std::printf("race: winner %s, trials %llu/%llu (saved %llu), arms pruned %llu\n",
                report.winner_policy.c_str(),
                static_cast<unsigned long long>(report.telemetry.evaluations_spent),
                static_cast<unsigned long long>(report.telemetry.evaluations_spent +
                                                report.telemetry.evaluations_saved),
                static_cast<unsigned long long>(report.telemetry.evaluations_saved),
                static_cast<unsigned long long>(report.telemetry.arms_pruned));
    json.Set(prefix + "_trials_spent",
             static_cast<double>(report.telemetry.evaluations_spent));
    json.Set(prefix + "_trials_saved",
             static_cast<double>(report.telemetry.evaluations_saved));
    json.Set(prefix + "_winner", report.winner_policy);
  }
}

// A/B: the multi-start driver with parallel hierarchical groups vs the legacy
// serial single-start COBYLA path, on the largest (hierarchical) workload.
// One trial with the trial loop forced serial so the solver fan-out owns the
// thread pool -- the shape a production control loop runs in.
void RunSolverComparison(BenchJson& json, size_t num_jobs, double capacity,
                         size_t epochs) {
  ExperimentSetup setup;
  setup.num_jobs = num_jobs;
  setup.capacity = capacity;
  setup.right_size_replicas = capacity;
  setup.trials = 1;
  setup.threads = 1;
  setup.processing_jitter = 0.0;
  setup.cold_start_jitter_s = 0.0;
  const PreparedWorkload workload = PrepareWorkload(setup);
  const auto predictor = TrainPredictor(workload, setup.seed, epochs);

  // Two-way A/B: legacy serial single-start vs the BAI racing multi-start
  // driver (the production default). The committed `lost_utility_multistart`
  // / `solve_ms_multistart` keys track the production driver, so CI keeps
  // asserting its quality.
  FaroConfig serial;
  serial.multistart_starts = 1;     // legacy single-start path
  serial.warm_start_cache = false;  // no cross-cycle reuse
  serial.solve_parallelism = 1;     // groups solved one after another
  FaroConfig racing;  // defaults: BAI racing multi-start

  struct Row {
    const char* label;
    const char* key;
    const FaroConfig* overrides;
  };
  const Row rows[] = {{"serial single-start", "serial", &serial},
                      {"multi-start + BAI racing", "multistart", &racing}};
  std::printf("\n-- solve cost, %zu jobs, %.0f replicas: racing vs serial --\n",
              num_jobs, capacity);
  std::printf("%-28s %-14s %-12s %-12s %-14s\n", "solver path", "solve ms/cyc",
              "evals/cyc", "lost util", "mean utility");
  double serial_ms = 0.0;
  double racing_ms = 0.0;
  for (const Row& row : rows) {
    const TrialAggregate agg =
        RunTrials(setup, workload, "Faro-FairSum", predictor, row.overrides);
    const double utility = static_cast<double>(num_jobs) - agg.lost_utility_mean;
    std::printf("%-28s %9.2f      %9.0f    %8.2f     %9.2f\n", row.label,
                agg.solve_ms_per_cycle_mean, agg.solver_evals_per_cycle_mean,
                agg.lost_utility_mean, utility);
    json.Set(std::string("lost_utility_") + row.key, agg.lost_utility_mean);
    json.Set(std::string("solve_ms_") + row.key, agg.solve_ms_per_cycle_mean);
    json.Set(std::string("solver_evals_") + row.key, agg.solver_evals_per_cycle_mean);
    if (row.overrides == &serial) {
      serial_ms = agg.solve_ms_per_cycle_mean;
    } else {
      racing_ms = agg.solve_ms_per_cycle_mean;
      json.Set("racing_evals_saved_per_cycle", agg.solver_race_evals_saved_per_cycle_mean);
      json.Set("racing_starts_pruned_per_cycle", agg.solver_starts_pruned_per_cycle_mean);
      json.Set("racing_rounds_per_cycle", agg.solver_race_rounds_per_cycle_mean);
    }
  }
  if (racing_ms > 0.0) {
    std::printf("per-cycle solve speedup vs serial: %.2fx\n", serial_ms / racing_ms);
    json.Set("solve_speedup", serial_ms / racing_ms);
  }
}

}  // namespace
}  // namespace faro

int main(int argc, char** argv) {
  faro::BenchObs obs(argc, argv);
  faro::PrintHeader("Table 8: large-scale workloads");
  faro::RunScale(obs.json(), 20, 70.0, /*noisy=*/true,
                 /*epochs=*/faro::FastBench() ? 3 : 8);
  const size_t large_jobs = faro::FastBench() ? 40 : 100;
  const double large_capacity = faro::FastBench() ? 130.0 : 320.0;
  faro::RunScale(obs.json(), large_jobs, large_capacity, /*noisy=*/false,
                 /*epochs=*/faro::FastBench() ? 2 : 5);
  faro::RunSolverComparison(obs.json(), large_jobs, large_capacity,
                            /*epochs=*/faro::FastBench() ? 2 : 5);
  return 0;
}
